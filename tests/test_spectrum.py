"""Spectral radius bounds, character polynomials, and spectrum geometry."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from natspec.angles import GeneratorBasis
from natspec.measures import DiscreteMeasure, convolve, make_theta1
from natspec.sampling import default_rng, random_discrete
from natspec.spectrum import (CharacterPolynomial, char_polynomial, character_values,
                              covering_radius,
                              disk_grid, fekete_bound, hausdorff,
                              natural_spectrum_check, restrict, spectrum_sample,
                              torus_max, transform_closure_sample)


def test_fekete_bound_of_two_point_average(rho):
    report = fekete_bound(rho, k_max=4)
    assert report.final_bound == pytest.approx(1.0, abs=1e-12)
    assert len(report.entries) == 5 and not report.budget_hit
    bounds = [b for _, b in report.entries]
    for prev, nxt in zip(bounds, bounds[1:]):
        assert nxt <= prev + 1e-12


def test_fekete_bound_point_mass_is_exact(basis, theta0):
    point = DiscreteMeasure.from_atoms(basis, [(basis.zero(), -1.5j)])
    report = fekete_bound(point)
    assert report.final_bound == 1.5
    assert all(b == 1.5 for _, b in report.entries)
    assert fekete_bound(theta0).final_bound == 1.0


def test_fekete_bound_dominates_transform(basis):
    rng = default_rng(11)
    ns = np.arange(-256, 257)
    for _ in range(5):
        mu = random_discrete(rng, basis)
        bound = fekete_bound(mu, k_max=5).final_bound
        assert np.max(np.abs(mu.transform(ns))) <= bound + 1e-9


def test_char_polynomial_of_half_turn_point(basis):
    point = DiscreteMeasure.from_atoms(basis, [(basis.half_turn(), 1.0)])
    p = char_polynomial(point)
    assert p.order == 2 and p.torsion == (1,)
    assert p.exponents == ((),) and p.dim_names == ()
    assert p.weights == (1.0 + 0j,)


def test_char_polynomial_of_generator_pair(rho):
    p = char_polynomial(rho)
    assert p.order == 1 and p.torsion == (0, 0)
    assert set(p.exponents) == {(0, 1), (1, 0)}
    assert p.dim_names == ("a", "b")
    assert all(w == 0.5 for w in p.weights)


def test_char_polynomial_order_is_lcm_of_denominators(basis):
    mu = DiscreteMeasure.from_atoms(
        basis, [(basis.angle(Fraction(1, 3)), 1.0), (basis.angle(Fraction(1, 4)), 1.0)])
    p = char_polynomial(mu)
    assert p.order == 12
    assert set(p.torsion) == {4, 3}


def test_torus_max_of_pair_average(rho):
    value = torus_max(char_polynomial(rho), 128)
    assert 0.999 <= value <= 1.0 + 1e-9


def test_torus_max_of_scaled_point(basis):
    point = DiscreteMeasure.from_atoms(basis, [(basis.zero(), 0.25 - 0.5j)])
    assert torus_max(char_polynomial(point)) == pytest.approx(abs(0.25 - 0.5j), abs=1e-15)


def test_torus_max_of_tiny_weights(basis):
    # weight_scale()**2 underflows to zero, and the ascent step divided by it;
    # |p|**2 underflows too, so the bound stays valid but drops to zero
    tiny = DiscreteMeasure.from_atoms(basis, [(basis.generator("a"), 1e-170)])
    assert 0.0 <= torus_max(char_polynomial(tiny), 16) <= 1e-170


def test_torus_max_monotone_under_grid_doubling(basis):
    rng = default_rng(23)
    for _ in range(5):
        mu = random_discrete(rng, basis, n_atoms=3)
        p = char_polynomial(mu)
        coarse = torus_max(p, 32)
        fine = torus_max(p, 64)
        assert fine >= coarse - 1e-12


def test_restrict_folds_torsion_character_into_weights(basis, rho, theta1):
    shifted = convolve(rho, theta1)
    p = char_polynomial(shifted)
    assert p.order == 2 and set(p.torsion) == {0, 1}
    # the odd character turns the four signed atoms into the two-point average
    odd_part = restrict(p, 1, ["a", "b"])
    assert odd_part.order == 1 and set(odd_part.torsion) <= {0}
    assert set(odd_part.exponents) == {(0, 1), (1, 0)}
    assert all(w == 0.5 for w in odd_part.weights)
    assert 0.999 <= torus_max(odd_part, 64) <= 1.0 + 1e-9
    # the even character cancels them entirely
    even_part = restrict(p, 0, ["a", "b"])
    assert torus_max(even_part, 64) == 0.0
    on_a = restrict(char_polynomial(rho), 0, ["a"])
    assert on_a.dim_names == ("a",)
    assert set(on_a.exponents) == {(0,), (1,)}


def test_character_values_fill_grid(rho):
    values = character_values(char_polynomial(rho), 32)
    assert values.shape == (1024,)
    assert np.max(np.abs(values)) <= 1.0 + 1e-12
    # the averaged pair of free characters sweeps out the whole disk
    assert hausdorff(values, disk_grid(1.0, 0.1)) < 0.1


@st.composite
def character_polynomials(draw):
    order = draw(st.integers(1, 12))
    dims = draw(st.integers(0, 3))
    n_terms = draw(st.integers(1, 4))
    unit = st.integers(-1000, 1000).map(lambda k: k / 1000)
    return CharacterPolynomial(
        order,
        tuple(draw(st.integers(0, order - 1)) for _ in range(n_terms)),
        tuple(tuple(draw(st.integers(-3, 3)) for _ in range(dims)) for _ in range(n_terms)),
        tuple(complex(draw(unit), draw(unit)) for _ in range(n_terms)),
        tuple(f"g{i}" for i in range(dims)))


@settings(max_examples=30, deadline=None)
@given(character_polynomials(), st.sampled_from((16, 24)))
def test_character_values_follow_reference_order(p, grid):
    # t-major, then the grid^dims lattice in C order, against the scalar route
    values = character_values(p, grid)
    ref = [p.value(t, [2.0 * math.pi * j / grid for j in idx])
           for t in range(p.order) for idx in np.ndindex(*(grid,) * p.dims)]
    assert values.shape == (len(ref),)
    scale = sum(abs(c) for c in p.weights)
    assert np.max(np.abs(values - np.array(ref))) <= 1e-12 * scale
    # with no ascent the torus maximum is the lattice maximum; sqrt(re^2 + im^2)
    # carries up to about 2u relative error where abs() rounds once
    top = max(abs(complex(v)) for v in values)
    assert abs(torus_max(p, grid, refine_iters=0) - top) <= 2 * math.ulp(top)


def test_spectrum_sample_of_sign_projector_is_binary(theta1):
    sample = spectrum_sample(theta1, 64)
    assert set(np.round(sample.points, 12)) == {0.0 + 0j, 1.0 + 0j}


def test_spectrum_sample_of_point_mass_covers_circle(basis):
    point = DiscreteMeasure.from_atoms(basis, [(basis.generator("a"), 1.0)])
    sample = spectrum_sample(point, 64)
    radii = np.abs(sample.points)
    assert np.max(np.abs(radii - 1.0)) < 1e-12
    circle = np.exp(2j * np.pi * np.arange(256) / 256)
    assert covering_radius(circle, sample.points) < 0.2


def test_spectrum_sample_of_pair_average_fills_disk(rho):
    sample = spectrum_sample(rho, 512)
    gap = hausdorff(sample.points, disk_grid(1.0, 0.01))
    assert gap == pytest.approx(0.005537031006106562, abs=1e-9)
    assert gap < 0.01


def test_transform_closure_sample(theta0):
    points = transform_closure_sample(theta0, 10).points
    assert set(np.round(points, 12)) == {0.0 + 0j, 1.0 + 0j}
    zero_only = transform_closure_sample(theta0, 0).points
    assert list(zero_only) == [1.0 + 0j]


def test_natural_spectrum_check_on_sign_projector(theta1):
    report = natural_spectrum_check(theta1, N=1000, grid=64)
    assert report.passed and report.distance == 0.0
    assert report.n_character_points == 2
    assert report.n_transform_points == 2001


def test_disk_grid_geometry():
    grid = disk_grid(1.0, 0.05)
    assert grid.size == 5041
    assert np.max(np.abs(grid)) <= 1.0 + 1e-12
    doubled = disk_grid(2.0, 0.05)
    assert np.max(np.abs(doubled)) <= 2.0 + 1e-12
    assert np.max(np.abs(doubled)) > 1.9
    # every disk point is close to a grid point at the stated resolution
    probe = np.array([0.3 + 0.4j, -0.9j, 0.99 + 0j, 0.0 + 0j])
    assert covering_radius(probe, grid) <= 0.05


def test_point_set_distances():
    a = np.array([0j, 1j, 1.0 + 0j])
    assert covering_radius(a, a) == 0.0
    assert hausdorff(a, a) == 0.0
    assert hausdorff(np.array([0j]), np.array([1.0 + 0j])) == 1.0
    # covering radius is one-sided: a dense sample covers a sparse reference
    sparse = np.array([0j])
    dense = np.array([0j, 1.0 + 0j])
    assert covering_radius(sparse, dense) == 0.0
    assert covering_radius(dense, sparse) == 1.0
