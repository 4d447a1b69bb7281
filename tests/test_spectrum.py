"""Spectral radius bounds, character polynomials, and spectrum geometry."""

import math
import os
import subprocess
import sys
import time
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import natspec
from natspec import spectrum
from natspec.angles import GeneratorBasis
from natspec.errors import BudgetExceededError
from natspec.measures import DiscreteMeasure, convolve, make_theta1, unit_roots
from natspec.sampling import default_rng, random_discrete
from scipy.spatial import cKDTree

from natspec.spectrum import (MAX_DISK_POINTS, CharacterPolynomial, _nearest_disk_distances,
                              char_polynomial, character_values, covering_radius,
                              disk_grid, disk_grid_shape, disk_hausdorff, fekete_bound,
                              restrict, torus_grid_within, torus_max)
from oracles import character_value, hausdorff


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


def test_torus_max_of_point_masses_stays_below_the_upper_bound(basis):
    # |p| is |w| everywhere on the torus, and the rounded grid value used to
    # come out an ulp above it: the lower end of the bracket must not
    rng = np.random.default_rng(2000)
    for _ in range(2000):
        w = complex(*rng.normal(size=2)) * 10.0 ** rng.uniform(-3, 3)
        point = DiscreteMeasure.from_atoms(basis, [(basis.generator("a"), w)])
        lower = torus_max(char_polynomial(point), 128)
        assert 0.0 < lower <= abs(mpmath.mpc(w.real, w.imag))
        assert lower <= fekete_bound(point, 2).final_bound
        assert lower <= fekete_bound(point).final_bound


def test_torus_max_of_tiny_weights(basis):
    # |p|**2 underflows unless the weights are rescaled by a power of two
    # first; the bound must stay valid and not drop to zero
    tiny = DiscreteMeasure.from_atoms(basis, [(basis.generator("a"), 1e-170)])
    assert 0.0 <= torus_max(char_polynomial(tiny), 16) <= 1e-170
    for w in (1e-170, 1e-300, 5e-324):
        pair = DiscreteMeasure.from_atoms(basis, [(basis.zero(), w),
                                                  (basis.half_turn() + basis.generator("a"), w)])
        assert torus_max(char_polynomial(pair), 16) == pytest.approx(2 * w, rel=1e-12, abs=0.0)


def test_torus_max_of_huge_weights(basis):
    # |p|**2 overflows on the grid unless the weights are rescaled first
    pair = DiscreteMeasure.from_atoms(basis, [(basis.zero(), 1e200),
                                              (basis.half_turn() + basis.generator("a"), 1e200)])
    assert torus_max(char_polynomial(pair), 16) == pytest.approx(2e200, rel=1e-12, abs=0.0)
    # character_values evaluates on rescaled weights and returns unscaled values
    for small in (1e-10, 1e190):
        lopsided = DiscreteMeasure.from_atoms(basis, [(basis.zero(), 1e200),
                                                      (basis.generator("a"), small)])
        sample = character_values(char_polynomial(lopsided), 16)
        assert sample.size == 16 and np.all(np.isfinite(sample))
        assert np.all(np.abs(sample) <= (1e200 + small) * (1 + 1e-12))
        assert np.max(np.abs(sample)) == pytest.approx(1e200 + small, rel=1e-12)
    huge = DiscreteMeasure.from_atoms(basis, [(basis.zero(), 1e308),
                                              (basis.generator("a"), 1e308)])
    with pytest.raises(ValueError, match="would not be finite"):
        torus_max(char_polynomial(huge), 16)


def test_fekete_bound_of_tiny_weights(basis):
    # squaring 1e-170 underflows to zero, which certified a zero upper bound
    w = 1e-170
    mu = DiscreteMeasure.from_atoms(basis, [(basis.zero(), w),
                                            (basis.half_turn() + basis.generator("a"), w)])
    report = fekete_bound(mu, k_max=6)
    with mpmath.workdps(30):
        g = mpmath.mpf(basis.values[basis.names.index("a")])
        sup = max(abs(mpmath.mpf(w) * (1 + mpmath.expj(-n * (mpmath.pi + g))))
                  for n in range(-256, 257))
    assert report.final_bound > 0.0
    assert all(r >= sup for _, r in report.entries)
    assert len(report.entries) == 7


def test_fekete_bound_rejects_infinite_norm(basis):
    huge = DiscreteMeasure.from_atoms(basis, [(basis.zero(), 1e308),
                                              (basis.half_turn(), 1e308)])
    with pytest.raises(ValueError, match="not finite"):
        fekete_bound(huge)


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
    # up to 300 terms, past one BLAS block of 128; entries come from a drawn
    # seed so that large polynomials stay cheap to generate
    order = draw(st.integers(1, 12))
    dims = draw(st.integers(0, 4))
    n_terms = draw(st.one_of(st.integers(1, 4), st.integers(100, 300)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return CharacterPolynomial(
        order,
        tuple(int(m) for m in rng.integers(0, order, n_terms)),
        tuple(tuple(int(e) for e in row) for row in rng.integers(-3, 4, (n_terms, dims))),
        tuple(complex(re, im) for re, im in rng.integers(-1000, 1001, (n_terms, 2)) / 1000),
        tuple(f"g{i}" for i in range(dims)))


@settings(max_examples=30, deadline=None)
@given(character_polynomials(), st.sampled_from((16, 24)))
def test_character_values_follow_reference_order(p, grid):
    # t-major, then the grid^dims lattice in C order, against the scalar route
    values = character_values(p, grid)
    shape = (p.order,) + (grid,) * p.dims
    assert values.shape == (math.prod(shape),)
    if values.size * p.n_terms <= 12 * 24 ** 3 * 4:
        # up to the cost of the largest 4-term, 3-axis draw: every point
        points = list(np.ndindex(*shape))
    else:
        # too slow point by point: in every torsion class, each index of each
        # axis at least once, so a fault along one lattice row cannot hide
        rng = np.random.default_rng(values.size)
        points = [(t, *idx) for t in range(p.order)
                  for idx in zip(*(rng.permutation(grid) for _ in range(p.dims)))]
    ref = [character_value(p, t, [2.0 * math.pi * int(j) / grid for j in idx])
           for t, *idx in points]
    flat = np.ravel_multi_index(tuple(np.array(points).T), shape)
    scale = sum(abs(c) for c in p.weights)
    assert np.max(np.abs(values[flat] - np.array(ref))) <= 1e-12 * scale
    # the torus maximum is the lattice maximum less the rounding allowance
    # (K + 8) u sum |c_j|; sqrt(re^2 + im^2) carries up to about 2u relative
    # error where abs() rounds once
    near = values[np.abs(values) >= np.max(np.abs(values)) * (1 - 1e-9)]
    top = max(abs(complex(v)) for v in near)
    allowance = (p.n_terms + 8) * 2.0 ** -53 * scale
    assert abs(torus_max(p, grid) - max(0.0, top - allowance)) \
        <= 2 * math.ulp(top)


_TWO_GENERATORS = GeneratorBasis.from_pairs((("a", math.sqrt(2)), ("b", math.sqrt(3))))


@st.composite
def small_measures(draw):
    # turns in multiples of 1/q for one q <= 6, so the torsion order is at
    # most 6; at most 6 atoms over at most 2 generators
    q = draw(st.integers(1, 6))
    dims = draw(st.integers(0, 2))
    atoms = draw(st.lists(
        st.tuples(st.integers(0, q - 1), st.lists(st.integers(-3, 3), min_size=dims,
                                                  max_size=dims),
                  st.integers(-1000, 1000), st.integers(-1000, 1000)),
        min_size=1, max_size=6))
    return DiscreteMeasure.from_atoms(_TWO_GENERATORS, [
        (_TWO_GENERATORS.angle(Fraction(k, q), coeffs + [0] * (2 - dims)),
         complex(re, im) / 1000) for k, coeffs, re, im in atoms])


def _lattice_max_mp(p: CharacterPolynomial, grid: int):
    """max |p| over the order x grid^dims lattice, each value summed in
    mpmath at 30 digits from the exact turns of its terms."""
    roots = {}
    best = mpmath.mpf(0)
    with mpmath.workdps(30):
        for t in range(p.order):
            for idx in np.ndindex(*(grid,) * p.dims):
                acc = mpmath.mpc(0)
                for m, row, c in zip(p.torsion, p.exponents, p.weights):
                    turns = (Fraction(m * t, p.order)
                             + Fraction(sum(e * int(j) for e, j in zip(row, idx)), grid)) % 1
                    if turns not in roots:
                        roots[turns] = mpmath.expjpi(2 * mpmath.mpf(turns.numerator)
                                                     / turns.denominator)
                    acc += mpmath.mpc(c.real, c.imag) * roots[turns]
                best = max(best, abs(acc))
    return best


@settings(max_examples=40, deadline=None)
@given(small_measures())
def test_torus_max_brackets_the_exact_lattice_maximum(mu):
    p = char_polynomial(mu)
    lower = torus_max(p, 16)
    top = _lattice_max_mp(p, 16)
    allowance = (p.n_terms + 8) * 2.0 ** -53 * sum(abs(c) for c in p.weights)
    # the allowance makes the value a lower bound; the computed lattice value
    # may itself round below the exact one by up to the allowance, so the
    # value lies within twice the allowance (and the last sqrt rounding)
    assert lower <= top
    assert lower >= top - 2 * allowance - 2 * math.ulp(float(top))


@settings(max_examples=20, deadline=None)
@given(character_polynomials(), st.sampled_from((16, 24)))
def test_character_values_refine_bitwise_under_grid_doubling(p, grid):
    # every point of the grid-g lattice is a point of the grid-2g lattice, and
    # its value must not depend on which lattice computed it
    assume(p.order * (2 * grid) ** p.dims <= 1 << 21)
    coarse = character_values(p, grid)
    fine = character_values(p, 2 * grid).reshape((p.order,) + (2 * grid,) * p.dims)
    shared = fine[(slice(None),) + (slice(None, None, 2),) * p.dims].ravel()
    assert np.array_equal(shared, coarse)


_THREAD_PROBE = """
import hashlib, numpy as np
from natspec.spectrum import CharacterPolynomial, character_values, torus_max
rng = np.random.default_rng(7)
for order, dims, grid, n_terms in ((2, 4, 16, 300), (2, 2, 256, 300), (2, 1, 2049, 300),
                                   (24, 4, 24, 6)):
    p = CharacterPolynomial(
        order, tuple(int(m) for m in rng.integers(0, order, n_terms)),
        tuple(tuple(int(e) for e in row) for row in rng.integers(-3, 4, (n_terms, dims))),
        tuple(complex(re, im) for re, im in rng.uniform(-1, 1, (n_terms, 2))),
        tuple(f"g{i}" for i in range(dims)))
    print(hashlib.sha256(character_values(p, grid).tobytes()).hexdigest(),
          repr(torus_max(p, grid)))
"""


def test_grid_values_ignore_blas_thread_count():
    # zgemm over more than 128 terms rounds differently with 1 and 2 threads;
    # the walker contracts the terms in blocks so that its bits do not.  The
    # last polynomial has the benchmark's shape, several row tiles per class
    env = {**os.environ, "PYTHONPATH": str(Path(natspec.__file__).resolve().parents[1])}
    outputs = []
    for threads in ("1", "2"):
        env["OPENBLAS_NUM_THREADS"] = threads
        proc = subprocess.run([sys.executable, "-c", _THREAD_PROBE], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert len(outputs[0].splitlines()) == 4


def test_grid_factors_stay_small_at_one_free_axis():
    # with one free axis the left factor spans the whole grid: 128 terms x
    # 2^16 points would be 128 MiB of factor rows, so they are built in chunks
    p = CharacterPolynomial(1, (0,) * 300, tuple((e,) for e in range(-150, 150)),
                            (1 / 300,) * 300, ("a",))
    tracemalloc.start()
    try:
        values = character_values(p, 1 << 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 << 20
    # every chunk, against a term-by-term sum of exponentials
    theta = 2.0 * np.pi * np.arange(1 << 16) / (1 << 16)
    ref = sum(np.exp(1j * e * theta) for e in range(-150, 150)) / 300
    assert np.max(np.abs(values - ref)) <= 1e-12


def _untiled_values(p: CharacterPolynomial, grid: int) -> np.ndarray:
    """character_values of p with one matmul per class and block of 128
    terms over all of the class's rows: no row tiles, no class groups.  The
    root indices are sum_a e_a j_a mod grid over explicit lattice points."""
    left = (p.dims + 1) // 2
    size = grid if p.dims else 1
    roots = unit_roots(np.arange(size), size)
    exponents = np.asarray(p.exponents, dtype=np.int64).reshape(p.n_terms, p.dims)

    def factor(axes):
        points = np.array(list(np.ndindex(*(grid,) * len(axes))), dtype=np.int64)
        return roots[(exponents[:, axes] @ points.reshape(len(points), -1).T) % size]

    lhs, right = factor(list(range(left))), factor(list(range(left, p.dims)))
    weights, torsion = np.asarray(p.weights), np.asarray(p.torsion)
    out = []
    for t in range(p.order):
        rhs = (weights * unit_roots((torsion * t) % p.order, p.order))[:, None] * right
        if p.dims == 1:  # as the walker does, so that numpy calls zgemm
            rhs = np.hstack((rhs, np.zeros_like(rhs)))
        acc = lhs[:128].T @ rhs[:128]
        for start in range(128, p.n_terms, 128):
            acc += lhs[start:start + 128].T @ rhs[start:start + 128]
        out.append(acc[:, :right.shape[1]].ravel())
    return np.concatenate(out)


def _random_polynomial(order, dims, n_terms, seed):
    rng = np.random.default_rng(seed)
    return CharacterPolynomial(
        order, tuple(int(m) for m in rng.integers(0, order, n_terms)),
        tuple(tuple(int(e) for e in row) for row in rng.integers(-40, 41, (n_terms, dims))),
        tuple(complex(re, im) for re, im in rng.uniform(-1, 1, (n_terms, 2))),
        tuple(f"g{i}" for i in range(dims)))


@pytest.mark.parametrize("tile_bytes", [None, 3000])
@pytest.mark.parametrize("order, dims, grid, n_terms", [
    (5, 0, 16, 150), (700, 0, 16, 150), (3, 1, 37, 150), (300, 1, 16, 150),
    (300, 2, 16, 3), (2, 4, 17, 150)],
    ids=["5-0-16", "700-0-16", "3-1-37", "300-1-16", "300-2-16-3", "2-4-17"])
def test_row_tiles_match_untiled_products_bitwise(monkeypatch, tile_bytes, order, dims, grid,
                                                  n_terms):
    # 150 terms make two term blocks; at 17^2 = 289 left rows the default
    # tile holds 113 rows (three tiles of 96 or 97), and 3000 bytes make
    # tiles of 3 or 4 rows and one class per group.  Without free axes a
    # group's classes, 218 by default, go in one stacked product; 3 terms on
    # 16 x 16 points make chunks of 128 classes in groups of 300 (of 1 in
    # groups of 3 at 3000 bytes)
    if tile_bytes is not None:
        monkeypatch.setattr(spectrum, "_TILE_BYTES", tile_bytes)
    p = _random_polynomial(order, dims, n_terms, order + dims)
    reference = _untiled_values(p, grid)
    values = character_values(p, grid)
    assert values.shape == (order * grid ** dims,)
    assert np.array_equal(values, reference)
    top = math.sqrt(float(np.max(reference.real ** 2 + reference.imag ** 2)))
    total = sum(abs(c) for c in p.weights)
    assert torus_max(p, grid) == top - (n_terms + 8) * 2.0 ** -53 * total


def test_torus_max_without_free_axes_takes_one_product_per_chunk_of_classes():
    p = _random_polynomial(1 << 16, 0, 6, 7)
    elapsed = []
    for _ in range(3):
        started = time.perf_counter()
        value = torus_max(p, 16)
        elapsed.append(time.perf_counter() - started)
    assert min(elapsed) < 0.1  # 0.6 s with one product per class
    reference = _untiled_values(p, 16)
    top = math.sqrt(float(np.max(reference.real ** 2 + reference.imag ** 2)))
    assert value == top - (6 + 8) * 2.0 ** -53 * sum(abs(c) for c in p.weights)
    assert np.array_equal(character_values(p, 16), reference)


def test_torus_walker_charges_its_point_budget(basis):
    # the benchmark's largest lower bound, 24 torsion classes x 24^4 points, fits
    p = CharacterPolynomial(24, (0, 1, 5), ((1, 0, 0, 0), (0, 1, 1, 0), (0, 0, 1, -2)),
                            (0.5, 0.25j, -0.25), ("a", "b", "c", "d"))
    assert 0.0 < torus_max(p, 24) <= 1.0 + 1e-12
    with pytest.raises(BudgetExceededError, match="torsion classes"):
        torus_max(p, 32)
    # the verifier's grid choice stays within the same limit
    assert torus_grid_within(p, 2_000_000) == 16
    assert torus_grid_within(replace(p, order=1), 2_000_000) == 32
    assert torus_grid_within(replace(p, order=1), 10 ** 12) == 64
    # an lcm of about 10^15 must stop before any table of roots is built
    mu = DiscreteMeasure.from_atoms(basis, [
        (basis.from_turns(Fraction(1, 1000003)), 0.25),
        (basis.from_turns(Fraction(1, 999983)) + basis.generator("a"), 0.25),
        (basis.from_turns(Fraction(1, 997)), 0.5)])
    p = char_polynomial(mu)
    assert p.order == 1000003 * 999983 * 997
    for run in (lambda: torus_max(p, 16), lambda: character_values(p, 16)):
        with pytest.raises(BudgetExceededError):
            run()


def test_spectrum_sample_of_sign_projector_is_binary(theta1):
    sample = character_values(char_polynomial(theta1), 64)
    assert set(np.round(sample, 12)) == {0.0 + 0j, 1.0 + 0j}


def test_spectrum_sample_of_point_mass_covers_circle(basis):
    point = DiscreteMeasure.from_atoms(basis, [(basis.generator("a"), 1.0)])
    sample = character_values(char_polynomial(point), 64)
    radii = np.abs(sample)
    assert np.max(np.abs(radii - 1.0)) < 1e-12
    circle = np.exp(2j * np.pi * np.arange(256) / 256)
    assert covering_radius(circle, sample) < 0.2


def test_spectrum_sample_of_pair_average_fills_disk(rho):
    sample = character_values(char_polynomial(rho), 512)
    gap = hausdorff(sample, disk_grid(1.0, 0.01))
    assert gap == pytest.approx(0.005537031006106562, abs=1e-9)
    assert gap < 0.01


def test_transform_closure_sample(theta0):
    points = theta0.transform(np.arange(-10, 11))
    assert set(np.round(points, 12)) == {0.0 + 0j, 1.0 + 0j}
    zero_only = theta0.transform(np.arange(0, 1))
    assert list(zero_only) == [1.0 + 0j]


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


def _tree_distances(points: np.ndarray, grid: np.ndarray) -> np.ndarray:
    tree = cKDTree(np.column_stack([grid.real, grid.imag]))
    return tree.query(np.column_stack([points.real, points.imag]), k=1)[0]


def _disk_probes(rng, radius: float, tol: float) -> np.ndarray:
    """Random and adversarial points for the disk grid of (radius, tol): grid
    points, grid points off by an ulp, angle and ring midpoints, the center,
    points just inside the first ring and points out to four radii."""
    n_r, n_ang = disk_grid_shape(tol)
    grid = disk_grid(radius, tol)
    m = 300
    on = grid[rng.integers(0, len(grid), m)]
    ring = rng.integers(0, n_r, m)
    ray = rng.integers(0, n_ang, m) + rng.choice([0.0, 0.5], m)
    at = lambda r, k: r * np.exp(2j * np.pi * k / n_ang)
    return np.concatenate([
        radius * 1.3 * (rng.uniform(-1, 1, m) + 1j * rng.uniform(-1, 1, m)),
        on, on * (1 + 1e-16), on * (1 - 1e-16), on * (1 + 2.0 ** -52), on * (1 - 2.0 ** -53),
        at(radius * (ring + 1) / n_r, ray), at(radius * (ring + 1.5) / n_r, ray),
        at(radius * rng.uniform(0, 1.0 / n_r, m), ray), at(radius * rng.uniform(1, 4, m), ray),
        np.array([0j, complex(-0.0, -0.0), complex(0.0, -0.0), 0.5 * radius / n_r]),
    ])


@pytest.mark.parametrize("radius, tol", [
    (1.0, 0.05), (2.37, 0.1), (0.6, 0.013), (1.0, 1.0), (5.0, 3.0), (1e-3, 0.2),
    (3.0e5, 0.07), (2.0 ** -399, 0.05), (2.0 ** 399, 0.05)])
def test_nearest_disk_distances_match_kdtree_bitwise(radius, tol):
    # tol 1.0 and 3.0 leave 7 and 3 rays; the extreme radii are the edges of
    # the closed form's range
    rng = np.random.default_rng(int(tol * 1000) + 7)
    grid = disk_grid(radius, tol)
    pts = _disk_probes(rng, radius, tol)
    got = _nearest_disk_distances(pts, grid, radius, *disk_grid_shape(tol))
    assert got.tobytes() == _tree_distances(pts, grid).tobytes()


def test_disk_hausdorff_equals_hausdorff_bitwise():
    rng = np.random.default_rng(3)
    huge = np.array([1e155 + 1e155j, 3e154, -1.3e154j, 1e20 + 3j, 0.5])
    for radius, tol in ((1.0, 0.05), (0.8, 1.0), (4.0, 3.0), (1.0, 0.3), (0.0, 0.05),
                        (1e153, 0.05), (2.0 ** -450, 0.1)):
        clouds = [_disk_probes(rng, radius, tol), huge, huge * radius,
                  radius * (rng.normal(size=500) + 1j * rng.normal(size=500))]
        for pts in clouds:
            assert disk_hausdorff(pts, radius, tol) == hausdorff(pts, disk_grid(radius, tol))
    with pytest.raises(ValueError, match="empty point set"):
        disk_hausdorff(np.array([], dtype=complex), 1.0)


@pytest.mark.parametrize("tol", [0.0, -0.1, math.inf, math.nan, 1e-6, 5e-324])
def test_disk_grid_refuses_unusable_tol(tol):
    with pytest.raises(ValueError, match="tol"):
        disk_grid(1.0, tol)
    with pytest.raises(ValueError, match="tol"):
        disk_hausdorff(np.array([0.5j]), 1.0, tol)


def test_disk_grid_point_limit():
    n_r, n_ang = disk_grid_shape(0.0018)
    assert (n_r, n_ang) == (1112, 3491) and n_r * n_ang + 1 <= MAX_DISK_POINTS
    assert disk_grid(1.0, 0.05).size == 1 + 40 * 126
    with pytest.raises(ValueError, match="more than"):
        disk_grid_shape(0.0017)


def test_coverage_grid_follows_tol():
    grids = [spectrum._coverage_grid(tol) for tol in (1e300, 0.2, 0.1, 0.05, 0.02)]
    assert grids == [64, 64, 128, 256, 512]
    # the finest tol that disk_grid_shape accepts asks for the largest grid
    # whose square lattice the walker still holds
    lo, hi = 0.0017, 0.0018
    for _ in range(60):
        mid = (lo + hi) / 2
        try:
            disk_grid_shape(mid)
            hi = mid
        except ValueError:
            lo = mid
    assert spectrum._coverage_grid(hi) ** 2 == spectrum._TORUS_POINT_LIMIT
    for tol in np.geomspace(hi, 1e3, 300):
        grid = spectrum._coverage_grid(tol)
        assert 64 <= grid <= 4096 and grid & (grid - 1) == 0
        assert grid >= min(4096, 8 / tol) and (grid == 64 or grid / 2 < 8 / tol)


def test_covering_radius_matches_brute_force_bitwise():
    # two routes: the KD-tree query against every pairwise distance, each
    # sqrt(dx*dx + dy*dy), on clouds with ties, clusters and a far outlier
    rng = np.random.default_rng(5)
    for trial in range(6):
        a = rng.normal(size=400) + 1j * rng.normal(size=400)
        b = np.concatenate([rng.normal(size=700) + 1j * rng.normal(size=700),
                            disk_grid(1.5, 0.3), 1e-9 * rng.normal(size=50), [40.0 + 3j]])
        if trial % 2:
            a = np.round(a, 1)  # many equal distances
        for ref, smp in ((a, b), (b, a)):
            dx = ref.real[:, None] - smp.real[None, :]
            dy = ref.imag[:, None] - smp.imag[None, :]
            brute = float(np.max(np.sqrt(np.min(dx * dx + dy * dy, axis=1))))
            assert covering_radius(ref, smp) == brute
