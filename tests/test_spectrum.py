"""Spectral radius bounds, character lattice walks, and spectrum geometry."""

import itertools
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import natspec
from natspec import measures, spectrum
from natspec.angles import FRESH_GENERATOR_VALUES, GeneratorBasis
from natspec.blas import one_blas_thread
from natspec.errors import BudgetExceededError
from natspec.measures import (DiscreteMeasure, MixedMeasure, TrigPolyDensity, as_mixed,
                              parity_projections, transforms, unit_roots)
from natspec.sampling import default_rng, random_discrete, random_mixed
from scipy.spatial import cKDTree

from natspec.spectrum import (MAX_DISK_POINTS, character_values, covering_radius, disk_grid,
                              disk_grid_shape, fekete_bound, spectral_bracket, torus_max)
from oracles import (free_exponents, hausdorff, lattice_values, mp_transform,
                     mp_transform_value)


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
    assert report.final_bound == 1.5 == report.entries[0][1]
    # a later entry carries its squarings' rounding bound, a few ulps
    assert all(1.5 <= b <= 1.5 + 8 * math.ulp(1.5) for _, b in report.entries)
    # at the top of the float range no finite float bounds a later entry,
    # so the sequence ends after the first
    huge = fekete_bound(DiscreteMeasure.from_atoms(basis, [(basis.zero(), sys.float_info.max)]), 2)
    assert huge.entries == ((0, sys.float_info.max),) and not huge.budget_hit
    assert huge.final_bound == sys.float_info.max
    assert fekete_bound(theta0).final_bound == 1.0


def test_fekete_bound_dominates_transform(basis):
    rng = default_rng(11)
    ns = np.arange(-256, 257)
    for _ in range(5):
        mu = random_discrete(rng, basis)
        bound = fekete_bound(mu, k_max=5).final_bound
        assert np.max(np.abs(mu.transform(ns))) <= bound + 1e-9


def test_walker_reads_a_half_turn_point_as_one_torsion_row(basis):
    # torsion order den, torsion num, no free axis, the weight itself
    point = DiscreteMeasure.from_atoms(basis, [(basis.half_turn(), 1.0)])
    assert point.den == 2 and point.num.tolist() == [1]
    assert spectrum._exponents(point).shape == (1, 0)
    assert point.w.tolist() == [1.0 + 0j]


def test_walker_reads_a_generator_pair_as_two_free_axes(rho):
    assert rho.den == 1 and rho.num.tolist() == [0, 0]
    assert {tuple(row) for row in spectrum._exponents(rho).tolist()} == {(0, 1), (1, 0)}
    assert free_exponents(rho) == spectrum._exponents(rho).tolist()
    assert all(w == 0.5 for w in rho.w.tolist())


def test_walker_torsion_order_is_lcm_of_denominators(basis):
    mu = DiscreteMeasure.from_atoms(
        basis, [(basis.angle(Fraction(1, 3)), 1.0), (basis.angle(Fraction(1, 4)), 1.0)])
    assert mu.den == 12
    assert set(mu.num.tolist()) == {4, 3}


def test_torus_max_of_pair_average(rho):
    value = torus_max(rho, 128)
    assert 0.999 <= value <= 1.0 + 1e-9


def test_torus_max_of_scaled_point(basis):
    point = DiscreteMeasure.from_atoms(basis, [(basis.zero(), 0.25 - 0.5j)])
    assert torus_max(point) == pytest.approx(abs(0.25 - 0.5j), abs=1e-15)


def test_torus_max_of_point_masses_stays_below_the_upper_bound(basis):
    # |p| is |w| everywhere on the torus, and the rounded grid value used to
    # come out an ulp above it: the lower end of the bracket must not
    rng = np.random.default_rng(2000)
    for _ in range(2000):
        w = complex(*rng.normal(size=2)) * 10.0 ** rng.uniform(-3, 3)
        point = DiscreteMeasure.from_atoms(basis, [(basis.generator("a"), w)])
        lower = torus_max(point, 128)
        assert 0.0 < lower <= abs(mpmath.mpc(w.real, w.imag))
        assert lower <= fekete_bound(point, 2).final_bound
        assert lower <= fekete_bound(point).final_bound


def test_torus_max_of_tiny_weights(basis):
    # |p|**2 underflows unless the weights are rescaled by a power of two
    # first; the bound must stay valid and not drop to zero
    tiny = DiscreteMeasure.from_atoms(basis, [(basis.generator("a"), 1e-170)])
    assert 0.0 <= torus_max(tiny, 16) <= 1e-170
    for w in (1e-170, 1e-300, 5e-324):
        pair = DiscreteMeasure.from_atoms(basis, [(basis.zero(), w),
                                                  (basis.half_turn() + basis.generator("a"), w)])
        assert torus_max(pair, 16) == pytest.approx(2 * w, rel=1e-12, abs=0.0)


def test_torus_max_of_huge_weights(basis):
    # |p|**2 overflows on the grid unless the weights are rescaled first
    pair = DiscreteMeasure.from_atoms(basis, [(basis.zero(), 1e200),
                                              (basis.half_turn() + basis.generator("a"), 1e200)])
    assert torus_max(pair, 16) == pytest.approx(2e200, rel=1e-12, abs=0.0)
    # character_values evaluates on rescaled weights and returns unscaled values
    for small in (1e-10, 1e190):
        lopsided = DiscreteMeasure.from_atoms(basis, [(basis.zero(), 1e200),
                                                      (basis.generator("a"), small)])
        sample = character_values(lopsided, 16)
        assert sample.size == 16 and np.all(np.isfinite(sample))
        assert np.all(np.abs(sample) <= (1e200 + small) * (1 + 1e-12))
        assert np.max(np.abs(sample)) == pytest.approx(1e200 + small, rel=1e-12)
    huge = DiscreteMeasure.from_atoms(basis, [(basis.zero(), 1e308),
                                              (basis.generator("a"), 1e308)])
    with pytest.raises(ValueError, match="would not be finite"):
        torus_max(huge, 16)


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
        coarse = torus_max(mu, 32)
        fine = torus_max(mu, 64)
        assert fine >= coarse - 1e-12


def test_character_values_fill_grid(rho):
    values = character_values(rho, 32)
    assert values.shape == (1024,)
    assert np.max(np.abs(values)) <= 1.0 + 1e-12
    # the averaged pair of free characters sweeps out the whole disk
    assert hausdorff(values, disk_grid(1.0, 0.1)) < 0.1


_FOUR = GeneratorBasis.from_pairs(FRESH_GENERATOR_VALUES[:4])


def _measure(order, torsion, exponents, weights) -> DiscreteMeasure:
    """weights[j] at torsion[j] / order turns plus exponents[j] times the
    first generators of _FOUR; the weights at a repeated position are
    summed."""
    return DiscreteMeasure.from_atoms(_FOUR, [
        (_FOUR.angle(Fraction(int(m), order), tuple(row.tolist()) + (0,) * (4 - len(row))),
         complex(c)) for m, row, c in zip(torsion, exponents, weights)])


def _dims(d: DiscreteMeasure) -> int:
    """The free dimensions of d's character torus."""
    return len(free_exponents(d)[0]) if len(d) else 0


@st.composite
def torus_measures(draw):
    # a few atoms, or more than one BLAS block of 128 on one to four free
    # axes, whose exponents range widely enough that few positions repeat;
    # entries come from a drawn seed so that large measures stay cheap to
    # generate
    order = draw(st.integers(1, 12))
    large = draw(st.booleans())
    dims = draw(st.integers(1 if large else 0, 4))
    n_terms, span = (draw(st.integers(200, 300)), 300) if large else (draw(st.integers(1, 4)), 3)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    mu = _measure(order, rng.integers(0, order, n_terms),
                  rng.integers(-span, span + 1, (n_terms, dims)),
                  [complex(re, im) for re, im in rng.integers(-1000, 1001, (n_terms, 2)) / 1000])
    assert len(mu) > 128 or not large
    return mu


@settings(max_examples=30, deadline=None)
@given(torus_measures(), st.sampled_from((16, 24)))
def test_character_values_follow_reference_order(mu, grid):
    # t-major, then the grid^dims lattice in C order, against the scalar route
    values = character_values(mu, grid)
    shape = (mu.den,) + (grid,) * _dims(mu)
    assert values.shape == (math.prod(shape),)
    if values.size * len(mu) <= 12 * 24 ** 3 * 4:
        # up to the cost of the largest 4-atom, 3-axis draw: every point
        points = list(np.ndindex(*shape))
    else:
        # too slow point by point: in every torsion class, each index of each
        # axis at least once, so a fault along one lattice row cannot hide
        rng = np.random.default_rng(values.size)
        points = [(t, *idx) for t in range(mu.den)
                  for idx in zip(*(rng.permutation(grid) for _ in range(_dims(mu))))]
    ref = lattice_values(mu, points, grid)
    flat = np.ravel_multi_index(tuple(np.array(points).T), shape)
    scale = sum(abs(c) for c in mu.w.tolist())
    assert np.max(np.abs(values[flat] - np.array(ref))) <= 1e-12 * scale
    # the torus maximum is the lattice maximum less the rounding allowance
    # (K + 8) u sum |c_j|; sqrt(re^2 + im^2) carries up to about 2u relative
    # error where abs() rounds once
    near = values[np.abs(values) >= np.max(np.abs(values)) * (1 - 1e-9)]
    top = max(abs(complex(v)) for v in near)
    allowance = (len(mu) + 8) * 2.0 ** -53 * scale
    assert abs(torus_max(mu, grid) - max(0.0, top - allowance)) \
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


def _lattice_max_mp(d: DiscreteMeasure, grid: int):
    """max |d_hat| over the den x grid^dims lattice, each value summed in
    mpmath at 30 digits from the exact turns of its atoms."""
    roots = {}
    best = mpmath.mpf(0)
    atoms = list(zip(d.num.tolist(), free_exponents(d), d.w.tolist()))
    with mpmath.workdps(30):
        for t in range(d.den):
            for idx in np.ndindex(*(grid,) * _dims(d)):
                acc = mpmath.mpc(0)
                for m, row, c in atoms:
                    turns = (Fraction(m * t, d.den)
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
    lower = torus_max(mu, 16)
    top = _lattice_max_mp(mu, 16)
    allowance = (len(mu) + 8) * 2.0 ** -53 * sum(abs(c) for c in mu.w.tolist())
    # the allowance makes the value a lower bound; the computed lattice value
    # may itself round below the exact one by up to the allowance, so the
    # value lies within twice the allowance (and the last sqrt rounding)
    assert lower <= top
    assert lower >= top - 2 * allowance - 2 * math.ulp(float(top))


@settings(max_examples=20, deadline=None)
@given(torus_measures(), st.sampled_from((16, 24)))
def test_character_values_refine_bitwise_under_grid_doubling(mu, grid):
    # every point of the grid-g lattice is a point of the grid-2g lattice, and
    # its value must not depend on which lattice computed it
    dims = _dims(mu)
    assume(mu.den * (2 * grid) ** dims <= 1 << 21)
    coarse = character_values(mu, grid)
    fine = character_values(mu, 2 * grid).reshape((mu.den,) + (2 * grid,) * dims)
    shared = fine[(slice(None),) + (slice(None, None, 2),) * dims].ravel()
    assert np.array_equal(shared, coarse)


_THREAD_PROBE = """
import hashlib, numpy as np
from fractions import Fraction
from natspec.angles import FRESH_GENERATOR_VALUES, GeneratorBasis
from natspec.measures import DiscreteMeasure
from natspec.spectrum import character_values, spectral_bracket, torus_max
rng = np.random.default_rng(7)
basis = GeneratorBasis.from_pairs(FRESH_GENERATOR_VALUES[:4])
for order, dims, grid, span, n_terms in ((2, 4, 16, 3, 300), (2, 2, 256, 12, 300),
                                         (2, 1, 2049, 300, 300), (24, 4, 24, 3, 6)):
    torsion = rng.integers(0, order, n_terms)
    exponents = rng.integers(-span, span + 1, (n_terms, dims))
    mu = DiscreteMeasure.from_atoms(basis, [
        (basis.angle(Fraction(int(m), order), tuple(row.tolist()) + (0,) * (4 - dims)),
         complex(re, im)) for m, row, (re, im) in zip(torsion, exponents,
                                                      rng.uniform(-1, 1, (n_terms, 2)))])
    assert mu.den == order and mu.coef.any(axis=0).sum() == dims
    assert len(mu) > 128 or n_terms < 128
    print(hashlib.sha256(character_values(mu, grid).tobytes()).hexdigest(),
          repr(torus_max(mu, grid)))
atoms = [(basis.angle(Fraction(int(rng.integers(0, 24)) if k else 1, 24),
                      tuple(int(k % 4 == i) + int(c) for i, c in enumerate(rng.integers(-1, 2, 4)))),
          complex(*rng.uniform(-1, 1, 2))) for k in range(6)]
print(repr(spectral_bracket(DiscreteMeasure.from_atoms(basis, atoms))))
"""


def test_grid_values_ignore_blas_thread_count():
    # zgemm over more than 128 terms rounds differently with 1 and 2 threads;
    # the walker contracts the terms in blocks so that its bits do not.  The
    # first three measures have more than 128 atoms; the last one and the
    # bracket's measure have the benchmark's shape,
    # several row tiles per class; at one BLAS thread their walks spread
    # over the CPUs, so the two runs also compare the spread and the
    # sequential walk
    env = {**os.environ, "PYTHONPATH": str(Path(natspec.__file__).resolve().parents[1])}
    outputs = []
    for threads in ("1", "2"):
        env["OPENBLAS_NUM_THREADS"] = threads
        proc = subprocess.run([sys.executable, "-c", _THREAD_PROBE], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert len(outputs[0].splitlines()) == 5


def _four_generator_measure(order: int, seed: int) -> DiscreteMeasure:
    """Six atoms over four generators, each generator present, with common
    turn denominator ``order``."""
    rng = np.random.default_rng(seed)
    basis = GeneratorBasis.from_pairs(FRESH_GENERATOR_VALUES[:4])
    atoms = [(basis.angle(Fraction(int(rng.integers(0, order)) if k else 1, order),
                          tuple(int(k % 4 == i) + int(c)
                                for i, c in enumerate(rng.integers(-1, 2, 4)))),
              complex(*rng.uniform(-1, 1, 2))) for k in range(6)]
    return DiscreteMeasure.from_atoms(basis, atoms)


def _sequential_and_spread(monkeypatch, run):
    """(run() with every walk on the calling thread, run() with the walks
    spread as at one BLAS thread on 3 CPUs, the share counts of the spread
    run's walks)."""
    threads, counts = [None], []
    real = spectrum._shares
    monkeypatch.setattr(spectrum, "blas_threads", lambda: threads[0])
    monkeypatch.setattr(spectrum, "_cpus", lambda: 3)
    monkeypatch.setattr(spectrum, "_shares",
                        lambda classes, points: counts.append(len(real(classes, points)))
                        or real(classes, points))
    with one_blas_thread():
        sequential = run()
        assert set(counts) == {1}
        counts.clear()
        threads[0] = 1
        spread = run()
    return sequential, spread, counts


def test_spread_threshold_sits_between_the_edge_lattices():
    assert 15 * 16 ** 4 < spectrum._SPREAD_POINTS <= 16 * 16 ** 4


@pytest.mark.parametrize("name, order, grid, classes, shares", [
    ("single live class", 1, 32, None, [1, 1]),
    # the live classes, then torus_max's walk of every class
    ("parity piece", 48, 16, range(1, 48, 2), [3, 3]),
    ("just below the threshold", 15, 16, None, [1, 1]),
    ("just above the threshold", 16, 16, None, [3, 3])])
def test_spread_walk_keeps_the_sequential_bits(monkeypatch, name, order, grid, classes, shares):
    mu = _four_generator_measure(order, 1901)
    if classes is not None:
        mu = parity_projections(mu)[1]
        assert spectrum._live_classes(mu) == classes
    assert mu.den == order and _dims(mu) == 4
    sequential, spread, counts = _sequential_and_spread(
        monkeypatch, lambda: (spectrum._lattice_max(mu, grid, classes), torus_max(mu, grid)))
    assert spread == sequential, name
    assert counts == shares, name


@pytest.mark.parametrize("top_class", [0, 7, 15])
def test_spread_walk_finds_the_maximum_in_any_share(monkeypatch, top_class):
    # |1 + e^{2 pi i (t - top_class) / 16}| peaks at t = top_class, which lies
    # in the first, second or third of the 3 shares; the small terms make the
    # lattice 16 x 16^4, at the threshold
    mu = _measure(16, [0, 1, 0, 0, 0, 0], np.eye(6, 4, -2, dtype=int),
                  [1.0, np.exp(-2j * np.pi * top_class / 16), 0.01, 0.01j, -0.01, -0.01j])
    sequential, spread, counts = _sequential_and_spread(
        monkeypatch, lambda: spectrum._lattice_max(mu, 16))
    assert spread == sequential and counts == [3]
    assert spectrum._lattice_max(mu, 16, range(top_class, top_class + 1)) == sequential


@pytest.mark.parametrize("name, mu", [
    ("single live class", parity_projections(_four_generator_measure(2, 1902))[0]),
    ("parity piece", parity_projections(_four_generator_measure(48, 1903))[1]),
    ("just below the threshold", _four_generator_measure(15, 1904)),
    ("just above the threshold", _four_generator_measure(16, 1905))])
def test_spread_bracket_keeps_the_sequential_bits(monkeypatch, name, mu):
    sequential, spread, counts = _sequential_and_spread(monkeypatch,
                                                        lambda: spectral_bracket(mu))
    assert spread == sequential, name
    live = spectrum._live_classes(mu)
    # one share per CPU exactly when the walk's lattice reaches the threshold
    grids = [16 * 2 ** k for k in range(len(counts))]
    assert counts == [3 if len(live) > 1 and len(live) * g ** 4 >= 1 << 20 else 1
                      for g in grids], name


class _ShareFault(Exception):
    pass


def test_a_worker_s_exception_reaches_the_caller(monkeypatch):
    mu = _four_generator_measure(16, 1905)
    with one_blas_thread():
        sequential = spectrum._lattice_max(mu, 16)
    monkeypatch.setattr(spectrum, "blas_threads", lambda: 1)
    monkeypatch.setattr(spectrum, "_cpus", lambda: 2)
    caller, real = threading.get_ident(), spectrum._tiles_top

    def fault_off_the_caller(tiles):
        if threading.get_ident() != caller:
            raise _ShareFault("a worker's share")
        return real(tiles)

    monkeypatch.setattr(spectrum, "_tiles_top", fault_off_the_caller)
    with one_blas_thread(), pytest.raises(_ShareFault, match="a worker's share"):
        spectrum._lattice_max(mu, 16)
    monkeypatch.setattr(spectrum, "_tiles_top", real)
    with one_blas_thread():
        assert spectrum._lattice_max(mu, 16) == sequential


_FORK_PROBE = """
import os, signal, sys
from fractions import Fraction
import numpy as np
from natspec import spectrum
from natspec.angles import FRESH_GENERATOR_VALUES, GeneratorBasis
from natspec.blas import one_blas_thread
from natspec.measures import DiscreteMeasure
spectrum._cpus = lambda: 2
spectrum.blas_threads = lambda: 1
shares, real = [], spectrum._shares
spectrum._shares = lambda classes, points: shares.append(len(real(classes, points))) or real(
    classes, points)
rng = np.random.default_rng(1906)
basis = GeneratorBasis.from_pairs(FRESH_GENERATOR_VALUES[:4])
torsion, exponents = rng.integers(0, 16, 6), rng.integers(-1, 2, (6, 4))
mu = DiscreteMeasure.from_atoms(basis, [
    (basis.angle(Fraction(int(m), 16), tuple(row.tolist())), complex(re, im))
    for m, row, (re, im) in zip(torsion, exponents, rng.uniform(-1, 1, (6, 2)))])
assert mu.den == 16 and mu.coef.any(axis=0).all()
with one_blas_thread():
    best = spectrum._lattice_max(mu, 16)
    pid = os.fork()
    if pid == 0:
        signal.alarm(20)
        code = 0 if spectrum._lattice_max(mu, 16) == best else 3
        if sys.argv[1] == "sys.exit":
            sys.exit(code)
        os._exit(code)
print(shares, os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
@pytest.mark.parametrize("leave", ["sys.exit", "os._exit"])
def test_a_forked_child_walks_on_its_own_pool(leave):
    # the child inherits the parent's pool object but none of its threads;
    # a walk that queued its share there would wait until the alarm killed it
    env = {**os.environ, "PYTHONPATH": str(Path(natspec.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", _FORK_PROBE, leave], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    # the parent's walk of 16 x 16^4 points spread over 2 shares, and the
    # child left with code 0: its walk gave the parent's bits
    assert proc.stdout == "[2] 0\n"


@pytest.mark.parametrize("radius", [math.nan, math.inf, 1e308, -1.0])
def test_disk_grid_refuses_unusable_radius(radius):
    with pytest.raises(ValueError, match="radius"):
        disk_grid(radius, 0.5)


def test_grid_factors_stay_small_at_one_free_axis():
    # with one free axis the left factor spans the whole grid: 128 terms x
    # 2^16 points would be 128 MiB of factor rows, so they are built in chunks
    mu = _measure(1, [0] * 300, np.arange(-150, 150)[:, None], [1 / 300] * 300)
    assert len(mu) == 300
    tracemalloc.start()
    try:
        values = character_values(mu, 1 << 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 << 20
    # every chunk, against a term-by-term sum of exponentials
    theta = 2.0 * np.pi * np.arange(1 << 16) / (1 << 16)
    ref = sum(np.exp(1j * e * theta) for e in range(-150, 150)) / 300
    assert np.max(np.abs(values - ref)) <= 1e-12


def _untiled_values(d: DiscreteMeasure, grid: int) -> np.ndarray:
    """character_values of d with one matmul per class and block of 128
    atoms over all of the class's rows: no row tiles, no class groups.  The
    root indices are sum_a e_a j_a mod grid over explicit lattice points."""
    dims = _dims(d)
    left = (dims + 1) // 2
    size = grid if dims else 1
    roots = unit_roots(np.arange(size), size)
    exponents = np.array(free_exponents(d), dtype=np.int64).reshape(len(d), dims)

    def factor(axes):
        points = np.array(list(np.ndindex(*(grid,) * len(axes))), dtype=np.int64)
        return roots[(exponents[:, axes] @ points.reshape(len(points), -1).T) % size]

    lhs, right = factor(list(range(left))), factor(list(range(left, dims)))
    weights, torsion = np.array(d.w.tolist()), np.array(d.num.tolist())
    out = []
    for t in range(d.den):
        rhs = (weights * unit_roots((torsion * t) % d.den, d.den))[:, None] * right
        if dims == 1:  # as the walker does, so that numpy calls zgemm
            rhs = np.hstack((rhs, np.zeros_like(rhs)))
        acc = lhs[:128].T @ rhs[:128]
        for start in range(128, len(d), 128):
            acc += lhs[start:start + 128].T @ rhs[start:start + 128]
        out.append(acc[:, :right.shape[1]].ravel())
    return np.concatenate(out)


def _random_measure(order, dims, span, n_terms, seed):
    rng = np.random.default_rng(seed)
    return _measure(order, rng.integers(0, order, n_terms),
                    rng.integers(-span, span + 1, (n_terms, dims)),
                    [complex(re, im) for re, im in rng.uniform(-1, 1, (n_terms, 2))])


@pytest.mark.parametrize("tile_bytes", [None, 3000])
@pytest.mark.parametrize("order, dims, grid, span, n_terms", [
    (200, 0, 16, 0, 300), (700, 0, 16, 0, 200), (3, 1, 37, 400, 150), (300, 1, 16, 40, 150),
    (300, 2, 16, 40, 3), (2, 4, 17, 40, 150)],
    ids=["200-0-16", "700-0-16", "3-1-37", "300-1-16", "300-2-16-3", "2-4-17"])
def test_row_tiles_match_untiled_products_bitwise(monkeypatch, tile_bytes, order, dims, grid,
                                                  span, n_terms):
    # every draw but the 3-atom one leaves more than 128 atoms, two atom
    # blocks; at 17^2 = 289 left rows the default tile holds 113 rows (three
    # tiles of 96 or 97), and 3000 bytes make tiles of 3 or 4 rows and one
    # class per group.  Without free axes a group's classes, 214 and 192 by
    # default, go in one stacked product, so the 200 classes make one group
    # and the 700 four; 3 atoms on 16 x 16 points make chunks of 128 classes
    # in groups of 300 (of 1 in groups of 3 at 3000 bytes)
    if tile_bytes is not None:
        monkeypatch.setattr(spectrum, "_TILE_BYTES", tile_bytes)
    mu = _random_measure(order, dims, span, n_terms, order + dims)
    assert mu.den == order and _dims(mu) == dims
    assert len(mu) > 128 or n_terms < 128
    reference = _untiled_values(mu, grid)
    values = character_values(mu, grid)
    assert values.shape == (order * grid ** dims,)
    assert np.array_equal(values, reference)
    top = math.sqrt(float(np.max(reference.real ** 2 + reference.imag ** 2)))
    total = sum(abs(c) for c in mu.w.tolist())
    assert torus_max(mu, grid) == top - (len(mu) + 8) * 2.0 ** -53 * total


def test_torus_max_without_free_axes_takes_one_product_per_chunk_of_classes():
    mu = _random_measure(1 << 16, 0, 0, 6, 7)
    assert mu.den == 1 << 16 and len(mu) == 6
    elapsed = []
    for _ in range(3):
        started = time.perf_counter()
        value = torus_max(mu, 16)
        elapsed.append(time.perf_counter() - started)
    assert min(elapsed) < 0.1  # 0.6 s with one product per class
    reference = _untiled_values(mu, 16)
    top = math.sqrt(float(np.max(reference.real ** 2 + reference.imag ** 2)))
    assert value == top - (6 + 8) * 2.0 ** -53 * sum(abs(c) for c in mu.w.tolist())
    assert np.array_equal(character_values(mu, 16), reference)


def test_torus_walker_charges_its_point_budget(basis):
    # the benchmark's largest lower bound, 24 torsion classes x 24^4 points, fits
    table = _measure(24, [0, 1, 5], np.array([[1, 0, 0, 0], [0, 1, 1, 0], [0, 0, 1, -2]]),
                     [0.5, 0.25j, -0.25])
    assert table.den == 24 and _dims(table) == 4
    assert 0.0 < torus_max(table, 24) <= 1.0 + 1e-12
    with pytest.raises(BudgetExceededError, match="torsion classes"):
        torus_max(table, 32)
    # an lcm of about 10^15 must stop before any table of roots is built
    mu = DiscreteMeasure.from_atoms(basis, [
        (basis.angle(Fraction(1, 1000003)), 0.25),
        (basis.angle(Fraction(1, 999983)) + basis.generator("a"), 0.25),
        (basis.angle(Fraction(1, 997)), 0.5)])
    assert mu.den == 1000003 * 999983 * 997
    for run in (lambda: torus_max(mu, 16), lambda: character_values(mu, 16)):
        with pytest.raises(BudgetExceededError):
            run()


def test_spectrum_sample_of_sign_projector_is_binary(theta1):
    sample = character_values(theta1, 64)
    assert set(np.round(sample, 12)) == {0.0 + 0j, 1.0 + 0j}


def test_spectrum_sample_of_point_mass_covers_circle(basis):
    point = DiscreteMeasure.from_atoms(basis, [(basis.generator("a"), 1.0)])
    sample = character_values(point, 64)
    radii = np.abs(sample)
    assert np.max(np.abs(radii - 1.0)) < 1e-12
    circle = np.exp(2j * np.pi * np.arange(256) / 256)
    assert covering_radius(circle, sample) < 0.2


def test_spectrum_sample_of_pair_average_fills_disk(rho):
    sample = character_values(rho, 512)
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


@pytest.mark.parametrize("radius, tol", [
    *((r, t) for r in (1e-120, 1.0, 1e120) for t in (0.013, 0.05, 0.1, 1.0, 3.0)),
    (2.37, 0.1), (0.6, 0.013), (5.0, 3.0), (1e-3, 0.2), (3.0e5, 0.07)])
def test_disk_grid_covers_its_disk_within_tol(radius, tol):
    # two routes for the covering radius of the disk by disk_grid, which the
    # verifier's one-sided density check rests on: the a-priori bound
    # sqrt(5)/4 * tol * radius, and a dense polar sample of the disk, four
    # times finer than the grid each way, queried in a tree over the grid.
    # Every disk point is within `spacing` of a sample point, so the sampled
    # radius plus the spacing bounds the true one from above
    n_r, n_ang = disk_grid_shape(tol)
    rings, rays = 4 * n_r, 4 * n_ang
    spacing = radius / (2 * rings) + math.pi * radius / rays
    grid = disk_grid(radius, tol)
    tree = cKDTree(np.column_stack([grid.real, grid.imag]))
    directions = np.exp(2j * np.pi * np.arange(rays) / rays)
    sampled = 0.0
    for moduli in np.array_split(radius * np.arange(rings + 1) / rings, rings // 64 + 1):
        pts = (moduli[:, None] * directions[None, :]).ravel()
        sampled = max(sampled, float(np.max(tree.query(np.column_stack([pts.real,
                                                                         pts.imag]))[0])))
    assert sampled + spacing < tol * radius
    assert sampled <= math.sqrt(5) / 4 * tol * radius * (1 + 1e-12)


@pytest.mark.parametrize("tol", [0.0, -0.1, math.inf, math.nan, 1e-6, 5e-324])
def test_disk_grid_refuses_unusable_tol(tol):
    with pytest.raises(ValueError, match="tol"):
        disk_grid(1.0, tol)


def test_disk_grid_point_limit():
    n_r, n_ang = disk_grid_shape(0.0018)
    assert (n_r, n_ang) == (1112, 3491) and n_r * n_ang + 1 <= MAX_DISK_POINTS
    assert disk_grid(1.0, 0.05).size == 1 + 40 * 126
    with pytest.raises(ValueError, match="more than"):
        disk_grid_shape(0.0017)


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


# -- the spectral-radius bracket ----------------------------------------------

def _mp_sup(mu: MixedMeasure, n_max: int) -> float:
    """sup over |n| <= n_max of |mu_hat(n)|, taken in mpmath: every n whose
    numpy value comes within 2e-12 * ||mu|| of the numpy maximum is summed
    again in mpmath (``oracles.mp_transform``), so no n outside that set can
    hold the exact maximum."""
    ns = np.arange(-n_max, n_max + 1, dtype=np.int64)
    values = np.abs(mu.transform(ns))
    slack = 2e-12 * (mu.disc.norm() + sum(abs(c) for c in mu.ac.coeffs.values()))
    near = ns[values >= values.max() - slack]
    return max(abs(mp_transform(mu.disc, int(n)) + mu.ac.coeffs.get(int(n), 0j))
               for n in near)


def _bracket_inputs():
    rng = default_rng(1601)
    for _ in range(3):
        yield as_mixed(random_discrete(rng, _TWO_GENERATORS))
    # e_k-heavy: the density's coefficients dwarf the atoms
    for _ in range(2):
        atoms = random_discrete(rng, _TWO_GENERATORS).scale(0.05)
        yield MixedMeasure(atoms, TrigPolyDensity({-2: 1.5 - 0.5j, 3: -2.0j, 5: 0.75}))
    yield random_mixed(rng, _TWO_GENERATORS)


@pytest.mark.parametrize("mu", list(_bracket_inputs()))
def test_spectral_bracket_contains_the_mpmath_transform_sup(mu):
    lower, upper = spectral_bracket(mu)
    # the cap is fekete_bound's first entry, ||mu||, with the atoms' moduli
    # and their sum rounded upward rather than to nearest
    norm = fekete_bound(mu, 0).entries[0][1]
    assert 0.0 < lower <= upper <= norm * (1 + (len(mu.disc) + 2) * 2.0 ** -53)
    assert upper - lower <= 2.0 ** -6 * upper
    assert upper >= _mp_sup(mu, 10_000)
    if not mu.ac.is_zero:
        # r(mu) = max(r(d), max_K |mu_hat(k)|), so both ends are at least
        # that maximum, the lower end less its allowance
        top = max(abs(mp_transform(mu.disc, k) + c) for k, c in mu.ac.coeffs.items())
        allowance = measures._transform_allowance(mu, max(map(abs, mu.ac.coeffs)))
        assert lower >= top - allowance and upper >= top
        if mu.disc.norm() < 0.5 * top:
            assert upper - lower <= 2 * allowance + math.ulp(upper)


def _mp_torus_sup(d: DiscreteMeasure, rng, points: int) -> float:
    """sup of |d_hat| over ``points`` random characters (t, phi) of d's
    torus, taken in mpmath as ``_mp_sup`` takes it: every point whose numpy
    value comes within 2e-12 * ||d|| of the numpy maximum is summed again at
    30 digits, its rational phase reduced exactly."""
    exps = np.array(free_exponents(d), dtype=np.int64).reshape(len(d), -1)
    ts = rng.integers(0, d.den, size=points)
    phis = rng.uniform(0.0, 2 * math.pi, size=(points, exps.shape[1]))
    phases = 2 * np.pi * ((np.outer(ts, d.num) % d.den) / d.den) + phis @ exps.T
    values = np.abs(np.exp(1j * phases) @ d.w)
    near = np.flatnonzero(values >= values.max() - 2e-12 * d.norm())
    with mpmath.workdps(30):
        return max(abs(mpmath.fsum(
            mpmath.mpc(w.real, w.imag) * mpmath.expj(
                2 * mpmath.pi * mpmath.mpf((m * int(ts[i])) % d.den) / d.den
                + mpmath.fsum(e * mpmath.mpf(p) for e, p in zip(row, phis[i].tolist())))
            for m, row, w in zip(d.num.tolist(), exps.tolist(), d.w.tolist())))
            for i in near)


_UNIT_WEIGHTS = st.complex_numbers(min_magnitude=0.01, max_magnitude=1.0, allow_nan=False,
                                   allow_infinity=False)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 5), st.integers(-6, 6), st.integers(-6, 6),
                          _UNIT_WEIGHTS), min_size=1, max_size=5),
       st.dictionaries(st.integers(-4, 4), _UNIT_WEIGHTS.map(lambda c: 3 * c),
                       min_size=1, max_size=4),
       st.integers(0, 2 ** 32 - 1))
def test_the_mixed_cap_is_at_least_the_mpmath_sup(atoms, coeffs, seed):
    # two routes: at max_grid 16 with an exponent span S >= 8 no walk gives
    # an upper end, so the published upper end is the cap, which was
    # ||d|| + the density's quadrature and is now max(||d||, upper_k); it is
    # at least the 30-digit |mu_hat(k)| at each frequency k of the density
    # and the 30-digit |d_hat| sup over 10^4 random characters of d's torus
    basis = _TWO_GENERATORS
    disc = DiscreteMeasure.from_atoms(basis, [(basis.angle(Fraction(t, 6), (a, b)), w)
                                              for t, a, b, w in atoms])
    assume(spectrum._exponent_span(spectrum._exponents(disc)) >= 8)
    mu = MixedMeasure(disc, TrigPolyDensity(coeffs))
    lower, upper = spectral_bracket(mu, 16)
    assert lower <= upper == fekete_bound(mu, 0).entries[0][1]
    with mpmath.workdps(30):
        density_sup = max(abs(mp_transform_value(disc, k) + mpmath.mpc(c.real, c.imag))
                          for k, c in mu.ac.coeffs.items())
    assert mpmath.mpf(upper) >= density_sup
    assert mpmath.mpf(upper) >= _mp_torus_sup(disc, np.random.default_rng(seed), 10_000)


@pytest.mark.parametrize("seed", range(4))
def test_transform_allowance_holds_on_both_phase_table_routes(seed):
    # two routes: each value of transforms within _transform_allowance of
    # the 30-digit mpmath sum, the n taken in one dense window (the product
    # spans every block of 4096 n between its ends) and scattered among
    # far-apart n (only the blocks the n meet), to the same bits; at
    # |k| <= 3 the two tables already reach 256 b = -256 and a = 253, so the
    # allowance is not proportional to n
    rng = default_rng(1603 + seed)
    basis = GeneratorBasis.from_pairs(FRESH_GENERATOR_VALUES[:3])
    atoms = random_discrete(rng, basis, n_atoms=int(rng.integers(1, 7)), coeff_bound=3)
    mu = MixedMeasure(atoms, TrigPolyDensity({-3: 0.25 - 0.5j, 1: 0.125j}) if seed % 2
                      else TrigPolyDensity({}))
    far = np.array([-(1 << 50), 1 << 45], dtype=np.int64)
    for window in (np.arange(-3, 4), np.arange(10_000 - 8, 10_000 + 8),
                   np.arange(-10_000 - 8, -10_000 + 8),
                   np.arange((1 << 40) - 260, (1 << 40) + 4), np.arange(-(1 << 40) - 4, -(1 << 40) + 4)):
        ns = window.astype(np.int64)
        dense = transforms([mu], ns)[0]
        sparse = transforms([mu], np.concatenate([far, ns]))[0][len(far):]
        assert dense.tobytes() == sparse.tobytes()
        allowance = measures._transform_allowance(mu, int(np.max(np.abs(ns))))
        for n, v in zip(ns.tolist(), dense.tolist()):
            exact = mp_transform(mu.disc, n) + mu.ac.coeffs.get(n, 0j)
            assert abs(v - exact) <= allowance, (n, abs(v - exact), allowance)


_INT64 = (-(1 << 63), (1 << 63) - 1)
_THREE = GeneratorBasis.from_pairs(FRESH_GENERATOR_VALUES[:3])


@st.composite
def far_transform_inputs(draw):
    """(mu, ns): up to six atoms over three generators at rational turns
    with denominators up to 65537, past the cached root tables, and n up to
    2**62 in modulus, near 0 and near 2**40, plus both int64 extremes."""
    turns = st.sampled_from((1, 2, 3, 5, 12, 97, 257, 65536, 65537)).flatmap(
        lambda q: st.builds(Fraction, st.integers(0, q - 1), st.just(q)))
    vectors = st.tuples(*[st.integers(-3, 3)] * 3)
    weights = st.builds(complex, st.floats(-1, 1, allow_subnormal=False),
                        st.floats(-1, 1, allow_subnormal=False))
    atoms = draw(st.lists(st.tuples(turns, vectors, weights), min_size=1, max_size=6))
    mu = DiscreteMeasure.from_atoms(_THREE, [(_THREE.angle(t, c), w) for t, c, w in atoms])
    near = st.integers(-10_000, 10_000) | st.integers((1 << 40) - 300, (1 << 40) + 300)
    ns = draw(st.lists(near | st.integers(-(1 << 62), 1 << 62), min_size=1, max_size=8))
    return mu, np.array(ns + list(_INT64), dtype=np.int64)


@settings(max_examples=60, deadline=None)
@given(far_transform_inputs())
@example((DiscreteMeasure.from_atoms(_THREE, [(_THREE.angle(Fraction(65535, 65537), (2, -3, 1)),
                                                1.0 - 0.5j)]),
          np.array([-3, 1 << 40, *_INT64], dtype=np.int64)))
def test_transform_allowance_holds_against_mpmath_at_far_n(inputs):
    # second route: the 30-digit mpmath sum, each rational phase reduced in
    # Fraction arithmetic and each generator phase taken from the exact
    # binary values of the generators; each n against its own allowance
    mu, ns = inputs
    assume(len(mu))
    for n, v in zip(ns.tolist(), transforms([mu], ns)[0].tolist()):
        error = abs(v - mp_transform(mu, n))
        assert error <= measures._transform_allowance(as_mixed(mu), abs(n)), (n, error)


def test_transform_allowance_holds_for_lone_unit_atoms_at_small_k():
    # at |k| <= 3 a lone atom of weight 1 has the smallest allowance, all
    # float64 roundings and no n-proportional slack, while its two table
    # phases still reach -256 g and 253 g: every vector in [-2, 2]^4
    basis = GeneratorBasis.from_pairs(FRESH_GENERATOR_VALUES[:4])
    ks = np.arange(-3, 4)
    with mpmath.workdps(40):
        for coeffs in itertools.product(range(-2, 3), repeat=4):
            if not any(coeffs):
                continue
            mu = as_mixed(DiscreteMeasure.from_atoms(basis, [(basis.angle(0, coeffs), 1.0)]))
            allowance = measures._transform_allowance(mu, 3)
            g = mpmath.fsum(c * mpmath.mpf(v) for c, v in zip(coeffs, basis.values))
            for k, v in zip(ks.tolist(), transforms([mu], ks)[0].tolist()):
                assert abs(mpmath.mpc(v.real, v.imag) - mpmath.expj(-k * g)) <= allowance


@settings(max_examples=25, deadline=None)
@given(small_measures(), st.lists(st.floats(0.0, 2 * math.pi), min_size=2, max_size=2))
def test_spectral_bracket_dominates_every_character(mu, phis):
    # the upper end bounds |p| everywhere on the torus: at each point of the
    # grid-16 lattice and at an arbitrary character, summed in mpmath (whose
    # own rounding at 30 digits the factor 1 + 1e-20, taken in mpmath, covers)
    lower, upper = spectral_bracket(mu)
    assert lower <= upper
    with mpmath.workdps(30):
        bound = mpmath.mpf(upper) * (1 + mpmath.mpf("1e-20"))
    assert bound >= _lattice_max_mp(mu, 16)
    atoms = list(zip(mu.num.tolist(), free_exponents(mu), mu.w.tolist()))
    with mpmath.workdps(30):
        for t in range(mu.den):
            value = sum((mpmath.mpc(c.real, c.imag)
                         * mpmath.expj(2 * mpmath.pi * mpmath.mpf(m * t % mu.den) / mu.den
                                       + sum(e * mpmath.mpf(x) for e, x in zip(row, phis)))
                         for m, row, c in atoms),
                        mpmath.mpc(0))
            assert bound >= abs(value)


def test_spectral_bracket_without_free_axes_is_two_allowances_wide():
    basis = GeneratorBasis()
    rng = default_rng(1602)
    for q in (1, 5, 12, 65):
        mu = DiscreteMeasure.from_atoms(basis, [
            (basis.angle(Fraction(int(k), q)), complex(*rng.uniform(-1, 1, 2)))
            for k in rng.integers(0, q, 6)])
        with mpmath.workdps(30):
            exact = max(abs(sum((mpmath.mpc(c.real, c.imag)
                                 * mpmath.expjpi(2 * mpmath.mpf(m * t % mu.den) / mu.den)
                                 for m, c in zip(mu.num.tolist(), mu.w.tolist())),
                                mpmath.mpc(0)))
                        for t in range(q))
        lower, upper = spectral_bracket(mu)
        allowance = (len(mu) + 8) * 2.0 ** -53 * sum(abs(c) for c in mu.w.tolist())
        assert lower <= exact <= upper
        # each end rounds once, by at most half an ulp
        assert upper - lower <= 2 * allowance + math.ulp(upper)


@pytest.mark.parametrize("k", [-40, 40])
def test_spectral_bracket_scales_exactly(k):
    rng = default_rng(1603)
    for _ in range(4):
        mu = random_discrete(rng, _TWO_GENERATORS)
        lower, upper = spectral_bracket(mu)
        assert spectral_bracket(mu.scale(2.0 ** k)) == (math.ldexp(lower, k),
                                                        math.ldexp(upper, k))


def test_spectral_bracket_refuses_a_lattice_before_any_walk(monkeypatch, basis):
    walks = []
    monkeypatch.setattr(spectrum, "_lattice_max", lambda *a: walks.append(a))
    huge_order = DiscreteMeasure.from_atoms(basis, [
        (basis.angle(Fraction(1, 1000003)), 0.25),
        (basis.angle(Fraction(1, 999983)) + basis.generator("a"), 0.25)])
    with pytest.raises(BudgetExceededError, match="torsion classes"):
        spectral_bracket(huge_order)
    five = GeneratorBasis.from_pairs(FRESH_GENERATOR_VALUES[:5])
    wide = DiscreteMeasure.from_atoms(five, [(five.angle(Fraction(0), (1, 1, 1, 1, 1)), 1.0)])
    with pytest.raises(BudgetExceededError, match="5 free dimensions"):
        spectral_bracket(wide)
    assert walks == []


def _spied_grids(monkeypatch) -> list:
    grids = []
    real = spectrum._lattice_max
    monkeypatch.setattr(spectrum, "_lattice_max",
                        lambda d, grid, *rest: grids.append(grid) or real(d, grid, *rest))
    return grids


@pytest.mark.parametrize("max_grid, walked", [(None, [16, 128]), (1 << 40, [16, 128]),
                                              (127, [16, 64]), (64, [16, 64]), (63, [16, 32]),
                                              (31, [16]), (16, [16])])
def test_spectral_bracket_walks_no_grid_above_its_ceiling(monkeypatch, basis, max_grid, walked):
    # exponent span 6: the first grid whose upper end can close the bracket
    # is 128; a ceiling below it takes the finest power of two it allows
    grids = _spied_grids(monkeypatch)
    mu = DiscreteMeasure.from_atoms(basis, [(basis.zero(), 1.0), (basis.angle(coeffs=(3, 0)), 1.0),
                                            (basis.angle(coeffs=(6, 0)), -1.0)])
    lower, upper = spectral_bracket(mu, max_grid)
    assert grids == walked
    assert lower == max(spectral_bracket(mu, grid)[0] for grid in walked)


def test_spectral_bracket_refuses_a_ceiling_below_16(monkeypatch, basis):
    grids = _spied_grids(monkeypatch)
    mu = DiscreteMeasure.from_atoms(basis, [(basis.generator("a"), 1.0)])
    with pytest.raises(ValueError, match="grid must be at least 16"):
        spectral_bracket(mu, 15)
    with pytest.raises(ValueError, match="grid must be at least 16"):
        spectrum.radius_bracket(mu, 2, 8)
    with pytest.raises(ValueError, match="k_max must be nonnegative"):
        spectrum.radius_bracket(mu, -1)
    assert grids == []


def test_radius_bracket_runs_the_squarings_only_on_a_wide_bracket(monkeypatch, basis):
    # 1 + z - z^2 on one generator: the grid-16 walk ends 3.9% wide, above
    # 2^-6, so fekete_bound runs and the smaller upper end is taken, with
    # the walks' lower end kept; the full walk closes the bracket alone
    calls = []
    real = spectrum.fekete_bound
    monkeypatch.setattr(spectrum, "fekete_bound",
                        lambda mu, k_max: calls.append(k_max) or real(mu, k_max))
    mu = DiscreteMeasure.from_atoms(basis, [(basis.zero(), 1.0), (basis.generator("a"), 1.0),
                                            (basis.angle(coeffs=(2, 0)), -1.0)])
    assert spectrum.radius_bracket(mu, 5) == (spectral_bracket(mu), None)
    assert calls == []
    lower, upper = spectral_bracket(mu, 16)
    assert upper - lower > 2.0 ** -6 * upper
    bracket, fallback = spectrum.radius_bracket(mu, 5, 16)
    assert calls == [5]
    assert fallback.report == real(mu, 5) and fallback.report.final_bound < upper
    assert bracket == (lower, fallback.report.final_bound)
    assert fallback.reason == (f"the lattice walks ended at [{lower!r}, {upper!r}], wider than "
                               f"2^-6 of the upper end")
    # the radius is sqrt5, inside both brackets
    assert bracket[0] <= math.sqrt(5) <= bracket[1] <= upper
    # at k_max 0 the squarings' only entry is the norm 3, above the walks'
    # upper end, which is kept
    assert spectrum.radius_bracket(mu, 0, 16)[0] == (lower, upper)


def test_radius_bracket_keeps_the_density_lower_end_on_a_refused_lattice():
    # five free axes: the walker refuses the lattice, and the lower end is
    # still the density's max_K |mu_hat(k)| less its allowance, checked
    # against mpmath's |mu_hat(k)| at 30 digits at the density's frequencies
    five = GeneratorBasis.from_pairs(FRESH_GENERATOR_VALUES[:5])
    d = DiscreteMeasure.from_atoms(five, [(five.zero(), 0.5),
                                          (five.angle(Fraction(0), (1, 1, 1, 1, 1)), 0.25 + 0.25j)])
    density = {1: 0.5, -2: 0.75j}
    mu = MixedMeasure(d, TrigPolyDensity(density))
    (lower, upper), fallback = spectrum.radius_bracket(mu, 2)
    assert fallback.reason.startswith("the walker refused the lattice")
    assert lower == spectrum._density_ends(mu)[0] > 0.0
    with mpmath.workdps(30):
        top = max(abs(mp_transform_value(d, k) + mpmath.mpc(c)) for k, c in density.items())
        assert lower <= top <= upper
        assert top - lower <= 1e-12 * top


def test_spectral_bracket_caps_at_the_norm_rounded_upward(basis):
    # |0.001 + 0.001j| rounds below its exact value, so the norm as summed
    # is not an upper end; the bracket's cap, fekete_bound's first entry, is
    # rounded upward
    w = 0.001 + 0.001j
    mu = DiscreteMeasure.from_atoms(basis, [(basis.zero(), w)])
    with mpmath.workdps(30):
        exact = mpmath.sqrt(2 * mpmath.mpf(0.001) ** 2)
    norm = fekete_bound(mu, 0).final_bound
    lower, upper = spectral_bracket(mu)
    assert abs(w) < exact <= upper <= norm <= abs(w) + 2 * math.ulp(abs(w))


def _mp_power_norm_roots(mu: DiscreteMeasure, k_max: int) -> list:
    """||mu^(2^k)||^(1/2^k) for k = 1..k_max, the squares taken on the exact
    positions with 60-digit mpmath weights."""
    with mpmath.workdps(60):
        atoms = {a: mpmath.mpc(w.real, w.imag) for a, w in mu.atoms.items()}
        roots = []
        for k in range(1, k_max + 1):
            square: dict = {}
            for a, w in atoms.items():
                for b, v in atoms.items():
                    square[a + b] = square.get(a + b, 0) + w * v
            atoms = square
            roots.append(mpmath.root(mpmath.fsum(abs(w) for w in atoms.values()), 1 << k))
        return roots


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 5), st.integers(-2, 2), st.integers(-1, 1),
                          st.complex_numbers(min_magnitude=1e-300, max_magnitude=1e300,
                                             allow_nan=False, allow_infinity=False)),
                min_size=1, max_size=4))
@example([(0, 1, 0, 0.001 + 0.001j)])
def test_fekete_later_entries_are_at_least_the_exact_norm_roots(atoms):
    # two routes: every entry against ||mu^(2^k)||^(1/2^k) of the exact
    # squares at 60 digits, which it never undercuts, whatever the
    # squarings' rounding; colliding positions cancel, and weights past
    # 2**+-511 take the power-of-two rescaling.  The example is one atom
    # whose to-nearest entries fell below |w|
    basis = _TWO_GENERATORS
    mu = DiscreteMeasure.from_atoms(basis, [(basis.angle(Fraction(t, 6), (a, b)), w)
                                            for t, a, b, w in atoms])
    assume(not mu.is_zero)
    report = fekete_bound(mu, 3)
    exact = _mp_power_norm_roots(mu, 3)
    assert [k for k, _ in report.entries] == [0, 1, 2, 3]
    for (_, r), x in zip(report.entries[1:], exact):
        assert mpmath.mpf(r) >= x
        # and the rounding bound stays a few parts in 10^15 of the root
        assert r <= x * (1 + 1e-12) + 1e-300


@settings(max_examples=200, deadline=None)
@given(st.lists(st.complex_numbers(min_magnitude=1e-300, max_magnitude=1e300,
                                   allow_nan=False, allow_infinity=False),
                min_size=1, max_size=6))
def test_fekete_first_entry_is_at_least_the_exact_norm(weights):
    # two routes: the first entry against sum |w_j| at 60 digits in mpmath,
    # which it may exceed by a few ulps (or subnormal steps) and never
    # undercut; a density part folds in max_K |mu_hat(k)| plus its rounding
    # allowance, never below mpmath's |mu_hat(k)|, and is not integrated
    basis = _TWO_GENERATORS
    disc = DiscreteMeasure.from_atoms(basis, [(basis.angle(Fraction(j, 7)), w)
                                              for j, w in enumerate(weights)])
    entry = fekete_bound(disc, 0).entries[0][1]
    with mpmath.workdps(60):
        exact = mpmath.fsum(mpmath.sqrt(mpmath.mpf(w.real) ** 2 + mpmath.mpf(w.imag) ** 2)
                            for w in weights)
        slack = exact * (len(weights) + 2) * 2.0 ** -52 + 4 * len(weights) * 2.0 ** -1074
        assert exact <= mpmath.mpf(entry) <= exact + slack
    density = TrigPolyDensity({2: 0.5, -3: 0.25j})
    mu = MixedMeasure(disc, density)
    [(top, allowance)] = measures._transform_sups([mu], [2, -3])
    mixed = fekete_bound(mu, 0).entries[0][1]
    assert mixed == max(entry, top + allowance)
    with mpmath.workdps(30):
        for k, c in density.coeffs.items():
            at_k = abs(mp_transform_value(disc, k) + mpmath.mpc(c.real, c.imag))
            assert mpmath.mpf(mixed) >= at_k


def test_parity_pieces_walk_only_their_live_classes():
    # an even piece vanishes at the odd torsion classes and an odd piece at
    # the even ones; the walk over the live classes keeps the full walk's
    # bits there, and the other classes hold only rounding noise
    rng = default_rng(1604)
    for _ in range(4):
        mu = random_discrete(rng, _TWO_GENERATORS)
        assert spectrum._live_classes(mu) == range(mu.den)
        for start, piece in enumerate(parity_projections(mu)):
            live = spectrum._live_classes(piece)
            assert live == range(start, piece.den, 2)
            values = character_values(piece, 16).reshape(piece.den, -1)
            squares = values.real ** 2 + values.imag ** 2  # as the walker squares
            best, allowance, shift = spectrum._lattice_max(piece, 16, live)
            assert shift == 0 and best == math.sqrt(float(np.max(squares[start::2])))
            assert math.sqrt(float(np.max(squares[1 - start::2]))) <= allowance


def _bits(bracket) -> tuple:
    return tuple(x.hex() for x in bracket)


def test_bracket_memo_returns_the_bits_of_a_fresh_call(walked_brackets, basis):
    # a measure rebuilt from its atoms is another object with the same bits
    rng = default_rng(2901)
    for mu in (random_discrete(rng, basis), random_mixed(rng, basis)):
        first = spectral_bracket(mu)
        rebuilt = MixedMeasure(DiscreteMeasure.from_atoms(basis, as_mixed(mu).disc.atoms.items()),
                               TrigPolyDensity(dict(as_mixed(mu).ac.coeffs)))
        assert rebuilt is not mu and spectral_bracket(rebuilt) == first
        walked_brackets.clear()
        hits = spectrum._memo_bracket.cache_info().hits
        kept = spectral_bracket(mu)
        assert walked_brackets == [] and spectrum._memo_bracket.cache_info().hits == hits + 1
        spectrum._memo_bracket.cache_clear()
        fresh = spectral_bracket(mu)
        assert len(walked_brackets) == 1 and _bits(kept) == _bits(fresh) == _bits(first)


def test_bracket_memo_keys_on_every_bit_of_the_weights(walked_brackets, basis):
    # the three measures compare equal or within an ulp, yet each is walked
    x = basis.generator("a")
    plus, minus, ulp = (DiscreteMeasure.from_atoms(basis, [(basis.zero(), 1.0), (x, w)])
                        for w in (complex(0.5, 0.0), complex(0.5, -0.0),
                                  complex(math.nextafter(0.5, 1.0), 0.0)))
    assert plus == minus and plus.w.tobytes() != minus.w.tobytes()
    assert ulp.w[1].real - plus.w[1].real == math.ulp(0.5)
    brackets = [spectral_bracket(mu) for mu in (plus, minus, ulp, plus, minus, ulp)]
    assert [len(m.disc) for m in walked_brackets] == [2, 2, 2]
    assert ([m.disc.w.tobytes() for m in walked_brackets]
            == [mu.w.tobytes() for mu in (plus, minus, ulp)])
    assert brackets[3:] == brackets[:3]
    info = spectrum._memo_bracket.cache_info()
    assert (info.misses, info.hits, info.currsize) == (3, 3, 3)


def test_bracket_memo_keys_on_the_density_and_the_basis(walked_brackets, basis):
    # the density's transform reads the generator values, so the same rows
    # over another value of generator "a" are another input
    other = GeneratorBasis.from_pairs((("a", math.sqrt(5)), ("b", math.sqrt(3))))
    x = basis.generator("a")
    disc = DiscreteMeasure.from_atoms(basis, [(basis.zero(), 0.01), (x, 0.005)])
    moved = DiscreteMeasure._rows(other, disc.den, disc.num, disc.coef, disc.w)
    inputs = [MixedMeasure(d, TrigPolyDensity(c)) for d, c in (
        (disc, {1: complex(1.0, 0.0)}), (disc, {1: complex(1.0, -0.0)}),
        (disc, {2: complex(1.0, 0.0)}), (moved, {1: complex(1.0, 0.0)}))]
    assert inputs[0] == inputs[1] and inputs[0].ac != inputs[2].ac
    brackets = [spectral_bracket(m) for m in inputs + inputs]
    assert walked_brackets == inputs and brackets[4:] == brackets[:4]
    assert brackets[3] != brackets[0]


def test_bracket_memo_keeps_at_most_four_entries(walked_brackets, basis):
    mu = random_discrete(default_rng(2902), basis)
    scaled = [mu.scale(2.0 ** k) for k in range(5)]
    for m in scaled:
        spectral_bracket(m)
    assert spectrum._BRACKET_CACHE == 4 == spectrum._memo_bracket.cache_info().currsize
    assert len(walked_brackets) == 5
    # the last four are kept; the first, the least recent, was dropped
    for m in scaled[1:]:
        spectral_bracket(m)
    assert len(walked_brackets) == 5
    spectral_bracket(scaled[0])
    assert len(walked_brackets) == 6
    assert walked_brackets[-1].disc.w.tobytes() == scaled[0].w.tobytes()


def test_bracket_memo_misses_on_another_blas_thread_count(monkeypatch, walked_brackets, basis):
    mu = random_discrete(default_rng(2903), basis)
    first = spectral_bracket(mu)
    threads = spectrum.blas_threads()
    monkeypatch.setattr(spectrum, "blas_threads", lambda: (threads or 0) + 7)
    assert spectral_bracket(mu) == first
    assert len(walked_brackets) == 2
    assert spectrum._memo_bracket.cache_info().currsize == 2


def test_bracket_memo_keeps_no_refusal(walked_brackets, basis):
    # each call raises its own refusal, in the order of a fresh call, and
    # nothing is kept; the density's frequency 2^70 does not fit in int64
    high = MixedMeasure.from_density(basis, {2 ** 70: 0.5})
    five = GeneratorBasis.from_pairs(FRESH_GENERATOR_VALUES[:5])
    wide = DiscreteMeasure.from_atoms(five, [(five.angle(Fraction(0), (1, 1, 1, 1, 1)), 1.0)])
    for _ in range(2):
        with pytest.raises(BudgetExceededError,
                           match=f"^density degree {2 ** 70} is above the limit 65536$"):
            spectral_bracket(high)
        with pytest.raises(BudgetExceededError, match="5 free dimensions"):
            spectral_bracket(wide)
        with pytest.raises(ValueError, match="grid must be at least 16"):
            spectral_bracket(wide, 15)
    assert len(walked_brackets) == 4
    info = spectrum._memo_bracket.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 4, 0)
