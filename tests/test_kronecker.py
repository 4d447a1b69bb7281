"""Simultaneous approximation of two circle rotations to target phases."""

import cmath
import math

import numpy as np
import pytest

from natspec.errors import KroneckerNotFoundError, OutOfDiskError
from natspec.kronecker import (KroneckerProblem, chordal, disk_preimage,
                               disk_preimage_shifted, hit_target,
                               pair_transform_values, solve)

SQRT2, SQRT3 = math.sqrt(2), math.sqrt(3)
TWO_PI = 2.0 * math.pi


def _pair(n: int) -> complex:
    return complex(pair_transform_values(np.array([n], dtype=np.int64), SQRT2, SQRT3)[0])


def test_scan_returns_first_canonical_witness():
    problem = KroneckerProblem(alpha=SQRT2, beta=SQRT3, target_x=0.0, target_y=0.0,
                               epsilon=0.3, min_abs_n=1)
    sol = solve(problem)
    assert sol.n == 40
    assert sol.err_alpha == 0.0198744032001446
    assert sol.err_beta == 0.16679995163153874
    assert sol.evaluations == 79


def test_identity_target_is_found_at_zero():
    problem = KroneckerProblem(alpha=SQRT2, beta=SQRT3, target_x=0.0, target_y=0.0,
                               epsilon=1e-12)
    sol = solve(problem)
    assert sol.n == 0 and sol.err_alpha == 0.0 and sol.err_beta == 0.0
    assert sol.evaluations == 1


def test_self_target_recovers_multiplier():
    x = (5 * SQRT2) % TWO_PI
    y = (5 * SQRT3) % TWO_PI
    sol = solve(KroneckerProblem(alpha=SQRT2, beta=SQRT3, target_x=x, target_y=y,
                                 epsilon=1e-6, min_abs_n=1))
    assert sol.n == 5
    assert max(sol.err_alpha, sol.err_beta) < 1e-9


def test_not_found_carries_best_candidate():
    problem = KroneckerProblem(alpha=1.41, beta=1.73, target_x=0.0, target_y=0.0,
                               epsilon=1e-9, n_max=100, min_abs_n=1)
    with pytest.raises(KroneckerNotFoundError) as exc:
        solve(problem)
    assert exc.value.best_n == 98
    assert exc.value.best_err == pytest.approx(0.10595367052635699, abs=1e-12)


def test_problem_validation():
    with pytest.raises(ValueError):
        KroneckerProblem(alpha=1.0, beta=2.0, target_x=0.0, target_y=0.0, epsilon=0.0)
    with pytest.raises(ValueError):
        KroneckerProblem(alpha=1.0, beta=2.0, target_x=0.0, target_y=0.0,
                         epsilon=0.1, parity="sideways")
    with pytest.raises(ValueError):
        KroneckerProblem(alpha=1.0, beta=2.0, target_x=0.0, target_y=0.0,
                         epsilon=0.1, method="bisection")


@pytest.mark.parametrize("field", ["alpha", "beta", "target_x", "target_y", "epsilon"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_problem_rejects_non_finite_numbers(field, bad):
    data = dict(alpha=1.0, beta=2.0, target_x=0.0, target_y=0.0, epsilon=0.1)
    data[field] = bad
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        KroneckerProblem(**data)


@pytest.mark.parametrize("args", [
    (SQRT2, SQRT3, math.nan, 0.1), (SQRT2, SQRT3, complex(0.0, math.nan), 0.1),
    (SQRT2, SQRT3, complex(math.inf, 0.0), 0.1), (math.nan, SQRT3, 0.5, 0.1),
    (SQRT2, math.inf, 0.5, 0.1), (SQRT2, SQRT3, 0.5, math.nan)])
@pytest.mark.parametrize("method", ["scan", "lattice"])
def test_hit_target_rejects_non_finite_input(args, method):
    with pytest.raises(ValueError, match="finite"):
        hit_target(*args, method=method)


def test_parity_restricted_scan():
    even = solve(KroneckerProblem(alpha=SQRT2, beta=SQRT3, target_x=1.0, target_y=2.0,
                                  epsilon=0.05, parity="even"))
    odd = solve(KroneckerProblem(alpha=SQRT2, beta=SQRT3, target_x=1.0, target_y=2.0,
                                 epsilon=0.05, parity="odd"))
    assert even.n == -8774 and even.n % 2 == 0
    assert odd.n == -4069 and odd.n % 2 == 1
    assert max(even.err_alpha, even.err_beta) < 0.05
    assert max(odd.err_alpha, odd.err_beta) < 0.05


def test_lattice_solutions_are_verified():
    rng = np.random.default_rng(2024)
    for _ in range(10):
        x, y = rng.uniform(0.0, TWO_PI, size=2)
        for parity in ("any", "even", "odd"):
            problem = KroneckerProblem(alpha=SQRT2, beta=SQRT3, target_x=float(x),
                                       target_y=float(y), epsilon=0.05,
                                       n_max=10 ** 7, method="lattice", parity=parity)
            sol = solve(problem)
            assert max(sol.err_alpha, sol.err_beta) < 0.05
            if parity != "any":
                assert (sol.n % 2 == 0) == (parity == "even")
            direct = chordal(float(sol.n * SQRT2 - x))
            assert abs(direct - sol.err_alpha) < 1e-6


def test_lattice_handles_excluded_trivial_witness():
    problem = KroneckerProblem(alpha=SQRT2, beta=SQRT3, target_x=0.0, target_y=0.0,
                               epsilon=1e-3, n_max=10 ** 9, min_abs_n=1,
                               method="lattice")
    sol = solve(problem)
    assert 1 <= abs(sol.n) <= 10 ** 9
    assert max(sol.err_alpha, sol.err_beta) < 1e-3
    assert sol.evaluations < 1000


def test_min_abs_n_excludes_small_witnesses():
    sol = solve(KroneckerProblem(alpha=SQRT2, beta=SQRT3, target_x=0.0, target_y=0.0,
                                 epsilon=0.3, min_abs_n=41))
    assert abs(sol.n) >= 41
    assert max(sol.err_alpha, sol.err_beta) < 0.3


def test_chordal_metric():
    assert chordal(0.0) == 0.0
    assert chordal(math.pi) == pytest.approx(2.0, abs=1e-15)
    vals = chordal(np.array([0.0, math.pi / 3, TWO_PI]))
    assert vals[1] == pytest.approx(1.0, abs=1e-12)
    assert vals[2] == pytest.approx(0.0, abs=1e-12)


def test_pair_transform_values_match_direct_formula():
    ns = np.array([1, -7, 123, 4096, -999983], dtype=np.int64)
    got = pair_transform_values(ns, SQRT2, SQRT3)
    direct = (np.exp(-1j * ns * SQRT2) + np.exp(-1j * ns * SQRT3)) / 2.0
    assert np.max(np.abs(got - direct)) < 1e-8
    assert np.all(np.abs(got) <= 1.0 + 1e-12)


def test_disk_preimage_midpoints():
    assert disk_preimage(0.0) == (1.0 + 0j, -1.0 + 0j)
    assert disk_preimage(1.0) == (1.0 + 0j, 1.0 + 0j)
    z, u = disk_preimage(0.5)
    assert z == 0.5 + 0.8660254037844386j
    assert u == 0.5 - 0.8660254037844386j
    with pytest.raises(OutOfDiskError):
        disk_preimage(1.01)


def test_disk_preimage_identity_on_random_points():
    rng = np.random.default_rng(6)
    ws = np.sqrt(rng.uniform(0.0, 1.0, 100)) * np.exp(2j * np.pi * rng.uniform(0, 1, 100))
    for w in ws:
        z, u = disk_preimage(complex(w))
        assert abs((z + u) / 2.0 - w) <= 1e-12
        assert abs(abs(z) - 1.0) <= 1e-12 and abs(abs(u) - 1.0) <= 1e-12


def test_shifted_preimage_identity_on_random_points():
    rng = np.random.default_rng(8)
    ws = np.sqrt(rng.uniform(0.0, 1.0, 100)) * np.exp(2j * np.pi * rng.uniform(0, 1, 100))
    for w in ws:
        z, u = disk_preimage_shifted(complex(w), SQRT2, SQRT3)
        mid = (z * cmath.exp(-1j * SQRT2) + u * cmath.exp(-1j * SQRT3)) / 2.0
        assert abs(mid - w) <= 1e-12
        assert abs(abs(z) - 1.0) <= 1e-12 and abs(abs(u) - 1.0) <= 1e-12


def test_hit_target_frozen_examples():
    assert hit_target(SQRT2, SQRT3, 0.0, 0.1, parity="even") == 10
    assert hit_target(SQRT2, SQRT3, 0.7j, 0.1, parity="odd") == -5
    n5 = _pair(5)
    assert hit_target(SQRT2, SQRT3, n5, 1e-9) == 5


def test_hit_target_respects_parity_and_tolerance():
    rng = np.random.default_rng(31)
    for _ in range(10):
        w = complex(np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform()))
        for parity in ("any", "even", "odd"):
            n = hit_target(SQRT2, SQRT3, w, 0.1, parity=parity)
            assert abs(_pair(n) - w) < 0.1
            if parity != "any":
                assert (n % 2 == 0) == (parity == "even")


def test_hit_target_lattice_method():
    rng = np.random.default_rng(44)
    for _ in range(5):
        w = complex(np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform()))
        n = hit_target(SQRT2, SQRT3, w, 0.1, method="lattice", n_max=10 ** 7)
        assert abs(_pair(n) - w) < 0.1
