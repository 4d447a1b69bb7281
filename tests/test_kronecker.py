"""Simultaneous approximation of two circle rotations to target phases."""

import cmath
import math
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from natspec import kronecker
from natspec.angles import FRESH_GENERATOR_VALUES, reduced_phases
from natspec.errors import KroneckerNotFoundError, OutOfDiskError
from natspec.kronecker import (KroneckerProblem, chordal, disk_preimage, hit_target,
                               pair_transform_values, solve)

SQRT2, SQRT3 = math.sqrt(2), math.sqrt(3)
TWO_PI = 2.0 * math.pi
GENERATORS = [value for _, value in FRESH_GENERATOR_VALUES]


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
    # hit_target and a problem of either method share one input check
    alpha, beta, w, eps = args
    with pytest.raises(ValueError, match="finite"):
        hit_target(alpha, beta, w, eps)
    with pytest.raises(ValueError, match="finite"):
        KroneckerProblem(alpha, beta, complex(w).real, complex(w).imag, eps, method=method)


@pytest.mark.parametrize("n_max", [kronecker.MAX_N_MAX + 1, 2 ** 63 - 1])
def test_n_max_above_the_cap_is_refused_before_any_scan(monkeypatch, n_max):
    def no_scan(*args):
        raise AssertionError("a scan started")

    monkeypatch.setattr(kronecker, "_candidate_blocks", no_scan)
    monkeypatch.setattr(kronecker, "_lattice_candidates", no_scan)
    with pytest.raises(ValueError, match="n_max must be at most 2147483648"):
        KroneckerProblem(SQRT2, SQRT3, 0.0, 0.0, 1e-30, n_max=n_max)
    with pytest.raises(ValueError, match="n_max must be at most 2147483648"):
        hit_target(SQRT2, SQRT3, 0.5, 1e-30, n_max=n_max)
    problem = KroneckerProblem(SQRT2, SQRT3, 0.0, 0.0, 1e-30, n_max=kronecker.MAX_N_MAX)
    with pytest.raises(ValueError, match="n_max must be at most"):
        replace(problem, n_max=n_max)


# angles at which n_max = 10**6 gives a route slack just past, and just
# within, the bound
_SLACK_EDGE = kronecker._MAX_SLACK / (2.0 * 10 ** 6 * kronecker._U_LD)


@pytest.mark.parametrize("change, message", [
    ({"n_max": -5}, "n_max must be at least 1"), ({"n_max": 0}, "n_max must be at least 1"),
    ({"parity": "sideways"}, "unknown parity"),
    ({"alpha": 1e300}, "route slack"), ({"beta": -1.0001 * _SLACK_EDGE}, "route slack")])
def test_both_entry_points_refuse_the_same_inputs_before_any_work(monkeypatch, change,
                                                                   message):
    def no_work(*args):
        raise AssertionError("a table, lattice or scan was built")

    for name in ("_root_tables", "_candidate_blocks", "_lattice_candidates"):
        monkeypatch.setattr(kronecker, name, no_work)
    a = dict(alpha=SQRT2, beta=SQRT3, n_max=10 ** 6, parity="any") | change
    started = time.perf_counter()
    with pytest.raises(ValueError, match=message):
        hit_target(a["alpha"], a["beta"], 0.3, 1e-30, a["parity"], a["n_max"])
    for method in ("scan", "lattice"):
        with pytest.raises(ValueError, match=message):
            KroneckerProblem(a["alpha"], a["beta"], 0.0, 0.0, 1e-30, a["n_max"], method,
                             parity=a["parity"])
    assert time.perf_counter() - started < 0.1


def test_the_slack_bound_accepts_every_angle_the_tests_use():
    # the slack property test draws |g| <= 64 at every n_max up to the cap
    for n_max in (10 ** 6, kronecker.MAX_N_MAX):
        KroneckerProblem(64.0, -64.0, 0.0, 0.0, 0.1, n_max, "lattice")
    KroneckerProblem(0.9999 * _SLACK_EDGE, SQRT3, 0.0, 0.0, 0.1, 10 ** 6)


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


def test_min_abs_n_outside_the_search_range_is_refused():
    problem = KroneckerProblem(SQRT2, SQRT3, 0.0, 0.0, 0.1, n_max=10, min_abs_n=10)
    for min_abs_n in (11, -1):
        with pytest.raises(ValueError, match="min_abs_n must lie in 0..n_max = 10"):
            replace(problem, min_abs_n=min_abs_n)


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


# hit_target witnesses at eps 0.01 and n_max 10^6: four seeded targets for
# each of the eight consecutive built-in generator pairs and each fixed
# parity, recorded with the scan that reduced every magnitude's phases
_FROZEN_WITNESSES = (
    -3364, 11462, 8378, -13182, 6137, 2379, 1501, 3119,
    -3482, -8356, 37032, 14074, -8175, 7605, -11375, 255,
    -824, -9080, 9722, 12838, -2719, 4867, 8317, -8303,
    12096, 1086, 3960, -18682, -3229, 6593, 9331, 425,
    2204, -568, 13404, -1184, 11987, 34251, 26951, -4729,
    4498, 1626, -1508, 458, 18397, 11963, -5599, 581,
    -90092, 3132, -8122, 6158, 11817, 149777, 20513, 9401,
    21290, -18500, 15440, 15116, -32523, -975, 9807, 6701,
)


def test_hit_target_witnesses_are_frozen():
    rng = np.random.default_rng(2011)
    got = []
    for k in range(8):
        for parity in ("even", "odd"):
            for _ in range(4):
                w = complex(math.sqrt(rng.uniform()) * np.exp(2j * math.pi * rng.uniform()))
                got.append(hit_target(GENERATORS[2 * k], GENERATORS[2 * k + 1], w, 0.01,
                                      parity, 10 ** 6))
    assert tuple(got) == _FROZEN_WITNESSES


# -- the fixed-block scan, as a second route ----------------------------------

_REFERENCE_BLOCK = 65_536


def _reference_scan(direct, eps, n_max, min_abs, parity):
    """Two-sided scan in fixed blocks of 65 536 magnitudes, every candidate n
    evaluated on n itself by ``direct`` (ns -> tuple of arrays, objective
    first).  ("found", n, values at n, canonical index + 1) or ("missing",
    first n of least objective, that objective)."""
    start = max(min_abs, 1 if parity == "odd" else 0)
    if parity != "any":
        start += (start % 2) if parity == "even" else 1 - start % 2
    step = 1 if parity == "any" else 2
    best_n, best_err, evaluations = None, math.inf, 0
    for lo in range(start, n_max + 1, step * _REFERENCE_BLOCK):
        m = np.arange(lo, min(lo + step * _REFERENCE_BLOCK, n_max + 1), step, dtype=np.int64)
        ns = np.stack([m, -m], axis=1).ravel()
        if m[0] == 0:
            ns = ns[1:]
        arrays = direct(ns)
        hits = np.flatnonzero(arrays[0] < eps)
        if hits.size:
            i = int(hits[0])
            return "found", int(ns[i]), tuple(float(a[i]) for a in arrays), evaluations + i + 1
        evaluations += len(ns)
        i = int(np.argmin(arrays[0]))
        if arrays[0][i] < best_err:
            best_n, best_err = int(ns[i]), float(arrays[0][i])
    return "missing", best_n, best_err


# n_max on both sides of the first block edges (after 256 and 768 magnitudes:
# n = 256 and 768 for parity "any", 512 and 1536 for a fixed parity), and of
# the edge after the first full-size block (130 816 magnitudes)
_EDGES = st.sampled_from((255, 256, 257, 511, 512, 513, 767, 768, 769, 1535, 1536, 1537))
_FAR_EDGES = st.sampled_from((130_815, 130_816, 130_817, 261_631, 261_632, 261_633))
_PARITIES = st.sampled_from(("any", "even", "odd"))
_PHASES = st.one_of(st.just(0.0), st.floats(0.0, TWO_PI, exclude_max=True))
_EPS = st.floats(-4.0, -0.3).map(lambda e: 10.0 ** e)
_DISK = st.one_of(
    st.floats(-1.0, 1.0).map(complex),  # real targets: +m and -m tie exactly
    st.builds(lambda r, t: r * cmath.exp(1j * t), st.floats(0.0, 1.0), _PHASES))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(GENERATORS), st.sampled_from(GENERATORS), _PHASES, _PHASES, _EPS,
       _EDGES, _PARITIES, st.integers(0, 300))
def test_scan_matches_fixed_block_reference(alpha, beta, x, y, eps, n_max, parity, min_abs):
    if min_abs > n_max:  # an empty search range is refused
        with pytest.raises(ValueError, match="min_abs_n must lie in"):
            KroneckerProblem(alpha, beta, x, y, eps, n_max, "scan", min_abs, parity)
        return
    problem = KroneckerProblem(alpha, beta, x, y, eps, n_max, "scan", min_abs, parity)

    def direct(ns):
        ea = chordal(reduced_phases(ns, alpha) - x)
        eb = chordal(reduced_phases(ns, beta) - y)
        return np.maximum(ea, eb), ea, eb

    ref = _reference_scan(direct, eps, n_max, min_abs, parity)
    if ref[0] == "found":
        _, n, (_, ea, eb), evaluations = ref
        assert solve(problem) == kronecker.KroneckerSolution(n, ea, eb, evaluations)
    else:
        with pytest.raises(KroneckerNotFoundError) as exc:
            solve(problem)
        assert (exc.value.best_n, exc.value.best_err) == ref[1:]


def test_scan_of_equal_values_keeps_its_memory_bounded():
    # alpha = beta = 0 gives every candidate the same objective, so every one
    # ties for the best; the first stands, and the ties do not pile up
    problem = KroneckerProblem(0.0, 0.0, 1.0, 2.0, 1e-3, n_max=10 ** 6, parity="odd")
    tracemalloc.start()
    try:
        with pytest.raises(KroneckerNotFoundError) as exc:
            solve(problem)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (exc.value.best_n, exc.value.best_err) == (1, float(chordal(2.0)))
    assert peak < 40 << 20


def _check_hit_target(alpha, beta, w, eps, parity, n_max):
    ref = _reference_scan(lambda ns: (np.abs(pair_transform_values(ns, alpha, beta) - w),),
                          eps, n_max, 0, parity)
    if ref[0] == "found":
        assert hit_target(alpha, beta, w, eps, parity, n_max) == ref[1]
    else:
        with pytest.raises(KroneckerNotFoundError) as exc:
            hit_target(alpha, beta, w, eps, parity, n_max)
        assert (exc.value.best_n, exc.value.best_err) == ref[1:]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(GENERATORS), st.sampled_from(GENERATORS), _DISK, _EPS, _PARITIES,
       _EDGES)
def test_hit_target_matches_fixed_block_reference(alpha, beta, w, eps, parity, n_max):
    _check_hit_target(alpha, beta, w, eps, parity, n_max)


@settings(max_examples=8, deadline=None)
@given(st.sampled_from(GENERATORS), st.sampled_from(GENERATORS), _DISK, _PARITIES,
       _FAR_EDGES)
def test_hit_target_matches_reference_past_the_full_blocks(alpha, beta, w, parity, n_max):
    # eps tight enough to miss: the whole range is scanned, across the edges
    # of full-size blocks in both scans
    _check_hit_target(alpha, beta, w, 1e-6, parity, n_max)


@pytest.mark.parametrize("parity, start, step", [("any", 0, 1), ("even", 0, 2),
                                                  ("odd", 1, 2)])
def test_candidate_blocks_double_up_to_the_full_size(parity, start, step):
    n_max = 700_000
    blocks = list(kronecker._candidate_blocks(n_max, 0, parity))
    sizes = [len(b) for b in blocks]
    assert sizes[:10] == [256 << k for k in range(9)] + [65_536]
    assert max(sizes) == 65_536
    assert np.array_equal(np.concatenate(blocks), np.arange(start, n_max + 1, step))


@pytest.mark.parametrize("m", [1, 2, 255, 256, 257, 511, 512, 513, 767, 768, 769,
                               1535, 1536, 1537])
@pytest.mark.parametrize("pair", [(SQRT2, SQRT3), (math.sqrt(5), math.log(3))])
def test_scan_settles_witnesses_at_eps_by_the_direct_objective(m, pair):
    # targets exactly at n = -m, so only -m's direct objective (0) is below
    # the least positive eps; the conjugate route puts it an ulp above zero
    # about half the time, and block edges move its canonical index
    alpha, beta = pair
    ns = np.array([-m], dtype=np.int64)
    x, y = float(reduced_phases(ns, alpha)[0]), float(reduced_phases(ns, beta)[0])
    eps = math.ulp(0.0)
    for parity in ("any", "even" if m % 2 == 0 else "odd"):
        sol = solve(KroneckerProblem(alpha, beta, x, y, eps, m, parity=parity))
        assert sol == kronecker.KroneckerSolution(-m, 0.0, 0.0, 2 * m + 1 if parity == "any"
                                                  else m + 1)
        w = complex(pair_transform_values(ns, alpha, beta)[0])
        assert hit_target(alpha, beta, w, eps, parity, m) == -m


def test_scan_settles_a_witness_past_the_fixed_slack_by_the_direct_objective():
    # at |n| ~ 9e6 the root tables put -m's objective 3.4e-12 above its
    # direct value 0, beyond a fixed 1e-12 slack; the slack grown with n_max
    # (7.0e-12 here) still sends -m to the direct objective
    alpha, beta, m = math.sqrt(37), math.sqrt(31), 9_038_078
    ns = np.array([-m], dtype=np.int64)
    x, y = float(reduced_phases(ns, alpha)[0]), float(reduced_phases(ns, beta)[0])
    eps = math.ulp(0.0)
    sol = solve(KroneckerProblem(alpha, beta, x, y, eps, m, parity="even"))
    assert sol == kronecker.KroneckerSolution(-m, 0.0, 0.0, m + 1)
    w = complex(pair_transform_values(ns, alpha, beta)[0])
    assert hit_target(alpha, beta, w, eps, "even", m) == -m


_ANGLES = st.one_of(st.sampled_from(GENERATORS), st.just(0.0), st.floats(-64.0, 64.0))


@settings(max_examples=200, deadline=None)
@given(_ANGLES, _ANGLES, _PHASES, _PHASES, _DISK, _PARITIES,
       st.sampled_from((10 ** 6, 10 ** 7, kronecker.MAX_N_MAX)), st.integers(1, 2048))
def test_table_objectives_stay_within_the_slack_of_the_direct_ones(alpha, beta, x, y, w,
                                                                    parity, n_max, size):
    # a block of magnitudes of the parity ending at n_max, its last row
    # partly filled unless size is a multiple of the row length
    step = 1 if parity == "any" else 2
    top = n_max if parity == "any" or n_max % 2 == (parity == "odd") else n_max - 1
    m = np.arange(top - step * (size - 1), top + 1, step, dtype=np.int64)
    ns = np.stack([m, -m], axis=1).ravel()
    for objective, direct, slack in (
            kronecker._chordal_objectives(alpha, beta, x, y, parity, n_max),
            kronecker._rho_objectives(alpha, beta, w, parity, n_max)):
        gap = np.abs(objective(m).ravel() - direct(ns)[0])
        assert gap.max() <= slack


# -- the lattice method's fallback to the scan ---------------------------------

@pytest.fixture
def scan_log(monkeypatch):
    """Each scan a call runs (its message and result, or None when it found
    nothing), and the direct evaluations made outside scans."""
    log = {"outside": 0, "in_scan": False, "scans": []}
    pair_errors, scan = kronecker._pair_errors, kronecker._scan

    def counting(ns, *rest):
        if not log["in_scan"]:
            log["outside"] += len(ns)
        return pair_errors(ns, *rest)

    def recording(*args):
        log["in_scan"] = True
        log["scans"].append([args[-1], None])
        try:
            result = scan(*args)
        finally:
            log["in_scan"] = False
        log["scans"][-1][1] = result
        return result

    monkeypatch.setattr(kronecker, "_pair_errors", counting)
    monkeypatch.setattr(kronecker, "_scan", recording)
    return log


@pytest.mark.parametrize("parity", ["any", "even", "odd"])
def test_lattice_problem_falls_back_to_the_scan(scan_log, parity):
    rng = np.random.default_rng(71)
    found = missed = 0
    for _ in range(80):
        x, y = (float(v) for v in rng.uniform(0.0, TWO_PI, 2))
        problem = KroneckerProblem(SQRT2, SQRT3, x, y, 0.3, 200, "lattice", 0, parity)
        scan_log.update(outside=0, scans=[])
        try:
            sol = solve(problem)
        except KroneckerNotFoundError as exc:
            # the last scan is the problem's own, and its best candidate stands
            with pytest.raises(KroneckerNotFoundError) as ref:
                solve(replace(problem, method="scan"))
            assert (exc.best_n, exc.best_err) == (ref.value.best_n, ref.value.best_err)
            missed += 1
            continue
        if not scan_log["scans"]:
            continue  # a lattice candidate hit
        # the problem's own scan ran once after every lattice candidate
        # missed: the witness is its witness, and evaluations add the direct
        # checks to its index
        assert len(scan_log["scans"]) == 1
        n, _, evaluations = scan_log["scans"][0][1]
        assert sol.n == n
        assert sol.evaluations == scan_log["outside"] + evaluations
        assert scan_log["outside"] >= 1
        assert sol == replace(solve(replace(problem, method="scan")),
                              evaluations=sol.evaluations)
        found += 1
    assert found >= 5 and missed >= 5


def test_parity_lattice_runs_one_scan_and_counts_every_check(scan_log):
    # the doubled angles only propose candidates: each is checked on the
    # problem itself, then the problem's own scan runs once, and evaluations
    # count both
    problem = KroneckerProblem(SQRT2, SQRT3, 5.435600483413056, 3.529710002291225, 0.3,
                               n_max=45, method="lattice", parity="odd")
    sol = solve(problem)
    assert len(scan_log["scans"]) == 1
    n, _, scanned = scan_log["scans"][0][1]
    assert sol.n == n and n % 2 == 1
    assert scan_log["outside"] >= 1
    assert sol.evaluations == scan_log["outside"] + scanned
