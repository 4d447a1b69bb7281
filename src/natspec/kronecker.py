"""Simultaneous approximation of two phase targets by integer multiples.

For rationally independent alpha, beta (together with 2 pi) the pairs
(n*alpha, n*beta) equidistribute on the torus, so any pair of target phases
can be hit to any tolerance.  This module finds witnesses by a vectorized
scan in canonical order (smallest |n| first, positive before negative; one
evaluation per |n| serves both signs, in blocks that grow from 256
magnitudes).  ``solve`` also offers a reduced-lattice heuristic for the
two-phase problem (``method="lattice"``): one LLL reduction, rounded by
Babai's nearest-plane method, proposes at most 65 candidates that are
checked on the problem in one direct evaluation, and the scan runs when none
meets epsilon.  Both routes are bounded by the same n_max; the scan returns
the canonical first witness, the lattice some verified witness, sooner at
tight tolerances.  ``hit_target`` always scans.  Every returned witness and
error is recomputed on n itself.

The scan builds e^{-i m g} for each angle g from two small root tables
instead of one long-double phase reduction per magnitude: a fine table
e^{-i a s g} for a < 256 (s is the magnitude step, 2 for a fixed parity),
built once per scan, and a coarse column e^{-i n_b g} at each block row
start n_b, reduced exactly like the direct route; then e^{-i m g} is the
product of the two at m = n_b + a s.  The table value and the direct one
differ by about two long-double roundings of m g, so candidates within
1e-12 + 2 n_max max(|alpha|, |beta|) u_LD of eps (u_LD the long double's
unit roundoff) are settled by the direct objective.  n_max is capped at
MAX_N_MAX = 2**31, where that slack is about 1.4e-9 for angles below 2 pi,
and inputs whose slack 2 n_max max(|alpha|, |beta|) u_LD exceeds
_MAX_SLACK = 1e-6 are refused: there the phases of both routes carry
errors that no longer bound a witness's distance from its target.

Everything here works with float radian values; the exact-position layer is
not needed because every answer is certified by direct evaluation.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from typing import Iterator

import numpy as np

from .angles import TWO_PI, phase_factors, reduced_phases
from .errors import KroneckerNotFoundError, OutOfDiskError

_SCAN_BLOCK = 65_536  # magnitudes in the largest scan block
_FIRST_BLOCK = 256  # magnitudes in the first one
_ROW = 256  # magnitudes per row of the scan's root tables
_U_LD = float(np.finfo(np.longdouble).eps) / 2  # unit roundoff of reduced_phases
MAX_N_MAX = 2 ** 31  # largest n_max a scan or hit_target accepts
# largest route slack 2 n_max max(|alpha|, |beta|) u_LD accepted; angles up
# to 64 in magnitude at MAX_N_MAX give about 1.5e-8 with the x87 long double
_MAX_SLACK = 1e-6
_NEIGHBOR_RANGE = 8  # Babai neighbours and basis multiples on either side
_LLL_DELTA = 0.75  # Lovasz condition of the lattice reduction
_LLL_MAX_ITERS = 1000  # swap-and-reduce steps before the reduction stops as it is


@dataclass(frozen=True)
class KroneckerProblem:
    """Find n with both n*alpha ~ target_x and n*beta ~ target_y (mod 2 pi),
    distances measured in the chordal metric 2|sin(delta/2)|."""

    alpha: float
    beta: float
    target_x: float
    target_y: float
    epsilon: float
    n_max: int = 10 ** 6
    method: str = "scan"
    min_abs_n: int = 0
    parity: str = "any"

    def __post_init__(self):
        _check_inputs({name: getattr(self, name) for name in
                       ("alpha", "beta", "target_x", "target_y", "epsilon")},
                      "epsilon", self.n_max, self.parity)
        if self.method not in ("scan", "lattice"):
            raise ValueError(f"unknown method {self.method!r}")
        if not 0 <= self.min_abs_n <= self.n_max:
            raise ValueError(f"min_abs_n must lie in 0..n_max = {self.n_max}, "
                             f"got {self.min_abs_n}")


def _check_inputs(values: dict, eps_name: str, n_max: int, parity: str) -> None:
    """Refuse with ValueError, in O(1) and before any table, lattice or scan,
    what neither ``solve`` nor ``hit_target`` can answer: a value of
    ``values`` that is not finite, a tolerance ``values[eps_name]`` that is
    not positive, n_max outside 1..MAX_N_MAX, an unknown parity, or a route
    slack 2 n_max max(|alpha|, |beta|) u_LD above _MAX_SLACK."""
    for name, x in values.items():
        if not cmath.isfinite(x):
            raise ValueError(f"{name} must be finite, got {x!r}")
    if values[eps_name] <= 0:
        raise ValueError(f"{eps_name} must be positive")
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    if n_max > MAX_N_MAX:
        raise ValueError(f"n_max must be at most {MAX_N_MAX} (2**31), got {n_max}")
    if parity not in ("any", "even", "odd"):
        raise ValueError(f"unknown parity {parity!r}")
    top = max(abs(values["alpha"]), abs(values["beta"]))
    slack = 2.0 * n_max * top * _U_LD
    if slack > _MAX_SLACK:
        raise ValueError(f"angles up to {top!r} at n_max {n_max} give a route slack "
                         f"of {slack:.3g}, above {_MAX_SLACK}")


@dataclass(frozen=True)
class KroneckerSolution:
    """A verified witness: both chordal errors were recomputed directly."""

    n: int
    err_alpha: float
    err_beta: float
    evaluations: int


def chordal(delta) -> np.ndarray:
    """Chordal distance on the circle for a phase difference in radians."""
    return 2.0 * np.abs(np.sin(np.asarray(delta, dtype=np.float64) / 2.0))


def _pair_errors(ns: np.ndarray, alpha: float, beta: float,
                 x: float, y: float) -> tuple[np.ndarray, np.ndarray]:
    ea = chordal(reduced_phases(ns, alpha) - x)
    eb = chordal(reduced_phases(ns, beta) - y)
    return ea, eb


def _candidate_blocks(n_max: int, min_abs: int, parity: str = "any") -> Iterator[np.ndarray]:
    """Candidate magnitudes m >= 0 of the requested parity, increasing, in
    blocks of _FIRST_BLOCK magnitudes that double up to _SCAN_BLOCK.

    Each m stands for +m and then -m in the canonical order (m = 0 once),
    so a witness at small |n| costs a small block and a long scan still runs
    in large ones.
    """
    step, odd = (1 if parity == "any" else 2), parity == "odd"
    start = max(min_abs, int(odd))
    start += (start - odd) % step
    lo, size = start, _FIRST_BLOCK
    while lo <= n_max:
        stop = min(lo + step * size, n_max + 1)
        yield np.arange(lo, stop, step, dtype=np.int64)
        lo, size = stop, min(2 * size, _SCAN_BLOCK)


def _signed(m: np.ndarray, i, zero: bool):
    """Candidates at positions i of a block of magnitudes in canonical order."""
    j = i + (zero & (i > 0))
    return np.where(j % 2 == 0, m[j // 2], -m[j // 2])


def _root_tables(angles: tuple[float, ...], parity: str, n_max: int):
    """Root tables for a scan over magnitudes m of the parity's step s, and
    the scan's route slack: (fine, coarse, slack).

    ``fine`` is the (len(angles), _ROW) table e^{-i a s g}, a < _ROW, and
    ``coarse(m)`` the (rows, len(angles)) column e^{-i n_b g} at the row
    starts n_b = m[::_ROW] of a block, both reduced by ``reduced_phases`` as
    the direct route is; e^{-i m g} = coarse(m)[b] * fine[a] at
    m = n_b + a s.  Each factor's phase carries one long-double rounding of
    its product and the direct phase one more, so for m <= n_max the two
    routes differ by at most 2 n_max |g| u_LD plus a few float64 ulps:
    ``slack`` = 1e-12 + 2 n_max max|g| u_LD.
    """
    step = 1 if parity == "any" else 2
    g = np.array(angles, dtype=np.float64)
    fine = phase_factors(np.arange(0, _ROW * step, step, dtype=np.int64), g[:, None])

    def coarse(m: np.ndarray) -> np.ndarray:
        return phase_factors(m[::_ROW, None], g)

    slack = 1e-12 + 2.0 * n_max * float(np.max(np.abs(g))) * _U_LD
    return fine, coarse, slack


def _chordal_objectives(alpha: float, beta: float, x: float, y: float, parity: str,
                        n_max: int):
    """(objective, direct, slack) of the two-phase scan: the larger chordal
    error of n*alpha against x and of n*beta against y.

    The objective uses chordal(p - x) = |e^{-ip} - e^{-ix}|: with z the
    table root e^{-i m alpha}, that is |z - e^{-ix}| at +m and |z - e^{ix}|
    at -m.  The direct route rounds p - x in float64, which adds
    max(|x|, |y|) u to the slack.
    """
    fine, coarse, slack = _root_tables((alpha, beta), parity, n_max)
    slack += max(abs(x), abs(y)) * 2.0 ** -53
    targets = ((cmath.exp(-1j * x), cmath.exp(-1j * y)),
               (cmath.exp(1j * x), cmath.exp(1j * y)))

    def objective(m):
        c = coarse(m)
        za = np.outer(c[:, 0], fine[0]).ravel()[:len(m)]
        zb = np.outer(c[:, 1], fine[1]).ravel()[:len(m)]
        obj = np.empty((len(m), 2))
        for j, (tx, ty) in enumerate(targets):
            np.maximum(np.abs(za - tx), np.abs(zb - ty), out=obj[:, j])
        return obj

    def direct(ns):
        ea, eb = _pair_errors(ns, alpha, beta, x, y)
        return np.maximum(ea, eb), ea, eb

    return objective, direct, slack


def _rho_objectives(alpha: float, beta: float, w: complex, parity: str, n_max: int):
    """(objective, direct, slack) of hit_target's scan: |rho(n) - w| with
    rho(n) = (e^{-in alpha} + e^{-in beta}) / 2.

    rho(m) is one rank-2 product of the root tables, and rho(-m) =
    conj(rho(m)) with |conj(rho) - w| = |rho - conj(w)|.
    """
    fine, coarse, slack = _root_tables((alpha, beta), parity, n_max)
    targets = (w, w.conjugate())

    def objective(m):
        rho = ((0.5 * coarse(m)) @ fine).ravel()[:len(m)]
        obj = np.empty((len(m), 2))
        for j, t in enumerate(targets):
            np.abs(rho - t, out=obj[:, j])
        return obj

    def direct(ns):
        return (np.abs(_rho_values(ns, alpha, beta) - w),)

    return objective, direct, slack


def _scan(objective, direct, slack: float, eps: float, n_max: int, min_abs: int,
          parity: str, message: str) -> tuple[int, tuple[float, ...], int]:
    """First n in canonical order whose direct objective is below ``eps``.

    ``objective`` maps a block of magnitudes m >= 0 to an (len(m), 2) array
    of the objective at +m and at -m, built from the two root tables of
    ``_root_tables``, so one evaluation per |n| serves both signs and one
    long-double phase reduction per angle serves 256 magnitudes.
    ``direct`` maps an array of candidates n to a tuple of arrays evaluated
    on n itself, the objective first.  The two routes differ by at most
    ``slack``, 1e-12 + 2 n_max max(|alpha|, |beta|) u_LD, so every candidate
    the block puts below ``eps + slack`` is rechecked by ``direct``, and the
    first one, in canonical order, that it accepts is the witness.  Returns
    (n, each direct array's value at n, evaluations), where evaluations is
    the witness's canonical index + 1.  Raises KroneckerNotFoundError with
    the first candidate, in canonical order, of least direct objective and
    that objective; only candidates within 2 slack of the scan's least
    value can hold it, and only those are evaluated directly.
    """
    near_slack = 2.0 * slack
    evaluations = 0
    lowest, near = math.inf, []  # (block minimum, m, objective, zero) near the least
    for m in _candidate_blocks(n_max, min_abs, parity):
        obj = objective(m).ravel()
        zero = bool(m[0] == 0)
        if zero:
            obj = np.delete(obj, 1)  # -0 is +0
        hits = np.flatnonzero(obj < eps + slack)
        if hits.size:
            arrays = direct(_signed(m, hits, zero))
            accepted = np.flatnonzero(arrays[0] < eps)
            if accepted.size:
                k = int(accepted[0])
                i = int(hits[k])
                return (int(_signed(m, i, zero)), tuple(float(a[k]) for a in arrays),
                        evaluations + i + 1)
        evaluations += len(obj)
        low = float(obj.min())
        if low <= lowest + near_slack:
            lowest = min(lowest, low)
            near = [entry for entry in near if entry[0] <= lowest + near_slack]
            near.append((low, m, obj, zero))
            if sum(len(entry[2]) for entry in near) > 2 * _SCAN_BLOCK:  # many equal values
                # the first least candidate stands for them all, as a block
                # of one candidate at the least minimum
                n, _ = _first_least(near, direct, near_slack)
                near = [(lowest, np.array([n]), np.array([lowest]), False)]
    if not near:
        raise KroneckerNotFoundError(message, best_n=None, best_err=math.inf)
    n, err = _first_least(near, direct, near_slack)
    raise KroneckerNotFoundError(message, best_n=n, best_err=err)


def _first_least(near, direct, near_slack: float) -> tuple[int, float]:
    """The first candidate, in canonical order, of least direct objective
    among those within ``near_slack`` of their block's minimum in the scan's
    near entries, and that objective."""
    ns = np.concatenate([_signed(m, np.flatnonzero(obj <= low + near_slack), zero)
                         for low, m, obj, zero in near])
    errs = direct(ns)[0]
    i = int(np.argmin(errs))
    return int(ns[i]), float(errs[i])


def _solve_scan(problem: KroneckerProblem) -> KroneckerSolution:
    n, (_, ea, eb), evaluations = _scan(
        *_chordal_objectives(problem.alpha, problem.beta, problem.target_x,
                             problem.target_y, problem.parity, problem.n_max),
        problem.epsilon, problem.n_max, problem.min_abs_n, problem.parity,
        f"no n with |n| <= {problem.n_max} meets epsilon={problem.epsilon}")
    return KroneckerSolution(n, ea, eb, evaluations)


def _doubled(alpha: float, beta: float, parity: str):
    """(alpha', beta', lift) reducing a parity-restricted search to an
    unrestricted one over m: n = 2m (even) or n = 2m + 1 (odd), searched
    with the doubled angles; parity "any" keeps everything as it is."""
    if parity == "any":
        return alpha, beta, lambda m: m
    return (_wrap(2.0 * alpha), _wrap(2.0 * beta),
            (lambda m: 2 * m) if parity == "even" else (lambda m: 2 * m + 1))


def _gram_schmidt(rows: list[np.ndarray]) -> tuple[list[np.ndarray], list[list[float]]]:
    n = len(rows)
    gs: list[np.ndarray] = []
    mu = [[0.0] * n for _ in range(n)]
    for i in range(n):
        v = rows[i].astype(np.float64).copy()
        for j in range(i):
            denom = float(np.dot(gs[j], gs[j]))
            mu[i][j] = float(np.dot(rows[i], gs[j])) / denom if denom > 0 else 0.0
            v -= mu[i][j] * gs[j]
        gs.append(v)
    return gs, mu


def _lll(rows: list[np.ndarray]
         ) -> tuple[list[np.ndarray], list[list[int]], list[np.ndarray]]:
    """Float LLL on a small basis; returns reduced rows, the integer
    transform expressing them in the original rows, and the reduced rows'
    Gram-Schmidt vectors.  A size-reduction step b_k -= q b_j keeps every
    Gram-Schmidt vector and lowers mu[k][i] by q mu[j][i] (with mu[j][j] =
    1), so the basis is orthogonalised once and again only after a swap."""
    b = [row.astype(np.float64).copy() for row in rows]
    n = len(b)
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    gs, mu = _gram_schmidt(b)
    k = 1
    for _ in range(_LLL_MAX_ITERS):
        if k >= n:
            break
        for j in range(k - 1, -1, -1):
            q = round(mu[k][j])
            if q:
                b[k] = b[k] - q * b[j]
                u[k] = [a - q * c for a, c in zip(u[k], u[j])]
                for i in range(j):
                    mu[k][i] -= q * mu[j][i]
                mu[k][j] -= q
        lhs = float(np.dot(gs[k], gs[k]))
        rhs = (_LLL_DELTA - mu[k][k - 1] ** 2) * float(np.dot(gs[k - 1], gs[k - 1]))
        if lhs >= rhs:
            k += 1
        else:
            b[k], b[k - 1] = b[k - 1], b[k]
            u[k], u[k - 1] = u[k - 1], u[k]
            gs, mu = _gram_schmidt(b)
            k = max(k - 1, 1)
    return b, u, gs


def _nearest_plane(b: list[np.ndarray], gs: list[np.ndarray], target: np.ndarray) -> list[int]:
    """Babai's nearest-plane coefficients of target in the basis b, whose
    Gram-Schmidt vectors are gs."""
    c = target.astype(np.float64).copy()
    coeffs = [0] * len(b)
    for i in reversed(range(len(b))):
        denom = float(np.dot(gs[i], gs[i]))
        t = float(np.dot(c, gs[i])) / denom if denom > 0 else 0.0
        q = round(t)
        coeffs[i] = q
        c -= q * b[i]
    return coeffs


def _lattice_candidates(alpha: float, beta: float, x: float, y: float,
                        epsilon: float) -> list[int]:
    """Candidate n for n*alpha ~ x and n*beta ~ y from one reduced lattice,
    best guesses first; none of them is verified here.

    The integer n is embedded with weight (epsilon/16)**3 against the
    fractional parts of n*alpha and n*beta: a witness with both fractional
    errors around epsilon / 2 pi turns typically has |n| ~ (epsilon / 2 pi)
    ** -2, so that weight puts such witnesses at shortest-vector scale.  The
    candidates are Babai's nearest-plane point for the target and its
    neighbours up to _NEIGHBOR_RANGE on either side, then the multiples up to
    _NEIGHBOR_RANGE of the n-components of the reduced basis, which rescue
    homogeneous problems, where the nearest lattice point is the excluded
    trivial witness n = 0.
    """
    w = max((epsilon / 16.0) ** 3, 1e-18)
    rows = [np.array([w, alpha / TWO_PI, beta / TWO_PI]),
            np.array([0.0, 1.0, 0.0]),
            np.array([0.0, 0.0, 1.0])]
    target = np.array([0.0, x / TWO_PI, y / TWO_PI])
    b, u, gs = _lll(rows)
    coeffs = _nearest_plane(b, gs, target)
    n0 = sum(coeffs[i] * u[i][0] for i in range(len(u)))
    offsets = [0] + [s * k for k in range(1, _NEIGHBOR_RANGE + 1) for s in (1, -1)]
    return ([n0 + d for d in offsets]
            + [k * u[i][0] for i in range(len(u)) for k in offsets[1:] if u[i][0] != 0])


def _solve_lattice(problem: KroneckerProblem) -> KroneckerSolution:
    """Check the distinct lattice candidates in range on the problem itself,
    all in one direct evaluation, and return the first, in candidate order,
    that meets epsilon; otherwise fall back to the problem's own scan.
    evaluations counts every candidate checked plus the scan's own count.  A
    parity-restricted problem takes its candidates m from the doubled
    angles, with the targets shifted by one copy of each angle when
    n = 2m + 1, and lifts them to n."""
    alpha, beta, lift = _doubled(problem.alpha, problem.beta, problem.parity)
    x, y = problem.target_x, problem.target_y
    if problem.parity == "odd":
        x, y = _wrap(x - problem.alpha), _wrap(y - problem.beta)
    candidates = map(lift, _lattice_candidates(alpha, beta, x, y, problem.epsilon))
    ns = np.array([n for n in dict.fromkeys(candidates)
                   if problem.min_abs_n <= abs(n) <= problem.n_max], dtype=np.int64)
    ea, eb = _pair_errors(ns, problem.alpha, problem.beta, problem.target_x,
                          problem.target_y)
    hits = np.flatnonzero((ea < problem.epsilon) & (eb < problem.epsilon))
    if hits.size:
        k = int(hits[0])
        return KroneckerSolution(int(ns[k]), float(ea[k]), float(eb[k]), len(ns))
    fallback = _solve_scan(problem)
    return replace(fallback, evaluations=fallback.evaluations + len(ns))


def solve(problem: KroneckerProblem) -> KroneckerSolution:
    """Find a verified witness for the problem.

    The scan method returns the canonical-order first witness; the lattice
    method may return any verified witness and falls back to the scan when
    its candidates fail.
    """
    if problem.method == "lattice":
        return _solve_lattice(problem)
    return _solve_scan(problem)


def disk_preimage(w: complex) -> tuple[complex, complex]:
    """Unimodular (z, u) with (z + u) / 2 == w, for w in the closed unit disk;
    OutOfDiskError for any other w, one with a modulus that is not finite
    included."""
    w = complex(w)
    r = abs(w)
    if not r <= 1.0 + 1e-12:
        raise OutOfDiskError(f"|w| = {r} is not at most 1")
    if r == 0.0:
        return (1 + 0j, -1 + 0j)
    s = math.sqrt(max(0.0, 1.0 - r * r))
    d = 1j * s * (w / r)
    return (w + d, w - d)


def pair_transform_values(ns: np.ndarray, alpha: float, beta: float) -> np.ndarray:
    """(e^{-in alpha} + e^{-in beta}) / 2 at each n.

    These are the transform values of the averaged two-point measure at alpha
    and beta.  Each phase n*g is formed and reduced mod 2 pi in long double
    (``reduced_phases``), so its error is about |n g| u_LD, with u_LD the
    long double's unit roundoff: 2**-64 for the x87 80-bit format, which is
    about 5e-14 at |n g| = 1e6 and 6e-8 at |n g| = 2**40, and 2**-53 where
    long double is float64.
    """
    return 0.5 * (phase_factors(ns, alpha) + phase_factors(ns, beta))


_rho_values = pair_transform_values


def _wrap(x: float) -> float:
    x = math.fmod(x, TWO_PI)
    if x < 0.0:
        x += TWO_PI
    return x


def hit_target(alpha: float, beta: float, w: complex, eps: float,
               parity: str = "any", n_max: int = 10 ** 6) -> int:
    """First integer n of the requested parity, in canonical order, with
    |(e^{-in a}+e^{-in b})/2 - w| < eps.

    The scan runs in blocks of 256 magnitudes doubling up to 65 536 and
    evaluates rho(m) = (e^{-im a}+e^{-im b})/2 once per magnitude m, from
    the two root tables of ``_root_tables``: the objective at -m is
    |conj(rho(m)) - w| = |rho(m) - conj(w)|.  Candidates within the route
    slack of eps are confirmed on n itself by ``pair_transform_values``, and
    a not-found error's best error comes from the same direct route.
    Inputs are refused before any work by the check ``KroneckerProblem``
    shares (ValueError for non-finite values, eps <= 0, n_max outside
    1..MAX_N_MAX, an unknown parity or a route slack above _MAX_SLACK), and
    a target outside the unit disk with OutOfDiskError.
    """
    w = complex(w)
    _check_inputs({"alpha": alpha, "beta": beta, "w": w, "eps": eps}, "eps", n_max, parity)
    if abs(w) > 1.0 + 1e-12:
        raise OutOfDiskError(f"target modulus {abs(w)} exceeds 1")
    n, _, _ = _scan(*_rho_objectives(alpha, beta, w, parity, n_max),
                    eps, n_max, 0, parity,
                    f"no {parity} n with |n| <= {n_max} meets eps={eps}")
    return n
