"""Simultaneous approximation of two phase targets by integer multiples.

For rationally independent alpha, beta (together with 2 pi) the pairs
(n*alpha, n*beta) equidistribute on the torus, so any pair of target phases
can be hit to any tolerance.  This module finds witnesses: either by a
vectorized scan in canonical order (smallest |n| first, positive before
negative; one phase reduction per |n| serves both signs, in blocks that
grow from 256 magnitudes) or by a reduced-lattice heuristic.  Every
returned witness and error is recomputed on n itself.

Everything here works with float radian values; the exact-position layer is
not needed because every answer is certified by direct evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterator

import numpy as np

from .angles import TWO_PI, reduced_phases
from .errors import KroneckerNotFoundError, OutOfDiskError

_SCAN_BLOCK = 65_536  # magnitudes in the largest scan block
_FIRST_BLOCK = 256  # magnitudes in the first one
# the scan's conjugate-symmetry objective and the direct one differ by a few
# ulps (about 1e-15); candidates this close to eps or to the least value are
# settled by the direct objective
_ROUTE_SLACK = 1e-12
_SIGNS = np.array([1.0, -1.0])
_NEIGHBOR_RANGE = 8


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
        for name in ("alpha", "beta", "target_x", "target_y", "epsilon"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.n_max < 1:
            raise ValueError("n_max must be at least 1")
        if self.method not in ("scan", "lattice"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.min_abs_n < 0:
            raise ValueError("min_abs_n must be nonnegative")
        if self.parity not in ("any", "even", "odd"):
            raise ValueError(f"unknown parity {self.parity!r}")


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
    if parity == "any":
        start, step = max(min_abs, 0), 1
    elif parity == "even":
        start = max(min_abs, 0)
        start += start % 2
        step = 2
    elif parity == "odd":
        start = max(min_abs, 1)
        start += 1 - start % 2
        step = 2
    else:
        raise ValueError(f"unknown parity {parity!r}")
    lo, size = start, _FIRST_BLOCK
    while lo <= n_max:
        stop = min(lo + step * size, n_max + 1)
        yield np.arange(lo, stop, step, dtype=np.int64)
        lo, size = stop, min(2 * size, _SCAN_BLOCK)


def _signed(m: np.ndarray, i, zero: bool):
    """Candidates at positions i of a block of magnitudes in canonical order."""
    j = i + (zero & (i > 0))
    return np.where(j % 2 == 0, m[j // 2], -m[j // 2])


def _scan(objective, direct, eps: float, n_max: int, min_abs: int, parity: str,
          message: str) -> tuple[int, tuple[float, ...], int]:
    """First n in canonical order whose objective is below ``eps``.

    ``objective`` maps a block of magnitudes m >= 0 to an (len(m), 2) array
    of the objective at +m and at -m, so one evaluation per |n| serves both
    signs (for real angles the value at -n is the conjugate of the value at
    n).  ``direct`` maps an array of candidates n to a tuple of arrays
    evaluated on n itself, the objective first.  The two routes differ by a
    few ulps, so every candidate the block puts within _ROUTE_SLACK of
    ``eps`` is rechecked by ``direct`` in canonical order, and the first one
    it accepts is the witness.  Returns (n, each direct array's value at n,
    evaluations), where evaluations is the witness's canonical index + 1.
    Raises KroneckerNotFoundError with the first candidate, in canonical
    order, of least direct objective and that objective; only candidates
    within _ROUTE_SLACK of the scan's least value are evaluated directly.
    """
    evaluations = 0
    lowest, near = math.inf, []  # (block minimum, its candidates near it)
    for m in _candidate_blocks(n_max, min_abs, parity):
        obj = objective(m).ravel()
        zero = bool(m[0] == 0)
        if zero:
            obj = np.delete(obj, 1)  # -0 is +0
        for i in np.flatnonzero(obj < eps + _ROUTE_SLACK):
            n = int(_signed(m, i, zero))
            values = tuple(float(a[0]) for a in direct(np.array([n], dtype=np.int64)))
            if values[0] < eps:
                return n, values, evaluations + int(i) + 1
        evaluations += len(obj)
        low = float(obj.min())
        if low <= lowest + _ROUTE_SLACK:
            lowest = min(lowest, low)
            near = [(b, ns) for b, ns in near if b <= lowest + _ROUTE_SLACK]
            near.append((low, _signed(m, np.flatnonzero(obj <= low + _ROUTE_SLACK), zero)))
            if sum(len(ns) for _, ns in near) > _SCAN_BLOCK:  # many equal values
                near = [_first_least(near, direct)[:2]]
    if not near:
        raise KroneckerNotFoundError(message, best_n=None, best_err=math.inf)
    _, ns, err = _first_least(near, direct)
    raise KroneckerNotFoundError(message, best_n=int(ns[0]), best_err=err)


def _first_least(near, direct) -> tuple[float, np.ndarray, float]:
    """Collapse the scan's (block minimum, candidates) entries to the first
    candidate of least direct objective: (least block minimum, [n], its
    objective)."""
    ns = np.concatenate([ns for _, ns in near])
    errs = direct(ns)[0]
    i = int(np.argmin(errs))
    return min(b for b, _ in near), ns[i:i + 1], float(errs[i])


def _solve_scan(problem: KroneckerProblem) -> KroneckerSolution:
    alpha, beta = problem.alpha, problem.beta
    x, y = problem.target_x, problem.target_y

    def objective(m):
        # columns +m and -m: the phase of -m is minus the phase of m
        pa = reduced_phases(m, alpha)[:, None] * _SIGNS
        pb = reduced_phases(m, beta)[:, None] * _SIGNS
        return np.maximum(chordal(pa - x), chordal(pb - y))

    def direct(ns):
        ea, eb = _pair_errors(ns, alpha, beta, x, y)
        return np.maximum(ea, eb), ea, eb

    n, (_, ea, eb), evaluations = _scan(
        objective, direct, problem.epsilon, problem.n_max, problem.min_abs_n,
        problem.parity, f"no n with |n| <= {problem.n_max} meets epsilon={problem.epsilon}")
    return KroneckerSolution(n, ea, eb, evaluations)


def _doubled(alpha: float, beta: float, n_max: int, parity: str):
    """(alpha', beta', m_max, lift) reducing a parity-restricted search to an
    unrestricted one over m: n = 2m (even) or n = 2m + 1 (odd), searched
    with the doubled angles; parity "any" keeps everything as it is."""
    if parity == "any":
        return alpha, beta, n_max, lambda m: m
    if parity == "even":
        return _wrap(2.0 * alpha), _wrap(2.0 * beta), max(n_max // 2, 1), lambda m: 2 * m
    return (_wrap(2.0 * alpha), _wrap(2.0 * beta), max((n_max - 1) // 2, 1),
            lambda m: 2 * m + 1)


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


def _lll(rows: list[np.ndarray], delta: float = 0.75,
         max_iters: int = 1000) -> tuple[list[np.ndarray], list[list[int]]]:
    """Float LLL on a small basis; returns reduced rows and the integer
    transform expressing them in the original rows."""
    b = [row.astype(np.float64).copy() for row in rows]
    n = len(b)
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    gs, mu = _gram_schmidt(b)
    k = 1
    for _ in range(max_iters):
        if k >= n:
            break
        for j in range(k - 1, -1, -1):
            q = round(mu[k][j])
            if q:
                b[k] = b[k] - q * b[j]
                u[k] = [a - q * c for a, c in zip(u[k], u[j])]
                gs, mu = _gram_schmidt(b)
        lhs = float(np.dot(gs[k], gs[k]))
        rhs = (delta - mu[k][k - 1] ** 2) * float(np.dot(gs[k - 1], gs[k - 1]))
        if lhs >= rhs:
            k += 1
        else:
            b[k], b[k - 1] = b[k - 1], b[k]
            u[k], u[k - 1] = u[k - 1], u[k]
            gs, mu = _gram_schmidt(b)
            k = max(k - 1, 1)
    return b, u


def _nearest_plane(b: list[np.ndarray], target: np.ndarray) -> list[int]:
    gs, _ = _gram_schmidt(b)
    c = target.astype(np.float64).copy()
    coeffs = [0] * len(b)
    for i in reversed(range(len(b))):
        denom = float(np.dot(gs[i], gs[i]))
        t = float(np.dot(c, gs[i])) / denom if denom > 0 else 0.0
        q = round(t)
        coeffs[i] = q
        c -= q * b[i]
    return coeffs


def _solve_lattice(problem: KroneckerProblem) -> KroneckerSolution:
    if problem.parity != "any":
        # search the doubled angles for m, with the targets shifted by one
        # copy of each angle when n = 2m + 1; the lifted candidate is
        # re-verified against the original objective
        alpha2, beta2, m_max, lift = _doubled(problem.alpha, problem.beta,
                                              problem.n_max, problem.parity)
        sub = replace(problem, alpha=alpha2, beta=beta2, n_max=m_max,
                      min_abs_n=(problem.min_abs_n + 1) // 2, parity="any")
        if problem.parity == "odd":
            sub = replace(sub, target_x=_wrap(problem.target_x - problem.alpha),
                          target_y=_wrap(problem.target_y - problem.beta),
                          min_abs_n=max((problem.min_abs_n - 1) // 2, 0))
        extra = 0
        try:
            subsol = _solve_lattice(sub)
            n = lift(subsol.n)
            extra = subsol.evaluations
            if problem.min_abs_n <= abs(n) <= problem.n_max:
                ns = np.array([n], dtype=np.int64)
                ea, eb = _pair_errors(ns, problem.alpha, problem.beta,
                                      problem.target_x, problem.target_y)
                extra += 1
                if ea[0] < problem.epsilon and eb[0] < problem.epsilon:
                    return KroneckerSolution(int(n), float(ea[0]), float(eb[0]), extra)
        except KroneckerNotFoundError:
            pass
        fallback = _solve_scan(problem)
        return replace(fallback, evaluations=fallback.evaluations + extra)
    # Embed the integer n with weight epsilon/4 against the fractional parts
    # so that short vectors near the target correspond to good witnesses.
    w = problem.epsilon / 4.0
    rows = [np.array([w, problem.alpha / TWO_PI, problem.beta / TWO_PI]),
            np.array([0.0, 1.0, 0.0]),
            np.array([0.0, 0.0, 1.0])]
    target = np.array([0.0, problem.target_x / TWO_PI, problem.target_y / TWO_PI])
    b, u = _lll(rows)
    coeffs = _nearest_plane(b, target)
    n0 = sum(coeffs[i] * u[i][0] for i in range(len(u)))
    # Babai candidates and their near neighbors; then multiples of the
    # n-components of the reduced basis (these rescue homogeneous problems,
    # where the nearest lattice point is the excluded trivial witness n = 0).
    offsets = [0] + [s * k for k in range(1, _NEIGHBOR_RANGE + 1) for s in (1, -1)]
    candidates = [n0 + d for d in offsets]
    candidates += [k * u[i][0] for i in range(len(u))
                   for k in offsets[1:] if u[i][0] != 0]
    # Second reduction, weighted by the quality itself: a witness with both
    # fractional errors around epsilon / 2 pi turns typically has
    # |n| ~ (epsilon / 2 pi) ** -2, so scaling the integer coordinate by
    # ~epsilon**3 puts such witnesses at shortest-vector scale.  This rescues
    # homogeneous problems (targets at an excluded trivial witness) and very
    # tight tolerances, where every candidate above misses.
    wh = max((problem.epsilon / 16.0) ** 3, 1e-18)
    rows_h = [np.array([wh, problem.alpha / TWO_PI, problem.beta / TWO_PI]),
              np.array([0.0, 1.0, 0.0]),
              np.array([0.0, 0.0, 1.0])]
    bh, uh = _lll(rows_h)
    ch = _nearest_plane(bh, target)
    nh = sum(ch[i] * uh[i][0] for i in range(len(uh)))
    candidates += [nh + d for d in offsets]
    candidates += [k * uh[i][0] for i in range(len(uh))
                   for k in offsets[1:] if uh[i][0] != 0]
    evaluations = 0
    seen: set[int] = set()
    for n in candidates:
        if n in seen or abs(n) > problem.n_max or abs(n) < problem.min_abs_n:
            continue
        seen.add(n)
        ns = np.array([n], dtype=np.int64)
        ea, eb = _pair_errors(ns, problem.alpha, problem.beta,
                              problem.target_x, problem.target_y)
        evaluations += 1
        if ea[0] < problem.epsilon and eb[0] < problem.epsilon:
            return KroneckerSolution(int(n), float(ea[0]), float(eb[0]), evaluations)
    fallback = _solve_scan(problem)
    return replace(fallback, evaluations=fallback.evaluations + evaluations)


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
    """Unimodular (z, u) with (z + u) / 2 == w, for w in the closed unit disk."""
    w = complex(w)
    r = abs(w)
    if r > 1.0 + 1e-12:
        raise OutOfDiskError(f"|w| = {r} exceeds 1")
    if r == 0.0:
        return (1 + 0j, -1 + 0j)
    s = math.sqrt(max(0.0, 1.0 - r * r))
    d = 1j * s * (w / r)
    return (w + d, w - d)


def disk_preimage_shifted(w: complex, alpha: float, beta: float) -> tuple[complex, complex]:
    """Unimodular (zeta, upsilon) with (zeta e^{-i alpha} + upsilon e^{-i beta}) / 2 == w."""
    z, u = disk_preimage(w)
    return (z * complex(math.cos(alpha), math.sin(alpha)),
            u * complex(math.cos(beta), math.sin(beta)))


def pair_transform_values(ns: np.ndarray, alpha: float, beta: float) -> np.ndarray:
    """(e^{-in alpha} + e^{-in beta}) / 2 at each n.

    These are the transform values of the averaged two-point measure at alpha
    and beta; phases are reduced in extended precision so the values stay
    accurate for |n| up to about 1e12.
    """
    pa = reduced_phases(ns, alpha)
    pb = reduced_phases(ns, beta)
    return 0.5 * (np.exp(-1j * pa) + np.exp(-1j * pb))


_rho_values = pair_transform_values


def _wrap(x: float) -> float:
    x = math.fmod(x, TWO_PI)
    if x < 0.0:
        x += TWO_PI
    return x


def hit_target(alpha: float, beta: float, w: complex, eps: float,
               parity: str = "any", n_max: int = 10 ** 6,
               method: str = "scan") -> int:
    """Integer n of the requested parity with |(e^{-in a}+e^{-in b})/2 - w| < eps.

    The scan method returns the first such n in canonical order.  It runs in
    blocks of 256 magnitudes doubling up to 65 536 and evaluates
    rho(m) = (e^{-im a}+e^{-im b})/2 once per magnitude m: the objective at
    -m is |conj(rho(m)) - w| = |rho(m) - conj(w)|.  The witness is confirmed
    on n itself by ``pair_transform_values``, and a not-found error's best
    error comes from the same direct route.  The lattice method lifts w to a
    pair of unimodular targets, solves the two-phase problem for the doubled
    angles, and re-verifies the resulting n against the direct objective,
    falling back to the scan on failure.
    """
    w = complex(w)
    if not all(math.isfinite(x) for x in (w.real, w.imag, alpha, beta, eps)):
        raise ValueError("hit_target needs finite w, alpha, beta and eps")
    if abs(w) > 1.0 + 1e-12:
        raise OutOfDiskError(f"target modulus {abs(w)} exceeds 1")
    if eps <= 0:
        raise ValueError("eps must be positive")
    if parity not in ("any", "even", "odd"):
        raise ValueError(f"unknown parity {parity!r}")
    if method == "scan":
        # rho(-m) = conj(rho(m)), and |conj(rho) - w| = |rho - conj(w)|
        targets = np.array([w, w.conjugate()])
        n, _, _ = _scan(lambda m: np.abs(_rho_values(m, alpha, beta)[:, None] - targets),
                        lambda ns: (np.abs(_rho_values(ns, alpha, beta) - w),),
                        eps, n_max, 0, parity,
                        f"no {parity} n with |n| <= {n_max} meets eps={eps}")
        return n
    if method != "lattice":
        raise ValueError(f"unknown method {method!r}")

    alpha2, beta2, m_max, lift = _doubled(alpha, beta, n_max, parity)
    z, u = disk_preimage_shifted(w, alpha, beta) if parity == "odd" else disk_preimage(w)
    problem = KroneckerProblem(alpha2, beta2, _wrap(-np.angle(z)), _wrap(-np.angle(u)),
                               eps / 2.0, m_max, "lattice")
    try:
        sol = solve(problem)
        n = lift(sol.n)
        if abs(n) <= n_max:
            err = float(np.abs(_rho_values(np.array([n], dtype=np.int64), alpha, beta) - w)[0])
            if err < eps:
                return int(n)
    except KroneckerNotFoundError:
        pass
    return hit_target(alpha, beta, w, eps, parity, n_max, "scan")
