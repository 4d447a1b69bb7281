"""Spectral radius brackets and spectrum sampling for circle measures.

Upper bounds come from norms of iterated convolution squares (the limit of
||mu^m||^(1/m) is approached monotonically along powers of two).  Lower
bounds come from evaluating the measure against generalized characters: a
root of unity acting on the torsion part of the support group and free unit
circle variables for the independent generators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

import numpy as np
from scipy.spatial import cKDTree

from .angles import GeneratorBasis, TWO_PI
from .errors import BudgetExceededError
from .measures import (DiscreteMeasure, MeasureLike, MixedMeasure, as_mixed, convolve,
                       tv_norm_bounds, unit_roots)

# norms whose square stays in the normal float range, with a factor 4 to spare
_SQUARE_SAFE_MIN = 2.0 ** -511
_SQUARE_SAFE_MAX = 2.0 ** 511
# order * grid**dims the torus walker accepts: twice the 24 * 24**4 points of
# the largest lower bound the tests, demos and benchmark ask for
_TORUS_POINT_LIMIT = 1 << 24
# terms contracted per BLAS product; with OpenBLAS 0.3.31, zgemm gave the same
# bits with 1 and 2 threads up to this depth and not deeper
_TERM_BLOCK = 128
# left-lattice points per BLAS product, so that a block's factor rows hold at
# most _TERM_BLOCK * _LEFT_CHUNK complex entries (4 MiB) however fine the grid
_LEFT_CHUNK = 2048
# a computed |p| exceeds the true one by at most about (K + _ROUNDING_TERMS)
# * u * sum |c_j| for K terms: the inner product's K + 2 roundings (Higham,
# Accuracy and Stability, section 3.6) and six more for the table roots, the
# weight-times-root products and the modulus.  The largest excess seen at the
# top points of 400 random polynomials (K <= 20, order <= 6) was 3.8.
_ROUNDING_TERMS = 8
_U = 2.0 ** -53


@dataclass(frozen=True)
class FeketeReport:
    """Nonincreasing norm-root sequence r_k = ||mu^(2^k)||^(1/2^k)."""

    entries: tuple[tuple[int, float], ...]
    final_bound: float
    budget_hit: bool


def _rescale_exponent(norm: float) -> int:
    """e != 0 when norm^2 would leave the normal float range; norm * 2^-e then
    lies in [2^-53, 1) and 2^-e is a finite float.  0 for 0, inf and NaN."""
    if 0.0 < norm < math.inf and not _SQUARE_SAFE_MIN <= norm <= _SQUARE_SAFE_MAX:
        return max(math.frexp(norm)[1], -1021)
    return 0


def fekete_bound(mu: MeasureLike, k_max: int = 6) -> FeketeReport:
    """Certified upper bound for the spectral radius via repeated squaring.

    Each entry uses the total variation norm plus its quadrature error
    estimate, so every r_k is an upper bound for the true limit.  Stops early,
    with ``budget_hit`` set and the entries so far kept, when a squaring
    passes the convolution limits of ``measures.convolve``.  A power whose
    square's norm would leave the normal float range is first rescaled by a
    power of two, which is exact, so tiny weights do not underflow to a zero
    bound.  Raises ValueError when the total variation is not finite.
    """
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    cur = as_mixed(mu)
    value, err = tv_norm_bounds(cur)
    r = value + err
    if not math.isfinite(r):
        raise ValueError(f"the total variation bound {r!r} is not finite")
    entries = [(0, r)]
    budget_hit = False
    shift = 0  # mu^(2^k) = cur * 2^shift
    if r > 0.0:
        for k in range(1, k_max + 1):
            e = _rescale_exponent(value)
            if e:
                cur = cur.scale(math.ldexp(1.0, -e))
                shift += e
            try:
                cur = convolve(cur, cur)
            except BudgetExceededError:
                budget_hit = True
                break
            shift *= 2
            value, err = tv_norm_bounds(cur)
            rk = (value + err) ** (1.0 / (1 << k))
            if shift:
                q, rem = divmod(shift, 1 << k)
                rk = math.ldexp(rk * 2.0 ** (rem / (1 << k)), q)
            entries.append((k, rk))
    final = min(r for _, r in entries)
    return FeketeReport(tuple(entries), final, budget_hit)


@dataclass(frozen=True)
class CharacterPolynomial:
    """Measure transform as a function of a generalized character.

    A character is (t, phi) with t in range(order) acting through the root of
    unity omega = e^{2 pi i t / order} and phi in [0, 2pi)^dims acting through
    z_i = e^{i phi_i}.  The value is sum_j weights[j] * omega^{torsion[j] * t}
    * prod_i z_i^{exponents[j][i]}.  Only generators that actually appear
    with a nonzero exponent contribute a dimension; ``dim_names`` records
    which basis generators those are.
    """

    order: int
    torsion: tuple[int, ...]
    exponents: tuple[tuple[int, ...], ...]
    weights: tuple[complex, ...]
    dim_names: tuple[str, ...]

    @property
    def dims(self) -> int:
        return len(self.dim_names)

    @property
    def n_terms(self) -> int:
        return len(self.weights)

    def weight_scale(self) -> float:
        """Lipschitz-type scale sum |c_j| * ||e_j||_1 used to size ascent steps."""
        return float(sum(abs(c) * sum(abs(e) for e in row)
                         for c, row in zip(self.weights, self.exponents)))

    def value(self, t: int, phis: Sequence[float]) -> complex:
        """Single character evaluation (reference implementation for tests)."""
        acc = 0.0 + 0.0j
        for m, row, c in zip(self.torsion, self.exponents, self.weights):
            phase = sum(e * p for e, p in zip(row, phis))
            acc += (c * unit_roots((m * t) % self.order, self.order)
                    * complex(math.cos(phase), math.sin(phase)))
        return acc


def char_polynomial(mu: DiscreteMeasure) -> CharacterPolynomial:
    """Character polynomial of a discrete measure.

    The torsion order is the measure's common turn denominator (the lcm of
    the reduced ones) and the torsion exponents its turn numerators;
    generator coefficients become free exponents.
    """
    if isinstance(mu, MixedMeasure):
        if not mu.ac.is_zero:
            raise TypeError("character polynomials are defined for discrete measures")
        mu = mu.disc
    active = np.flatnonzero(mu.coef.any(axis=0))
    return CharacterPolynomial(mu.den, tuple(mu.num.tolist()),
                               tuple(map(tuple, mu.coef[:, active].tolist())),
                               tuple(mu.w.tolist()), tuple(mu.basis.names[i] for i in active))


def restrict(p: CharacterPolynomial, t: int, keep: Sequence[str]) -> CharacterPolynomial:
    """Fix the torsion character to ``t`` and pin every free variable not in
    ``keep`` at phase zero; merge terms that collapse together."""
    keep = list(keep)
    keep_idx = [p.dim_names.index(name) for name in keep]
    acc: dict[tuple[int, ...], complex] = {}
    for m, row, c in zip(p.torsion, p.exponents, p.weights):
        key = tuple(row[i] for i in keep_idx)
        acc[key] = acc.get(key, 0.0 + 0.0j) + c * unit_roots((m * t) % p.order, p.order)
    keys = sorted(acc)
    return CharacterPolynomial(
        1, (0,) * len(keys), tuple(keys),
        tuple(acc[k] for k in keys), tuple(keep))


def character_values(p: CharacterPolynomial, grid: int = 256) -> np.ndarray:
    """Values of p over the full character lattice, as a flat complex array.

    Covers every torsion class crossed with a uniform ``grid``-point lattice
    per free dimension, t-major and in C order within a class.  A polynomial
    without terms evaluates to {0}.  The values come from a blocked BLAS
    product (see ``_torus_slices``), so their last bits depend on the BLAS
    build.
    """
    return np.concatenate([values.ravel() for values, _, _, _ in _torus_slices(p, grid, 0)])


def _axis_phases(grid: int) -> np.ndarray:
    # computed as (j / grid) * 2pi so that subsampled grids reproduce the
    # coarser grids bitwise, which keeps refinement monotone under doubling
    return (np.arange(grid, dtype=np.float64) / grid) * TWO_PI


def _phase_index(exponents: np.ndarray, grid: int, points: range) -> np.ndarray:
    """Index of prod_a z_a^{e_a} in the grid's root table, one row per term and
    one column per point of ``points``, flat C-order positions in these axes'
    grid^axes lattice.  The exponents must already be reduced mod grid."""
    rest = np.arange(points.start, points.stop, dtype=np.int64)
    idx = np.zeros((len(exponents), len(rest)), dtype=np.int64)
    for axis in reversed(range(exponents.shape[1])):
        rest, j = np.divmod(rest, grid)
        idx += exponents[:, axis, None] * j
    return idx % grid


def _eval_on_grid(weights: np.ndarray, exponents: np.ndarray, grid: int) -> np.ndarray:
    """p on the full grid^dims lattice as a dims-dimensional complex array.

    p(x, y) = sum_j L[j, x] R[j, y] with x over the first ceil(dims/2) axes
    and y over the rest, so each block of at most _TERM_BLOCK terms is one
    complex product L^T R; the blocks are summed in order.  L holds entries
    of the grid's root-of-unity table, R the same times the weights.  The
    rows x are taken in near-equal chunks of at most _LEFT_CHUNK, none of a
    single row, which bounds L's memory without changing any product's depth.
    At one free axis R gets a zero second column: numpy would otherwise call
    BLAS's matrix-vector kernel, whose bits moved with the thread count and
    the number of rows, where the matrix product's did not.
    """
    dims = exponents.shape[1]
    left = (dims + 1) // 2
    size = grid if dims else 1  # without free axes every index is 0
    roots = unit_roots(np.arange(size), size)
    reduced = exponents % grid
    n_left, n_right = grid ** left, grid ** (dims - left)
    pad = 1 if dims == 1 else 0
    n_chunks = -(-n_left // _LEFT_CHUNK)
    chunks = [range(n_left * k // n_chunks, n_left * (k + 1) // n_chunks)
              for k in range(n_chunks)]
    acc = np.empty((n_left, n_right + pad), dtype=np.complex128)
    for start in range(0, len(weights), _TERM_BLOCK):
        block = slice(start, start + _TERM_BLOCK)
        rhs = weights[block, None] * roots[_phase_index(reduced[block, left:], grid,
                                                        range(n_right))]
        if pad:
            rhs = np.hstack((rhs, np.zeros_like(rhs)))
        for rows in chunks:
            lhs = roots[_phase_index(reduced[block, :left], grid, rows)]
            out = acc[rows.start:rows.stop]
            if start == 0:
                np.matmul(lhs.T, rhs, out=out)
            else:
                out += lhs.T @ rhs
    return acc[:, :n_right].reshape((grid,) * dims)


def _eval_point(weights: np.ndarray, exponents: np.ndarray, phis: np.ndarray):
    """(F, gradF) at one point, F = |p|^2."""
    phase = exponents @ phis
    vals = weights * np.exp(1j * phase)
    p = vals.sum()
    grad_p = 1j * (exponents * vals[:, None]).sum(axis=0)
    f = float(p.real * p.real + p.imag * p.imag)
    grad = 2.0 * (np.conj(p) * grad_p).real
    return f, grad


def _ascend(weights: np.ndarray, exponents: np.ndarray, start: np.ndarray,
            step: float, iters: int) -> tuple[float, np.ndarray]:
    x = start.astype(np.float64).copy()
    f, grad = _eval_point(weights, exponents, x)
    best, best_x = f, x.copy()
    for _ in range(iters):
        lam = step
        improved = False
        for _ in range(30):
            cand = x + lam * grad
            fc, gc = _eval_point(weights, exponents, cand)
            if fc >= f:
                x, f, grad = cand, fc, gc
                improved = True
                break
            lam *= 0.5
        if not improved:
            break
        if f > best:
            best, best_x = f, x.copy()
    return best, best_x


def _grid_levels(grid: int) -> list[int]:
    # dyadic subgrid sizes down to 16; every level of a coarser run is a
    # level of a finer run, which makes torus_max nondecreasing in grid
    levels = [grid]
    g = grid
    while g % 2 == 0 and g // 2 >= 16:
        g //= 2
        levels.append(g)
    return levels


def _torus_slices(p: CharacterPolynomial, grid: int, refine_iters: int, with_f: bool = False):
    """Walk the character torus one torsion class t at a time.

    Yields (values, F, runs, shift) per class: p on the grid^dims lattice,
    F on that lattice, and the projected gradient ascent started from the
    best point of every dyadic subgrid, each run as (F, x, p(x)) at its best
    point.  F and the ascent use the weights times 2^-shift, where shift is
    0 unless (sum |c_j|)^2 would leave the normal float range, so
    F = |p|^2 * 4^-shift; the values and p(x) are scaled back by 2^shift.
    F is computed only when the ascent runs or ``with_f`` is set (it is None
    otherwise), and its buffer is overwritten by the next class.  A
    polynomial without terms yields one zero value and no runs.

    The lattice values are blocked BLAS products (see ``_eval_on_grid``).
    With OpenBLAS 0.3.31 their bits were the same with 1 and 2 BLAS threads
    and a grid-g point kept its bits on the grid-2g lattice; another BLAS
    build, CPU kernel or thread count can break either, and
    ``tests/test_spectrum.py`` checks both.  Raises BudgetExceededError,
    before any table of roots is built, when order * grid^dims exceeds
    _TORUS_POINT_LIMIT, and ValueError when the weights do not have a finite
    sum.
    """
    if grid < 16:
        raise ValueError("grid must be at least 16")
    if p.dims > 4:
        raise ValueError(f"the character torus supports at most 4 free dimensions, got {p.dims}")
    points = p.order * grid ** p.dims
    if points > _TORUS_POINT_LIMIT:
        raise BudgetExceededError(
            f"the character torus has {p.order} torsion classes x {grid}^{p.dims} grid "
            f"points = {points}, above the limit of {_TORUS_POINT_LIMIT}")
    if p.n_terms == 0:
        yield np.zeros(1, dtype=np.complex128), np.zeros(1), [], 0
        return
    total = sum(abs(c) for c in p.weights)
    if not math.isfinite(total):
        raise ValueError(f"the character weights sum to {total!r}, so p would not be finite")
    shift = _rescale_exponent(total)
    scale = math.ldexp(p.weight_scale(), -shift)
    step = 0.5 / (scale * scale) if scale * scale > 0 else 0.0  # 0 when it underflows
    ascend = refine_iters > 0 and step > 0
    torsion = np.asarray(p.torsion, dtype=np.int64)
    base_weights = np.asarray(p.weights, dtype=np.complex128)
    if shift:
        base_weights *= math.ldexp(1.0, -shift)
    exponents = np.asarray(p.exponents, dtype=np.int64).reshape(p.n_terms, p.dims)
    theta = _axis_phases(grid)
    # F and its scratch half are reused across classes: fresh full-size
    # temporaries cost more than the product itself
    f_grid = np.empty((grid,) * p.dims) if ascend or with_f else None
    im_sq = np.empty_like(f_grid) if f_grid is not None else None
    for t in range(p.order):
        w_t = base_weights * unit_roots((torsion * t) % p.order, p.order)
        values = _eval_on_grid(w_t, exponents, grid)
        if f_grid is not None:
            np.square(values.real, out=f_grid)
            f_grid += np.square(values.imag, out=im_sq)
        runs = []
        if ascend:
            for level in _grid_levels(grid):
                stride = grid // level
                sub = f_grid[(slice(None, None, stride),) * p.dims]
                idx = np.unravel_index(int(np.argmax(sub)), sub.shape)
                start = np.array([theta[i * stride] for i in idx], dtype=np.float64)
                f_best, x_best = _ascend(w_t, exponents, start, step, refine_iters)
                px = complex((w_t * np.exp(1j * (exponents @ x_best))).sum())
                runs.append((f_best, x_best, complex(math.ldexp(px.real, shift),
                                                     math.ldexp(px.imag, shift))))
        if shift:
            for part in (values.real, values.imag):
                np.ldexp(part, shift, out=part)
        yield values, f_grid, runs, shift


def torus_grid_within(p: CharacterPolynomial, max_points: int) -> int:
    """Largest power-of-two grid, at least 16, whose order * grid^dims lies
    within both ``max_points`` and the walker's _TORUS_POINT_LIMIT.  It is 16
    when no grid fits, and the walker then raises BudgetExceededError."""
    limit = min(max_points, _TORUS_POINT_LIMIT)
    grid = 16
    while p.dims and p.order * (2 * grid) ** p.dims <= limit:
        grid *= 2
    return grid


def torus_max(p: CharacterPolynomial, grid: int = 512, refine_iters: int = 64) -> float:
    """Maximum of |p| over all generalized characters, from below.

    Evaluates the full torsion-by-grid lattice and runs projected gradient
    ascent (fixed step with halving safeguard) from the best point of every
    dyadic subgrid, less the evaluation's rounding allowance
    (K + _ROUNDING_TERMS) * u * sum |c_j| for K terms and clamped at 0, so
    that the value is a lower bound and not a value rounded past it.  The
    allowance does not depend on ``grid``, so the returned value only
    increases when ``grid`` doubles (on a BLAS build that keeps the
    grid-doubling bits, see ``_torus_slices``).  Raises BudgetExceededError
    when order * grid^dims exceeds the walker's limit and ValueError when the
    weights do not have a finite sum.
    """
    best, shift = 0.0, 0
    for _, f_grid, runs, shift in _torus_slices(p, grid, refine_iters, with_f=True):
        for f in [float(f_grid.max())] + [f_best for f_best, _, _ in runs]:
            if f > best * best:
                best = math.sqrt(f)
    total = math.ldexp(sum(abs(c) for c in p.weights), -shift)
    return math.ldexp(max(0.0, best - (p.n_terms + _ROUNDING_TERMS) * _U * total), shift)


@dataclass(frozen=True)
class SpectrumSample:
    """Cloud of transform values with the sampling resolution that made it."""

    points: np.ndarray
    grid_spec: tuple

    def __post_init__(self):
        object.__setattr__(self, "points", np.asarray(self.points, dtype=np.complex128).ravel())


def spectrum_sample(mu: DiscreteMeasure, grid: int = 512,
                    refine_iters: int = 64) -> SpectrumSample:
    """Dense sample of character values of a discrete measure.

    Contains every lattice value plus the endpoints of the ascent runs used
    by torus_max, so the sampled set converges to the full spectrum picture
    as the grid refines.
    """
    chunks = []
    for values, _, runs, _ in _torus_slices(char_polynomial(mu), grid, refine_iters):
        chunks.append(values.ravel())
        if runs:
            chunks.append(np.array([px for _, _, px in runs], dtype=np.complex128))
    return SpectrumSample(np.concatenate(chunks), (grid, refine_iters))


def transform_closure_sample(mu: MeasureLike, N: int) -> SpectrumSample:
    """Transform values mu_hat(n) over |n| <= N."""
    ns = np.arange(-N, N + 1, dtype=np.int64)
    return SpectrumSample(as_mixed(mu).transform(ns), (N, 0))


PointsLike = Union[SpectrumSample, np.ndarray, Sequence[complex]]


def _as_points(x: PointsLike) -> np.ndarray:
    if isinstance(x, SpectrumSample):
        pts = x.points
    else:
        pts = np.asarray(x, dtype=np.complex128).ravel()
    if pts.size == 0:
        raise ValueError("empty point set")
    return pts


def _as_xy(pts: np.ndarray) -> np.ndarray:
    return np.column_stack([pts.real, pts.imag])


def covering_radius(reference: PointsLike, sample: PointsLike) -> float:
    """sup over reference points of the distance to the nearest sample point."""
    ref = _as_xy(_as_points(reference))
    smp = _as_xy(_as_points(sample))
    tree = cKDTree(smp)
    d, _ = tree.query(ref, k=1)
    return float(np.max(d))


def hausdorff(a: PointsLike, b: PointsLike) -> float:
    """Symmetric Hausdorff distance between two planar point clouds."""
    return max(covering_radius(a, b), covering_radius(b, a))


def disk_grid(radius: float = 1.0, tol: float = 0.05) -> np.ndarray:
    """Polar reference grid for the closed disk of the given radius.

    ceil(2/tol) radii by ceil(2pi/tol) angles plus the center; its covering
    radius of the disk is below ``tol * radius``.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    if radius == 0.0:
        return np.zeros(1, dtype=np.complex128)
    n_r = math.ceil(2.0 / tol)
    n_ang = math.ceil(TWO_PI / tol)
    radii = radius * (np.arange(n_r, dtype=np.float64) + 1.0) / n_r
    angles = _axis_phases(n_ang)
    pts = (radii[:, None] * np.exp(1j * angles)[None, :]).ravel()
    return np.concatenate([np.zeros(1, dtype=np.complex128), pts])


@dataclass(frozen=True)
class NaturalSpectrumReport:
    """Hausdorff comparison between transform closure and character values."""

    distance: float
    tol: float
    passed: bool
    n_transform_points: int
    n_character_points: int


def natural_spectrum_check(mu: DiscreteMeasure, N: int = 100_000, grid: int = 512,
                           refine_iters: int = 64, tol: float = 0.05) -> NaturalSpectrumReport:
    """Checks that character values are approximated by transform values.

    For measures whose spectrum is natural the two clouds have small Hausdorff
    distance once N and the grid are large enough.
    """
    trans = transform_closure_sample(mu, N)
    spec = spectrum_sample(mu, grid, refine_iters)
    dist = hausdorff(trans, spec)
    return NaturalSpectrumReport(dist, tol, dist <= tol,
                                 trans.points.size, spec.points.size)
