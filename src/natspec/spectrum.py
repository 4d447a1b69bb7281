"""Spectral radius brackets and transform-cloud geometry for circle measures.

Upper bounds come from norms of iterated convolution squares (the limit of
||mu^m||^(1/m) is approached monotonically along powers of two).  Lower
bounds come from evaluating the measure against generalized characters: a
root of unity acting on the torsion part of the support group and free unit
circle variables for the independent generators.  A lower end is the
maximum of |mu_hat| over a lattice of those characters, a uniform grid per
free variable, less a rounding allowance; it can only grow when the grid
doubles, so a finer grid (``--grid`` on the command line) tightens it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

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
# free dimensions of the character torus the walker evaluates
MAX_TORUS_DIMS = 4
# terms contracted per BLAS product; with OpenBLAS 0.3.31, zgemm gave the same
# bits with 1 and 2 threads up to this depth and not deeper
_TERM_BLOCK = 128
# bytes of a row tile of the torus walk, of its left factor rows and of a
# group of classes' right factors: small enough that a tile is still in a
# core's cache when it is squared, large enough that a BLAS call's fixed cost
# stays small
_TILE_BYTES = 1 << 19
# a computed |p| exceeds the true one by at most about (K + _ROUNDING_TERMS)
# * u * sum |c_j| for K terms: the inner product's K + 2 roundings (Higham,
# Accuracy and Stability, section 3.6) and six more for the table roots, the
# weight-times-root products and the modulus.  The largest excess seen at the
# top points of 400 random polynomials (K <= 20, order <= 6) was 3.8.
_ROUNDING_TERMS = 8
_U = 2.0 ** -53
# most points disk_grid builds (tol down to about 0.0018)
MAX_DISK_POINTS = 1 << 22
# disk_hausdorff finds the nearest grid point in closed form for points
# within this many radii of the center, for radii in this range: there the
# squared distances stay normal floats, and every grid point other than the
# five candidates is farther by a relative margin of order 1/rings**2 or
# (angle step)**2 / rings, far above their rounding of a few parts in 1e16
_NEAR_RADII = 4.0
_SAFE_RADIUS = (2.0 ** -400, 2.0 ** 400)


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
    without terms evaluates to {0}.  Each stack of row tiles of the walk (see
    ``_torus_slices``) is copied through an (order, rows, columns) view into
    one preallocated output, which is then scaled back once; the values come
    from a blocked BLAS product, so their last bits depend on the BLAS build.
    """
    shape, shift, tiles = _torus_slices(p, grid)
    out = np.empty(shape, dtype=np.complex128)
    for t, lo, values in tiles:
        out[t:t + len(values), lo:lo + values.shape[1]] = values
    out = out.reshape(-1)
    if shift:
        for part in (out.real, out.imag):
            np.ldexp(part, shift, out=part)
    return out


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


def _eval_on_grid(weights: np.ndarray, torsion: np.ndarray, order: int,
                  exponents: np.ndarray, grid: int):
    """p on the order x grid^dims lattice, one row tile of a chunk of classes
    at a time.

    p(t; x, y) = sum_j L[j, x] R_t[j, y] with x over the first ceil(dims/2)
    axes and y over the rest.  L holds entries of the grid's root-of-unity
    table and R_t the same times the class weights weights[j] *
    omega^(torsion[j] * t).  The rows x are split into near-equal tiles of
    at least 2 rows (1 only without free axes, where there is one row),
    sized so that a tile's values and its left factor rows each take about
    _TILE_BYTES.  A tile is one complex product L^T R_t per block of at most
    _TERM_BLOCK terms, the blocks summed in order.

    The gathers of roots do not depend on t.  R's roots are gathered once
    per walk.  The classes are taken in groups whose R_t together take about
    _TILE_BYTES (one class at least), and a tile's L is gathered once per
    group and serves every class in it.  Within a group, the classes go in
    chunks whose tiles together take about _TILE_BYTES (one class at least,
    as at the 24 x 24^4 lattice of the benchmark), and a chunk's tiles come
    from one stacked product per block: one call of numpy's matmul loop,
    which gives each class its own product of the shape and kernel it would
    have alone, so the bits do not depend on the chunk.

    Yields (t, lo, values) group by group, tile by tile, chunk by chunk:
    values holds the tile of rows lo.. of classes t.. as (classes, rows,
    grid^floor(dims/2)), a view of one buffer that the next chunk
    overwrites and the caller may overwrite too.  At one free axis
    R gets a zero second column: numpy would otherwise call BLAS's
    matrix-vector kernel, whose bits moved with the thread count and the
    number of rows, where the matrix product's did not; the 2-row minimum
    keeps that kernel away from the rows too.
    """
    dims = exponents.shape[1]
    left = (dims + 1) // 2
    size = grid if dims else 1  # without free axes every index is 0
    roots = unit_roots(np.arange(size), size)
    reduced = exponents % grid
    n_terms = len(weights)
    n_left, n_right = grid ** left, grid ** (dims - left)
    pad = 1 if dims == 1 else 0
    right = roots[_phase_index(reduced[:, left:], grid, range(n_right))]
    blocks = [slice(s, s + _TERM_BLOCK) for s in range(0, n_terms, _TERM_BLOCK)]
    # near-equal tiles of a target of 4 rows or more hold at least 2 each;
    # rounding the bounds up makes the first tile the largest
    n_tiles = -(-n_left // max(4, _TILE_BYTES // (16 * max(n_right + pad, n_terms))))
    tiles = [(-(-n_left * k // n_tiles), -(-n_left * (k + 1) // n_tiles))
             for k in range(n_tiles)]
    group = max(1, _TILE_BYTES // (16 * n_terms * (n_right + pad)))
    chunk = max(1, _TILE_BYTES // (16 * tiles[0][1] * (n_right + pad)))
    buf = np.empty((min(order, group, chunk), tiles[0][1], n_right + pad),
                   dtype=np.complex128)
    for t0 in range(0, order, group):
        classes = np.arange(t0, min(order, t0 + group))
        rhs = np.zeros((len(classes), n_terms, n_right + pad), dtype=np.complex128)
        class_weights = weights * unit_roots(np.multiply.outer(classes, torsion) % order, order)
        np.multiply(class_weights[:, :, None], right, out=rhs[:, :, :n_right])
        for lo, hi in tiles:
            lhs = roots[_phase_index(reduced[:, :left], grid, range(lo, hi))]
            for c in range(0, len(classes), chunk):
                stack = rhs[c:c + chunk]
                tile = buf[:len(stack), :hi - lo]
                for block in blocks:
                    if block.start == 0:
                        np.matmul(lhs[block].T, stack[:, block], out=tile)
                    else:
                        tile += np.matmul(lhs[block].T, stack[:, block])
                yield t0 + c, lo, tile[:, :, :n_right]


def check_torus_grid(p: CharacterPolynomial, grid: int) -> None:
    """Refuse, in O(1) and before any table of roots is built, a lattice the
    walker cannot hold: ValueError for a grid below 16 or more than
    MAX_TORUS_DIMS free dimensions, BudgetExceededError when order *
    grid^dims exceeds _TORUS_POINT_LIMIT."""
    if grid < 16:
        raise ValueError("grid must be at least 16")
    if p.dims > MAX_TORUS_DIMS:
        raise ValueError(f"the character torus supports at most {MAX_TORUS_DIMS} free "
                         f"dimensions, got {p.dims}")
    points = p.order * grid ** p.dims
    if points > _TORUS_POINT_LIMIT:
        raise BudgetExceededError(
            f"the character torus has {p.order} torsion classes x {grid}^{p.dims} grid "
            f"points = {points}, above the limit of {_TORUS_POINT_LIMIT}")


def _torus_slices(p: CharacterPolynomial, grid: int):
    """Set up the walk over the character torus: (shape, shift, tiles).

    shape is the lattice's (order, grid^ceil(dims/2), grid^floor(dims/2))
    and tiles the row tiles of ``_eval_on_grid``, computed on the weights
    times 2^-shift, where shift is 0 unless (sum |c_j|)^2 would leave the
    normal float range; multiplying the values by 2^shift gives p itself,
    and |values|^2 stays finite and does not underflow to zero.  A
    polynomial without terms has shape (1, 1, 1) and one zero tile.  Besides
    the caller's own output the walk holds a chunk of tiles, its left factor
    rows and a group of right factors, each about _TILE_BYTES, and R's
    roots, n_terms * grid^floor(dims/2) entries.

    The lattice values are blocked BLAS products.  With OpenBLAS 0.3.31
    their bits were the same with 1 and 2 BLAS threads and for any tile of
    2 rows or more, and a grid-g point kept its bits on the grid-2g
    lattice, so a lattice maximum can only grow when the grid doubles;
    another BLAS build, CPU kernel or thread count can break either, and
    ``tests/test_spectrum.py`` checks both.  Refuses the lattice as
    ``check_torus_grid`` does, and raises ValueError when the weights do not
    have a finite sum.
    """
    check_torus_grid(p, grid)
    if p.n_terms == 0:
        return (1, 1, 1), 0, iter([(0, 0, np.zeros((1, 1, 1), dtype=np.complex128))])
    total = sum(abs(c) for c in p.weights)
    if not math.isfinite(total):
        raise ValueError(f"the character weights sum to {total!r}, so p would not be finite")
    shift = _rescale_exponent(total)
    weights = np.asarray(p.weights, dtype=np.complex128)
    if shift:
        weights *= math.ldexp(1.0, -shift)
    exponents = np.asarray(p.exponents, dtype=np.int64).reshape(p.n_terms, p.dims)
    left = (p.dims + 1) // 2
    shape = (p.order, grid ** left, grid ** (p.dims - left))
    return shape, shift, _eval_on_grid(weights, np.asarray(p.torsion, dtype=np.int64),
                                       p.order, exponents, grid)


def torus_grid_within(p: CharacterPolynomial, max_points: int) -> int:
    """Largest power-of-two grid, at least 16, whose order * grid^dims lies
    within both ``max_points`` and the walker's _TORUS_POINT_LIMIT.  It is 16
    when no grid fits, and the walker then raises BudgetExceededError."""
    limit = min(max_points, _TORUS_POINT_LIMIT)
    grid = 16
    while p.dims and p.order * (2 * grid) ** p.dims <= limit:
        grid *= 2
    return grid


def torus_max(p: CharacterPolynomial, grid: int = 512) -> float:
    """Maximum of |p| over all generalized characters, from below.

    The maximum of |p| over the full torsion-by-grid lattice, less the
    evaluation's rounding allowance (K + _ROUNDING_TERMS) * u * sum |c_j|
    for K terms and clamped at 0, so that the value is a lower bound and not
    a value rounded past it.  The allowance does not depend on ``grid`` and
    the grid-g lattice lies in the grid-2g one, so the value only increases
    when ``grid`` doubles (on a BLAS build that keeps the grid-doubling
    bits, see ``_torus_slices``): a finer grid tightens the lower end.
    Each row tile of the walk is reduced to its largest |v|^2 while it is
    still in cache, and the square root is taken once, of the largest of
    all.  Raises BudgetExceededError when order * grid^dims exceeds the
    walker's limit and ValueError when the weights do not have a finite sum.
    """
    _, shift, tiles = _torus_slices(p, grid)
    top = 0.0
    for _, _, values in tiles:
        # |v|^2 in place, in contiguous passes over the tile: square both
        # parts, then multiply by 1 + i, whose imaginary part re^2 + im^2
        # rounds once, as the sum does (the products by 1 are exact); the
        # real parts re^2 - im^2 are no larger, so the tile's largest float
        # is its largest |v|^2
        parts = values.view(np.float64)
        np.square(parts, out=parts)
        np.multiply(values, 1 + 1j, out=values)
        top = max(top, float(parts.max()))
    best = math.sqrt(top)
    total = math.ldexp(sum(abs(c) for c in p.weights), -shift)
    return math.ldexp(max(0.0, best - (p.n_terms + _ROUNDING_TERMS) * _U * total), shift)


def _as_points(x) -> np.ndarray:
    pts = np.asarray(x, dtype=np.complex128).ravel()
    if pts.size == 0:
        raise ValueError("empty point set")
    return pts


def _as_xy(pts: np.ndarray) -> np.ndarray:
    return np.column_stack([pts.real, pts.imag])


def covering_radius(reference: np.ndarray, sample: np.ndarray) -> float:
    """sup over reference points of the distance to the nearest sample point.

    One KD-tree query over the sample.  The tree splits at sliding midpoints
    and keeps its cells unshrunk (``balanced_tree=False``,
    ``compact_nodes=False``) with 32 points per leaf, which builds and
    queries faster here than the defaults; the nearest distances, each
    sqrt(dx*dx + dy*dy), do not depend on the tree's shape.
    """
    ref = _as_xy(_as_points(reference))
    smp = _as_xy(_as_points(sample))
    tree = cKDTree(smp, leafsize=32, balanced_tree=False, compact_nodes=False)
    d, _ = tree.query(ref, k=1)
    return float(np.max(d))


def disk_grid_shape(tol: float) -> tuple[int, int]:
    """(rings, rays) of ``disk_grid`` at this tol, refused before any array
    is built unless tol is finite, positive and asks for at most
    MAX_DISK_POINTS points."""
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    # the first test keeps both ceilings finite
    if tol < 2.0 / MAX_DISK_POINTS or (
            math.ceil(2.0 / tol) * math.ceil(TWO_PI / tol) + 1 > MAX_DISK_POINTS):
        raise ValueError(f"tol {tol!r} asks for more than {MAX_DISK_POINTS} disk grid points")
    return math.ceil(2.0 / tol), math.ceil(TWO_PI / tol)


def _coverage_grid(tol: float) -> int:
    """The coverage witness's grid, residual ~2R/grid: least 2**k >= 8 / tol, in 64..4096."""
    return min(math.isqrt(_TORUS_POINT_LIMIT), max(64, 2 ** math.ceil(math.log2(8.0 / tol))))


def disk_grid(radius: float = 1.0, tol: float = 0.05) -> np.ndarray:
    """Polar reference grid for the closed disk of the given radius.

    The center, then ceil(2/tol) rings by ceil(2pi/tol) rays, ring-major:
    point 1 + i * rays + k sits at radius * (i + 1) / rings on ray k, at
    angle 2 pi k / rays.  Its covering radius of the disk is below
    ``tol * radius``.  ValueError unless tol is finite, positive and gives
    at most MAX_DISK_POINTS (2**22) points, checked before any array is
    built.
    """
    n_r, n_ang = disk_grid_shape(tol)
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    if radius == 0.0:
        return np.zeros(1, dtype=np.complex128)
    radii = radius * (np.arange(n_r, dtype=np.float64) + 1.0) / n_r
    angles = (np.arange(n_ang, dtype=np.float64) / n_ang) * TWO_PI
    pts = (radii[:, None] * np.exp(1j * angles)[None, :]).ravel()
    return np.concatenate([np.zeros(1, dtype=np.complex128), pts])


def _nearest_disk_distances(pts: np.ndarray, grid: np.ndarray, radius: float,
                            n_r: int, n_ang: int) -> np.ndarray:
    """Distance from each point to the nearest point of ``grid`` (the disk
    grid of radius and shape (n_r, n_ang)), for points within a few radii.

    The nearest grid point is the center or lies on one of the two rays
    whose angles bracket the point's, on one of the two rings that bracket
    the point's projection onto that ray.  Those five candidates are
    measured as a KD-tree measures them, sqrt(dx*dx + dy*dy) against the
    stored grid coordinates; every other grid point is farther by a margin
    far above the rounding.
    """
    step = TWO_PI / n_ang
    low = np.floor(np.arctan2(pts.imag, pts.real) / step).astype(np.int64)
    ray_angles = np.arange(n_ang) * step
    ray_x, ray_y = np.cos(ray_angles), np.sin(ray_angles)
    idx = np.zeros((5, len(pts)), dtype=np.int64)  # the last row is the center
    for j, ray in enumerate((low % n_ang, (low + 1) % n_ang)):
        # ring i has radius (i + 1) / n_r of the disk's
        inner = np.floor((pts.real * ray_x[ray] + pts.imag * ray_y[ray])
                         * (n_r / radius)).astype(np.int64) - 1
        for k in (0, 1):
            idx[2 * j + k] = 1 + np.clip(inner + k, 0, n_r - 1) * n_ang + ray
    dx = pts.real - grid.real[idx]
    dy = pts.imag - grid.imag[idx]
    return np.sqrt(np.min(dx * dx + dy * dy, axis=0))


def disk_hausdorff(points: np.ndarray, radius: float, tol: float = 0.05) -> float:
    """Symmetric Hausdorff distance between the points and
    ``disk_grid(radius, tol)``: the larger of ``covering_radius`` in each
    direction, bit for bit, building the grid once.

    The grid-to-points direction is a ``covering_radius`` query.  In the
    other direction the nearest grid point has a closed form (see
    ``_nearest_disk_distances``) for points within _NEAR_RADII radii of the
    center and a radius whose squares stay normal; any other point (far
    away, or not finite) is queried in a tree over the grid.
    """
    pts = _as_points(points)
    grid = disk_grid(radius, tol)
    near = np.zeros(pts.shape, dtype=bool)
    if _SAFE_RADIUS[0] <= radius <= _SAFE_RADIUS[1]:
        bound = _NEAR_RADII * radius
        near = (np.abs(pts.real) <= bound) & (np.abs(pts.imag) <= bound)
    to_grid = []
    if near.any():
        n_r, n_ang = disk_grid_shape(tol)
        to_grid.append(float(np.max(_nearest_disk_distances(pts[near], grid, radius,
                                                            n_r, n_ang))))
    if not near.all():
        to_grid.append(covering_radius(pts[~near], grid))
    return max(max(to_grid), covering_radius(grid, pts))
