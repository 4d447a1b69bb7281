"""Spectral radius brackets and transform-cloud geometry for circle measures.

The spectral radius of a discrete measure mu is the maximum of |mu_hat| over
its generalized characters: a root of unity acting on the torsion part of
the support group and free unit circle variables for the independent
generators (the dual torus of Z_q x Z^d, Rudin, *Fourier Analysis on
Groups*, ch. 5).  ``spectral_bracket`` walks lattices of those characters,
a uniform grid per free variable.  Each lattice maximum, less a rounding
allowance, is a lower end; between lattice points |p|^2 cannot fall faster
than a cosine (the van der Corput-Schaake inequality, in Duffin and
Schaeffer's form), so the lattice maximum, divided by the square root of
that cosine at the grid's spacing, bounds the maximum over the whole torus.
For a measure with a density part sum_K c_k e_k the radius is the larger of
the discrete part's and max_K |mu_hat(k)|.

``fekete_bound`` gives an upper end without the torus: norms of iterated
convolution squares, whose roots ||mu^m||^(1/m) approach the radius along
powers of two.  ``radius_bracket``, the bracket that ``decompose``, its
verifier and the ``spectral-radius`` command take, runs it only where the
walker refuses the lattice or the walks end wide.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .angles import Angle, GeneratorBasis, TWO_PI
from .blas import blas_threads
from .errors import BudgetExceededError
from .measures import (_MAX_DEGREE, _TERM_BLOCK, _U, DiscreteMeasure, MeasureLike, MixedMeasure,
                       _transform_sups, as_mixed, convolve, make_rho, transforms,
                       tv_norm_bounds, unit_roots)

# norms whose square stays in the normal float range, with a factor 4 to spare
_SQUARE_SAFE_MIN = 2.0 ** -511
_SQUARE_SAFE_MAX = 2.0 ** 511
# order * grid**dims the torus walker accepts
_TORUS_POINT_LIMIT = 1 << 24
# free dimensions of the character torus the walker evaluates
MAX_TORUS_DIMS = 4
# bytes of a row tile of the torus walk, of its left factor rows and of a
# group of classes' right factors: small enough that a tile is still in a
# core's cache when it is squared, large enough that a BLAS call's fixed cost
# stays small
_TILE_BYTES = 1 << 19
# lattice points from which a walk spreads its classes over the CPUs when
# BLAS runs one thread (``_lattice_max``).  On 2 CPUs with 6 terms, the
# spread walk took 0.27-0.37 ms against 0.06-0.09 ms below 2^14 points,
# 1.16-1.19x the one-thread walk at 2^18, 0.71-0.97x at 2^19 and
# 0.55-0.67x from 2^20 to 8.0 M points
_SPREAD_POINTS = 1 << 20
# a computed |p| exceeds the true one by at most about (K + _ROUNDING_TERMS)
# * u * sum |c_j| for K terms: the inner product's K + 2 roundings (Higham,
# Accuracy and Stability, section 3.6) and six more for the table roots, the
# weight-times-root products and the modulus.  The largest excess seen at the
# top points of 400 random polynomials (K <= 20, order <= 6) was 3.8.
_ROUNDING_TERMS = 8
_ETA = 2.0 ** -1074  # the underflow unit: the smallest subnormal float
# the bracket loop stops once upper - lower is at most this share of upper
_BRACKET_REL_WIDTH = 2.0 ** -6
# the largest pi * span / grid at which the upper end of a grid can come
# within _BRACKET_REL_WIDTH of its lower end: sqrt(cos) >= 1 - width
_BRACKET_ANGLE = math.acos((1.0 - _BRACKET_REL_WIDTH) ** 2)
# most points disk_grid builds (tol down to about 0.0018)
MAX_DISK_POINTS = 1 << 22
# disk_grid's covering radius of its disk, in units of tol * radius
_DISK_COVER = math.sqrt(5.0) / 4.0
# fresh-pair coverings ``_pair_covering`` keeps, a float each: a
# decomposition reads two, and a density scan three per level
_PAIR_COVER_CACHE = 16


@dataclass(frozen=True)
class FeketeReport:
    """Upper ends r_k of the nonincreasing norm roots ||mu^(2^k)||^(1/2^k);
    ``final_bound`` is the least of them."""

    entries: tuple[tuple[int, float], ...]
    final_bound: float
    budget_hit: bool


def _rescale_exponent(norm: float) -> int:
    """e != 0 when norm^2 would leave the normal float range; norm * 2^-e then
    lies in [2^-53, 1) and 2^-e is a finite float.  0 for 0, inf and NaN."""
    if 0.0 < norm < math.inf and not _SQUARE_SAFE_MIN <= norm <= _SQUARE_SAFE_MAX:
        return max(math.frexp(norm)[1], -1021)
    return 0


def _sum_upward(terms: list[float]) -> float:
    """The correctly rounded sum of ``terms``, an ulp up when it is finite
    and its exact residual is positive: never below the exact sum."""
    total = math.fsum(terms)
    if math.isfinite(total) and math.fsum(terms + [-total]) > 0:
        total = math.nextafter(total, math.inf)
    return total


def _root_upward(x: float, shift: int, k: int) -> float:
    """An upper end of (x 2^shift)^(1/2^k) for a finite x >= 0: k square
    roots of a mantissa below 4 whose exponent halves alongside, each root
    an ulp up when its exact square falls below its argument, and one more
    ulp when the result lands in the subnormal range and rounds down; inf
    past the float range."""
    if x == 0.0:
        return 0.0
    m, e = math.frexp(x)
    e += shift
    for _ in range(k):
        if e % 2:
            m, e = 2.0 * m, e - 1
        r = math.sqrt(m)
        if Fraction(r) ** 2 < Fraction(m):
            r = math.nextafter(r, math.inf)
        m, e = r, e // 2
    try:
        root = math.ldexp(m, e)
    except OverflowError:
        return math.inf
    if Fraction(root) < Fraction(m) * Fraction(2) ** e:
        root = math.nextafter(root, math.inf)
    return root


def _square_error(norm: float, err: float, atoms: int) -> float:
    """Bound on ||fl(c * c) - x * x|| for a computed c with ||c|| <= norm,
    K = ``atoms`` atoms and ||c - x|| <= err: (2 norm + err) err for the
    error carried in, 2 (K + 1) u norm^2 for the products and the sums of at
    most K of them that ``convolve`` merges into one atom (each weight is
    within sqrt5 u + sqrt2 gamma_{K-1} of its pairs' moduli), and one
    underflow unit per pair, the whole moved up for its own roundings."""
    bound = ((2.0 * norm + err) * err + 2.0 * (atoms + 1) * _U * norm * norm
             + atoms * atoms * _ETA)
    return bound * (1.0 + 8.0 * _U)


def fekete_bound(mu: MeasureLike, k_max: int = 6) -> FeketeReport:
    """Certified upper bound for the spectral radius via repeated squaring.

    Each entry uses the total variation norm plus its quadrature error
    estimate, so every r_k is an upper bound for the true limit; the first,
    ||mu||, sums the atoms' moduli rounded upward (``_norm_bounds``), so it
    is never below the exact norm of the atoms.  A later entry is rounded
    upward too: the computed square's norm is raised by its summation error
    and by a bound on how far the squarings' rounding has moved its atoms
    (``_square_error``), and its 2^k-th root is taken upward
    (``_root_upward``), so it is never below the exact ||mu^(2^k)||^(1/2^k)
    of a discrete mu; a density part's coefficients keep the quadrature
    estimate alone.  Stops early, with ``budget_hit`` set and the entries
    so far kept, when a squaring passes the convolution limits of
    ``measures.convolve``, and without ``budget_hit`` when an entry's upper
    end passes the largest float.  A power whose square's norm would leave
    the normal float range is first rescaled by a power of two, so tiny
    weights do not underflow to a zero bound.  Raises ValueError when the
    total variation is not finite.
    """
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    cur = as_mixed(mu)
    value, r = _norm_bounds(cur)
    entries = [(0, r)]
    budget_hit = False
    shift = 0  # mu^(2^k) = cur * 2^shift, up to the rounding err bounds
    norm, err = r, 0.0  # ||cur|| <= norm and ||cur - mu^(2^k) 2^-shift|| <= err
    if r > 0.0:
        for k in range(1, k_max + 1):
            e = _rescale_exponent(value)
            if e:
                cur = cur.scale(math.ldexp(1.0, -e))
                shift += e
                # norm lands in [2^-53, 1), exactly; a weight or err scaled
                # into the subnormal range loses at most an underflow unit
                norm = math.ldexp(norm, -e)
                err = math.ldexp(err, -e) + (len(cur.disc) + 1) * _ETA
            atoms = len(cur.disc)
            try:
                cur = convolve(cur, cur)
            except BudgetExceededError:
                budget_hit = True
                break
            shift *= 2
            err = _square_error(norm, err, atoms)
            value, quad_err = tv_norm_bounds(cur)
            # Python's sequential sum of the K moduli, each within an ulp
            norm = _sum_upward([value * (1.0 + (len(cur.disc) + 3) * _U), quad_err])
            rk = _root_upward(_sum_upward([norm, err]), shift, k)
            if rk == math.inf:  # within ulps of the float range: nothing finite bounds it
                break
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
                  exponents: np.ndarray, grid: int, classes: range):
    """p on the lattice of the torsion classes ``classes`` (a subrange of
    range(order)) x grid^dims, one row tile of a chunk of classes at a time.

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
    as at a 24 x 24^4 lattice), and a chunk's tiles come
    from one stacked product per block: one call of numpy's matmul loop,
    which gives each class its own product of the shape and kernel it would
    have alone, so the bits do not depend on the chunk.

    Yields (i, lo, values) group by group, tile by tile, chunk by chunk:
    values holds the tile of rows lo.. of classes classes[i].. as (classes, rows,
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
    buf = np.empty((min(len(classes), group, chunk), tiles[0][1], n_right + pad),
                   dtype=np.complex128)
    for i0 in range(0, len(classes), group):
        ts = np.asarray(classes[i0:i0 + group], dtype=np.int64)
        rhs = np.zeros((len(ts), n_terms, n_right + pad), dtype=np.complex128)
        class_weights = weights * unit_roots(np.multiply.outer(ts, torsion) % order, order)
        np.multiply(class_weights[:, :, None], right, out=rhs[:, :, :n_right])
        for lo, hi in tiles:
            lhs = roots[_phase_index(reduced[:, :left], grid, range(lo, hi))]
            for c in range(0, len(ts), chunk):
                stack = rhs[c:c + chunk]
                tile = buf[:len(stack), :hi - lo]
                for block in blocks:
                    if block.start == 0:
                        np.matmul(lhs[block].T, stack[:, block], out=tile)
                    else:
                        tile += np.matmul(lhs[block].T, stack[:, block])
                yield i0 + c, lo, tile[:, :, :n_right]


def check_torus_grid(p: CharacterPolynomial, grid: int) -> None:
    """Refuse, in O(1) and before any table of roots is built, a lattice the
    walker cannot hold: ValueError for a grid below 16, BudgetExceededError
    for more than MAX_TORUS_DIMS free dimensions or when order * grid^dims
    exceeds _TORUS_POINT_LIMIT."""
    if grid < 16:
        raise ValueError("grid must be at least 16")
    if p.dims > MAX_TORUS_DIMS:
        raise BudgetExceededError(f"the character torus has {p.dims} free dimensions, above "
                                  f"the walker's {MAX_TORUS_DIMS}")
    points = p.order * grid ** p.dims
    if points > _TORUS_POINT_LIMIT:
        raise BudgetExceededError(
            f"the character torus has {p.order} torsion classes x {grid}^{p.dims} grid "
            f"points = {points}, above the limit of {_TORUS_POINT_LIMIT}")


def _torus_slices(p: CharacterPolynomial, grid: int, classes: Optional[range] = None):
    """Set up the walk over the character torus: (shape, shift, tiles).

    The walk covers the torsion classes ``classes``, all of them by default.
    shape is the lattice's (classes, grid^ceil(dims/2), grid^floor(dims/2))
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
    classes = range(p.order) if classes is None else classes
    left = (p.dims + 1) // 2
    shape = (len(classes), grid ** left, grid ** (p.dims - left))
    return shape, shift, _eval_on_grid(weights, np.asarray(p.torsion, dtype=np.int64),
                                       p.order, exponents, grid, classes)


def torus_max(p: CharacterPolynomial, grid: int = 512) -> float:
    """A lower end of max |p| over the generalized characters: the maximum
    of |p| over the full torsion-by-grid lattice (``_lattice_max``), less
    its rounding allowance and clamped at 0.  The grid-g lattice lies in the
    grid-2g one, so the value only increases when ``grid`` doubles, on a
    BLAS build that keeps the grid-doubling bits (see ``_torus_slices``).
    Raises as ``check_torus_grid`` does, and ValueError when the weights do
    not have a finite sum."""
    best, allowance, shift = _lattice_max(p, grid)
    return math.ldexp(max(0.0, best - allowance), shift)


def _cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@functools.lru_cache(maxsize=1)
def _pool():
    """The thread pool of CPUs - 1 workers that walks the shares of a spread
    walk, started at the first one and kept for the next.  A forked child
    drops its parent's pool, whose threads it does not have, and starts
    its own."""
    from concurrent.futures import ThreadPoolExecutor
    return ThreadPoolExecutor(max(1, _cpus() - 1), thread_name_prefix="natspec-walk")


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_pool.cache_clear)


def _shares(classes: range, points: int) -> list[range]:
    """``classes`` cut into min(CPUs, classes) contiguous near-equal shares
    when BLAS runs one thread and the lattice has at least _SPREAD_POINTS
    points; else ``classes`` whole."""
    if points < _SPREAD_POINTS or blas_threads() != 1:
        return [classes]
    count = min(_cpus(), len(classes))
    return [classes[len(classes) * k // count:len(classes) * (k + 1) // count]
            for k in range(count)]


def _tiles_top(tiles) -> float:
    """The largest computed |v|^2 over the row tiles of a walk.

    Each tile is reduced while it is still in cache: |v|^2 in place, in
    contiguous passes over the tile: square both parts, then multiply by
    1 + i, whose imaginary part re^2 + im^2 rounds once, as the sum does
    (the products by 1 are exact); the real parts re^2 - im^2 are no
    larger, so the tile's largest float is its largest |v|^2.
    """
    top = 0.0
    for _, _, values in tiles:
        parts = values.view(np.float64)
        np.square(parts, out=parts)
        np.multiply(values, 1 + 1j, out=values)
        top = max(top, float(parts.max()))
    return top


def _lattice_max(p: CharacterPolynomial, grid: int,
                 classes: Optional[range] = None) -> tuple[float, float, int]:
    """(best, allowance, shift): the largest computed |p| over the lattice
    of the torsion classes ``classes`` (all by default) and the rounding
    allowance (K + _ROUNDING_TERMS) * u * sum |c_j|, both times 2^-shift
    (see ``_torus_slices``).

    Each row tile of the walk is reduced to its largest |v|^2 while it is
    still in cache (``_tiles_top``), and the square root is taken once, of
    the largest of all.  When the bundled BLAS runs one thread
    (``blas.blas_threads``) and the lattice has at least _SPREAD_POINTS
    points, the classes are cut into one contiguous share per CPU
    (``_shares``): the calling thread walks the first and the process's
    pool (``_pool``, started at the first spread walk; a forked child
    starts its own) the others, each with the tiles, chunks and product
    shapes of ``_eval_on_grid``, and best is the largest of the shares'
    maxima.  A worker's exception is raised again on the caller, and
    interpreter exit waits for a share still running.  A class's products
    do not depend on its chunk and the maximum is exact, so the result has
    the bits of the walk on one thread.  With more BLAS threads the walk
    stays on the calling thread, whose BLAS calls already use the other
    cores.
    """
    classes = range(p.order) if classes is None else classes
    walks = [_torus_slices(p, grid, share)
             for share in _shares(classes, len(classes) * grid ** p.dims)]
    shift = walks[0][1]
    others = [_pool().submit(_tiles_top, tiles) for _, _, tiles in walks[1:]]
    top = max([_tiles_top(walks[0][2])] + [other.result() for other in others])
    total = math.ldexp(sum(abs(c) for c in p.weights), -shift)
    return math.sqrt(top), (p.n_terms + _ROUNDING_TERMS) * _U * total, shift


def _exponent_span(p: CharacterPolynomial) -> int:
    """sum over the free axes of p's largest less its smallest exponent."""
    return sum(max(axis) - min(axis) for axis in zip(*p.exponents))


def _grid_upper(best: float, allowance: float, span: int, grid: int) -> float:
    """(best + allowance) / sqrt(cos(pi * span / grid)), rounded upward,
    for a grid above 2 * span.

    Along the segment from a maximum point of F = |p|^2 to its nearest
    lattice point, at most pi / grid away on each axis, F is a nonnegative
    function of exponential type at most pi * span / grid, and such a
    function falls from its maximum no faster than the cosine of that type
    times the distance (van der Corput and Schaake; Duffin and Schaeffer):
    sup |p| <= sqrt(F(lattice point) / cos(pi * span / grid)).  The angle is
    taken 4u larger, past the roundings of pi and of the quotient, and the
    result 8u larger, past the roundings of the sum, the cosine, the root
    and the division.
    """
    angle = math.pi * span / grid * (1 + 4 * _U)
    return (best + allowance) / math.sqrt(math.cos(angle)) * (1 + 8 * _U)


def _below_modulus(r: float, w: complex) -> bool:
    """r^2 < re(w)^2 + im(w)^2, compared exactly in integers (every float is
    a dyadic rational)."""
    (a, b), (c, d), (e, f) = (r.as_integer_ratio(), w.real.as_integer_ratio(),
                              w.imag.as_integer_ratio())
    return (a * d * f) ** 2 < ((c * f) ** 2 + (e * d) ** 2) * b * b


def _norm_bounds(m: MixedMeasure) -> tuple[float, float]:
    """(||mu|| as summed, an upper end of it), ValueError unless the upper
    end is finite.  The upper end moves each atom's modulus up an ulp at a
    time until it is at least its exact value, and sums them upward
    (``_sum_upward``), so it is the atoms' ``norm()`` whenever that is
    exact.  Both ends add the density's quadrature value, and the upper end
    its error estimate, summed upward."""
    density_value, density_err = m.ac.l1_norm_bounds()
    atoms = norm = m.disc.norm()
    if math.isfinite(norm):
        moduli = []
        for w in m.disc.w.tolist():
            r = abs(w)
            while _below_modulus(r, w):
                r = math.nextafter(r, math.inf)
            moduli.append(r)
        atoms = _sum_upward(moduli)
    upper = _sum_upward([atoms, density_value, density_err])
    if not math.isfinite(upper):
        raise ValueError(f"the total variation bound {upper!r} is not finite")
    return norm + density_value, upper


def _live_classes(p: CharacterPolynomial) -> range:
    """The torsion classes at which p can be nonzero.  When the half turn
    m -> m + order/2 maps p's terms onto themselves, p(t) = (-1)^t p(t) and
    p vanishes at odd t; when it maps them onto their negatives, p vanishes
    at even t.  The even and odd pieces of ``measures.parity_projections``
    are of these two kinds."""
    half = p.order // 2
    if p.order % 2 or not p.n_terms:
        return range(p.order)
    terms = dict(zip(zip(p.torsion, p.exponents), p.weights))
    image = [terms.get(((m + half) % p.order, e)) for m, e in zip(p.torsion, p.exponents)]
    if image == list(p.weights):
        return range(0, p.order, 2)
    if image == [-c for c in p.weights]:
        return range(1, p.order, 2)
    return range(p.order)


def spectral_bracket(mu: MeasureLike, max_grid: Optional[int] = None
                     ) -> tuple[float, float]:
    """Certified (lower, upper) bracket of the spectral radius of mu.

    For the discrete part d, with character polynomial p, each lattice walk
    of the grid loop gives a lower end, its maximum less the rounding
    allowance (as ``torus_max``), and, once the grid exceeds twice the
    exponent span S of p (the sum over the free axes of the exponents'
    ranges), an upper end (max + allowance) / sqrt(cos(pi S / grid)).  The
    loop keeps the largest lower and the smallest upper end and stops once
    upper - lower <= _BRACKET_REL_WIDTH * upper, or when the next grid
    would pass ``max_grid`` (no ceiling by default) or the walker's
    _TORUS_POINT_LIMIT.  Its first grid is 16, where the cap below may
    already close the bracket; the next is the coarsest power of two whose
    upper end can come within _BRACKET_REL_WIDTH of its lower end, or the
    finest within those limits, and the grid then doubles.  Without free
    axes one walk gives [max - allowance, max + allowance].  Torsion classes
    where p vanishes identically, half of them for a parity piece
    (``_live_classes``), are not walked.  At one BLAS thread a walk of at
    least _SPREAD_POINTS lattice points spreads the live classes over the
    CPUs, to the same bits (``_lattice_max``).

    A density part sum_K c_k e_k is orthogonal to d * (delta - sum_K e_k),
    so r(mu) = max(r(d), max_K |mu_hat(k)|); that maximum, less and plus its
    rounding allowance, is folded into both ends.  The upper end is capped
    at ||mu||, the atoms' part rounded upward, plus the density part's
    quadrature error: ``fekete_bound``'s first entry.

    Raises ValueError, before any work, for a max_grid below 16;
    BudgetExceededError, before any walk, when d has more than
    MAX_TORUS_DIMS free dimensions or order * 16^dims exceeds the walker's
    limit; and ValueError when the total variation is not finite.
    """
    if max_grid is not None and max_grid < 16:
        raise ValueError("grid must be at least 16")
    m = as_mixed(mu)
    upper = _norm_bounds(m)[1]
    p = char_polynomial(m.disc)
    check_torus_grid(p, 16)
    lower = upper_k = 0.0
    if not m.ac.is_zero:  # max over the density's frequencies k of |mu_hat(k)|
        [(top, allowance)] = _transform_sups([m], list(m.ac.coeffs))
        lower, upper_k = max(0.0, top - allowance), top + allowance
    span = _exponent_span(p)
    classes = _live_classes(p)
    limit = (_TORUS_POINT_LIMIT if max_grid is None
             else min(_TORUS_POINT_LIMIT, p.order * max_grid ** p.dims))
    fine = 16
    while (p.dims and math.pi * span > _BRACKET_ANGLE * fine
           and p.order * (2 * fine) ** p.dims <= limit):
        fine *= 2
    grid = 16
    while True:
        best, allowance, shift = _lattice_max(p, grid, classes)
        lower = max(lower, math.ldexp(max(0.0, best - allowance), shift))
        if not p.dims:
            upper = min(upper, max(upper_k, math.ldexp(best + allowance, shift)))
            break
        if grid > 2 * span:
            grid_upper = math.ldexp(_grid_upper(best, allowance, span, grid), shift)
            upper = min(upper, max(upper_k, grid_upper))
        if (upper - lower <= _BRACKET_REL_WIDTH * upper
                or p.order * (2 * grid) ** p.dims > limit):
            break
        grid = max(2 * grid, fine)
    return lower, upper


@dataclass(frozen=True)
class RadiusFallback:
    """Why ``radius_bracket`` ran the norm-root squarings, and their report."""

    reason: str
    report: FeketeReport


def radius_bracket(mu: MeasureLike, k_max: int = 6, max_grid: Optional[int] = None
                   ) -> tuple[tuple[float, float], Optional[RadiusFallback]]:
    """((lower, upper), fallback): ``spectral_bracket(mu, max_grid)`` and None,
    unless the walker refuses mu's lattice or the walks end wider than
    _BRACKET_REL_WIDTH of their upper end.  Then ``fekete_bound(mu, k_max)``
    runs, the upper end is the smaller of the two (the lower is 0 on a
    refusal) and fallback is the RadiusFallback.  ValueError, before any
    work, for a negative k_max or a max_grid below 16; a density the norm's
    quadrature refuses raises BudgetExceededError, as fekete_bound would."""
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    try:
        lower, upper = spectral_bracket(mu, max_grid)
    except BudgetExceededError as exc:
        if as_mixed(mu).ac.degree > _MAX_DEGREE:
            raise
        lower, upper, reason = 0.0, math.inf, f"the walker refused the lattice: {exc}"
    else:
        if upper - lower <= _BRACKET_REL_WIDTH * upper:
            return (lower, upper), None
        reason = (f"the lattice walks ended at [{lower!r}, {upper!r}], wider than 2^-6 of "
                  f"the upper end")
    report = fekete_bound(mu, k_max)
    return (lower, min(upper, report.final_bound)), RadiusFallback(reason, report)


def _as_xy(x) -> np.ndarray:
    pts = np.asarray(x, dtype=np.complex128).ravel()
    if pts.size == 0:
        raise ValueError("empty point set")
    return np.column_stack([pts.real, pts.imag])


def covering_radius(reference: np.ndarray, sample: np.ndarray) -> float:
    """sup over reference points of the distance to the nearest sample point.

    One KD-tree query over the sample.  The tree splits at sliding midpoints
    and keeps its cells unshrunk (``balanced_tree=False``,
    ``compact_nodes=False``) with 32 points per leaf, which builds and
    queries faster here than the defaults; the nearest distances, each
    sqrt(dx*dx + dy*dy), do not depend on the tree's shape.
    """
    from scipy.spatial import cKDTree  # imported here: nothing else loads scipy

    ref = _as_xy(reference)
    smp = _as_xy(sample)
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


def disk_grid(radius: float = 1.0, tol: float = 0.05) -> np.ndarray:
    """Polar reference grid for the closed disk of the given radius.

    The center, then ceil(2/tol) rings by ceil(2pi/tol) rays, ring-major:
    point 1 + i * rays + k sits at radius * (i + 1) / rings on ray k, at
    angle 2 pi k / rays.  Its covering radius of the disk is at most
    _DISK_COVER * tol * radius, about 0.56 tol * radius: a point of the disk
    at modulus s lies within radius / (2 rings) <= tol * radius / 4 of the
    nearest ring modulus r (or the center) and within pi / rays <= tol / 2
    of a ray's angle, and s^2 + r^2 - 2 s r cos(a) <= (s - r)^2 + s r a^2.
    ValueError, before any array is built, unless tol is finite, positive
    and gives at most MAX_DISK_POINTS (2**22) points, and radius is finite,
    nonnegative and keeps radius * rings finite.
    """
    n_r, n_ang = disk_grid_shape(tol)
    # NaN fails this test too
    if not (radius >= 0 and math.isfinite(radius * n_r)):
        raise ValueError(f"radius must be finite and nonnegative with a finite "
                         f"radius * rings, got {radius!r}")
    if radius == 0.0:
        return np.zeros(1, dtype=np.complex128)
    radii = radius * (np.arange(n_r, dtype=np.float64) + 1.0) / n_r
    angles = (np.arange(n_ang, dtype=np.float64) / n_ang) * TWO_PI
    pts = (radii[:, None] * np.exp(1j * angles)[None, :]).ravel()
    return np.concatenate([np.zeros(1, dtype=np.complex128), pts])


@functools.lru_cache(maxsize=1)
def _unit_disk_grid(tol: float) -> np.ndarray:
    """``disk_grid(1, tol)``, read-only, kept for the last tol: every
    fresh-pair covering at one tol queries the same grid."""
    grid = disk_grid(1.0, tol)
    grid.flags.writeable = False
    return grid


@functools.lru_cache(maxsize=_PAIR_COVER_CACHE)
def _pair_covering(alpha: Angle, beta: Angle, basis: GeneratorBasis, N: int, tol: float,
                   parity: str) -> float:
    """Covering radius of ``disk_grid(1, tol)`` by rho_hat over the |n| <= N
    of one parity: "all", "even" or "odd", for rho = ``make_rho(alpha, beta,
    basis)``.  The values come from ``transforms``, whose value at n depends
    only on n and the measure, so they are bit for bit the rho_hat that
    ``verify_decomposition`` reads at those n.  The result depends on the
    arguments alone and is cached: check (e) of ``verify_decomposition``
    and ``density-scan`` both read it, and every decomposition with the
    same fresh pair, basis, N and tol shares one covering."""
    ns = np.arange(-N, N + 1, dtype=np.int64)
    if parity != "all":
        ns = ns[(ns % 2 == 0) == (parity == "even")]
    [values] = transforms([make_rho(alpha, beta, basis)], ns)
    return covering_radius(_unit_disk_grid(tol), values)
