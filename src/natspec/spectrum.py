"""Spectral radius brackets and transform-cloud geometry for circle measures.

The spectral radius of a discrete measure mu is the maximum of |mu_hat| over
its generalized characters: a root of unity acting on the torsion part of
the support group and free unit circle variables for the independent
generators (the dual torus of Z_q x Z^d, Rudin, *Fourier Analysis on
Groups*, ch. 5).  ``spectral_bracket`` walks lattices of those characters,
a uniform grid per free variable.  Each lattice maximum, less a rounding
allowance, is a lower end; between lattice points |mu_hat|^2 cannot fall
faster than a cosine (the van der Corput-Schaake inequality, in Duffin and
Schaeffer's form), so the lattice maximum, divided by the square root of
that cosine at the grid's spacing, bounds the maximum over the whole torus.
For a measure with a density part sum_K c_k e_k the radius is the larger of
the discrete part's and max_K |mu_hat(k)|.

``fekete_bound`` gives an upper end without the torus: norms of the atoms'
iterated convolution squares, whose roots ||d^m||^(1/m) approach r(d) along
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

from .angles import TWO_PI
from .blas import blas_threads
from .errors import BudgetExceededError
from .measures import (_MAX_DEGREE, _TERM_BLOCK, _U, DiscreteMeasure, MeasureLike, MixedMeasure,
                       _transform_sups, as_mixed, convolve, unit_roots)

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
# brackets ``spectral_bracket`` keeps, with their inputs' bits: a
# decomposition and its verifier read two, one per parity piece
_BRACKET_CACHE = 4


@dataclass(frozen=True)
class FeketeReport:
    """Upper ends of the spectral radius, entry k from the norm root
    ||d^(2^k)||^(1/2^k) of the atoms; ``final_bound`` is the least."""

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

    For mu = d + sum_K c_k e_k, r(mu) = max(r(d), max_K |mu_hat(k)|), so the
    squarings run on the atoms d alone, and entry k is max(r_k, upper_k)
    with upper_k from ``_density_ends``: no density is convolved or
    integrated, and every entry bounds r(mu).  r_0 = ||d|| sums the atoms'
    moduli upward (``_norm_upward``), so entry 0 is ``spectral_bracket``'s
    cap.  A later r_k is rounded upward too: the square's norm is raised by
    its summation error and by a bound on how far the squarings' rounding
    has moved its atoms (``_square_error``), and its 2^k-th root is taken
    upward (``_root_upward``), so it is never below ||d^(2^k)||^(1/2^k).
    Stops early, with ``budget_hit`` set and the entries so far kept, when
    a squaring passes the convolution limits of ``measures.convolve``, and
    without ``budget_hit`` when an entry's upper end passes the largest
    float.  A power whose square's norm would leave the normal float range
    is rescaled by a power of two first, so tiny weights do not underflow
    to 0.  Raises as ``_norm_upward`` and ``_density_ends`` do.
    """
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    m = as_mixed(mu)
    r = _norm_upward(m)
    upper_k = _density_ends(m)[1]
    entries, budget_hit = [(0, max(r, upper_k))], False
    cur, shift = m.disc, 0  # d^(2^k) = cur * 2^shift, up to the rounding err bounds
    norm, err = r, 0.0  # ||cur|| <= norm and ||cur - d^(2^k) 2^-shift|| <= err
    if r > 0.0:
        for k in range(1, k_max + 1):
            e = _rescale_exponent(cur.norm())
            if e:
                cur = cur.scale(math.ldexp(1.0, -e))
                shift += e
                # norm lands in [2^-53, 1), exactly; a weight or err scaled
                # into the subnormal range loses at most an underflow unit
                norm = math.ldexp(norm, -e)
                err = math.ldexp(err, -e) + (len(cur) + 1) * _ETA
            atoms = len(cur)
            try:
                cur = convolve(cur, cur)
            except BudgetExceededError:
                budget_hit = True
                break
            shift *= 2
            err = _square_error(norm, err, atoms)
            # Python's sequential sum of the K moduli, each within an ulp
            norm = cur.norm() * (1.0 + (len(cur) + 3) * _U)
            rk = _root_upward(_sum_upward([norm, err]), shift, k)
            if rk == math.inf:  # within ulps of the float range: nothing finite bounds it
                break
            entries.append((k, max(rk, upper_k)))
    final = min(r for _, r in entries)
    return FeketeReport(tuple(entries), final, budget_hit)


def _exponents(d: DiscreteMeasure) -> np.ndarray:
    """The free exponents of d's atoms, one row per atom: the columns of its
    generator coefficients that are not all zero, one per free dimension of
    its character torus."""
    return d.coef[:, d.coef.any(axis=0)]


def character_values(d: DiscreteMeasure, grid: int = 256) -> np.ndarray:
    """Values of d's transform over its full character lattice, as a flat
    complex array.

    A character is (t, phi) with t in range(d.den) and phi in [0, 2pi)^dims,
    one free dimension per generator with a nonzero coefficient
    (``_exponents``); an atom with weight c at num / den turns plus
    exponents e contributes c * e^{2 pi i num t / den} * prod_a e^{i e_a phi_a}.
    Covers every torsion class crossed with a uniform ``grid``-point lattice
    per free dimension, t-major and in C order within a class.  The zero
    measure evaluates to {0}.  Each stack of row tiles of the walk (see
    ``_torus_slices``) is copied through a (classes, rows, columns) view into
    one preallocated output, which is then scaled back once; the values come
    from a blocked BLAS product, so their last bits depend on the BLAS build.
    """
    shape, shift, tiles = _torus_slices(d, _exponents(d), grid, range(d.den))
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
    """p(t; phi) = sum_j weights[j] omega^(torsion[j] t) prod_a e^{i
    exponents[j, a] phi_a} on the lattice of the torsion classes ``classes``
    (a subrange of range(order)) x grid^dims, one row tile of a chunk of
    classes at a time.

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


def _check_torus_grid(d: DiscreteMeasure, exponents: np.ndarray, grid: int) -> None:
    """Refuse, before any table of roots is built, a lattice the walker
    cannot hold, for d with free exponents ``exponents`` (``_exponents``):
    ValueError for a grid below 16, BudgetExceededError for more than
    MAX_TORUS_DIMS free dimensions or when den * grid^dims exceeds
    _TORUS_POINT_LIMIT."""
    if grid < 16:
        raise ValueError("grid must be at least 16")
    dims = exponents.shape[1]
    if dims > MAX_TORUS_DIMS:
        raise BudgetExceededError(f"the character torus has {dims} free dimensions, above "
                                  f"the walker's {MAX_TORUS_DIMS}")
    points = d.den * grid ** dims
    if points > _TORUS_POINT_LIMIT:
        raise BudgetExceededError(
            f"the character torus has {d.den} torsion classes x {grid}^{dims} grid "
            f"points = {points}, above the limit of {_TORUS_POINT_LIMIT}")


def _torus_slices(d: DiscreteMeasure, exponents: np.ndarray, grid: int, classes: range):
    """Set up the walk over d's character torus: (shape, shift, tiles).

    The walk covers the torsion classes ``classes``, on d's free exponents
    ``exponents`` (``_exponents``).
    shape is the lattice's (classes, grid^ceil(dims/2), grid^floor(dims/2))
    and tiles the row tiles of ``_eval_on_grid``, computed on the weights
    times 2^-shift, where shift is 0 unless ||d||^2 would leave the normal
    float range; multiplying the values by 2^shift gives d's transform
    itself, and |values|^2 stays finite and does not underflow to zero.
    The zero measure has shape (1, 1, 1) and one zero tile.  Besides the
    caller's own output the walk holds a chunk of tiles, its left factor
    rows and a group of right factors, each about _TILE_BYTES, and R's
    roots, atoms * grid^floor(dims/2) entries.

    The lattice values are blocked BLAS products.  With OpenBLAS 0.3.31
    their bits were the same with 1 and 2 BLAS threads and for any tile of
    2 rows or more, and a grid-g point kept its bits on the grid-2g
    lattice, so a lattice maximum can only grow when the grid doubles;
    another BLAS build, CPU kernel or thread count can break either, and
    ``tests/test_spectrum.py`` checks both.  Refuses the lattice as
    ``_check_torus_grid`` does, and raises ValueError when the weights do not
    have a finite sum.
    """
    _check_torus_grid(d, exponents, grid)
    if d.is_zero:
        return (1, 1, 1), 0, iter([(0, 0, np.zeros((1, 1, 1), dtype=np.complex128))])
    total = d.norm()
    if not math.isfinite(total):
        raise ValueError(f"the character weights sum to {total!r}, so p would not be finite")
    shift = _rescale_exponent(total)
    weights = d.w * math.ldexp(1.0, -shift) if shift else d.w
    left = (exponents.shape[1] + 1) // 2
    shape = (len(classes), grid ** left, grid ** (exponents.shape[1] - left))
    return shape, shift, _eval_on_grid(weights, d.num, d.den, exponents, grid, classes)


def torus_max(d: DiscreteMeasure, grid: int = 512) -> float:
    """A lower end of the spectral radius of d, the maximum of |d_hat| over
    its generalized characters: the maximum over the full torsion-by-grid
    lattice (``_lattice_max``), less its rounding allowance and clamped
    at 0.  The grid-g lattice lies in the grid-2g one, so the value only
    increases when ``grid`` doubles, on a BLAS build that keeps the
    grid-doubling bits (see ``_torus_slices``).  Raises as
    ``_check_torus_grid`` does, and ValueError when the weights do not have
    a finite sum."""
    best, allowance, shift = _lattice_max(d, grid)
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


def _lattice_max(d: DiscreteMeasure, grid: int, classes: Optional[range] = None,
                 exponents: Optional[np.ndarray] = None) -> tuple[float, float, int]:
    """(best, allowance, shift): the largest computed |d_hat| over the
    lattice of the torsion classes ``classes`` (all by default) and the
    rounding allowance (K + _ROUNDING_TERMS) * u * ||d|| for K atoms, both
    times 2^-shift (see ``_torus_slices``), on d's free exponents
    ``exponents``, ``_exponents(d)`` unless given.

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
    classes = range(d.den) if classes is None else classes
    exponents = _exponents(d) if exponents is None else exponents
    walks = [_torus_slices(d, exponents, grid, share)
             for share in _shares(classes, len(classes) * grid ** exponents.shape[1])]
    shift = walks[0][1]
    others = [_pool().submit(_tiles_top, tiles) for _, _, tiles in walks[1:]]
    top = max([_tiles_top(walks[0][2])] + [other.result() for other in others])
    return math.sqrt(top), (len(d) + _ROUNDING_TERMS) * _U * math.ldexp(d.norm(), -shift), shift


def _exponent_span(exponents: np.ndarray) -> int:
    """sum over the free axes of the largest less the smallest of
    ``exponents`` (``_exponents``)."""
    return sum(max(axis) - min(axis) for axis in exponents.T.tolist())


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


def _modulus_upward(w: complex) -> float:
    """|w| moved up an ulp at a time until it is at least its exact value;
    |w| itself when that is not finite."""
    r = abs(w)
    while math.isfinite(r) and _below_modulus(r, w):
        r = math.nextafter(r, math.inf)
    return r


def _transform_upper(m: MixedMeasure) -> float:
    """An upper end of sup_n |mu_hat(n)| <= ||d|| + max_k |c_k| for mu = d +
    sum_k c_k e_k: each modulus rounded up (``_modulus_upward``), summed
    upward; inf past the float range, nan for a nan weight."""
    density = max((_modulus_upward(c) for c in m.ac.coeffs.values()), default=0.0)
    try:
        return _sum_upward([_modulus_upward(w) for w in m.disc.w.tolist()] + [density])
    except OverflowError:  # finite moduli whose partial sums pass the float range
        return math.inf


def _norm_upward(m: MixedMeasure) -> float:
    """An upper end of ||d|| for m's atoms d, their moduli rounded up and
    summed upward; no density is integrated.  BudgetExceededError first for
    a density degree above _MAX_DEGREE, ValueError unless finite."""
    if m.ac.degree > _MAX_DEGREE:
        raise BudgetExceededError(f"density degree {m.ac.degree} is above the limit {_MAX_DEGREE}")
    upper = m.disc.norm()
    if math.isfinite(upper):
        upper = _sum_upward([_modulus_upward(w) for w in m.disc.w.tolist()])
    if not math.isfinite(upper):
        raise ValueError(f"the total variation bound {upper!r} is not finite")
    return upper


def _density_ends(m: MixedMeasure) -> tuple[float, float]:
    """max_K |mu_hat(k)| over the density's frequencies (``_transform_sups``) less
    and plus its rounding allowance; (0, 0) without a density, ValueError unless finite."""
    if m.ac.is_zero:
        return 0.0, 0.0
    [(top, allowance)] = _transform_sups([m], list(m.ac.coeffs))
    if not math.isfinite(top + allowance):
        raise ValueError(f"the density's transform bound {top + allowance!r} is not finite")
    return max(0.0, top - allowance), top + allowance


def _live_classes(d: DiscreteMeasure) -> range:
    """The torsion classes at which d_hat can be nonzero.  When the half
    turn num -> num + den/2 maps d onto itself, d_hat(t) = (-1)^t d_hat(t)
    and d_hat vanishes at odd t; when it maps d onto -d, d_hat vanishes at
    even t.  The even and odd pieces of ``measures.parity_projections`` are
    of these two kinds.  d's rows are unique, so the half turn maps d onto
    itself (or onto -d) exactly when each row's image is a row of d with
    the same weight (or its negative)."""
    if d.den % 2:
        return range(d.den)
    half, weights = d.den // 2, d.w.tolist()
    rows = list(zip(d.num.tolist(), map(tuple, d.coef.tolist())))
    at = dict(zip(rows, weights))
    image = [at.get(((t + half) % d.den, c)) for t, c in rows]
    if image == weights:
        return range(0, d.den, 2)
    if image == [-w for w in weights]:
        return range(1, d.den, 2)
    return range(d.den)


def spectral_bracket(mu: MeasureLike, max_grid: Optional[int] = None
                     ) -> tuple[float, float]:
    """Certified (lower, upper) bracket of the spectral radius of mu.

    For the discrete part d, each lattice walk of the grid loop gives a
    lower end, its maximum less the rounding allowance (as ``torus_max``),
    and, once the grid exceeds twice the exponent span S of d (the sum over
    the free axes of the exponents' ranges), an upper end (max + allowance)
    / sqrt(cos(pi S / grid)).  The loop keeps the largest lower and the
    smallest upper end and stops once upper - lower <= _BRACKET_REL_WIDTH *
    upper, or when the next grid would pass ``max_grid`` (no ceiling by
    default) or the walker's _TORUS_POINT_LIMIT.  Its first grid is 16,
    where the cap below often closes the bracket; the next is the coarsest
    power of two whose upper end can come within _BRACKET_REL_WIDTH of its
    lower end, or the finest within those limits, and the grid then
    doubles.  Without free axes one walk gives [max - allowance, max +
    allowance].  Torsion classes where d_hat vanishes identically, half of
    them for a parity piece (``_live_classes``), are not walked.  At one
    BLAS thread a walk of at least _SPREAD_POINTS lattice points spreads the
    live classes over the CPUs, to the same bits (``_lattice_max``).

    A density part sum_K c_k e_k is orthogonal to d * (delta - sum_K e_k),
    so r(mu) = max(r(d), max_K |mu_hat(k)|); that maximum, less and plus its
    rounding allowance, is folded into both ends.  The upper end is capped
    at max(||d||, that maximum plus allowance), ``fekete_bound``'s first
    entry; no quadrature is read (``tv_norm`` stays a reported estimate).

    Raises ValueError, before any work, for a max_grid below 16;
    BudgetExceededError, before any transform or walk, for a density degree
    above 65 536, more than MAX_TORUS_DIMS free dimensions of d or den *
    16^dims above the walker's limit; ValueError for a bound not finite.

    The process keeps the brackets of the last _BRACKET_CACHE distinct
    inputs, keyed by their exact bits (``_Bits``), of which the bracket is a
    function: a kept one is what the walks would compute again, bit for bit,
    so check (f) of ``verify_decomposition`` reads ``decompose``'s brackets
    of the parity pieces without walking.  Refusals are not kept.
    """
    if max_grid is not None and max_grid < 16:
        raise ValueError("grid must be at least 16")
    return _memo_bracket(_Bits(as_mixed(mu), max_grid))


class _Bits:
    """A measure and a grid ceiling, hashed and compared by ``key``: the
    measure's den, the dtype, shape and bytes of its num, coef and w, its
    density's frequencies (Python ints, of any size) and the bytes of its
    coefficients, its basis (the density's transform reads the generator
    values), the ceiling and the BLAS thread count.  Equal keys hold the same
    floats bit for bit, signed zeros included, so they give the same
    bracket."""

    __slots__ = ("m", "max_grid", "key")

    def __init__(self, m: MixedMeasure, max_grid: Optional[int]):
        d, coeffs = m.disc, m.ac.coeffs
        self.m, self.max_grid = m, max_grid
        self.key = (d.den, *(x for a in (d.num, d.coef, d.w)
                             for x in (a.dtype.str, a.shape, a.tobytes())),
                    tuple(coeffs), np.array(list(coeffs.values()), dtype=np.complex128).tobytes(),
                    m.basis, max_grid, blas_threads())

    def __hash__(self) -> int:
        return hash(self.key)

    def __eq__(self, other) -> bool:
        return self.key == other.key


@functools.lru_cache(maxsize=_BRACKET_CACHE)
def _memo_bracket(bits: _Bits) -> tuple[float, float]:
    """``_bracket`` of the measure and ceiling in ``bits``, kept for the last
    _BRACKET_CACHE distinct bits."""
    return _bracket(bits.m, bits.max_grid)


def _bracket(m: MixedMeasure, max_grid: Optional[int]) -> tuple[float, float]:
    """The walks of ``spectral_bracket``, on m and its ceiling max_grid."""
    atoms, d = _norm_upward(m), m.disc
    exponents = _exponents(d)
    _check_torus_grid(d, exponents, 16)
    lower, upper_k = _density_ends(m)
    upper = max(atoms, upper_k)
    dims, span, classes = exponents.shape[1], _exponent_span(exponents), _live_classes(d)
    limit = (_TORUS_POINT_LIMIT if max_grid is None
             else min(_TORUS_POINT_LIMIT, d.den * max_grid ** dims))
    fine = 16
    while (dims and math.pi * span > _BRACKET_ANGLE * fine
           and d.den * (2 * fine) ** dims <= limit):
        fine *= 2
    grid = 16
    while True:
        best, allowance, shift = _lattice_max(d, grid, classes, exponents)
        lower = max(lower, math.ldexp(max(0.0, best - allowance), shift))
        if not dims:
            upper = min(upper, max(upper_k, math.ldexp(best + allowance, shift)))
            break
        if grid > 2 * span:
            grid_upper = math.ldexp(_grid_upper(best, allowance, span, grid), shift)
            upper = min(upper, max(upper_k, grid_upper))
        if (upper - lower <= _BRACKET_REL_WIDTH * upper
                or d.den * (2 * grid) ** dims > limit):
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
    runs, the upper end is the smaller of the two and fallback is the
    RadiusFallback; on a refusal the lower end is the density's, max(0,
    max_K |mu_hat(k)| less its allowance) as ``_density_ends`` gives it, 0
    without a density.  ValueError, before any work, for a negative k_max
    or a max_grid below 16; a density of degree above 65 536 raises
    BudgetExceededError, as fekete_bound would."""
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    try:
        lower, upper = spectral_bracket(mu, max_grid)
    except BudgetExceededError as exc:
        if as_mixed(mu).ac.degree > _MAX_DEGREE:
            raise
        lower, upper = _density_ends(as_mixed(mu))[0], math.inf
        reason = f"the walker refused the lattice: {exc}"
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
