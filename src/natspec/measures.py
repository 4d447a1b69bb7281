"""Complex measures on the circle with exact atom positions.

``DiscreteMeasure`` holds finitely many atoms at exact positions with complex
weights.  ``TrigPolyDensity`` is an absolutely continuous part with a
trigonometric polynomial density against normalized arc length dt/2pi.
``MixedMeasure`` combines both.  Transforms use the convention
mu_hat(n) = integral of e^{-int} dmu(t), so a unit point mass at position a
has transform e^{-ina}.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from typing import Iterable, Sequence, Union

import numpy as np

from .angles import _PI_LD, Angle, GeneratorBasis, phase_factors
from .errors import BasisMismatchError, BudgetExceededError

_MAX_DENOMINATOR = 1 << 62  # largest common turn denominator; also the sort-key span
_MAX_COEFF = 1 << 62  # generator coefficients below this add without int64 wrap
_MAX_ROOT_TABLE = 1 << 16  # unit_roots caches a table up to this denominator
# limits every convolution enforces (BudgetExceededError beyond them)
_MAX_PAIRS = 4_000_000  # atom pairs, checked before any row is built
_MAX_ATOMS = 200_000  # atoms of the merged discrete result
_MAX_DEGREE = 65_536  # degree of the density part of the result
# ``transforms`` evaluates at n = B b + a, B = _TABLE_SPLIT and 0 <= a < B,
# in blocks of R = _ROW_BLOCK rows b (2**_BLOCK_SHIFT n), _GROUP_BLOCKS
# blocks (2 MiB of values) per stacked product
_TABLE_SHIFT, _BLOCK_SHIFT = 8, 12
_TABLE_SPLIT, _ROW_BLOCK = 1 << _TABLE_SHIFT, 1 << (_BLOCK_SHIFT - _TABLE_SHIFT)
_GROUP_BLOCKS = 32
# terms contracted per BLAS product; with OpenBLAS 0.3.31, zgemm gave the same
# bits with 1 and 2 threads up to this depth and not deeper
_TERM_BLOCK = 128
_U = 2.0 ** -53  # the unit roundoff of float64


_QUARTER_PI_LD = _PI_LD / 4
# per octant o of the circle: whether the root's real part is the sine of the
# reduced angle, and the signs of the real and imaginary parts
_OCTANT_SWAP = np.array([False, True, True, False, False, True, True, False])
_OCTANT_RE = np.array([1.0, 1.0, -1.0, -1.0, -1.0, -1.0, 1.0, 1.0])
_OCTANT_IM = np.array([1.0, 1.0, 1.0, 1.0, -1.0, -1.0, -1.0, -1.0])


def _roots(r: np.ndarray, q: int) -> np.ndarray:
    """e^{2 pi i r / q} for int64 residues 0 <= r < q.

    8r = o q + s in integers puts r/q in octant o; the angle
    pi/4 * a/q, with a = s for even o and q - s for odd o, lies in
    [0, pi/4], and its cosine and sine, taken in long double, are placed by
    the octant's symmetry.  So a root's bits depend only on the fraction
    r/q, the roots of r and q - r are exact conjugates, the axis roots are
    exact, and so are components of 1/2 and the two equal components on
    the diagonals.  Each component is within about half an ulp where long
    double is the x87 80-bit format.
    """
    if 8 * (q - 1) < 1 << 63:
        octant, s = np.divmod(8 * r, q)
    else:
        eight_r = r.astype(object) * 8
        octant, s = (eight_r // q).astype(np.int64), (eight_r % q).astype(np.int64)
    a = np.where(octant % 2 == 1, q - s, s)
    angle = _QUARTER_PI_LD * (a.astype(np.longdouble) / np.longdouble(q))
    cos, sin = np.cos(angle).astype(np.float64), np.sin(angle).astype(np.float64)
    if q % 3 == 0:
        sin[a == 2 * (q // 3)] = 0.5  # the angle pi/6
    sin[a == q] = cos[a == q]  # the angle pi/4
    swap = _OCTANT_SWAP[octant]
    roots = np.empty(r.shape, dtype=np.complex128)
    roots.real = np.where(swap, sin, cos) * _OCTANT_RE[octant]
    roots.imag = np.where(swap, cos, sin) * _OCTANT_IM[octant]
    for k, exact in enumerate((1.0, 1j, -1.0, complex(0.0, -1.0))):  # the axes
        if k * q % 4 == 0:
            roots[r == k * q // 4] = exact
    return roots


@lru_cache(maxsize=64)
def _root_table(q: int) -> np.ndarray:
    table = _roots(np.arange(q, dtype=np.int64), q)
    table.flags.writeable = False
    return table


def unit_roots(r, q: int):
    """e^{2 pi i r / q} for integer residues 0 <= r < q (an array or a scalar).

    Roots on the axes are exact, so half-turn symmetries cancel exactly;
    the others are reduced to an octant in integer arithmetic (``_roots``),
    so their bits depend only on the fraction r/q.  Up to q = 2**16 they
    come from a cached table, above it from the same formula for just the
    residues asked for, so memory follows ``r``, not q.
    """
    if q <= _MAX_ROOT_TABLE:
        return _root_table(q)[r]
    r = np.asarray(r, dtype=np.int64)
    return _roots(r.reshape(-1), q).reshape(r.shape)[()]


def _rational_residues(ns: np.ndarray, p, q: int) -> np.ndarray:
    """(-n * p) mod q for each n and each 0 <= p < q (an int, or an array
    that broadcasts against ns), exact for every int64 n.

    n is reduced mod q before the product; when (q - 1) * p could still
    overflow int64 the product is taken in Python integers.
    """
    r = ns % q
    if (q - 1) * int(np.max(p)) >= 1 << 63:
        return ((-r.astype(object) * np.asarray(p).astype(object)) % q).astype(np.int64)
    return (-r * p) % q


def _check_same_basis(a: GeneratorBasis, b: GeneratorBasis) -> None:
    if a != b:
        raise BasisMismatchError("measures are defined over different generator bases")


def _common_den(a: int, b: int) -> int:
    den = math.lcm(a, b)
    if den > _MAX_DENOMINATOR:
        raise ValueError(f"common turn denominator {den} is above 2**62")
    return den


def _check_sum_safe(*coefs: np.ndarray) -> None:
    """Refuse coefficients whose pairwise int64 sums could wrap."""
    if any(c.size and (c.min() <= -_MAX_COEFF or c.max() >= _MAX_COEFF) for c in coefs):
        raise ValueError("generator coefficient too large for exact int64 sums")


def _encode(basis: GeneratorBasis, pairs: Iterable[tuple[Angle, complex]]):
    """(den, num, coef, w) with one row per (Angle, weight) pair, in order."""
    pairs = [(a, complex(w)) for a, w in pairs]
    if any(len(a.coeffs) != len(basis) for a, _ in pairs):
        raise BasisMismatchError("atom coefficient length does not match basis")
    den = reduce(_common_den, (a.turns.denominator for a, _ in pairs), 1)
    try:
        coef = np.array([a.coeffs for a, _ in pairs], dtype=np.int64)
    except OverflowError as exc:
        raise ValueError(f"generator coefficient outside the int64 range: {exc}") from exc
    num = [a.turns.numerator * (den // a.turns.denominator) for a, _ in pairs]
    return (den, np.array(num, dtype=np.int64), coef.reshape(len(pairs), len(basis)),
            np.array([w for _, w in pairs], dtype=np.complex128))


def _row_groups(columns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(group, first) for the rows of a table given by its int64 columns,
    one per row of ``columns``: equal rows share a group id, ids rise in
    lexicographic row order, and row ``first[g]`` is in group g.  Columns
    are packed by mixed radix into as few order-keeping keys as the 2**62
    span allows, each one int64 product of strides and columns: one unless
    the ranges are huge, and one key sorts 3x faster than a stable lexsort."""
    lo = columns.min(axis=1, initial=0).tolist()
    hi = columns.max(axis=1, initial=0).tolist()
    packs, span = [], _MAX_DENOMINATOR + 1  # [first column, strides] of each key
    for i, extent in enumerate(h - l + 1 for l, h in zip(lo, hi)):
        if span * extent <= _MAX_DENOMINATOR:
            packs[-1][1] = [s * extent for s in packs[-1][1]] + [1]
            span *= extent
        else:
            packs.append([i, [1]])
            span = min(extent, _MAX_DENOMINATOR + 1)
    # lo <= 0 <= hi, so a key's partial sums stay within (-span, span)
    keys = [np.array(strides) @ columns[i:i + len(strides)] for i, strides in packs]
    order = np.argsort(keys[0]) if len(keys) == 1 else np.lexsort(keys[::-1])
    starts = np.zeros(len(order), dtype=bool)
    starts[:1] = True
    for key in keys:
        ranked = key[order]
        starts[1:] |= ranked[1:] != ranked[:-1]
    group = np.empty(len(order), dtype=np.int64)
    group[order] = np.add.accumulate(starts, dtype=np.int64) - 1
    return group, order[starts]


def _merge(den: int, num: np.ndarray, coef: np.ndarray, w: np.ndarray):
    """Canonical (den, num, coef, w) for weights w at (num / den turns, coef):
    the one place where position-keyed sums happen.  Each sum starts from
    complex(-0.0, -0.0) and adds its weights in input order, so one term
    keeps its bits, signed zeros included.  Sums that are 0 are dropped,
    rows come out unique and sorted (turns, then coefficients), and den
    becomes the lcm of the reduced turn denominators (1 for the zero
    measure)."""
    group, first = _row_groups(np.vstack([num, coef.T]))
    acc = np.full(len(first), complex(-0.0, -0.0))
    np.add.at(acc, group, w)
    keep = acc != 0
    num, coef, w = num[first[keep]], coef[first[keep]], acc[keep]
    g = math.gcd(den, int(np.gcd.reduce(num)))
    return den // g, num // g, coef, w


class DiscreteMeasure:
    """Finite complex combination of point masses at exact positions.

    A position is one integer row: a turn numerator over the common
    denominator ``den`` (the lcm of the reduced turn denominators, at most
    2**62), then the generator coefficients.  The read-only arrays ``num``
    (int64[m]), ``coef`` (int64[m, k]) and ``w`` (complex128[m]) hold the
    unique rows with nonzero weights, sorted by turns, then coefficients.
    Angles appear only at the edge: the constructor takes a mapping
    Angle -> weight, ``atoms`` returns a new dict of them.  ValueError when
    den would pass 2**62 or a coefficient does not fit in int64.
    """

    __slots__ = ("basis", "den", "num", "coef", "w")

    def __init__(self, basis: GeneratorBasis, atoms: Mapping[Angle, complex]):
        self._store(basis, *_merge(*_encode(basis, atoms.items())))

    def _store(self, basis, den, num, coef, w) -> "DiscreteMeasure":
        for a in (num, coef, w):
            a.flags.writeable = False
        self.basis, self.den, self.num, self.coef, self.w = basis, den, num, coef, w
        return self

    @classmethod
    def _rows(cls, basis: GeneratorBasis, den: int, num: np.ndarray, coef: np.ndarray,
              w) -> "DiscreteMeasure":
        """Measure from rows in any order, repeats summed (see ``_merge``)."""
        w = np.asarray(w, dtype=np.complex128)
        return object.__new__(cls)._store(basis, *_merge(den, num, coef, w))

    @classmethod
    def _canonical_rows(cls, basis: GeneratorBasis, den: int, num: np.ndarray,
                        coef: np.ndarray, w) -> "DiscreteMeasure":
        """Measure from rows that are already unique and in canonical order,
        as ``_rows`` would return it without the grouping and the sort: zero
        weights are dropped, den is reduced, and every weight keeps its bits."""
        w = np.asarray(w, dtype=np.complex128)
        keep = w != 0
        if not keep.all():
            num, coef, w = num[keep], coef[keep], w[keep]
        g = math.gcd(den, int(np.gcd.reduce(num)))
        return object.__new__(cls)._store(basis, den // g, num // g, coef, w)

    @classmethod
    def from_atoms(cls, basis: GeneratorBasis,
                   pairs: Iterable[tuple[Angle, complex]]) -> "DiscreteMeasure":
        """Build from (position, weight) pairs; the weights at a repeated
        position are summed in input order."""
        return cls._rows(basis, *_encode(basis, pairs))

    @classmethod
    def zero(cls, basis: GeneratorBasis) -> "DiscreteMeasure":
        return cls(basis, {})

    @property
    def atoms(self) -> dict[Angle, complex]:
        """A new dict Angle -> weight in canonical order."""
        return {Angle(Fraction(t, self.den), tuple(c)): w for t, c, w
                in zip(self.num.tolist(), self.coef.tolist(), self.w.tolist())}

    def __eq__(self, other) -> bool:
        if not isinstance(other, DiscreteMeasure):
            return NotImplemented
        return (self.basis == other.basis and self.den == other.den
                and all(np.array_equal(getattr(self, a), getattr(other, a))
                        for a in ("num", "coef", "w")))

    def __len__(self) -> int:
        return len(self.w)

    @property
    def is_zero(self) -> bool:
        return not len(self.w)

    def norm(self) -> float:
        """Total variation: sum of absolute weights."""
        return float(sum(abs(w) for w in self.w.tolist()))

    def scale(self, c: complex) -> "DiscreteMeasure":
        c = complex(c)
        if c == 0:
            return DiscreteMeasure.zero(self.basis)
        # a product that underflows to zero drops its row
        return DiscreteMeasure._canonical_rows(self.basis, self.den, self.num, self.coef,
                                               [w * c for w in self.w.tolist()])

    def __neg__(self) -> "DiscreteMeasure":
        return DiscreteMeasure._canonical_rows(self.basis, self.den, self.num, self.coef,
                                               -self.w)

    def __add__(self, other: "DiscreteMeasure") -> "DiscreteMeasure":
        if not isinstance(other, DiscreteMeasure):
            return NotImplemented
        return _sum((self, other))

    def __sub__(self, other: "DiscreteMeasure") -> "DiscreteMeasure":
        return self + (-other)

    def transform(self, ns) -> np.ndarray:
        """Fourier coefficients mu_hat(n) at the integers ``ns``, a 1-D
        integer array: ``transforms`` of the one measure, which states how
        the values are rounded."""
        return transforms([self], ns)[0]

    def __repr__(self) -> str:
        return f"DiscreteMeasure({len(self.w)} atoms, {len(self.basis)} generators)"


def _sum(measures: Sequence[DiscreteMeasure]) -> DiscreteMeasure:
    """The sum of one or more discrete measures over one basis: their rows
    at the common denominator, in input order, through one ``_merge``, so
    each position's weights are summed from -0 in input order.  It equals
    the left fold ``measures[0] + measures[1] + ...`` as numbers, and bit
    for bit except the sign of a zero component, where a partial sum of the
    fold cancels and the fold restarts from -0.  ValueError when the common
    denominator passes 2**62."""
    basis = measures[0].basis
    for m in measures[1:]:
        _check_same_basis(basis, m.basis)
    den = reduce(_common_den, (m.den for m in measures))
    return DiscreteMeasure._rows(basis, den,
                                 np.concatenate([m.num * (den // m.den) for m in measures]),
                                 np.concatenate([m.coef for m in measures]),
                                 np.concatenate([m.w for m in measures]))


@dataclass(frozen=True, eq=False)
class TrigPolyDensity:
    """Trigonometric polynomial sum_k c_k e^{ikt}, a density against dt/2pi."""

    coeffs: Mapping[int, complex]

    def __post_init__(self):
        clean = {int(k): complex(c) for k, c in self.coeffs.items() if complex(c) != 0}
        object.__setattr__(self, "coeffs", dict(sorted(clean.items())))

    def __eq__(self, other) -> bool:
        if not isinstance(other, TrigPolyDensity):
            return NotImplemented
        return self.coeffs == other.coeffs

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        if not self.coeffs:
            return 0
        return max(abs(k) for k in self.coeffs)

    def scale(self, c: complex) -> "TrigPolyDensity":
        c = complex(c)
        if c == 0:
            return TrigPolyDensity({})
        return TrigPolyDensity({k: v * c for k, v in self.coeffs.items()})

    def __neg__(self) -> "TrigPolyDensity":
        return TrigPolyDensity({k: -v for k, v in self.coeffs.items()})

    def __add__(self, other: "TrigPolyDensity") -> "TrigPolyDensity":
        acc = dict(self.coeffs)
        for k, v in other.coeffs.items():
            acc[k] = acc.get(k, 0.0 + 0.0j) + v
        return TrigPolyDensity(acc)

    def __sub__(self, other: "TrigPolyDensity") -> "TrigPolyDensity":
        return self + (-other)

    def transform(self, ns) -> np.ndarray:
        """Measure transform of f dt/2pi at the integers ``ns``, a 1-D integer
        array (ValueError for any other); equals c_n."""
        ns = _integer_points(ns)
        out = np.zeros(ns.shape, dtype=np.complex128)
        if not self.coeffs:
            return out
        ks = np.fromiter(self.coeffs.keys(), dtype=np.int64, count=len(self.coeffs))
        cs = np.fromiter(self.coeffs.values(), dtype=np.complex128, count=len(self.coeffs))
        inside = np.flatnonzero((ns >= ks[0]) & (ns <= ks[-1]))
        idx = np.searchsorted(ks, ns[inside])
        hit = ks[idx] == ns[inside]
        out[inside[hit]] = cs[idx[hit]]
        return out

    def values_on_grid(self, m: int) -> np.ndarray:
        """f at the m-point uniform grid t_j = 2 pi j / m.  Needs m > 2*degree."""
        spec = np.zeros(m, dtype=np.complex128)
        for k, c in self.coeffs.items():
            spec[k % m] += c
        return np.fft.ifft(spec) * m

    def l1_norm_bounds(self) -> tuple[float, float]:
        """(value, error estimate) for (1/2pi) * integral of |f|.

        Uniform quadrature at max(4096, 64*degree) points with one Richardson
        refinement; the error estimate is the refinement delta plus a small
        floor for the final rounding.  Raises BudgetExceededError, before any
        quadrature point is built, when the degree is above the limit every
        convolution enforces.
        """
        if not self.coeffs:
            return 0.0, 0.0
        degree = self.degree
        if degree > _MAX_DEGREE:
            raise BudgetExceededError(f"density degree {degree} is above the limit {_MAX_DEGREE}")
        m = max(4096, 64 * degree)
        i1 = float(np.abs(self.values_on_grid(m)).mean())
        i2 = float(np.abs(self.values_on_grid(2 * m)).mean())
        value = i2 + (i2 - i1) / 3.0
        err = abs(i2 - i1) + 1e-13 * (1.0 + abs(i2))
        return value, err

    def __repr__(self) -> str:
        return f"TrigPolyDensity({len(self.coeffs)} coefficients, degree {self.degree})"


@dataclass(frozen=True, eq=False)
class MixedMeasure:
    """Discrete part plus trig-polynomial absolutely continuous part."""

    disc: DiscreteMeasure
    ac: TrigPolyDensity

    @property
    def basis(self) -> GeneratorBasis:
        return self.disc.basis

    @classmethod
    def from_discrete(cls, d: DiscreteMeasure) -> "MixedMeasure":
        return cls(d, TrigPolyDensity({}))

    @classmethod
    def from_density(cls, basis: GeneratorBasis,
                     coeffs: Union[Mapping[int, complex], "TrigPolyDensity"]
                     ) -> "MixedMeasure":
        if isinstance(coeffs, TrigPolyDensity):
            return cls(DiscreteMeasure.zero(basis), coeffs)
        return cls(DiscreteMeasure.zero(basis), TrigPolyDensity(coeffs))

    def __eq__(self, other) -> bool:
        if not isinstance(other, MixedMeasure):
            return NotImplemented
        return self.disc == other.disc and self.ac == other.ac

    @property
    def is_zero(self) -> bool:
        return self.disc.is_zero and self.ac.is_zero

    def scale(self, c: complex) -> "MixedMeasure":
        return MixedMeasure(self.disc.scale(c), self.ac.scale(c))

    def __neg__(self) -> "MixedMeasure":
        return MixedMeasure(-self.disc, -self.ac)

    def __add__(self, other) -> "MixedMeasure":
        other = as_mixed(other)
        _check_same_basis(self.basis, other.basis)
        return MixedMeasure(self.disc + other.disc, self.ac + other.ac)

    def __sub__(self, other) -> "MixedMeasure":
        return self + (-as_mixed(other))

    def __radd__(self, other) -> "MixedMeasure":
        return as_mixed(other) + self

    def transform(self, ns) -> np.ndarray:
        """Fourier coefficients at the integers ``ns``, a 1-D integer array
        (ValueError for any other): ``transforms`` of the one measure, the
        atoms' sum plus the density's coefficients."""
        return transforms([self], ns)[0]

    def __repr__(self) -> str:
        return (f"MixedMeasure({len(self.disc)} atoms, "
                f"{len(self.ac.coeffs)} density coefficients)")


def _integer_points(ns) -> np.ndarray:
    """``ns`` as a 1-D int64 array; ValueError for another shape, and for
    booleans, floats (even integral ones) and other non-integers."""
    points = np.asarray(ns)
    if points.ndim != 1:
        raise ValueError(f"ns must be a 1-D array of integers, not {points.ndim}-D")
    if points.size and (points.dtype.kind not in "iu" or points.dtype.kind == "u"
                        and points.max() > np.iinfo(np.int64).max):
        raise ValueError(f"ns must hold int64 integers, not {points.dtype}")
    return points.astype(np.int64, copy=False)


def _blocks(ns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(blocks, position) for n = R B k + B r + a, 0 <= r < R and 0 <= a < B:
    the call's blocks k, ascending, and each n's index R B i + B r + a in
    the stacked product, whose row r of block i is b = R blocks[i] + r.
    The blocks are every k from the least to the largest when that is at
    most twice the blocks the n could fill, 2 ceil(len(ns) / (R B)) + 2,
    else the distinct k: n in far-apart clusters compute no block between
    them.  The shifts floor, so this holds at both int64 extremes."""
    if ns.size:
        first, last = int(ns.min()) >> _BLOCK_SHIFT, int(ns.max()) >> _BLOCK_SHIFT
        if last - first < 2 * (-(-ns.size >> _BLOCK_SHIFT)) + 2:
            return np.arange(first, last + 1, dtype=np.int64), ns - (first << _BLOCK_SHIFT)
    blocks, rank = np.unique(ns >> _BLOCK_SHIFT, return_inverse=True)
    return blocks, (rank << _BLOCK_SHIFT) + (ns & ((1 << _BLOCK_SHIFT) - 1))


def _generator_value(coeffs: tuple[int, ...], values: tuple[float, ...]) -> np.longdouble:
    """g = sum of c * v over the nonzero coefficients, in order, in long double."""
    return sum((np.longdouble(c) * np.longdouble(v) for c, v in zip(coeffs, values) if c),
               np.longdouble(0.0))


def _term_factors(lows: np.ndarray, points: np.ndarray, d: DiscreteMeasure, vector: np.ndarray,
                  block: slice, tables: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(L, H) of ``transforms`` for the atoms ``block`` of d at points = (the
    call's low points a, ``lows``, then the points B b), with lo, hi the row
    vector[j] of ``tables``, the phase factors there (none for -1): L is
    zero at every other a < B, and zero terms pad the block to at least 2."""
    w, vector = d.w[block], vector[block]
    e = unit_roots(_rational_residues(points, d.num[block, None], d.den), d.den)
    rows = np.flatnonzero(vector >= 0)
    if rows.size:
        e[rows] = np.multiply(e[rows], tables[vector[rows]])
    right = np.zeros((max(2, len(w)), _TABLE_SPLIT), dtype=np.complex128)
    right[:len(w), lows] = e[:, :len(lows)]
    left = np.zeros((len(points) - len(lows), len(right)), dtype=np.complex128)
    np.multiply(w, e[:, len(lows):].T, out=left[:, :len(w)])
    return right, left


def transforms(measures: Iterable[MeasureLike], ns) -> list[np.ndarray]:
    """Fourier coefficients of each measure at the integers ``ns``, a 1-D
    integer array (ValueError for any other, before any work).

    With n = B b + a, B = _TABLE_SPLIT = 256 and 0 <= a < B, an atom's term
    w_j e^{-i n theta_j} is H_j[b] L_j[a], with L_j[a] = root_j(a) lo_g[a]
    over the call's distinct a (0 at every other a < B) and H_j[b] = w_j
    (root_j(B b) hi_g[b]) over the rows b of the call's blocks: root_j(n)
    is ``unit_roots`` of (-n num_j) mod den, reduced exactly for every
    int64 n, and lo_g, hi_g are e^{-i a g} and e^{-i B b g} from
    ``angles.phase_factors`` for the atom's generator value g.  So each
    measure's values are one matrix product of its own tables; the measures
    of a call share only the phase tables, and a density adds its terms.

    The b go in blocks of R = _ROW_BLOCK = 16 rows aligned to b = 0 mod R,
    each one (R x K)(K x B) product of the same shape in a stacked
    ``np.matmul``, the K terms cut into blocks of at most _TERM_BLOCK = 128
    summed in order (a block of one term padded with a zero term), as
    ``spectrum``'s torus walker does.  An entry of the product reads only
    its own row and column, so a value depends only on n and the measure,
    not on the other n (nor on which a < B they fill), the other measures
    or the BLAS thread count.  A product holds at most _GROUP_BLOCKS = 32
    blocks (|n| < 2**16 in one), and each g's tables are built once per
    product, at the call's distinct a and the product's rows b.

    A term rounds two roots, two exponentials and four complex products
    (``_transform_allowance`` bounds a value's rounding).  The
    phases a g and B b g are each reduced mod 2 pi in long double, so
    together they carry about (|n| + 2 B) |g| u_LD, u_LD the long double's
    unit roundoff (2**-64 for x87, 2**-53 where long double is float64):
    for one copy of sqrt2 on x87 the error measured 2.5e-8 at n = 2**40 and
    0.10 at n = 2**62; no error is raised.
    """
    ns = _integer_points(ns)
    measures = list(measures)
    discs = [as_mixed(m).disc for m in measures]
    index: dict = {}  # (coefficients, basis values) -> row of the phase tables
    vectors = [np.array([index.setdefault((c, d.basis.values), len(index)) if any(c) else -1
                         for c in map(tuple, d.coef.tolist())], dtype=np.int64) for d in discs]
    gs = np.array([_generator_value(*key) for key in index], dtype=np.longdouble)[:, None]
    blocks, position = _blocks(ns)
    held = np.zeros(_TABLE_SPLIT, dtype=bool)
    held[ns & (_TABLE_SPLIT - 1)] = True
    lows = np.flatnonzero(held)
    starts = range(0, len(blocks), _GROUP_BLOCKS)
    single = len(starts) == 1  # then each output is one gather from the product
    if single:
        picks = [slice(None)]
    else:
        order = np.argsort(position, kind="stable")
        bounds = np.searchsorted(position[order], [s << _BLOCK_SHIFT
                                                   for s in (*starts, len(blocks))])
        picks = [order[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]
    totals = [None if single and len(d) else np.zeros(ns.shape, dtype=np.complex128)
              for d in discs]
    for start, pick in zip(starts, picks):
        chunk = blocks[start:start + _GROUP_BLOCKS]
        high = (_ROW_BLOCK * chunk[:, None]
                + np.arange(_ROW_BLOCK, dtype=np.int64)).reshape(-1) << _TABLE_SHIFT
        points = np.concatenate([lows, high])
        tables = phase_factors(points, gs) if index else None
        at = position[pick] - (start << _BLOCK_SHIFT) if start else position[pick]
        buf = np.empty((len(chunk), _ROW_BLOCK, _TABLE_SPLIT), dtype=np.complex128)
        for i, (d, vector) in enumerate(zip(discs, vectors)):
            if not len(d):
                continue
            for s in range(0, len(d), _TERM_BLOCK):
                right, left = _term_factors(lows, points, d, vector, slice(s, s + _TERM_BLOCK),
                                            tables)
                stack = left.reshape(len(chunk), _ROW_BLOCK, -1)
                if s == 0:
                    np.matmul(stack, right, out=buf)
                else:
                    buf += np.matmul(stack, right)
            if single:
                totals[i] = buf.reshape(-1)[at]
            else:
                totals[i][pick] = buf.reshape(-1)[at]
    for m, total in zip(measures, totals):
        if isinstance(m, MixedMeasure) and not m.ac.is_zero:
            total += m.ac.transform(ns)
    return totals


def _transform_allowance(m: MixedMeasure, n_max: int) -> float:
    """Bound on the rounding of ``transforms``'s mu_hat(n) for
    |n| <= n_max, for K atoms: (K + 25) u times the atoms' total modulus
    plus the largest density coefficient, and 8 eps_LD (n_max + 2 B)
    sum |w_j| |g_j| for the phases.  The sum of at most K + 1 terms (with
    the zero padding) and the density's coefficient round K + 1 times, and
    a term w_j root_j(B b) hi_g[b] root_j(a) lo_g[a] carries 24 u of |w_j|:
    two roots (u each), two phase factors (4 u for the phase rounded to
    float64 below 2 pi and sqrt2 u for the exponential, each) and four
    complex products (sqrt5 u each), 21.8 u.  With n = B b + a and
    0 <= a < B = _TABLE_SPLIT, |a| + |B b| <= |n| + 2 B, and each of the
    phases a g and B b g is formed and reduced in long double within about
    4 eps_LD of its size; even at |n| <= 3 they reach B b = -256 and
    a = 253.  It scales with mu, so a verdict against it does not change
    when mu is scaled by a power of two."""
    weights = np.abs(m.disc.w)
    gens = np.abs(m.disc.coef).astype(np.float64) @ np.abs(np.asarray(m.basis.values,
                                                                      dtype=np.float64))
    phase = (8 * float(np.finfo(np.longdouble).eps) * (n_max + 2 * _TABLE_SPLIT)
             * float(weights @ gens))
    total = float(weights.sum()) + max((abs(c) for c in m.ac.coeffs.values()), default=0.0)
    return (len(weights) + 25) * _U * total + phase


def _transform_sups(measures: Iterable[MeasureLike], ns) -> list[tuple[float, float]]:
    """(max |mu_hat(n)| over ``ns``, ``_transform_allowance`` at the largest
    |n|) for each measure, from one ``transforms`` call."""
    ns = _integer_points(ns)
    mixed = [as_mixed(m) for m in measures]
    n_max = int(np.max(np.abs(ns)))
    return [(float(np.max(np.abs(v))), _transform_allowance(m, n_max))
            for m, v in zip(mixed, transforms(mixed, ns))]


MeasureLike = Union[DiscreteMeasure, MixedMeasure]


def as_mixed(mu: MeasureLike) -> MixedMeasure:
    if isinstance(mu, MixedMeasure):
        return mu
    if isinstance(mu, DiscreteMeasure):
        return MixedMeasure.from_discrete(mu)
    raise TypeError(f"not a measure: {mu!r}")


def _half_turn_pair(basis: GeneratorBasis, odd: complex) -> DiscreteMeasure:
    """0.5 delta_0 + odd delta_pi, built as its two canonical rows."""
    return DiscreteMeasure._canonical_rows(basis, 2, np.arange(2, dtype=np.int64),
                                           np.zeros((2, len(basis)), dtype=np.int64),
                                           [0.5, odd])


def make_theta0(basis: GeneratorBasis) -> DiscreteMeasure:
    """(delta_0 + delta_pi) / 2: averaging over the half-turn subgroup."""
    return _half_turn_pair(basis, 0.5)


def make_theta1(basis: GeneratorBasis) -> DiscreteMeasure:
    """(delta_0 - delta_pi) / 2: the half-turn sign character."""
    return _half_turn_pair(basis, -0.5)


def make_rho(alpha: Angle, beta: Angle, basis: GeneratorBasis) -> DiscreteMeasure:
    """(delta_alpha + delta_beta) / 2."""
    if alpha == beta:
        raise ValueError("alpha and beta must be distinct positions")
    return DiscreteMeasure(basis, {alpha: 0.5, beta: 0.5})


def _convolve_discrete(a: DiscreteMeasure, b: DiscreteMeasure) -> DiscreteMeasure:
    # Pairs are enumerated a-major in canonical order, so each merged weight
    # accumulates its products in that pair order under numpy's complex
    # rounding, whatever the number of pairs.
    if a.is_zero or b.is_zero:
        return DiscreteMeasure.zero(a.basis)
    pairs = len(a) * len(b)
    if pairs > _MAX_PAIRS:
        raise BudgetExceededError(
            f"convolution needs {pairs} atom pairs, the limit is {_MAX_PAIRS}")
    _check_sum_safe(a.coef, b.coef)
    den = _common_den(a.den, b.den)
    num = (a.num * (den // a.den))[:, None] + (b.num * (den // b.den))[None, :]
    # one contiguous array per coefficient column: the merge reads columns
    coef = np.add(a.coef.T[:, :, None], b.coef.T[:, None, :]).reshape(-1, pairs).T
    w = a.w[:, None] * b.w[None, :]
    result = DiscreteMeasure._rows(a.basis, den, (num % den).ravel(), coef, w.ravel())
    if len(result) > _MAX_ATOMS:
        raise BudgetExceededError(
            f"convolution produced {len(result)} atoms, the limit is {_MAX_ATOMS}")
    return result


def _convolve_disc_ac(d: DiscreteMeasure, f: TrigPolyDensity) -> TrigPolyDensity:
    if d.is_zero or f.is_zero:
        return TrigPolyDensity({})
    ks = np.fromiter(f.coeffs.keys(), dtype=np.int64, count=len(f.coeffs))
    cs = np.fromiter(f.coeffs.values(), dtype=np.complex128, count=len(f.coeffs))
    return TrigPolyDensity(dict(zip(ks.tolist(), (cs * d.transform(ks)).tolist())))


def _convolve_ac_ac(f: TrigPolyDensity, g: TrigPolyDensity) -> TrigPolyDensity:
    return TrigPolyDensity({k: c * g.coeffs[k] for k, c in f.coeffs.items() if k in g.coeffs})


def convolve(a: MeasureLike, b: MeasureLike) -> MeasureLike:
    """Convolution a * b.  Returns DiscreteMeasure iff both inputs are discrete.

    Atom positions add exactly; weights multiply and merge in canonical
    position order.  Only exact zero weights are dropped, so structural
    cancellations (half-turn symmetrization and the sign character) vanish
    identically.  Raises BudgetExceededError when the discrete parts form
    more than 4 000 000 atom pairs (before any pair is built), when the
    discrete result has more than 200 000 atoms, or when the density result
    has degree above 65 536.
    """
    if isinstance(a, DiscreteMeasure) and isinstance(b, DiscreteMeasure):
        _check_same_basis(a.basis, b.basis)
        return _convolve_discrete(a, b)
    ma, mb = as_mixed(a), as_mixed(b)
    _check_same_basis(ma.basis, mb.basis)
    disc = _convolve_discrete(ma.disc, mb.disc)
    ac = _convolve_disc_ac(ma.disc, mb.ac)
    ac = ac + _convolve_disc_ac(mb.disc, ma.ac)
    ac = ac + _convolve_ac_ac(ma.ac, mb.ac)
    if ac.degree > _MAX_DEGREE:
        raise BudgetExceededError(
            f"density degree {ac.degree} is above the limit {_MAX_DEGREE}")
    return MixedMeasure(disc, ac)


def tv_norm(mu: MeasureLike) -> float:
    """Total variation norm, estimated as ``tv_norm_bounds``'s value."""
    return tv_norm_bounds(mu)[0]


def tv_norm_bounds(mu: MeasureLike) -> tuple[float, float]:
    """(value, error estimate): the atoms' weight sum plus the density's
    quadrature (``TrigPolyDensity.l1_norm_bounds``), a reported estimate
    that can fall below the exact norm and that no certified radius reads."""
    m = as_mixed(mu)
    value = m.disc.norm()
    ac_value, ac_err = m.ac.l1_norm_bounds()
    return value + ac_value, ac_err


def _exact_halves(w: float, wp: float) -> tuple[float, float]:
    """(h, d) near ((w+wp)/2, (w-wp)/2) with h+d == w and h-d == wp when a
    representable such pair exists.

    The naive rounded halves already satisfy both identities whenever the
    weights live on a common dyadic grid.  For other same-scale pairs a small
    search over neighboring representables finds an exact pair; for extreme
    exponent spreads no exact pair exists and the rounded halves are returned
    (correct to round-off).
    """
    h0 = (w + wp) * 0.5
    d0 = (w - wp) * 0.5
    if (h0 + d0) == w and (h0 - d0) == wp:
        return h0, d0
    ud = math.ulp(d0) if d0 else 5e-324
    for kd in (0, 1, -1, 2, -2, 3, -3, 4, -4):
        dd = d0 + kd * ud
        for h in (w - dd, wp + dd, h0):
            if (h + dd) == w and (h - dd) == wp:
                return h, dd
    uh = math.ulp(h0) if h0 else 5e-324
    for kh in (1, -1, 2, -2):
        h = h0 + kh * uh
        if (h + d0) == w and (h - d0) == wp:
            return h, d0
    return h0, d0


def _exact_halves_complex(w: complex, wp: complex) -> tuple[complex, complex]:
    hr, dr = _exact_halves(w.real, wp.real)
    hi, di = _exact_halves(w.imag, wp.imag)
    return complex(hr, hi), complex(dr, di)


def _parity_split_disc(mu: DiscreteMeasure) -> tuple[DiscreteMeasure, DiscreteMeasure]:
    # Half-turn partners share (num mod den/2, coef).  Each pair is split
    # from the weight of its first atom in canonical order and the partner's
    # weight, 0 when the partner is absent.  The groups come in key order,
    # so the lower positions of the pairs, then the upper ones, are the
    # pieces' rows in canonical order, each weight a one-term sum.  The
    # first atom is the lower one unless that is absent; the odd piece
    # gives the first atom d and its partner -d.
    den = _common_den(mu.den, 2)
    half = den // 2
    num = mu.num * (den // mu.den)
    group, first = _row_groups(np.vstack([num % half, mu.coef.T]))
    index = np.arange(len(num))
    lead = np.full(len(first), len(num))
    last = np.zeros(len(first), dtype=np.int64)
    np.minimum.at(lead, group, index)
    np.maximum.at(last, group, index)
    w = mu.w.tolist()
    halves = [_exact_halves_complex(w[i], w[j] if j != i else 0j)
              for i, j in zip(lead.tolist(), last.tolist())]
    h = np.array([x for x, _ in halves], dtype=np.complex128)
    d = np.array([x for _, x in halves], dtype=np.complex128)
    low = num[lead] % half
    d = np.where(num[lead] == low, d, -d)
    pos = np.concatenate([low, low + half])
    coef = np.concatenate([mu.coef[lead], mu.coef[lead]])
    return (DiscreteMeasure._canonical_rows(mu.basis, den, pos, coef, np.concatenate([h, h])),
            DiscreteMeasure._canonical_rows(mu.basis, den, pos, coef, np.concatenate([d, -d])))


def parity_projections(mu: MeasureLike) -> tuple[MeasureLike, MeasureLike]:
    """(mu * theta0, mu * theta1): the half-turn even and odd parts.

    The even part is exactly invariant under the half turn and the odd part
    exactly anti-invariant.  The parts recombine to mu exactly whenever each
    weight pair admits exactly-representable halves (always the case for
    weights on a common dyadic grid; see _exact_halves).
    """
    if isinstance(mu, DiscreteMeasure):
        return _parity_split_disc(mu)
    m = as_mixed(mu)
    even_d, odd_d = _parity_split_disc(m.disc)
    even_ac = TrigPolyDensity({k: c for k, c in m.ac.coeffs.items() if k % 2 == 0})
    odd_ac = TrigPolyDensity({k: c for k, c in m.ac.coeffs.items() if k % 2 != 0})
    return MixedMeasure(even_d, even_ac), MixedMeasure(odd_d, odd_ac)
