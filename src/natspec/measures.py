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
from collections.abc import ItemsView, Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from typing import Iterable, Union

import numpy as np

from .angles import Angle, GeneratorBasis, reduced_phases
from .errors import BasisMismatchError, BudgetExceededError

_MAX_DENOMINATOR = 1 << 62  # largest common turn denominator; also the sort-key span
_MAX_COEFF = 1 << 62  # generator coefficients below this add without int64 wrap
_MAX_ROOT_TABLE = 1 << 16  # unit_roots caches a table up to this denominator


@dataclass(frozen=True)
class ConvolutionBudget:
    """Resource limits for convolutions and iterated powers."""

    max_atoms: int = 200_000
    max_degree: int = 65_536
    max_pairs: int = 4_000_000


def _roots(r: np.ndarray, q: int) -> np.ndarray:
    roots = np.exp(2j * np.pi * (r / q))
    for k, exact in enumerate((1.0, 1j, -1.0, -1j)):  # the roots on the axes
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

    Roots on the axes are exact, so half-turn symmetries cancel exactly; the
    others are exp(2j*pi*(r/q)), whose bits depend only on r/q for q < 2**53.
    Up to q = 2**16 they come from a cached table, above it from the same
    formula for just the residues asked for, so memory follows ``r``, not q.
    """
    if q <= _MAX_ROOT_TABLE:
        return _root_table(q)[r]
    r = np.asarray(r, dtype=np.int64)
    return _roots(r.reshape(-1), q).reshape(r.shape)[()]


def _rational_residues(ns: np.ndarray, p: int, q: int) -> np.ndarray:
    """(-n * p) mod q for each n, exact for every int64 n.

    n is reduced mod q before the product; when (q - 1) * p could still
    overflow int64 the product is taken in Python integers.
    """
    r = ns % q
    if (q - 1) * p >= 1 << 63:
        return ((-r.astype(object) * p) % q).astype(np.int64)
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


def _row_groups(columns: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """(group, first): equal rows of the int64 columns share a group id, ids
    rise in lexicographic row order, and row ``first[g]`` is in group g.
    Columns are packed by mixed radix into as few order-keeping keys as the
    2**62 span allows: one unless the ranges are huge, and one key sorts 3x
    faster than a stable lexsort."""
    keys, span = [], _MAX_DENOMINATOR + 1
    for col in columns:
        lo = int(col.min(initial=0))
        extent = int(col.max(initial=0)) - lo + 1
        if span * extent <= _MAX_DENOMINATOR:  # in place: a packed key is never a column
            keys[-1] *= extent
            keys[-1] += col - lo
            span *= extent
        else:
            keys.append(col - lo if extent <= _MAX_DENOMINATOR else col)
            span = min(extent, _MAX_DENOMINATOR + 1)
    order = np.argsort(keys[0]) if len(keys) == 1 else np.lexsort(keys[::-1])
    ranked = [key[order] for key in keys]
    starts = np.ones(len(order), dtype=bool)
    starts[1:] = np.any([key[1:] != key[:-1] for key in ranked], axis=0)
    group = np.empty(len(order), dtype=np.int64)
    group[order] = np.cumsum(starts) - 1
    return group, order[starts]


def _merge(den: int, num: np.ndarray, coef: np.ndarray, w: np.ndarray, drop_tol: float = 0.0):
    """Canonical (den, num, coef, w) for weights w at (num / den turns, coef):
    the one place where position-keyed sums happen.  Each sum starts from
    complex(-0.0, -0.0) and adds its weights in input order, so one term
    keeps its bits, signed zeros included.  Sums that are 0 or at most
    ``drop_tol`` in modulus are dropped, rows come out unique and sorted
    (turns, then coefficients), and den becomes the lcm of the reduced turn
    denominators (1 for the zero measure)."""
    group, first = _row_groups([num, *coef.T])
    acc = np.full(len(first), complex(-0.0, -0.0))
    np.add.at(acc, group, w)
    keep = acc != 0
    if drop_tol > 0.0:
        keep &= np.array([abs(x) > drop_tol for x in acc.tolist()], dtype=bool)
    num, coef, w = num[first[keep]], coef[first[keep]], acc[keep]
    g = math.gcd(den, int(np.gcd.reduce(num)))
    return den // g, num // g, coef, w


class _Atoms(Mapping):
    """The ``atoms`` view of a DiscreteMeasure."""

    __slots__ = ("_mu",)

    def __init__(self, mu: "DiscreteMeasure"):
        self._mu = mu

    def __len__(self) -> int:
        return len(self._mu.w)

    def __iter__(self):
        mu = self._mu
        return (Angle(Fraction(t, mu.den), tuple(c))
                for t, c in zip(mu.num.tolist(), mu.coef.tolist()))

    def __getitem__(self, angle: Angle) -> complex:
        for key, w in self.items():
            if key == angle:
                return w
        raise KeyError(angle)

    def items(self):
        return _AtomItems(self)


class _AtomItems(ItemsView):
    def __iter__(self):
        return zip(self._mapping, self._mapping._mu.w.tolist())


class DiscreteMeasure:
    """Finite complex combination of point masses at exact positions.

    A position is one integer row: a turn numerator over the common
    denominator ``den`` (the lcm of the reduced turn denominators, at most
    2**62), then the generator coefficients.  The read-only arrays ``num``
    (int64[m]), ``coef`` (int64[m, k]) and ``w`` (complex128[m]) hold the
    unique rows with nonzero weights, sorted by turns, then coefficients.
    Angles appear only at the edge: the constructor takes a mapping
    Angle -> weight, ``atoms`` is a read-only Mapping view.  ValueError when
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
              w, drop_tol: float = 0.0) -> "DiscreteMeasure":
        """Measure from rows in any order, repeats summed (see ``_merge``)."""
        w = np.asarray(w, dtype=np.complex128)
        return object.__new__(cls)._store(basis, *_merge(den, num, coef, w, drop_tol))

    @classmethod
    def from_atoms(cls, basis: GeneratorBasis,
                   pairs: Iterable[tuple[Angle, complex]]) -> "DiscreteMeasure":
        """Build from (position, weight) pairs; the weights at a repeated
        position are summed in input order."""
        return cls._rows(basis, *_encode(basis, pairs))

    @classmethod
    def zero(cls, basis: GeneratorBasis) -> "DiscreteMeasure":
        return cls(basis, {})

    @classmethod
    def point_mass(cls, basis: GeneratorBasis, angle: Angle,
                   weight: complex = 1.0) -> "DiscreteMeasure":
        return cls(basis, {angle: complex(weight)})

    @property
    def atoms(self) -> Mapping[Angle, complex]:
        """Read-only Mapping Angle -> weight in canonical order, built lazily:
        ``len`` builds no Angle; iterating, and each lookup, builds one per
        atom visited."""
        return _Atoms(self)

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
        return DiscreteMeasure._rows(self.basis, self.den, self.num, self.coef,
                                     [w * c for w in self.w.tolist()])

    def __neg__(self) -> "DiscreteMeasure":
        return DiscreteMeasure._rows(self.basis, self.den, self.num, self.coef, -self.w)

    def __add__(self, other: "DiscreteMeasure") -> "DiscreteMeasure":
        if not isinstance(other, DiscreteMeasure):
            return NotImplemented
        _check_same_basis(self.basis, other.basis)
        den = _common_den(self.den, other.den)
        num = np.concatenate([self.num * (den // self.den), other.num * (den // other.den)])
        return DiscreteMeasure._rows(self.basis, den, num,
                                     np.concatenate([self.coef, other.coef]),
                                     np.concatenate([self.w, other.w]))

    def __sub__(self, other: "DiscreteMeasure") -> "DiscreteMeasure":
        return self + (-other)

    def translate(self, shift: Angle) -> "DiscreteMeasure":
        """Pushforward under t -> t + shift (no weight arithmetic).  Raises
        ValueError when a coefficient sum could wrap in int64."""
        s_den, s_num, s_coef, _ = _encode(self.basis, [(shift, 1.0)])
        _check_sum_safe(self.coef, s_coef)
        den = _common_den(self.den, s_den)
        num = (self.num * (den // self.den) + int(s_num[0]) * (den // s_den)) % den
        return DiscreteMeasure._rows(self.basis, den, num, self.coef + s_coef, self.w)

    def transform(self, ns) -> np.ndarray:
        """Fourier coefficients mu_hat(n) for an integer array ``ns``.

        Atoms sharing a generator-coefficient vector are summed through the
        exact roots of unity of their reduced turns (``unit_roots``), then
        multiplied once by e^{-i n g}, with n g reduced mod 2 pi in extended
        precision.  Complex products are out of place, so a value depends
        only on n, not on the array holding it.
        """
        ns = np.asarray(ns, dtype=np.int64)
        common = np.gcd(self.num, self.den)
        turns = zip((self.num // common).tolist(), (self.den // common).tolist())
        groups: dict[tuple[int, ...], list[tuple[int, int, complex]]] = {}
        for coeffs, (p, q), w in zip(self.coef.tolist(), turns, self.w.tolist()):
            groups.setdefault(tuple(coeffs), []).append((p, q, w))
        out = np.zeros(ns.shape, dtype=np.complex128)
        for coeffs, members in groups.items():
            acc = np.zeros(ns.shape, dtype=np.complex128)
            for p, q, w in members:
                acc += np.multiply(w, unit_roots(_rational_residues(ns, p, q), q))
            if any(coeffs):
                g = np.longdouble(0.0)
                for c, v in zip(coeffs, self.basis.values):
                    if c:
                        g += np.longdouble(c) * np.longdouble(v)
                acc = np.multiply(acc, np.exp(-1j * reduced_phases(ns, g)))
            out += acc
        return out

    def __repr__(self) -> str:
        return f"DiscreteMeasure({len(self.w)} atoms, {len(self.basis)} generators)"


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
        """Measure transform of f dt/2pi at integers ``ns``; equals c_n."""
        ns = np.asarray(ns, dtype=np.int64)
        out = np.zeros(ns.shape, dtype=np.complex128)
        if not self.coeffs:
            return out
        ks = np.fromiter(self.coeffs.keys(), dtype=np.int64, count=len(self.coeffs))
        cs = np.fromiter(self.coeffs.values(), dtype=np.complex128, count=len(self.coeffs))
        idx = np.searchsorted(ks, ns)
        idx_c = np.clip(idx, 0, len(ks) - 1)
        mask = ks[idx_c] == ns
        out[mask] = cs[idx_c[mask]]
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
        floor for the final rounding.
        """
        if not self.coeffs:
            return 0.0, 0.0
        m = max(4096, 64 * self.degree)
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

    @classmethod
    def zero(cls, basis: GeneratorBasis) -> "MixedMeasure":
        return cls(DiscreteMeasure.zero(basis), TrigPolyDensity({}))

    def __eq__(self, other) -> bool:
        if not isinstance(other, MixedMeasure):
            return NotImplemented
        return self.disc == other.disc and self.ac == other.ac

    @property
    def is_zero(self) -> bool:
        return self.disc.is_zero and self.ac.is_zero

    @property
    def is_discrete(self) -> bool:
        return self.ac.is_zero

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

    def __rsub__(self, other) -> "MixedMeasure":
        return as_mixed(other) - self

    def transform(self, ns) -> np.ndarray:
        ns = np.asarray(ns, dtype=np.int64)
        return self.disc.transform(ns) + self.ac.transform(ns)

    def __repr__(self) -> str:
        return (f"MixedMeasure({len(self.disc.atoms)} atoms, "
                f"{len(self.ac.coeffs)} density coefficients)")


MeasureLike = Union[DiscreteMeasure, MixedMeasure]


def as_mixed(mu: MeasureLike) -> MixedMeasure:
    if isinstance(mu, MixedMeasure):
        return mu
    if isinstance(mu, DiscreteMeasure):
        return MixedMeasure.from_discrete(mu)
    raise TypeError(f"not a measure: {mu!r}")


def make_theta0(basis: GeneratorBasis) -> DiscreteMeasure:
    """(delta_0 + delta_pi) / 2: averaging over the half-turn subgroup."""
    return DiscreteMeasure(basis, {basis.zero(): 0.5, basis.half_turn(): 0.5})


def make_theta1(basis: GeneratorBasis) -> DiscreteMeasure:
    """(delta_0 - delta_pi) / 2: the half-turn sign character."""
    return DiscreteMeasure(basis, {basis.zero(): 0.5, basis.half_turn(): -0.5})


def make_rho(alpha: Angle, beta: Angle, basis: GeneratorBasis) -> DiscreteMeasure:
    """(delta_alpha + delta_beta) / 2."""
    if alpha == beta:
        raise ValueError("alpha and beta must be distinct positions")
    return DiscreteMeasure(basis, {alpha: 0.5, beta: 0.5})


def _convolve_discrete(a: DiscreteMeasure, b: DiscreteMeasure, drop_tol: float,
                       budget: ConvolutionBudget | None) -> DiscreteMeasure:
    # Pairs are enumerated a-major in canonical order, so each merged weight
    # accumulates its products in that pair order under numpy's complex
    # rounding, whatever the number of pairs.
    if a.is_zero or b.is_zero:
        return DiscreteMeasure.zero(a.basis)
    pairs = len(a) * len(b)
    if budget is not None and pairs > budget.max_pairs:
        raise BudgetExceededError(
            f"convolution needs {pairs} atom pairs, budget allows {budget.max_pairs}")
    _check_sum_safe(a.coef, b.coef)
    den = _common_den(a.den, b.den)
    num = (a.num * (den // a.den))[:, None] + (b.num * (den // b.den))[None, :]
    # one contiguous array per coefficient column: the merge reads columns
    coef = np.add(a.coef.T[:, :, None], b.coef.T[:, None, :]).reshape(-1, pairs).T
    w = a.w[:, None] * b.w[None, :]
    result = DiscreteMeasure._rows(a.basis, den, (num % den).ravel(), coef, w.ravel(), drop_tol)
    if budget is not None and len(result) > budget.max_atoms:
        raise BudgetExceededError(
            f"convolution produced {len(result)} atoms, budget allows {budget.max_atoms}")
    return result


def _convolve_disc_ac(d: DiscreteMeasure, f: TrigPolyDensity, drop_tol: float) -> TrigPolyDensity:
    if d.is_zero or f.is_zero:
        return TrigPolyDensity({})
    ks = np.fromiter(f.coeffs.keys(), dtype=np.int64, count=len(f.coeffs))
    cs = np.fromiter(f.coeffs.values(), dtype=np.complex128, count=len(f.coeffs))
    vals = cs * d.transform(ks)
    out = {int(k): complex(c) for k, c in zip(ks, vals)}
    if drop_tol > 0.0:
        out = {k: c for k, c in out.items() if abs(c) > drop_tol}
    return TrigPolyDensity(out)


def _convolve_ac_ac(f: TrigPolyDensity, g: TrigPolyDensity, drop_tol: float) -> TrigPolyDensity:
    out = {}
    small = f if len(f.coeffs) <= len(g.coeffs) else g
    other = g if small is f else f
    for k, c in small.coeffs.items():
        oc = other.coeffs.get(k)
        if oc is not None:
            v = c * oc
            if drop_tol <= 0.0 or abs(v) > drop_tol:
                out[k] = v
    return TrigPolyDensity(out)


def convolve(a: MeasureLike, b: MeasureLike, *, drop_tol: float = 0.0,
             budget: ConvolutionBudget | None = None) -> MeasureLike:
    """Convolution a * b.  Returns DiscreteMeasure iff both inputs are discrete.

    Atom positions add exactly; weights multiply and merge in canonical
    position order.  With the default drop_tol=0 only exact zero weights are
    dropped, so structural cancellations (half-turn symmetrization and the
    sign character) vanish identically.
    """
    if isinstance(a, DiscreteMeasure) and isinstance(b, DiscreteMeasure):
        _check_same_basis(a.basis, b.basis)
        return _convolve_discrete(a, b, drop_tol, budget)
    ma, mb = as_mixed(a), as_mixed(b)
    _check_same_basis(ma.basis, mb.basis)
    disc = _convolve_discrete(ma.disc, mb.disc, drop_tol, budget)
    ac = _convolve_disc_ac(ma.disc, mb.ac, drop_tol)
    ac = ac + _convolve_disc_ac(mb.disc, ma.ac, drop_tol)
    ac = ac + _convolve_ac_ac(ma.ac, mb.ac, drop_tol)
    if budget is not None and ac.degree > budget.max_degree:
        raise BudgetExceededError(
            f"density degree {ac.degree} exceeds budget {budget.max_degree}")
    return MixedMeasure(disc, ac)


def convolve_power(mu: MeasureLike, k: int, *, drop_tol: float = 0.0,
                   budget: ConvolutionBudget | None = None) -> MeasureLike:
    """2**k-fold convolution power by repeated squaring.

    On budget exhaustion raises with ``completed_exponent`` set to the largest
    j whose 2**j-fold power was fully computed, and ``partial`` set to that
    power.
    """
    if k < 0:
        raise ValueError("power exponent must be nonnegative")
    if budget is None:
        budget = ConvolutionBudget()
    cur = mu
    for j in range(k):
        try:
            cur = convolve(cur, cur, drop_tol=drop_tol, budget=budget)
        except BudgetExceededError as exc:
            raise BudgetExceededError(
                f"power 2**{j + 1} exceeded budget: {exc}",
                completed_exponent=j, partial=cur) from exc
    return cur


def tv_norm(mu: MeasureLike) -> float:
    """Total variation norm; the density part uses certified quadrature."""
    return tv_norm_bounds(mu)[0]


def tv_norm_bounds(mu: MeasureLike) -> tuple[float, float]:
    """(value, error estimate); the discrete part is an exact weight sum."""
    m = as_mixed(mu)
    value = m.disc.norm()
    ac_value, ac_err = m.ac.l1_norm_bounds()
    return value + ac_value, ac_err


def fourier_coefficient(mu: MeasureLike, n: int) -> complex:
    """Single transform value mu_hat(n)."""
    return complex(as_mixed(mu).transform(np.array([int(n)], dtype=np.int64))[0])


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
    # weight, 0 when the partner is absent.
    den = _common_den(mu.den, 2)
    half = den // 2
    num = mu.num * (den // mu.den)
    group, first = _row_groups([num % half, *mu.coef.T])
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
    pos = np.concatenate([num[lead], (num[lead] + half) % den])
    coef = np.concatenate([mu.coef[lead], mu.coef[lead]])
    return (DiscreteMeasure._rows(mu.basis, den, pos, coef, np.concatenate([h, h])),
            DiscreteMeasure._rows(mu.basis, den, pos, coef, np.concatenate([d, -d])))


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
