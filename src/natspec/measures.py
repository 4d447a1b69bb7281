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
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping, Union

import numpy as np

from .angles import Angle, GeneratorBasis, reduced_phases
from .errors import BasisMismatchError, BudgetExceededError

_MAX_VECTOR_DENOMINATOR = 1 << 40  # largest denominator the array paths accept
_MAX_COEFF = 1 << 62  # generator coefficients below this add without int64 wrap


@dataclass(frozen=True)
class ConvolutionBudget:
    """Resource limits for convolutions and iterated powers."""

    max_atoms: int = 200_000
    max_degree: int = 65_536
    max_pairs: int = 4_000_000


@lru_cache(maxsize=64)  # a few denominators per measure; tables can be large
def _root_lut(q: int) -> np.ndarray:
    """Roots of unity e^{2 pi i j / q} for j in range(q).

    Entries on the real/imaginary axes are patched to their exact values so
    that order-2 structure (half-turn symmetries) cancels exactly in float
    arithmetic.  Built so that the table for 2q agrees bitwise with the table
    for q on the shared entries.
    """
    j = np.arange(q, dtype=np.float64)
    lut = np.exp(2j * np.pi * (j / q))
    lut[0] = 1.0
    if q % 2 == 0:
        lut[q // 2] = -1.0
    if q % 4 == 0:
        lut[q // 4] = 1j
        lut[3 * q // 4] = -1j
    lut.flags.writeable = False
    return lut


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


@dataclass(frozen=True, eq=False)
class DiscreteMeasure:
    """Finite complex combination of point masses at exact positions.

    ``atoms`` maps Angle -> complex weight; the constructor drops exact zero
    weights and stores atoms sorted by canonical position order.
    """

    basis: GeneratorBasis
    atoms: Mapping[Angle, complex]

    def __post_init__(self):
        clean = {}
        n = len(self.basis)
        for angle, w in self.atoms.items():
            if len(angle.coeffs) != n:
                raise BasisMismatchError("atom coefficient length does not match basis")
            w = complex(w)
            if w != 0:
                clean[angle] = w
        ordered = dict(sorted(clean.items(), key=lambda kv: kv[0].sort_key()))
        object.__setattr__(self, "atoms", ordered)

    @classmethod
    def from_atoms(cls, basis: GeneratorBasis,
                   pairs: Iterable[tuple[Angle, complex]]) -> "DiscreteMeasure":
        """Build from (position, weight) pairs, merging repeated positions."""
        acc: dict[Angle, complex] = {}
        for angle, w in pairs:
            acc[angle] = acc.get(angle, 0.0 + 0.0j) + complex(w)
        return cls(basis, acc)

    @classmethod
    def zero(cls, basis: GeneratorBasis) -> "DiscreteMeasure":
        return cls(basis, {})

    @classmethod
    def point_mass(cls, basis: GeneratorBasis, angle: Angle,
                   weight: complex = 1.0) -> "DiscreteMeasure":
        return cls(basis, {angle: complex(weight)})

    def __eq__(self, other) -> bool:
        if not isinstance(other, DiscreteMeasure):
            return NotImplemented
        return self.basis == other.basis and self.atoms == other.atoms

    def __len__(self) -> int:
        return len(self.atoms)

    @property
    def is_zero(self) -> bool:
        return not self.atoms

    def norm(self) -> float:
        """Total variation: sum of absolute weights."""
        return float(sum(abs(w) for w in self.atoms.values()))

    def scale(self, c: complex) -> "DiscreteMeasure":
        c = complex(c)
        if c == 0:
            return DiscreteMeasure.zero(self.basis)
        return DiscreteMeasure(self.basis, {a: w * c for a, w in self.atoms.items()})

    def __neg__(self) -> "DiscreteMeasure":
        return DiscreteMeasure(self.basis, {a: -w for a, w in self.atoms.items()})

    def __add__(self, other: "DiscreteMeasure") -> "DiscreteMeasure":
        if not isinstance(other, DiscreteMeasure):
            return NotImplemented
        _check_same_basis(self.basis, other.basis)
        acc = dict(self.atoms)
        for a, w in other.atoms.items():
            acc[a] = acc.get(a, 0.0 + 0.0j) + w
        return DiscreteMeasure(self.basis, acc)

    def __sub__(self, other: "DiscreteMeasure") -> "DiscreteMeasure":
        return self + (-other)

    def translate(self, shift: Angle) -> "DiscreteMeasure":
        """Pushforward under t -> t + shift (no weight arithmetic)."""
        return DiscreteMeasure(self.basis, {a + shift: w for a, w in self.atoms.items()})

    def transform(self, ns) -> np.ndarray:
        """Fourier coefficients mu_hat(n) for an integer array ``ns``.

        Atoms sharing a generator-coefficient vector are summed through the
        exact root-of-unity table, then multiplied once by e^{-i n g}, with
        n g reduced mod 2 pi in extended precision.  Complex products are out
        of place, so a value depends only on n, not on the array holding it.
        """
        ns = np.asarray(ns, dtype=np.int64)
        groups: dict[tuple[int, ...], list[tuple[Fraction, complex]]] = {}
        for angle, w in self.atoms.items():
            groups.setdefault(angle.coeffs, []).append((angle.turns, w))
        out = np.zeros(ns.shape, dtype=np.complex128)
        for coeffs, members in groups.items():
            acc = np.zeros(ns.shape, dtype=np.complex128)
            for turns, w in members:
                p, q = turns.numerator, turns.denominator
                if q > _MAX_VECTOR_DENOMINATOR:
                    raise ValueError(
                        f"position denominator {q} too large for vectorized transform")
                acc += np.multiply(w, _root_lut(q)[_rational_residues(ns, p, q)])
            if any(coeffs):
                g = np.longdouble(0.0)
                for c, v in zip(coeffs, self.basis.values):
                    if c:
                        g += np.longdouble(c) * np.longdouble(v)
                acc = np.multiply(acc, np.exp(-1j * reduced_phases(ns, g)))
            out += acc
        return out

    def __repr__(self) -> str:
        return f"DiscreteMeasure({len(self.atoms)} atoms, {len(self.basis)} generators)"


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


def _merge_pairs(a: DiscreteMeasure, b: DiscreteMeasure) -> dict[Angle, complex]:
    # Encode positions as integer rows (turn numerator over a common
    # denominator, then generator coefficients) and merge equal rows.  Pairs
    # are enumerated a-major in canonical order, and each merged weight
    # accumulates its products in that pair order under numpy's complex
    # rounding, whatever the number of pairs.
    k = len(a.basis)
    angles_a = list(a.atoms.keys())
    angles_b = list(b.atoms.keys())
    d = 1
    for ang in angles_a + angles_b:
        d = d * ang.turns.denominator // math.gcd(d, ang.turns.denominator)
    if d > _MAX_VECTOR_DENOMINATOR:
        raise ValueError(f"common position denominator {d} too large to vectorize")
    if any(abs(c) >= _MAX_COEFF for ang in angles_a + angles_b for c in ang.coeffs):
        raise ValueError("generator coefficient too large for exact int64 sums")
    num_a = np.array([ang.turns.numerator * (d // ang.turns.denominator)
                      for ang in angles_a], dtype=np.int64)
    num_b = np.array([ang.turns.numerator * (d // ang.turns.denominator)
                      for ang in angles_b], dtype=np.int64)
    coef_a = np.array([ang.coeffs for ang in angles_a], dtype=np.int64).reshape(len(angles_a), k)
    coef_b = np.array([ang.coeffs for ang in angles_b], dtype=np.int64).reshape(len(angles_b), k)
    w_a = np.fromiter(a.atoms.values(), dtype=np.complex128, count=len(angles_a))
    w_b = np.fromiter(b.atoms.values(), dtype=np.complex128, count=len(angles_b))

    pairs = len(angles_a) * len(angles_b)
    num = ((num_a[:, None] + num_b[None, :]) % d).reshape(pairs, 1)
    coef = (coef_a[:, None, :] + coef_b[None, :, :]).reshape(pairs, k)
    w = (w_a[:, None] * w_b[None, :]).ravel()
    pos = np.concatenate([num, coef], axis=1)

    # Sorting scalar keys is far cheaper than sorting rows, so pack each row
    # into one int64 by mixed radix over the (small) per-column ranges; the
    # packing is monotone per column, keeping the canonical position order.
    lo = pos.min(axis=0)
    extent = (pos.max(axis=0) - lo + 1).astype(np.int64)
    if math.prod(int(e) for e in extent) < 2 ** 62:
        key = np.zeros(len(pos), dtype=np.int64)
        for j in range(pos.shape[1]):
            key = key * extent[j] + (pos[:, j] - lo[j])
        keys_u, inv = np.unique(key, return_inverse=True)
        uniq = np.empty((len(keys_u), pos.shape[1]), dtype=np.int64)
        rem = keys_u.copy()
        for j in range(pos.shape[1] - 1, -1, -1):
            uniq[:, j] = rem % extent[j] + lo[j]
            rem //= extent[j]
    else:
        uniq, inv = np.unique(pos, axis=0, return_inverse=True)
    acc = np.zeros(len(uniq), dtype=np.complex128)
    np.add.at(acc, inv.ravel(), w)

    out: dict[Angle, complex] = {}
    for row, wsum in zip(uniq, acc):
        ang = Angle(Fraction(int(row[0]), d), tuple(int(c) for c in row[1:]))
        out[ang] = complex(wsum)
    return out


def _convolve_discrete(a: DiscreteMeasure, b: DiscreteMeasure, drop_tol: float,
                       budget: ConvolutionBudget | None) -> DiscreteMeasure:
    if a.is_zero or b.is_zero:
        return DiscreteMeasure.zero(a.basis)
    pairs = len(a.atoms) * len(b.atoms)
    if budget is not None and pairs > budget.max_pairs:
        raise BudgetExceededError(
            f"convolution needs {pairs} atom pairs, budget allows {budget.max_pairs}")
    acc = _merge_pairs(a, b)
    if drop_tol > 0.0:
        acc = {ang: w for ang, w in acc.items() if abs(w) > drop_tol}
    result = DiscreteMeasure(a.basis, acc)  # exact zeros dropped by constructor
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
    half = mu.basis.half_turn()
    even: dict[Angle, complex] = {}
    odd: dict[Angle, complex] = {}
    seen: set[Angle] = set()
    for pos, w in mu.atoms.items():
        if pos in seen:
            continue
        partner = pos + half
        wp = mu.atoms.get(partner, 0.0 + 0.0j)
        seen.add(pos)
        seen.add(partner)
        h, d = _exact_halves_complex(w, wp)
        even[pos] = h
        even[partner] = h
        odd[pos] = d
        odd[partner] = -d
    return DiscreteMeasure(mu.basis, even), DiscreteMeasure(mu.basis, odd)


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
