"""Slow, direct reference implementations that the tests compare against."""

import math
from typing import Sequence

from natspec.measures import unit_roots
from natspec.spectrum import CharacterPolynomial, covering_radius


def hausdorff(a, b) -> float:
    """Symmetric Hausdorff distance between two planar point clouds."""
    return max(covering_radius(a, b), covering_radius(b, a))


def character_value(p: CharacterPolynomial, t: int, phis: Sequence[float]) -> complex:
    """p at the single character (t, phis), one term at a time."""
    acc = 0.0 + 0.0j
    for m, row, c in zip(p.torsion, p.exponents, p.weights):
        phase = sum(e * x for e, x in zip(row, phis))
        acc += (c * unit_roots((m * t) % p.order, p.order)
                * complex(math.cos(phase), math.sin(phase)))
    return acc
