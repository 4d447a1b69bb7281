"""Seeded random measures for verification suites and property tests.

Weights are drawn from ``uniform(-1, 1)``, whose values lie on a dyadic grid;
sums and halves of such weights round exactly, which keeps the parity-split
identities of ``parity_projections`` exact on sampled inputs.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

import numpy as np

from .angles import FRESH_GENERATOR_VALUES, GeneratorBasis
from .measures import DiscreteMeasure, MixedMeasure, TrigPolyDensity

DEFAULT_DENOMINATORS = (1, 2, 3, 4, 6, 8)


def default_rng(seed: Optional[int] = None) -> np.random.Generator:
    return np.random.default_rng(seed)


def random_basis(n_generators: int = 2) -> GeneratorBasis:
    """Basis on the first ``n_generators`` built-in generator values."""
    if not 0 <= n_generators <= len(FRESH_GENERATOR_VALUES):
        raise ValueError("unsupported generator count")
    return GeneratorBasis.from_pairs(FRESH_GENERATOR_VALUES[:n_generators])


def _random_weight(rng: np.random.Generator) -> complex:
    re = float(rng.uniform(-1.0, 1.0))
    return complex(re, float(rng.uniform(-1.0, 1.0)))


def random_discrete(rng: np.random.Generator, basis: GeneratorBasis,
                    n_atoms: int = 4,
                    denominators: tuple[int, ...] = DEFAULT_DENOMINATORS,
                    coeff_bound: int = 2) -> DiscreteMeasure:
    """Random discrete measure with small exact positions."""
    k = len(basis)
    pairs = []
    for _ in range(n_atoms):
        q = int(rng.choice(denominators))
        p = int(rng.integers(0, q))
        coeffs = tuple(int(c) for c in rng.integers(-coeff_bound, coeff_bound + 1, size=k))
        angle = basis.angle(Fraction(p, q), coeffs)
        pairs.append((angle, _random_weight(rng)))
    return DiscreteMeasure.from_atoms(basis, pairs)


def random_density(rng: np.random.Generator, degree: int = 3) -> TrigPolyDensity:
    """Random trigonometric-polynomial density of bounded degree, each
    frequency present with probability 0.7."""
    coeffs = {}
    for k in range(-degree, degree + 1):
        if rng.uniform(0.0, 1.0) < 0.7:
            coeffs[k] = _random_weight(rng)
    return TrigPolyDensity(coeffs)


def random_mixed(rng: np.random.Generator, basis: GeneratorBasis,
                 n_atoms: int = 4, degree: int = 3) -> MixedMeasure:
    """Random measure with both a discrete part and a density part."""
    disc = random_discrete(rng, basis, n_atoms=n_atoms)
    return MixedMeasure(disc, random_density(rng, degree=degree))
