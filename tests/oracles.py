"""Slow, direct reference implementations that the tests compare against."""

import math
from fractions import Fraction

import mpmath
import numpy as np

from natspec.measures import DiscreteMeasure, unit_roots
from natspec.spectrum import covering_radius


def hausdorff(a, b) -> float:
    """Symmetric Hausdorff distance between two planar point clouds."""
    return max(covering_radius(a, b), covering_radius(b, a))


def brute_covering(reference, sample) -> float:
    """``covering_radius`` without a tree: the distance sqrt(dx*dx + dy*dy)
    from every reference point to every sample point, a dense block of
    reference rows at a time, then each row's minimum and their maximum."""
    ref = np.asarray(reference, dtype=np.complex128).ravel()
    smp = np.asarray(sample, dtype=np.complex128).ravel()
    worst = 0.0
    for block in np.array_split(ref, max(1, ref.size * smp.size >> 21)):
        dx = block.real[:, None] - smp.real[None, :]
        dy = block.imag[:, None] - smp.imag[None, :]
        worst = max(worst, float(np.max(np.sqrt(np.min(dx * dx + dy * dy, axis=1)))))
    return worst


def free_exponents(d: DiscreteMeasure) -> list:
    """Each atom's generator coefficients on the generators that some atom
    uses, one free dimension of the character torus each."""
    rows = d.coef.tolist()
    used = [i for i in range(len(d.basis)) if any(row[i] for row in rows)]
    return [[row[i] for i in used] for row in rows]


def lattice_values(d: DiscreteMeasure, points, grid: int) -> list:
    """d's transform at the characters (t, 2 pi idx / grid) of the lattice
    points (t, *idx), one atom at a time: an atom's free phase
    sum_a e_a idx_a is reduced mod grid in integers, then taken through
    math.cos and math.sin."""
    atoms = list(zip(d.num.tolist(), free_exponents(d), d.w.tolist()))
    values = []
    for t, *idx in points:
        acc = 0.0 + 0.0j
        for m, row, c in atoms:
            phase = 2.0 * math.pi * (sum(e * int(j) for e, j in zip(row, idx)) % grid) / grid
            acc += (c * unit_roots((m * int(t)) % d.den, d.den)
                    * complex(math.cos(phase), math.sin(phase)))
        values.append(acc)
    return values


def mp_transform_value(mu: DiscreteMeasure, n: int) -> mpmath.mpc:
    """mu_hat(n) summed atom by atom in mpmath at 30 digits.

    The rational part of each phase is reduced exactly in Fraction
    arithmetic, so the value is right for any n; the irrational part uses
    the exact binary values of the generator floats.
    """
    with mpmath.workdps(30):
        total = mpmath.mpc(0)
        for angle, w in mu.atoms.items():
            p, q = angle.turns.numerator, angle.turns.denominator
            rational = Fraction((-n * p) % q, q)
            irrational = sum((c * mpmath.mpf(v) for c, v in zip(angle.coeffs, mu.basis.values)),
                             mpmath.mpf(0))
            phase = 2 * mpmath.pi * mpmath.mpf(rational.numerator) / rational.denominator
            total += mpmath.mpc(w.real, w.imag) * mpmath.expj(phase - n * irrational)
        return total


def mp_transform(mu: DiscreteMeasure, n: int) -> complex:
    """``mp_transform_value`` rounded to a complex float."""
    return complex(mp_transform_value(mu, n))
