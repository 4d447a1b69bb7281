"""Bracketing the spectral radius of a discrete measure.

The spectral radius of a discrete measure is the maximum of its character
polynomial |p| over the torus of generalized characters.  ``radius_bracket``
walks lattices in that torus: each lattice maximum, less a rounding
allowance, is a lower end, and since |p|^2 cannot fall faster than a cosine
between lattice points, it also gives an upper end.  The walks stop once the
bracket is within 2^-6 of its upper end.  Only when the walker refuses the
lattice, or the walks end wider than that, do the norms of repeated
convolution squares (``fekete_bound``, nonincreasing roots) supply the upper
end.
"""

import math

from natspec import (DiscreteMeasure, GeneratorBasis, fekete_bound, make_rho,
                     radius_bracket)


def show(name: str, mu, k_max: int = 4, max_grid=None) -> None:
    (lo, hi), fallback = radius_bracket(mu, k_max, max_grid)
    grid = "" if max_grid is None else f" (grid at most {max_grid})"
    print(f"{name}{grid}: bracket [{lo:.6f}, {hi:.6f}]  width {hi - lo:.2e}")
    if fallback is not None:
        print(f"  norm-root squarings ran, because {fallback.reason}")
        for k, bound in fallback.report.entries:
            print(f"    k={k}  |mu^(2^k)|^(1/2^k) <= {bound!r}")


def main() -> None:
    basis = GeneratorBasis.from_pairs((("a", math.sqrt(2)), ("b", math.sqrt(3))))

    # The averaged two-point measure: spectral radius exactly 1, and its
    # norm is 1 too, so the bracket closes at the first lattice.
    rho = make_rho(basis.generator("a"), basis.generator("b"), basis)
    show("two-point average (exact value 1)", rho)

    # Atoms stacked on multiples of one generator: the character values are
    # 1 + z - z^2 on the unit circle, whose maximum modulus is strictly below
    # the norm 3.  The lattice walks find both ends well below the norm.
    mu = DiscreteMeasure.from_atoms(basis, [
        (basis.zero(), 1.0),
        (basis.generator("a"), 1.0),
        (basis.angle(coeffs=(2, 0)), -1.0),
    ])
    print(f"\nthree atoms on one generator (character values 1 + z - z^2), "
          f"norm {fekete_bound(mu, k_max=0).final_bound:.6f}:")
    show("  lattice walks", mu)

    # The same measure with the walks held to grid 16: that lattice's upper
    # end is still wide, so the squarings run, and their roots fall toward
    # the radius without reaching the walks' lower end.
    show("  coarse", mu, k_max=6, max_grid=16)

    # Torsion positions join the torus as exact roots of unity.
    from fractions import Fraction
    nu = DiscreteMeasure.from_atoms(basis, [
        (basis.angle(Fraction(1, 3)), 0.5),
        (basis.angle(Fraction(1, 2)), 0.5),
    ])
    print()
    show("rational-angle measure (torsion order 6)", nu)


if __name__ == "__main__":
    main()
