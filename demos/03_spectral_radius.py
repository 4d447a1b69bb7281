"""Bracketing the spectral radius of a discrete measure.

Upper bounds come from norms of repeated convolution squares (the norm-root
sequence is nonincreasing); lower bounds are maxima of the character
polynomial over a lattice in the torus of generalized characters, which can
only grow when the grid doubles.  Together they bracket the spectral radius,
and the bracket tightens as more squarings and a finer grid (``--grid`` on
the command line) refine both sides.  ``spectral_bracket`` needs no
squarings: the lattice maximum also bounds |p| between lattice points.
"""

import math

from natspec import (DiscreteMeasure, GeneratorBasis, char_polynomial, fekete_bound,
                     make_rho, spectral_bracket, torus_max)


def main() -> None:
    basis = GeneratorBasis.from_pairs((("a", math.sqrt(2)), ("b", math.sqrt(3))))

    # The averaged two-point measure: spectral radius exactly 1.
    rho = make_rho(basis.generator("a"), basis.generator("b"), basis)
    report = fekete_bound(rho, k_max=4)
    print("norm-root upper bounds for the two-point average (exact value 1):")
    for k, bound in report.entries:
        print(f"  k={k}  |mu^(2^k)|^(1/2^k) = {bound!r}")
    lower = torus_max(char_polynomial(rho), grid=256)
    print(f"torus lower bound: {lower!r}")
    print(f"bracket: [{lower!r}, {report.final_bound!r}]")

    # Atoms stacked on multiples of one generator: the character values are
    # 1 + z - z^2 on the unit circle, whose maximum modulus is strictly below
    # the norm 3, so the bracket is not tight at k=0 and visibly narrows.
    mu = DiscreteMeasure.from_atoms(basis, [
        (basis.zero(), 1.0),
        (basis.generator("a"), 1.0),
        (basis.angle(coeffs=(2, 0)), -1.0),
    ])
    p = char_polynomial(mu)
    print("\nthree atoms on one generator (character values 1 + z - z^2):")
    print(f"  plain norm (k=0 bound): {fekete_bound(mu, k_max=0).final_bound:.6f}")
    for grid, k_max in ((32, 2), (64, 4), (128, 6)):
        lo = torus_max(p, grid=grid)
        hi = fekete_bound(mu, k_max=k_max).final_bound
        print(f"  grid {grid:>3}, k_max {k_max}:  bracket [{lo:.6f}, {hi:.6f}]"
              f"  width {hi - lo:.6f}")
    # Without squarings: lattice walks alone give both ends, the upper one
    # from how fast |p|^2 can fall between lattice points.
    lo, hi = spectral_bracket(mu)
    print(f"  spectral_bracket:        bracket [{lo:.6f}, {hi:.6f}]  width {hi - lo:.6f}")

    # Torsion positions join the torus scan as exact roots of unity.
    from fractions import Fraction
    nu = DiscreteMeasure.from_atoms(basis, [
        (basis.angle(Fraction(1, 3)), 0.5),
        (basis.angle(Fraction(1, 2)), 0.5),
    ])
    q = char_polynomial(nu)
    print(f"\nrational-angle measure: torsion order {q.order}, "
          f"torus maximum {torus_max(q, 64):.6f}")


if __name__ == "__main__":
    main()
