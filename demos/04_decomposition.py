"""Splitting a measure into three pieces with disk-shaped spectra.

Any measure splits as nu0 + nu1 + nu2 where nu0 keeps the even Fourier
coefficients, nu1 keeps the odd ones, nu2 is a small atomic correction
(at most eight atoms), and the transform values of nu0 and nu1 fill whole
disks of radii R0 and R1.  The verifier re-derives every claimed property
from scratch and reports one named residual per check.
"""

import math
from fractions import Fraction

from natspec import (DecompositionOptions, DiscreteMeasure, GeneratorBasis,
                     MixedMeasure, as_mixed, decompose, tv_norm)


def main() -> None:
    basis = GeneratorBasis.from_pairs((("a", math.sqrt(2)), ("b", math.sqrt(3))))

    # A mixed measure: three atoms plus a low-degree density.
    atoms = DiscreteMeasure.from_atoms(basis, [
        (basis.angle(Fraction(1, 4)), 0.5),
        (basis.generator("a"), -0.25 + 0.5j),
        (basis.angle(Fraction(1, 2), (0, 1)), 0.375),
    ])
    mu = atoms + MixedMeasure.from_density(basis, {-1: 0.2j, 0: 0.3, 2: -0.1})
    print(f"input: 3 atoms + degree-2 density, total variation {tv_norm(mu):.6f}")

    result = decompose(mu, DecompositionOptions(verify_N=10_000))
    print(f"\nradii: R0 = {result.R0:.6f}, R1 = {result.R1:.6f}")
    print(f"fresh generators appended: {result.basis.names[len(basis.names):]}")
    print(f"correction piece nu2: {len(as_mixed(result.nu2).disc.atoms)} atoms, "
          f"norm {tv_norm(result.nu2):.6f}")

    report = result.report
    print(f"\nverification ({'PASS' if report.passed else 'FAIL'}):")
    for check in report.checks:
        print(f"  {'PASS' if check.passed else 'FAIL'} {check.name:<22} "
              f"residual {check.residual:.3e}  threshold {check.threshold:.3e}")

    # The pieces really do recombine to the input.
    total = (result.nu0 + result.nu1) + result.nu2
    diff = total - result.mu_embedded
    print(f"\nnu0 + nu1 + nu2 - mu is the zero measure: {diff.is_zero}")

    # Each radius is the upper end of a certified bracket of its piece's
    # spectral radius: the atoms' torus maximum, or the density's largest
    # coefficient where that is larger, and the upper end from the same
    # lattice walk.  The atoms alone have their own brackets.
    for label, res in (("input", result),
                       ("atoms alone", decompose(atoms, DecompositionOptions(verify=False)))):
        (lo0, hi0), (lo1, hi1) = res.radius_brackets
        print(f"\n{label}, radius brackets: R0 in [{lo0:.6f}, {hi0:.6f}], "
              f"R1 in [{lo1:.6f}, {hi1:.6f}]")


if __name__ == "__main__":
    main()
