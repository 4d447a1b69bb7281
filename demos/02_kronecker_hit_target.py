"""Steering the two-point transform onto arbitrary disk targets.

The values (e^{-in alpha} + e^{-in beta})/2 for integer n fill the closed
unit disk whenever alpha, beta, and 2*pi are rationally independent.  This
demo finds integers n that land within a prescribed tolerance of chosen
targets -- including with a parity constraint on n -- and cross-checks every
witness by direct evaluation.
"""

import math

import numpy as np

from natspec import (KroneckerProblem, chordal, disk_preimage, hit_target,
                     pair_transform_values, solve)

ALPHA, BETA = math.sqrt(2), math.sqrt(3)


def show_hit(w: complex, eps: float, parity: str) -> None:
    n = hit_target(ALPHA, BETA, w, eps, parity=parity)
    value = pair_transform_values(np.array([n], dtype=np.int64), ALPHA, BETA)[0]
    print(f"  target {w:+.3f}  parity {parity:>4}  ->  n = {n:>8d}  "
          f"value {value:+.3f}  error {abs(value - w):.4f}")


def main() -> None:
    print("alpha = sqrt(2), beta = sqrt(3), tolerance 0.05")
    print("hitting a few targets in the closed unit disk:")
    for w in (0.5 + 0.0j, -0.25 + 0.6j, 0.0 + 0.0j, 0.9j):
        for parity in ("any", "even", "odd"):
            show_hit(complex(w), 0.05, parity)

    # disk_preimage inverts the two-dimensional picture: which pair of unit
    # factors averages exactly to a given disk value?
    w = 0.3 - 0.4j
    za, zb = disk_preimage(w)
    print(f"\nexact unit-circle preimage of {w}: factors {za:.4f}, {zb:.4f}")
    print(f"  reconstruction: {(za + zb) / 2:.4f}")

    # The structured interface works on the phase level: find n with
    # n*alpha near x and n*beta near y simultaneously (mod 2*pi, chordal
    # distance).  The lattice method returns some verified witness, not
    # necessarily the scan's first one, and at tight epsilon it finds one
    # far sooner than the scan; both search the same |n| <= n_max.
    x, y = -0.7, 0.1
    problem = KroneckerProblem(alpha=ALPHA, beta=BETA, target_x=x, target_y=y,
                               epsilon=0.01, n_max=10 ** 9, method="lattice")
    solution = solve(problem)
    print(f"\nlattice method, phase targets ({x}, {y}) at epsilon 0.01:")
    print(f"  n = {solution.n}  ({solution.evaluations} candidate evaluations)")
    print(f"  reported chordal errors: alpha {solution.err_alpha:.5f}, "
          f"beta {solution.err_beta:.5f}")
    print(f"  direct re-check:         alpha {chordal(solution.n * ALPHA - x):.5f}, "
          f"beta {chordal(solution.n * BETA - y):.5f}")


if __name__ == "__main__":
    main()
