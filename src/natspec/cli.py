"""Command line interface.

Subcommands: decompose, density-scan, spectral-radius, kronecker, verify.
Exit codes: 0 success, 1 a computation ran but did not certify (verification
failure, target not found), 2 bad input (argument, file, or schema errors).
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import functools
import math
import sys
from pathlib import Path

import numpy as np

from .decomposition import RADIUS_MODES, DecompositionOptions, decompose
from .errors import KroneckerNotFoundError, NatspecError, SchemaError
from .kronecker import KroneckerProblem, pair_transform_values, solve
from .measures import as_mixed
from .serialize import (decomposition_report_to_json, fekete_report_to_json,
                        kronecker_problem_from_json, kronecker_solution_to_json,
                        measure_from_json, measure_to_json, read_json, write_json)
from .spectrum import (MAX_TORUS_DIMS, char_polynomial, check_torus_grid, covering_radius,
                       disk_grid, fekete_bound, torus_max)
from .suite import run_suite

_TIMESTAMP_PREFIX = "# generated "
_MAX_DENSITY_SCAN_N = 20  # density-scan --N: at most 2**21 + 1 transform values


def _timestamp_line() -> str:
    return _TIMESTAMP_PREFIX + datetime.datetime.now(datetime.timezone.utc).isoformat()


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The natspec argument parser, built once per process: parsing leaves
    it unchanged, and help text still measures the terminal when printed."""
    p = argparse.ArgumentParser(
        prog="natspec",
        description="Decompose circle measures into natural-spectrum pieces, "
                    "bound spectral radii, and solve simultaneous rotation-"
                    "approximation problems.")
    sub = p.add_subparsers(dest="command", required=True)

    d = sub.add_parser("decompose", help="split a measure into three pieces with "
                                         "clean transform structure")
    d.add_argument("--input", required=True, help="measure JSON file")
    d.add_argument("--out", required=True, help="output directory")
    d.add_argument("--N", type=int, default=10_000, help="transform range for checks")
    d.add_argument("--tol", type=float, default=0.05, help="density tolerance")
    d.add_argument("--kmax", type=int, default=6, help="norm-root bound depth")
    d.add_argument("--radius-mode", choices=RADIUS_MODES, default="fekete")
    d.add_argument("--r0", type=float, default=None, help="manual radius for the even piece")
    d.add_argument("--r1", type=float, default=None, help="manual radius for the odd piece")

    ds = sub.add_parser("density-scan", help="covering radii of the pair-rotation "
                                             "transform cloud as N grows")
    ds.add_argument("--out", required=True, help="output CSV file")
    ds.add_argument("--N", type=int, default=16,
                    help="largest power of two, scans N=2^4..2^this (at most 20)")
    ds.add_argument("--alpha", type=float, default=math.sqrt(2.0))
    ds.add_argument("--beta", type=float, default=math.sqrt(3.0))
    ds.add_argument("--tol", type=float, default=0.01, help="reference disk grid resolution")

    sr = sub.add_parser("spectral-radius", help="norm-root upper bound, plus a torus "
                                                "lower bound for small discrete measures")
    sr.add_argument("--input", required=True, help="measure JSON file")
    sr.add_argument("--out", required=True, help="output JSON file")
    sr.add_argument("--kmax", type=int, default=6)
    sr.add_argument("--grid", type=int, default=128, help="torus grid for the lower bound")

    kr = sub.add_parser("kronecker", help="find n with n*alpha and n*beta near targets")
    kr.add_argument("--input", default=None, help="problem JSON file")
    kr.add_argument("--alpha", type=float, default=None)
    kr.add_argument("--beta", type=float, default=None)
    kr.add_argument("--x", type=float, default=None, help="target angle for alpha (radians)")
    kr.add_argument("--y", type=float, default=None, help="target angle for beta (radians)")
    kr.add_argument("--eps", type=float, default=None,
                    help="chordal tolerance (overrides --input)")
    kr.add_argument("--nmax", type=int, default=None,
                    help="overrides --input (default 1000000, at most 2^31)")
    kr.add_argument("--min-abs-n", type=int, default=None, help="overrides --input (default 0)")
    kr.add_argument("--parity", choices=("any", "even", "odd"), default=None,
                    help="restrict n to even or odd integers (overrides --input)")
    kr.add_argument("--method", choices=("scan", "lattice"), default=None,
                    help="overrides --input (default scan)")
    kr.add_argument("--out", default=None, help="optional solution JSON file")

    v = sub.add_parser("verify", help="run the seeded end-to-end check suite")
    v.add_argument("--seed", type=int, default=42)
    v.add_argument("--out", default=None, help="optional report file")

    return p


def _cmd_decompose(args) -> int:
    mu = measure_from_json(read_json(args.input))
    if args.radius_mode == "manual" and (args.r0 is None or args.r1 is None):
        raise SchemaError("--radius-mode manual requires --r0 and --r1")
    manual = None if args.r0 is None and args.r1 is None else (args.r0, args.r1)
    opts = DecompositionOptions(radius_mode=args.radius_mode, manual_radii=manual,
                                fekete_k_max=args.kmax, verify_N=args.N, verify_tol=args.tol)
    result = decompose(mu, opts)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_json(out / "nu0.json", measure_to_json(result.nu0))
    write_json(out / "nu1.json", measure_to_json(result.nu1))
    write_json(out / "nu2.json", measure_to_json(result.nu2))
    write_json(out / "report.json", decomposition_report_to_json(result))
    assert result.report is not None
    for check in result.report.checks:
        print(f"{'PASS' if check.passed else 'FAIL'} {check.name}: "
              f"residual {check.residual!r} (threshold {check.threshold!r})")
    print(f"R0 {result.R0!r}  R1 {result.R1!r}  -> {args.out}")
    return 0 if result.report.passed else 1


def _cmd_density_scan(args) -> int:
    if args.N < 4:
        raise SchemaError("--N must be at least 4 (scan starts at N=16)")
    if args.N > _MAX_DENSITY_SCAN_N:
        raise SchemaError(f"--N must be at most {_MAX_DENSITY_SCAN_N} "
                          f"(2^{_MAX_DENSITY_SCAN_N + 1} + 1 transform values)")
    if not (math.isfinite(args.alpha) and math.isfinite(args.beta)):
        raise SchemaError(f"--alpha and --beta must be finite, got {args.alpha!r}, {args.beta!r}")
    ref = disk_grid(1.0, args.tol)
    n_top = 1 << args.N
    ns = np.arange(-n_top, n_top + 1, dtype=np.int64)
    values = pair_transform_values(ns, args.alpha, args.beta)
    rows = ["N,covering_radius_all,covering_radius_even,covering_radius_odd"]
    for e in range(4, args.N + 1):
        n_cur = 1 << e
        mask = np.abs(ns) <= n_cur
        sub_ns, sub_vals = ns[mask], values[mask]
        cov = {}
        for name, sel in (("all", np.ones_like(sub_ns, dtype=bool)),
                          ("even", sub_ns % 2 == 0), ("odd", sub_ns % 2 != 0)):
            cov[name] = covering_radius(ref, sub_vals[sel])
        rows.append(f"{n_cur},{cov['all']!r},{cov['even']!r},{cov['odd']!r}")
    text = _timestamp_line() + "\n" + "\n".join(rows) + "\n"
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(text, encoding="utf-8")
    sys.stdout.write("\n".join(rows) + "\n")
    return 0


def _cmd_spectral_radius(args) -> int:
    mu = measure_from_json(read_json(args.input))
    mixed = as_mixed(mu)
    lattice = None
    if mixed.is_discrete:
        p = char_polynomial(mixed.disc)
        if p.dims <= MAX_TORUS_DIMS:
            check_torus_grid(p, args.grid)  # refused before any squaring
            lattice = p
    report = fekete_bound(mu, args.kmax)
    out = fekete_report_to_json(report)
    if lattice is not None:
        lower = torus_max(lattice, grid=args.grid)
        out["torus_lower"] = lower
        print(f"bracket [{lower!r}, {report.final_bound!r}]")
    print(f"upper bound {report.final_bound!r} "
          f"(entries {len(report.entries)}, budget_hit {report.budget_hit})")
    write_json(args.out, out)
    return 0


def _cmd_kronecker(args) -> int:
    # Solver knobs given on the command line win over the problem file; the
    # problem data itself (alpha, beta, targets) must come from exactly one place.
    knobs = {key: val for key, val in (("epsilon", args.eps), ("n_max", args.nmax),
                                       ("min_abs_n", args.min_abs_n),
                                       ("parity", args.parity), ("method", args.method))
             if val is not None}
    if args.input is not None:
        conflicting = [name for name, val in (("--alpha", args.alpha), ("--beta", args.beta),
                                              ("--x", args.x), ("--y", args.y))
                       if val is not None]
        if conflicting:
            raise SchemaError(f"{' '.join(conflicting)} cannot be combined with --input; "
                              "the problem file already defines the rotations and targets")
        problem = kronecker_problem_from_json(read_json(args.input))
        if knobs:
            problem = dataclasses.replace(problem, **knobs)
    else:
        missing = [name for name, val in (("--alpha", args.alpha), ("--beta", args.beta),
                                          ("--x", args.x), ("--y", args.y),
                                          ("--eps", args.eps)) if val is None]
        if missing:
            raise SchemaError(f"kronecker needs {' '.join(missing)} (or --input)")
        problem = KroneckerProblem(alpha=args.alpha, beta=args.beta, target_x=args.x,
                                   target_y=args.y, **knobs)
    try:
        solution = solve(problem)
    except KroneckerNotFoundError as exc:
        print(f"no n with |n| <= {problem.n_max} meets epsilon={problem.epsilon} "
              f"(best n={exc.best_n}, err={exc.best_err!r})", file=sys.stderr)
        return 1
    print(f"n {solution.n}  err_alpha {solution.err_alpha!r}  "
          f"err_beta {solution.err_beta!r}  evaluations {solution.evaluations}")
    if args.out is not None:
        write_json(args.out, kronecker_solution_to_json(solution))
    return 0


def _cmd_verify(args) -> int:
    passed, lines = run_suite(args.seed)
    body = "\n".join(lines) + "\n"
    sys.stdout.write(body)
    if args.out is not None:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(_timestamp_line() + "\n" + body, encoding="utf-8")
    return 0 if passed else 1


_DISPATCH = {
    "decompose": _cmd_decompose,
    "density-scan": _cmd_density_scan,
    "spectral-radius": _cmd_spectral_radius,
    "kronecker": _cmd_kronecker,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except (SchemaError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NatspecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
