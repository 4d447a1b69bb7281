"""JSON encodings for measures, problems, solutions, and reports.

JSON objects are dumped with sorted keys and two-space indentation so that
identical inputs produce byte-identical files.  Parsers raise SchemaError on
malformed content, including NaN or infinite numbers in a measure.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Any

import numpy as np

from .angles import Angle, GeneratorBasis
from .decomposition import DecompositionResult, VerificationCheck, VerificationReport
from .errors import SchemaError
from .kronecker import KroneckerProblem, KroneckerSolution
from .measures import (DiscreteMeasure, MeasureLike, MixedMeasure, TrigPolyDensity,
                       as_mixed)
from .spectrum import FeketeReport


def dumps(obj: Any) -> str:
    """Deterministic JSON text; NaN and infinities raise ValueError."""
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def write_json(path, obj: Any) -> None:
    text = dumps(obj)  # before opening, so a failure leaves no partial file
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def read_json(path) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON in {path}: {exc}") from exc


def _finite(value: Any, what: str) -> float:
    x = float(value)
    if not math.isfinite(x):
        raise SchemaError(f"{what} must be finite, got {x!r}")
    return x


def _complex(entry: Any, what: str) -> complex:
    return complex(_finite(entry.get("re", 0.0), what), _finite(entry.get("im", 0.0), what))


def basis_to_json(basis: GeneratorBasis) -> list:
    return [{"name": n, "value": float(v)} for n, v in basis.pairs()]


def basis_from_json(obj: Any) -> GeneratorBasis:
    try:
        pairs = [(str(e["name"]), _finite(e["value"], "generator value")) for e in obj]
        return GeneratorBasis.from_pairs(pairs)
    except SchemaError:
        raise
    except Exception as exc:
        raise SchemaError(f"invalid basis: {exc}") from exc


def angle_to_json(angle: Angle, basis: GeneratorBasis) -> dict:
    coeffs = {name: int(c) for name, c in zip(basis.names, angle.coeffs) if c}
    return {"turns": str(angle.turns), "coeffs": coeffs}


def angle_from_json(obj: Any, basis: GeneratorBasis) -> Angle:
    try:
        turns = Fraction(str(obj.get("turns", "0")))
        coeffs = {str(k): int(v) for k, v in obj.get("coeffs", {}).items()}
        return basis.angle(turns, coeffs)
    except Exception as exc:
        raise SchemaError(f"invalid angle: {exc}") from exc


def measure_to_json(mu: MeasureLike) -> dict:
    m = as_mixed(mu)
    kind = "discrete" if isinstance(mu, DiscreteMeasure) else "mixed"
    d, names = m.disc, m.basis.names
    atoms = [{"angle": {"turns": str(Fraction(t, d.den)),
                        "coeffs": {name: c for name, c in zip(names, row) if c}},
              "re": w.real, "im": w.imag}
             for t, row, w in zip(d.num.tolist(), d.coef.tolist(), d.w.tolist())]
    ac = [{"k": int(k), "re": c.real, "im": c.imag}
          for k, c in m.ac.coeffs.items()]
    return {"kind": kind, "basis": basis_to_json(m.basis), "atoms": atoms, "ac": ac}


def measure_from_json(obj: Any) -> MeasureLike:
    try:
        basis = basis_from_json(obj["basis"])
        pairs = []
        for entry in obj.get("atoms", []):
            angle = angle_from_json(entry["angle"], basis)
            pairs.append((angle, _complex(entry, "atom weight")))
        disc = DiscreteMeasure.from_atoms(basis, pairs)
        coeffs = {int(e["k"]): _complex(e, "density coefficient")
                  for e in obj.get("ac", [])}
        kind = obj.get("kind", "mixed" if coeffs else "discrete")
        if kind == "discrete":
            if coeffs:
                raise SchemaError("kind 'discrete' cannot carry density coefficients")
            return disc
        if kind != "mixed":
            raise SchemaError(f"unknown measure kind {kind!r}")
        return MixedMeasure(disc, TrigPolyDensity(coeffs))
    except SchemaError:
        raise
    except Exception as exc:
        raise SchemaError(f"invalid measure: {exc}") from exc


_KRONECKER_OPTIONAL = {"n_max": int, "method": str, "min_abs_n": int, "parity": str}


def kronecker_problem_from_json(obj: Any) -> KroneckerProblem:
    """The problem a JSON object describes; ``KroneckerProblem`` supplies
    the value of each optional key the object leaves out."""
    try:
        return KroneckerProblem(
            alpha=float(obj["alpha"]), beta=float(obj["beta"]),
            target_x=float(obj["target_x"]), target_y=float(obj["target_y"]),
            epsilon=float(obj["epsilon"]),
            **{key: cast(obj[key]) for key, cast in _KRONECKER_OPTIONAL.items()
               if key in obj})
    except SchemaError:
        raise
    except Exception as exc:
        raise SchemaError(f"invalid simultaneous-approximation problem: {exc}") from exc


def kronecker_solution_to_json(s: KroneckerSolution) -> dict:
    return {"n": s.n, "err_alpha": s.err_alpha, "err_beta": s.err_beta,
            "evaluations": s.evaluations}


def fekete_report_to_json(r: FeketeReport) -> dict:
    return {"entries": [[int(k), float(v)] for k, v in r.entries],
            "final_bound": float(r.final_bound), "budget_hit": bool(r.budget_hit)}


def _check_to_json(c: VerificationCheck) -> dict:
    out = {"name": c.name, "passed": c.passed, "residual": c.residual,
           "threshold": c.threshold}
    if c.details is not None:
        out["details"] = {k: (float(v) if isinstance(v, (float, np.floating))
                              else v) for k, v in c.details.items()}
    return out


def verification_report_to_json(r: VerificationReport) -> dict:
    return {"passed": r.passed, "checks": [_check_to_json(c) for c in r.checks]}


def decomposition_report_to_json(result: DecompositionResult) -> dict:
    out = {
        "R0": result.R0,
        "R1": result.R1,
        "alpha": angle_to_json(result.alpha, result.basis),
        "beta": angle_to_json(result.beta, result.basis),
        "basis": basis_to_json(result.basis),
    }
    if result.radius_brackets is not None:
        out["radius_brackets"] = [[float(lo), float(hi)]
                                  for lo, hi in result.radius_brackets]
    fallbacks = result.radius_fallbacks or ()
    if any(fallbacks):
        # one entry per piece, null for a piece whose bracket was certified
        out["fekete"] = [None if f is None else fekete_report_to_json(f.report)
                         for f in fallbacks]
    if result.report is not None:
        out["verification"] = verification_report_to_json(result.report)
        out["passed"] = result.report.passed
    return out
