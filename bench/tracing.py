"""Tracing from outside the program: spans around calls into natspec layers.

The tracer rebinds public natspec functions to wrappers that record one span
per call (name, start, end, parent span, op id, counters).  A function is
rebound under every name any ``natspec`` module holds for it, so calls made
through re-exports and aliases (for example ``kronecker._rho_values``) are
seen too; methods are rebound on their class.  Spans stay in memory until
the run ends.  Nothing is installed unless ``install`` is called, and
``uninstall`` restores every original binding.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time

import numpy as np

WRAPPED_MARK = "__bench_wrapped__"

# Span fields, kept as plain lists for low overhead.
NAME, START, END, PARENT, OP, COUNTERS = range(6)


def _atoms(m) -> int:
    disc = getattr(m, "disc", m)
    return len(getattr(disc, "atoms", ()))


def _bound(fn, args, kwargs):
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _convolve_counters(fn, args, kwargs, result):
    return {"calls": 1, "pairs": _atoms(args[0]) * _atoms(args[1]),
            "atoms_out": _atoms(result)}


def _transform_counters(fn, args, kwargs, result):
    # MixedMeasure.transform delegates to its parts, which count themselves.
    self_ = args[0]
    if hasattr(self_, "disc"):
        return None
    terms = len(self_.atoms) if hasattr(self_, "atoms") else len(self_.coeffs)
    return {"atom_evals": terms * int(np.size(result))}


def _fekete_counters(fn, args, kwargs, result):
    bounds = [r for _, r in result.entries]
    return {"squarings": len(bounds) - 1,
            "useful": sum(1 for a, b in zip(bounds, bounds[1:]) if b < a),
            "budget_stops": int(result.budget_hit)}


def _torus_counters(fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    p = a["p"]
    return {"grid_points": p.order * a["grid"] ** p.dims}


def _covering_counters(fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    return {"query_points": _npoints(a["reference"]), "tree_points": _npoints(a["sample"])}


def _npoints(x) -> int:
    return int(np.size(getattr(x, "points", x)))


def canonical_index(n: int, parity: str) -> int:
    """Position of n in the scan's canonical order (|n| rising, +n before -n)."""
    if parity == "any":
        return 0 if n == 0 else 2 * abs(n) - (1 if n > 0 else 0)
    if parity == "even":
        return 0 if n == 0 else 2 * (abs(n) // 2) - (1 if n > 0 else 0)
    return 2 * (abs(n) // 2) + (0 if n > 0 else 1)


def _hit_counters(fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    return {"witness_index": canonical_index(int(result), a["parity"])}


def _write_counters(fn, args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


# (metric layer name, module, attribute or Class.method, counter function)
SPANS = (
    ("measures.convolve", "natspec.measures", "convolve", _convolve_counters),
    ("measures.transform", "natspec.measures", "DiscreteMeasure.transform", _transform_counters),
    ("measures.transform", "natspec.measures", "TrigPolyDensity.transform", _transform_counters),
    ("measures.transform", "natspec.measures", "MixedMeasure.transform", _transform_counters),
    ("measures.parity_projections", "natspec.measures", "parity_projections", None),
    ("measures.tv_norm_bounds", "natspec.measures", "tv_norm_bounds", None),
    ("spectrum.fekete_bound", "natspec.spectrum", "fekete_bound", _fekete_counters),
    ("spectrum.torus_max", "natspec.spectrum", "torus_max", _torus_counters),
    ("spectrum.character_values", "natspec.spectrum", "character_values", None),
    ("spectrum.covering_radius", "natspec.spectrum", "covering_radius", _covering_counters),
    ("kronecker.hit_target", "natspec.kronecker", "hit_target", _hit_counters),
    ("decomposition.decompose", "natspec.decomposition", "decompose", None),
    ("decomposition.verify_decomposition", "natspec.decomposition", "verify_decomposition",
     None),
    ("serialize.read", "natspec.serialize", "read_json", None),
    ("serialize.read", "natspec.serialize", "measure_from_json", None),
    ("serialize.write", "natspec.serialize", "write_json", _write_counters),
    ("cli.main", "natspec.cli", "main", None),
)

# Calls that add a counter to the innermost open span of a layer instead of
# opening a span of their own: (layer, counter, module, attribute, count function).
COUNTS = (
    ("kronecker.hit_target", "evaluations", "natspec.kronecker", "pair_transform_values",
     lambda args, kwargs: int(np.size(args[0]))),
)


def _resolve(module: str, attr: str):
    """(owner, name, original) for a module function or a Class.method."""
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name, vars(owner)[name]


def _natspec_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "natspec" or name.startswith("natspec."))]


class Tracer:
    """Collects spans for one run; ``op`` tags every span with the current op id."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self._sites: list[tuple] | None = None

    # -- span bookkeeping -------------------------------------------------
    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.op, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter_ns()
        self._stack.pop()

    def _count(self, layer: str, counter: str, amount: int) -> None:
        for idx in reversed(self._stack):
            span = self.spans[idx]
            if span[NAME] == layer:
                counters = span[COUNTERS] or {}
                counters[counter] = counters.get(counter, 0) + amount
                span[COUNTERS] = counters
                return

    # -- wrappers -----------------------------------------------------------
    def _span_wrapper(self, layer, fn, counter_fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if counter_fn is not None:
                extra = counter_fn(fn, args, kwargs, result)
                if extra:
                    span = self.spans[idx]
                    span[COUNTERS] = {**(span[COUNTERS] or {}), **extra}
            return result
        setattr(wrapper, WRAPPED_MARK, fn)
        return wrapper

    def _count_wrapper(self, layer, counter, fn, amount_fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._count(layer, counter, amount_fn(args, kwargs))
            return fn(*args, **kwargs)
        setattr(wrapper, WRAPPED_MARK, fn)
        return wrapper

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        if self._sites is None:
            self._sites = self._find_sites()
        for owner, name, original, wrapper in self._sites:
            self._restore.append((owner, name, original))
            setattr(owner, name, wrapper)

    def _find_sites(self) -> list[tuple]:
        """Every (owner, attribute, original, wrapper) binding to rebind."""
        wrappers = []
        for layer, module, attr, counter_fn in SPANS:
            owner, name, fn = _resolve(module, attr)
            wrappers.append((owner, name, fn, self._span_wrapper(layer, fn, counter_fn)))
        for layer, counter, module, attr, amount_fn in COUNTS:
            owner, name, fn = _resolve(module, attr)
            wrappers.append((owner, name, fn, self._count_wrapper(layer, counter, fn,
                                                                  amount_fn)))
        sites = []
        modules = _natspec_modules()
        for owner, name, fn, wrapper in wrappers:
            if inspect.isclass(owner):
                sites.append((owner, name, fn, wrapper))
                continue
            sites += [(mod, key, fn, wrapper) for mod in modules
                      for key, val in vars(mod).items() if val is fn]
        return sites

    def uninstall(self) -> None:
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)


def leftover_wrappers() -> list[str]:
    """Every natspec binding that still points at a benchmark wrapper."""
    found = []
    for mod in _natspec_modules():
        for key, val in vars(mod).items():
            if hasattr(val, WRAPPED_MARK):
                found.append(f"{mod.__name__}.{key}")
            elif inspect.isclass(val) and val.__module__ == mod.__name__:
                found += [f"{mod.__name__}.{key}.{k}" for k, v in vars(val).items()
                          if hasattr(v, WRAPPED_MARK)]
    return found


def summarize(spans: list[list], op_times: dict[int, float]) -> dict:
    """Per-layer totals: self seconds and summed counters, plus the op time
    that no top-level span covers.  ``op_times`` maps op id to its wall time."""
    child_ns = [0] * len(spans)
    top_ns: dict[int, int] = {}
    for span in spans:
        dur = span[END] - span[START]
        if span[PARENT] is None:
            top_ns[span[OP]] = top_ns.get(span[OP], 0) + dur
        else:
            child_ns[span[PARENT]] += dur
    layers: dict[str, dict] = {}
    for span, child in zip(spans, child_ns):
        agg = layers.setdefault(span[NAME], {"self_s": 0.0, "spans": 0})
        agg["self_s"] += (span[END] - span[START] - child) / 1e9
        agg["spans"] += 1
        for key, val in (span[COUNTERS] or {}).items():
            agg[key] = agg.get(key, 0) + val
    covered = sum(min(top_ns.get(op, 0) / 1e9, t) for op, t in op_times.items())
    total = sum(op_times.values())
    return {"layers": layers, "op_s_total": total,
            "unattributed_s": total - covered}
