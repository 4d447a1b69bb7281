"""Self-test of the benchmark: every workload at minimal length, both modes.

    python3 -m pytest -q bench/test_bench.py

Asserts that every metric BENCHMARK.json names is printed with its unit,
that no op failed (``failed_frac`` 0), and that the traced run leaves no
natspec function wrapped.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "0.1", "--trace", str(trace)]
    res = subprocess.run(cmd, capture_output=True, text=True, timeout=300, cwd=ROOT)
    assert res.returncode == 0, res.stderr
    lines = res.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert lines[-2].startswith("# detail ")
    return result, json.loads(lines[-2][len("# detail "):])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_prints_every_metric_and_fails_nothing(workload, trace):
    result, detail = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m: result["metrics"][m]["unit"] for m in result["metrics"]} == \
        {m["name"]: m["unit"] for m in spec}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and detail["failed_frac"] == 0.0, detail["failures"]
    assert result["correct"] is True
    if trace:
        assert detail["wrapped_after"] == []


def test_tracer_rebinds_every_alias_and_restores_them():
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import natspec.cli
    import natspec.kronecker
    import natspec.measures
    import tracing

    originals = (natspec.kronecker._rho_values, natspec.cli.write_json,
                 natspec.measures.DiscreteMeasure.__dict__["transform"])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert natspec.kronecker._rho_values is natspec.kronecker.pair_transform_values
        assert hasattr(natspec.kronecker._rho_values, tracing.WRAPPED_MARK)
        assert hasattr(natspec.cli.write_json, tracing.WRAPPED_MARK)
        assert tracing.leftover_wrappers()
    finally:
        tracer.uninstall()
    assert tracing.leftover_wrappers() == []
    assert (natspec.kronecker._rho_values, natspec.cli.write_json,
            natspec.measures.DiscreteMeasure.__dict__["transform"]) == originals


def test_canonical_index_matches_scan_order():
    sys.path.insert(0, str(BENCH))
    import tracing

    orders = {"any": [0, 1, -1, 2, -2, 3, -3], "even": [0, 2, -2, 4, -4, 6, -6],
              "odd": [1, -1, 3, -3, 5, -5]}
    for parity, ns in orders.items():
        assert [tracing.canonical_index(n, parity) for n in ns] == list(range(len(ns)))
