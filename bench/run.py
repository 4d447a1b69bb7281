"""natspec benchmark: one seeded workload per process, closed loop, one client.

    python3 bench/run.py --workload decompose --seed 1 --seconds 24 --trace 0

Run from anywhere inside a source checkout; the package is imported from the
checkout's ``src/`` and nowhere else.  Ops run back to back for ``--seconds``
seconds of wall time; each op's output is checked outside its timed region.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  A line starting with
``# detail`` before it, and a file under ``.bench_build/natspec-bench/results``,
hold the environment block, the output digest, the wall-clock figures and
the metrics that are not defined on every workload (``op_s.tail``,
``bracket_rel_width``, ``failed_frac``).

Time metrics are in reference seconds (see ``reference.py``): each op's wall
time is scaled by the host speed measured with a fixed kernel just before and
after it, so the shared host's swings in speed cancel out while a change to
natspec's own speed shows in full.  One untimed warm-up op runs before the
loop, after set-up is measured.

With ``--trace 1`` every op runs twice on the same input, once plain and once
with the tracer's wrappers installed (alternating which goes first), so the
tracing overhead is measured on identical work.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import gzip  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORK_BASE = ROOT / ".bench_build" / "natspec-bench"
SETUP_REPEATS = 3  # this process plus two probe processes; setup_s is their median
CAL_INTERVAL_S = 0.5  # the reference kernel runs after the first op ending this late
PROBE_TIMEOUT_S = 120
TAIL_BEYOND = 10  # the tail percentile keeps at least this many ops above it
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "op_s.p50": "s", "peak_rss_mb": "MB"}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("decompose", "certify", "bracket", "kronecker"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=24.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="set up, print the set-up time as JSON and exit (used for setup_s)")
    return p.parse_args(argv)


def pin_blas_threads() -> int:
    """Pin BLAS/OpenMP pools to the CPUs this process may use; returns that count."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        os.environ[var] = str(nproc)
    return nproc


def import_natspec():
    """Import natspec from this checkout's src/, or return None."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import natspec
    except ImportError as exc:
        print(f"error: cannot import natspec from {src}: {exc}", file=sys.stderr)
        return None
    if not Path(natspec.__file__).resolve().is_relative_to(src.resolve()):
        print(f"error: natspec resolved to {natspec.__file__}, not to {src}", file=sys.stderr)
        return None
    sys.path.insert(0, str(BENCH_DIR))
    return natspec


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return res.stdout.strip()


def environment(nproc: int, seed: int) -> dict:
    import mpmath
    import numpy as np
    import scipy
    fi = np.finfo(np.longdouble)
    return {
        "nproc": nproc, "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "mpmath": mpmath.__version__,
        "longdouble": {"dtype": str(fi.dtype), "bits": fi.bits, "nmant": int(fi.nmant),
                       "precision": int(fi.precision), "eps": repr(float(fi.eps))},
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "seed": seed, "commit": commit(), "source_sha256": source_digest(),
        "machine": platform.machine(),
    }


def probe_setup(args) -> dict:
    """Set-up time (wall and reference seconds) of a fresh process doing the same set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    res = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
                         cwd=str(ROOT), check=True)
    return json.loads(res.stdout.strip().splitlines()[-1])


def tail(times: list[float]):
    """Highest percentile with at least TAIL_BEYOND ops above it, or None."""
    n = len(times)
    if n < 2 * TAIL_BEYOND:
        return None
    ordered = sorted(times)
    rank = n - TAIL_BEYOND  # ops at index >= rank lie beyond the percentile
    return {"value": ordered[rank - 1], "percentile": 100.0 * rank / n, "samples": n}


class Runner:
    """Runs one workload's ops and keeps per-op records."""

    def __init__(self, wl, inputs, workdir: Path, tracer=None):
        self.wl, self.inputs, self.workdir, self.tracer = wl, inputs, workdir, tracer
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.digest = hashlib.sha256()
        self.digested = 0
        self.widths: list[float] = []

    def run_op(self, i: int, traced: bool) -> float:
        """One op on input i (the last input for the warm-up op, i = -1);
        returns its wall time.  Checks run after the clock stops."""
        inp = self.inputs[i % len(self.inputs)]
        outdir = self.workdir / f"op{i}{'t' if traced else ''}"
        self.attempted += 1
        if traced:
            self.tracer.op = i
            self.tracer.install()
        start = time.perf_counter()
        try:
            out, error = self.wl.run(inp, outdir), None
        except Exception as exc:  # an op that raises counts as failed
            error = exc
        elapsed = time.perf_counter() - start
        if traced:
            self.tracer.uninstall()
        if error is not None:
            self.failed += 1
            self.failures.append(f"op {i}: {type(error).__name__}: {error}")
            return elapsed
        try:
            problems = self.wl.check(inp, out)
            if not traced and i >= 0:
                self._record(i, inp, out)
        except Exception as exc:
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        self.failed += bool(problems)
        self.failures += [f"op {i}: {p}" for p in problems]
        shutil.rmtree(outdir, ignore_errors=True)
        return elapsed

    def _record(self, i, inp, out) -> None:
        if i < self.wl.digest_ops and i == self.digested:
            self.digest.update(self.wl.digest(inp, out))
            self.digested += 1
        br = self.wl.bracket(out)
        if br is not None:
            lower, upper = br
            self.widths.append((upper - lower) / upper)


def run_loop(runner: Runner, seconds: float, traced: bool):
    """Closed loop until ``seconds`` of wall time pass (at least one op),
    after one untimed warm-up op.  The reference kernel is measured before
    the first op and after the first op that ends ``CAL_INTERVAL_S`` or more
    after the last measurement.  Returns (plain op wall times, their scales to
    reference seconds, traced op wall times keyed by op id); a plain op's scale
    comes from the mean of the kernel times measured before and after it."""
    import reference

    runner.run_op(-1, False)
    plain: list[float] = []
    epoch: list[int] = []  # per plain op: index of the kernel time measured before it
    kernel_s = [reference.measure()]
    measured_at = time.perf_counter()
    traced_times: dict[int, float] = {}
    deadline = measured_at + seconds
    i = 0
    while i == 0 or time.perf_counter() < deadline:
        if traced:
            for mode in ((False, True) if i % 2 == 0 else (True, False)):
                t = runner.run_op(i, mode)
                if mode:
                    traced_times[i] = t
                else:
                    plain.append(t)
                    epoch.append(len(kernel_s) - 1)
        else:
            plain.append(runner.run_op(i, False))
            epoch.append(len(kernel_s) - 1)
        i += 1
        if time.perf_counter() - measured_at >= CAL_INTERVAL_S:
            kernel_s.append(reference.measure())
            measured_at = time.perf_counter()
    if epoch[-1] == len(kernel_s) - 1:
        kernel_s.append(reference.measure())
    scales = [reference.scale((kernel_s[e] + kernel_s[e + 1]) / 2) for e in epoch]
    return plain, scales, traced_times


PER_LAYER = (
    # (metric, unit, layer, counter); each is summed over traced ops, then divided by their count
    ("measures.convolve.self_s", "s/op", "measures.convolve", "self_s"),
    ("measures.convolve.calls", "count/op", "measures.convolve", "calls"),
    ("measures.convolve.pairs", "count/op", "measures.convolve", "pairs"),
    ("measures.convolve.atoms_out", "count/op", "measures.convolve", "atoms_out"),
    ("measures.transform.self_s", "s/op", "measures.transform", "self_s"),
    ("measures.transform.atom_evals", "count/op", "measures.transform", "atom_evals"),
    ("measures.parity_projections.self_s", "s/op", "measures.parity_projections", "self_s"),
    ("measures.tv_norm_bounds.self_s", "s/op", "measures.tv_norm_bounds", "self_s"),
    ("spectrum.fekete_bound.self_s", "s/op", "spectrum.fekete_bound", "self_s"),
    ("spectrum.fekete_bound.squarings", "count/op", "spectrum.fekete_bound", "squarings"),
    ("spectrum.fekete_bound.budget_stops", "count/op", "spectrum.fekete_bound",
     "budget_stops"),
    ("spectrum.torus_max.self_s", "s/op", "spectrum.torus_max", "self_s"),
    ("spectrum.torus_max.grid_points", "count/op", "spectrum.torus_max", "grid_points"),
    ("spectrum.character_values.self_s", "s/op", "spectrum.character_values", "self_s"),
    ("spectrum.covering_radius.self_s", "s/op", "spectrum.covering_radius", "self_s"),
    ("spectrum.covering_radius.query_points", "count/op", "spectrum.covering_radius",
     "query_points"),
    ("spectrum.covering_radius.tree_points", "count/op", "spectrum.covering_radius",
     "tree_points"),
    ("kronecker.hit_target.self_s", "s/op", "kronecker.hit_target", "self_s"),
    ("kronecker.hit_target.evaluations", "count/op", "kronecker.hit_target", "evaluations"),
    ("decomposition.decompose.self_s", "s/op", "decomposition.decompose", "self_s"),
    ("decomposition.verify_decomposition.self_s", "s/op",
     "decomposition.verify_decomposition", "self_s"),
    ("serialize.read.self_s", "s/op", "serialize.read", "self_s"),
    ("serialize.write.self_s", "s/op", "serialize.write", "self_s"),
    ("serialize.write.bytes", "B/op", "serialize.write", "bytes"),
    ("cli.main.self_s", "s/op", "cli.main", "self_s"),
)


def _ratio(num: float, den: float) -> float:
    """num / den, reported as 0 when the base is 0 (the base is printed beside it)."""
    return num / den if den else 0.0


def per_layer_metrics(summary: dict, plain: list[float], traced_times: dict,
                      class_repeats: float) -> dict:
    layers = summary["layers"]
    ops = len(traced_times)
    out = {}
    for metric, unit, layer, key in PER_LAYER:
        out[metric] = {"value": layers.get(layer, {}).get(key, 0) / ops, "unit": unit}
    fekete = layers.get("spectrum.fekete_bound", {})
    hit = layers.get("kronecker.hit_target", {})
    extra = {
        "spectrum.fekete_bound.useful_frac": _ratio(fekete.get("useful", 0),
                                                    fekete.get("squarings", 0)),
        "kronecker.hit_target.useful_frac": _ratio(hit.get("witness_index", 0)
                                                   + hit.get("spans", 0),
                                                   hit.get("evaluations", 0)),
        "kronecker.hit_target.repeat_frac": class_repeats,
        # paired on identical inputs: traced op time over plain op time, minus 1
        "trace.overhead_frac": sum(traced_times.values()) / sum(plain) - 1.0,
        "trace.unattributed_frac": _ratio(summary["unattributed_s"], summary["op_s_total"]),
    }
    for metric, value in extra.items():
        out[metric] = {"value": value, "unit": "ratio"}
    return out


def end_to_end_metrics(times: list[float], setups: list[float], rss_mb: float) -> dict:
    """Metrics from op times and set-up times (both in reference seconds)."""
    values = {"setup_s": statistics.median(setups), "ops_per_s": len(times) / sum(times),
              "op_s.p50": statistics.median(times), "peak_rss_mb": rss_mb}
    return {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END.items()}


def repeat_fraction(wl, n_ops: int, inputs) -> float:
    """Share of ops whose input class already appeared earlier in the run."""
    op_class = getattr(wl, "op_class", None)
    if op_class is None:
        return 0.0
    seen, repeats = set(), 0
    for i in range(n_ops):
        c = op_class(inputs[i % len(inputs)])
        repeats += c in seen
        seen.add(c)
    return repeats / n_ops


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = pin_blas_threads()
    if import_natspec() is None:
        return 2
    import numpy as np
    import reference
    import tracing
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    WORK_BASE.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_BASE))
    try:
        inputs = wl.make_inputs(np.random.default_rng(args.seed), workdir)
        setup = {"wall_s": time.perf_counter() - _T0}
        setup["ref_s"] = setup["wall_s"] * reference.scale(reference.measure())
        if args.setup_probe:
            print(json.dumps(setup))
            return 0
        setup_runs = [setup] + [probe_setup(args) for _ in range(SETUP_REPEATS - 1)]
        setups = [s["ref_s"] for s in setup_runs]
        tracer = tracing.Tracer() if args.trace else None
        runner = Runner(wl, inputs, workdir, tracer)
        wall, scales, traced_times = run_loop(runner, args.seconds, bool(args.trace))
        plain = [t * k for t, k in zip(wall, scales)]
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    leftover = tracing.leftover_wrappers()
    if leftover:
        runner.failures.append(f"wrappers left installed: {leftover}")
    detail = {
        "workload": wl.name, "seconds": args.seconds, "trace": args.trace,
        "ops": len(plain), "setup_samples": setup_runs,
        "wall": {"ops_per_s": len(wall) / sum(wall), "op_s.p50": statistics.median(wall),
                 "ref_per_wall_s.p50": statistics.median(scales)},
        "failed_frac": runner.failed / runner.attempted,
        "wrapped_after": leftover,
        "failures": runner.failures[:20],
        "op_s.tail": tail(plain),  # reference seconds, as op_s.p50
        "bracket_rel_width": statistics.median(runner.widths) if runner.widths else None,
        "digest": {"sha256": runner.digest.hexdigest(), "ops": runner.digested},
        "env": environment(nproc, args.seed),
    }
    if args.trace:
        summary = tracing.summarize(tracer.spans, traced_times)
        metrics = per_layer_metrics(summary, wall, traced_times,
                                    repeat_fraction(wl, len(plain), inputs))
        detail.update(spans=len(tracer.spans),
                      layers=summary["layers"],
                      traced_ops_per_s=len(traced_times) / sum(traced_times.values()),
                      plain_ops_per_s=len(wall) / sum(wall))
    else:
        metrics = end_to_end_metrics(plain, setups, rss_mb)

    results = WORK_BASE / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(
        json.dumps({"detail": detail, "metrics": metrics, "op_times_s": plain,
                    "op_wall_s": wall}, indent=2) + "\n",
        encoding="utf-8")
    if args.trace:
        with gzip.open(results / f"{stem}.spans.jsonl.gz", "wt", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")

    print("# detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": not runner.failures, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
