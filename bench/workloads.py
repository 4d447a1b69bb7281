"""The four benchmark workloads: seeded inputs, one op each, and output checks.

Inputs are drawn by the benchmark itself from ``numpy.random.default_rng``
(never through natspec's own samplers), so the program sees only the
generated measures, targets and JSON files.  Each workload provides

- ``make_inputs(rng, workdir)``: the pool of op inputs (files written here),
- ``run(inp, outdir)``: the timed op, returning its raw output,
- ``check(inp, out)``: problems found in the output (empty when correct),
  computed outside the timed region by an independent route,
- ``digest(inp, out)``: bytes that identify the output, for comparing commits,
- ``bracket(out)``: the certified (lower, upper) spectral-radius bracket, or None.

Ops call natspec through module attributes at call time, so a traced run
sees the wrappers the tracer installs.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np

import natspec.cli
import natspec.decomposition
import natspec.kronecker
import natspec.serialize

# The built-in generator values (square roots and logarithms), listed by the
# benchmark so its inputs do not depend on natspec's own table.
GENERATORS = (
    ("sqrt2", math.sqrt(2.0)), ("sqrt3", math.sqrt(3.0)),
    ("ln3", math.log(3.0)), ("ln5", math.log(5.0)),
    ("ln2", math.log(2.0)), ("sqrt11", math.sqrt(11.0)),
    ("sqrt5", math.sqrt(5.0)), ("sqrt17", math.sqrt(17.0)),
    ("sqrt19", math.sqrt(19.0)), ("sqrt37", math.sqrt(37.0)),
    ("sqrt13", math.sqrt(13.0)), ("sqrt29", math.sqrt(29.0)),
    ("sqrt7", math.sqrt(7.0)), ("ln7", math.log(7.0)),
    ("sqrt23", math.sqrt(23.0)), ("sqrt31", math.sqrt(31.0)),
)
DENOMINATORS = (1, 2, 3, 4, 6, 8)
MP_DIGITS = 30
# Transform indices at which decompose pieces are re-summed with mpmath.
IDENTITY_NS = (0, 1, 2, 3, 97, 1000, 9999)
IDENTITY_TOL = 1e-9
BRACKET_SUP_N = 256


# -- seeded measures ---------------------------------------------------------

def random_measure(rng, names, n_atoms, *, density_degree=None, tv=None) -> dict:
    """Measure JSON (natspec schema) with atoms at p/q turns plus integer
    generator coefficients in [-2, 2]; repeated positions are merged."""
    atoms: dict[tuple, complex] = {}
    for _ in range(n_atoms):
        q = int(rng.choice(DENOMINATORS))
        turns = Fraction(int(rng.integers(0, q)), q)
        coeffs = tuple(int(c) for c in rng.integers(-2, 3, size=len(names)))
        w = complex(float(rng.uniform(-1.0, 1.0)), float(rng.uniform(-1.0, 1.0)))
        atoms[(turns, coeffs)] = atoms.get((turns, coeffs), 0j) + w
    if tv is not None:
        scale = tv / sum(abs(w) for w in atoms.values())
        atoms = {key: w * scale for key, w in atoms.items()}
    ac = []
    if density_degree is not None:
        for k in range(-density_degree, density_degree + 1):
            if rng.uniform(0.0, 1.0) < 0.7:
                ac.append({"k": k, "re": float(rng.uniform(-1.0, 1.0)),
                           "im": float(rng.uniform(-1.0, 1.0))})
    values = dict(GENERATORS)
    return {
        "kind": "mixed" if density_degree is not None else "discrete",
        "basis": [{"name": n, "value": values[n]} for n in names],
        "atoms": [{"angle": {"turns": str(t), "coeffs": {n: c for n, c in zip(names, cs) if c}},
                   "re": w.real, "im": w.imag} for (t, cs), w in atoms.items()],
        "ac": ac,
    }


def torsion_order(measure: dict) -> int:
    """lcm of the turn denominators of the atoms."""
    return math.lcm(*(Fraction(a["angle"]["turns"]).denominator for a in measure["atoms"]))


def compositions(total: int, parts: int) -> np.ndarray:
    """Every row of ``parts`` nonnegative integers summing to ``total``."""
    rows = []
    for cuts in itertools.combinations(range(total + parts - 1), parts - 1):
        bounds = (-1,) + cuts + (total + parts - 1,)
        rows.append([b - a - 1 for a, b in zip(bounds, bounds[1:])])
    return np.array(rows, dtype=np.int64)


def sumset_size(measure: dict, fold: int, multiplicities: np.ndarray) -> int:
    """Number of distinct points in the ``fold``-fold sumset of the support
    plus its half-turn copy (the support of either parity piece).
    ``multiplicities`` is ``compositions(fold, atoms)``."""
    den = 2 * torsion_order(measure)
    names = [b["name"] for b in measure["basis"]]
    pos = np.array([[int(Fraction(a["angle"]["turns"]) * den)]
                    + [a["angle"]["coeffs"].get(n, 0) for n in names]
                    for a in measure["atoms"]], dtype=np.int64)
    sums = multiplicities @ pos
    sums = np.concatenate([sums, sums + np.array([den // 2] + [0] * len(names))])
    sums[:, 0] %= den
    # one integer key per point: coefficient sums lie in [-2 fold, 2 fold]
    key = sums[:, 0]
    for col in sums[:, 1:].T:
        key = key * (4 * fold + 1) + (col + 2 * fold)
    return len(np.unique(key))


def _positions(measure: dict) -> tuple[list, list]:
    """(positions as (turns, {generator: coefficient}), weights) of a measure JSON."""
    return ([(Fraction(a["angle"]["turns"]), a["angle"].get("coeffs", {}))
             for a in measure["atoms"]],
            [complex(a["re"], a["im"]) for a in measure["atoms"]])


def mp_transform(measure: dict, n: int):
    """mu_hat(n) = sum_j w_j e^{-i n theta_j} (+ density coefficient c_n), in mpmath."""
    values = {b["name"]: mpmath.mpf(b["value"]) for b in measure["basis"]}
    total = mpmath.mpc(0)
    for (turns, coeffs), w in zip(*_positions(measure)):
        theta = 2 * mpmath.pi * mpmath.mpf(turns.numerator) / turns.denominator
        theta += mpmath.fsum(c * values[name] for name, c in coeffs.items())
        total += mpmath.mpc(w.real, w.imag) * mpmath.expj(-n * theta)
    for e in measure.get("ac", []):
        if e["k"] == n:
            total += mpmath.mpc(e["re"], e["im"])
    return total


def np_transform_sup(measure: dict, n_bound: int) -> float:
    """max over |n| <= n_bound of |mu_hat(n)|, evaluated directly in numpy."""
    values = {b["name"]: b["value"] for b in measure["basis"]}
    pos, weights = _positions(measure)
    theta = np.array([2 * math.pi * float(t) + sum(c * values[k] for k, c in cs.items())
                      for t, cs in pos])
    ns = np.arange(-n_bound, n_bound + 1)
    vals = np.exp(-1j * np.outer(ns, theta)) @ np.array(weights)
    return float(np.max(np.abs(vals)))


def _write(path: Path, obj) -> Path:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def _json_body(path: Path) -> bytes:
    """File bytes without '#' comment lines (timestamps live there)."""
    lines = path.read_bytes().splitlines(keepends=True)
    return b"".join(ln for ln in lines if not ln.startswith(b"#"))


def _cli(argv: list[str]) -> int:
    """Exit code of ``natspec`` run in process, its printed output discarded."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return natspec.cli.main(argv)


# -- decompose ---------------------------------------------------------------

class Decompose:
    """`natspec decompose --kmax 4` on criterion-07 measures (4 atoms over
    sqrt2, sqrt3, scaled to total variation 2) in general position: the
    8-fold sumset of each parity piece's 8-point support has all
    2 * C(11, 3) = 330 points, so the norm-root sequence of every piece ends
    on the same 330**2 = 109 k-pair squaring.  Exact convolution is about a
    third of an op; transforms and the verifier's covering take most of the rest.

    With the default --kmax 6 the sequence runs on to a 3.75 M-pair squaring:
    ops take about 3 s, a run holds only eight of them, and its median moved
    by 12% between seeds on one host.  General position keeps support
    coincidences from shrinking the last squaring by varying amounts."""

    name = "decompose"
    pool = 48
    digest_ops = 3
    fold = 8
    kmax = "4"
    generic_size = 2 * math.comb(8 + 3, 3)

    @staticmethod
    def make_inputs(rng, workdir: Path) -> list:
        mult = compositions(Decompose.fold, 4)
        out = []
        while len(out) < Decompose.pool:
            mu = random_measure(rng, ("sqrt2", "sqrt3"), 4, tv=2.0)
            if (len(mu["atoms"]) == 4
                    and sumset_size(mu, Decompose.fold, mult) == Decompose.generic_size):
                out.append((mu, _write(workdir / f"decompose_{len(out)}.json", mu)))
        return out

    @staticmethod
    def run(inp, outdir: Path):
        return (_cli(["decompose", "--input", str(inp[1]), "--out", str(outdir),
                      "--kmax", Decompose.kmax]), outdir)

    @staticmethod
    def check(inp, out) -> list[str]:
        rc, outdir = out
        if rc != 0:
            return [f"exit code {rc}"]
        report = json.loads((outdir / "report.json").read_text(encoding="utf-8"))
        problems = [] if report.get("passed") is True else ["report.json not passed"]
        pieces = [json.loads((outdir / f"nu{i}.json").read_text(encoding="utf-8"))
                  for i in range(3)]
        with mpmath.workdps(MP_DIGITS):
            for n in IDENTITY_NS:
                resid = abs(sum(mp_transform(p, n) for p in pieces) - mp_transform(inp[0], n))
                if not resid <= IDENTITY_TOL:
                    problems.append(f"nu0+nu1+nu2 differs from mu at n={n} by {resid}")
        return problems

    @staticmethod
    def digest(inp, out) -> bytes:
        _, outdir = out
        return b"".join(_json_body(outdir / f) for f in
                        ("nu0.json", "nu1.json", "nu2.json", "report.json"))

    @staticmethod
    def bracket(out):
        report = json.loads((out[1] / "report.json").read_text(encoding="utf-8"))
        for c in report["verification"]["checks"]:
            if c["name"] == "spectrum_membership":
                return c["details"]["sampled_max"], c["details"]["radius"]
        return None


# -- certify -----------------------------------------------------------------

class Certify:
    """Criterion-09 library calls on mixed measures (4 atoms plus a degree-3
    density): fekete_k_max=1 radii, doubled manual radii, full verification."""

    name = "certify"
    pool = 256
    digest_ops = 20

    @staticmethod
    def make_inputs(rng, workdir: Path) -> list:
        out = []
        for _ in range(Certify.pool):
            mu = random_measure(rng, ("sqrt2", "sqrt3"), 4, density_degree=3)
            out.append((mu, natspec.serialize.measure_from_json(mu)))
        return out

    @staticmethod
    def run(inp, outdir: Path):
        dec = natspec.decomposition
        mu = inp[1]
        base = dec.decompose(mu, dec.DecompositionOptions(verify=False, fekete_k_max=1))
        doubled = dec.decompose(mu, dec.DecompositionOptions(
            radius_mode="manual", manual_radii=(2.0 * base.R0, 2.0 * base.R1),
            verify=False))
        report = dec.verify_decomposition(mu, doubled, N=10_000)
        return base, report

    @staticmethod
    def check(inp, out) -> list[str]:
        return [f"{c.name}: residual {c.residual!r} > {c.threshold!r}"
                for c in out[1].checks if not c.passed]

    @staticmethod
    def digest(inp, out) -> bytes:
        base, report = out
        parts = [repr(base.R0), repr(base.R1)]
        parts += [f"{c.name} {c.passed} {c.residual!r}" for c in report.checks]
        return "\n".join(parts).encode()

    @staticmethod
    def bracket(out):
        return None


# -- bracket -----------------------------------------------------------------

class Bracket:
    """`natspec spectral-radius --kmax 3 --grid 24` on discrete measures with
    6 atoms over sqrt2, sqrt3, ln3, ln5, every generator present (4 free
    torus dimensions) and torsion order 24, so every op evaluates the torus
    lower bound on 24 * 24**4 = 8.0 M grid points, about three quarters of
    the op.  (--grid 32 makes that share 92%, but 1.5 s ops leave a run too
    few of them for a steady median.)

    Order 24 holds for about 30% of draws; op time scales with the order, so
    a per-seed mix of orders 1-24 would move the run's median with the seed."""

    name = "bracket"
    pool = 64
    digest_ops = 10
    names = ("sqrt2", "sqrt3", "ln3", "ln5")
    order = 24
    grid = "24"

    @staticmethod
    def make_inputs(rng, workdir: Path) -> list:
        out = []
        while len(out) < Bracket.pool:
            mu = random_measure(rng, Bracket.names, 6)
            used = {n for a in mu["atoms"] for n in a["angle"]["coeffs"]}
            if len(used) == len(Bracket.names) and torsion_order(mu) == Bracket.order:
                out.append((mu, _write(workdir / f"bracket_{len(out)}.json", mu)))
        return out

    @staticmethod
    def run(inp, outdir: Path):
        outdir.mkdir(parents=True, exist_ok=True)
        result = outdir / "sr.json"
        rc = _cli(["spectral-radius", "--input", str(inp[1]), "--out", str(result),
                   "--kmax", "3", "--grid", Bracket.grid])
        return rc, result

    @staticmethod
    def check(inp, out) -> list[str]:
        rc, result = out
        if rc != 0:
            return [f"exit code {rc}"]
        sr = json.loads(result.read_text(encoding="utf-8"))
        if "torus_lower" not in sr:
            return ["no torus lower bound"]
        lower, upper = sr["torus_lower"], sr["final_bound"]
        problems = [] if lower <= upper else [f"lower {lower!r} > upper {upper!r}"]
        sup = np_transform_sup(inp[0], BRACKET_SUP_N)
        if not sup <= upper * (1 + 1e-12):
            problems.append(f"sup |mu_hat(n)| {sup!r} > upper {upper!r}")
        return problems

    @staticmethod
    def digest(inp, out) -> bytes:
        return _json_body(out[1])

    @staticmethod
    def bracket(out):
        sr = json.loads(out[1].read_text(encoding="utf-8"))
        return sr["torus_lower"], sr["final_bound"]


# -- kronecker ---------------------------------------------------------------

class Kronecker:
    """hit_target by scan, eps 0.01, n_max 1e6, target uniform in the unit
    disk; the parity and one of the eight consecutive generator pairs are
    drawn per op."""

    name = "kronecker"
    pool = 16_384
    digest_ops = 200
    eps = 0.01
    n_max = 10 ** 6

    @staticmethod
    def make_inputs(rng, workdir: Path) -> list:
        m = Kronecker.pool
        pairs = rng.integers(0, len(GENERATORS) // 2, size=m)
        parities = rng.integers(0, 2, size=m)
        radii = np.sqrt(rng.uniform(0.0, 1.0, size=m))
        angles = rng.uniform(0.0, 2 * math.pi, size=m)
        targets = radii * np.exp(1j * angles)
        return [(GENERATORS[2 * int(k)][1], GENERATORS[2 * int(k) + 1][1], complex(w),
                 ("even", "odd")[int(par)], int(k))
                for k, par, w in zip(pairs, parities, targets)]

    @staticmethod
    def run(inp, outdir: Path):
        alpha, beta, w, parity, _ = inp
        return natspec.kronecker.hit_target(alpha, beta, w, Kronecker.eps, parity=parity,
                                            n_max=Kronecker.n_max)

    @staticmethod
    def check(inp, out) -> list[str]:
        alpha, beta, w, parity, _ = inp
        n = int(out)
        problems = []
        if (n % 2 == 0) != (parity == "even") or abs(n) > Kronecker.n_max:
            problems.append(f"witness {n} has the wrong parity or size")
        with mpmath.workdps(MP_DIGITS):
            value = (mpmath.expj(-n * mpmath.mpf(alpha)) + mpmath.expj(-n * mpmath.mpf(beta))) / 2
            err = abs(value - mpmath.mpc(w.real, w.imag))
        if not err < Kronecker.eps:
            problems.append(f"witness {n} misses the target by {err}")
        return problems

    @staticmethod
    def digest(inp, out) -> bytes:
        return str(int(out)).encode()

    @staticmethod
    def bracket(out):
        return None

    @staticmethod
    def op_class(inp) -> tuple:
        """(pair, parity, n_max): the inputs a batched scan could share."""
        return inp[4], inp[3], Kronecker.n_max


WORKLOADS = {w.name: w for w in (Decompose, Certify, Bracket, Kronecker)}
