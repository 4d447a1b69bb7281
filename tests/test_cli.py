"""Command line interface: subcommands, exit codes, deterministic outputs."""

import contextlib
import inspect
import io
import json
import math
import os
import resource
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import natspec
from natspec import blas, cli, measures, spectrum
from natspec.angles import FRESH_GENERATOR_VALUES, GeneratorBasis
from natspec.cli import main
from natspec.decomposition import DecompositionOptions, verify_decomposition
from natspec.measures import DiscreteMeasure, MixedMeasure, as_mixed
from natspec.sampling import default_rng, random_discrete
from natspec.serialize import measure_from_json, measure_to_json, read_json, write_json
from natspec.spectrum import (char_polynomial, fekete_bound, radius_bracket, spectral_bracket,
                              torus_max)
from natspec.kronecker import KroneckerProblem


@pytest.fixture()
def measure_file(tmp_path, basis):
    mu = random_discrete(default_rng(42), basis)
    path = tmp_path / "measure.json"
    write_json(path, measure_to_json(mu))
    return path


def test_verify_reports_suite(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert lines[0] == "seed 42"
    assert lines[-1] == "suite PASS (8 checks)"
    assert all(ln.startswith("PASS ") for ln in lines[1:-1])


def test_verify_is_deterministic(capsys):
    main(["verify"])
    first = capsys.readouterr().out
    main(["verify"])
    second = capsys.readouterr().out
    assert first == second


def test_verify_out_file_has_timestamp_header(tmp_path, capsys):
    out = tmp_path / "report.txt"
    assert main(["verify", "--out", str(out)]) == 0
    body = capsys.readouterr().out
    written = out.read_text(encoding="utf-8").split("\n")
    assert written[0].startswith("# generated ")
    assert "\n".join(written[1:]) == body


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_missing_input_exits_2(tmp_path, capsys):
    rc = main(["decompose", "--input", str(tmp_path / "nope.json"),
               "--out", str(tmp_path / "d")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_malformed_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops", encoding="utf-8")
    rc = main(["spectral-radius", "--input", str(bad), "--out", str(tmp_path / "o.json")])
    assert rc == 2
    capsys.readouterr()


def test_decompose_writes_pieces_and_report(tmp_path, measure_file, capsys):
    out_dir = tmp_path / "result"
    rc = main(["decompose", "--input", str(measure_file), "--out", str(out_dir),
               "--N", "10000"])
    stdout = capsys.readouterr().out
    assert rc == 0
    assert "PASS identity_structural:" in stdout
    assert "R0 " in stdout
    for name in ("nu0.json", "nu1.json", "nu2.json", "report.json"):
        assert (out_dir / name).exists()
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    assert report["passed"] is True
    assert isinstance(report["R0"], float) and isinstance(report["R1"], float)
    assert {c["name"] for c in report["verification"]["checks"]} >= {
        "identity_structural", "orthogonality", "density_nu0"}
    nu2 = measure_from_json(json.loads((out_dir / "nu2.json").read_text(encoding="utf-8")))
    assert len(nu2.atoms) <= 8


def test_decompose_outputs_are_reproducible(tmp_path, measure_file, capsys):
    dirs = [tmp_path / "one", tmp_path / "two"]
    for d in dirs:
        assert main(["decompose", "--input", str(measure_file), "--out", str(d),
                     "--N", "10000"]) == 0
    capsys.readouterr()
    for name in ("nu0.json", "nu1.json", "nu2.json", "report.json"):
        first = (dirs[0] / name).read_bytes()
        second = (dirs[1] / name).read_bytes()
        assert first == second


def test_decompose_manual_radii_flow(tmp_path, measure_file, capsys):
    rc = main(["decompose", "--input", str(measure_file), "--out",
               str(tmp_path / "x"), "--radius-mode", "manual"])
    assert rc == 2  # radii flags are required in manual mode
    rc = main(["decompose", "--input", str(measure_file), "--out",
               str(tmp_path / "y"), "--radius-mode", "manual",
               "--r0", "1e-6", "--r1", "1e-6"])
    assert rc == 2  # radii below the transform sup are rejected as bad input
    capsys.readouterr()


@pytest.mark.parametrize("radii", [["--r0", "5", "--r1", "7"], ["--r0", "5"]])
def test_decompose_refuses_manual_radii_without_manual_mode(tmp_path, measure_file, radii,
                                                            capsys):
    out = tmp_path / "x"
    rc = main(["decompose", "--input", str(measure_file), "--out", str(out), *radii])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == ("error: manual radii are used only by radius_mode 'manual', "
                            "not 'bracket'\n")
    assert not out.exists()


@pytest.mark.parametrize("radius", ["inf", "nan", "1e308"])
def test_decompose_refuses_unusable_manual_radius(tmp_path, measure_file, capsys, radius):
    out = tmp_path / "x"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["decompose", "--input", str(measure_file), "--out", str(out),
                   "--radius-mode", "manual", "--r0", radius, "--r1", "10"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("error: R0=") and captured.err.count("\n") == 1
    assert not caught
    assert not out.exists()


def test_density_scan_pinned_first_row(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    rc = main(["density-scan", "--out", str(out), "--N", "6"])
    assert rc == 0
    stdout_lines = capsys.readouterr().out.strip().split("\n")
    assert stdout_lines[0] == "N,covering_radius_all,covering_radius_even,covering_radius_odd"
    assert stdout_lines[1] == ("16,0.7025494191209248,"
                               "1.0020759764181675,1.0126733906561678")
    file_lines = out.read_text(encoding="utf-8").strip().split("\n")
    assert file_lines[0].startswith("# generated ")
    assert file_lines[1:] == stdout_lines
    # larger samples can only shrink covering radii
    rows = [ln.split(",") for ln in stdout_lines[1:]]
    for col in (1, 2, 3):
        vals = [float(r[col]) for r in rows]
        assert all(b <= a for a, b in zip(vals, vals[1:]))


def test_density_scan_builds_one_unit_disk_grid_per_tol(tmp_path, monkeypatch, capsys):
    # every fresh-pair covering at one tol queries the same unit disk grid: a
    # scan over three levels and three parities builds it once, and a scan
    # at another tol once more; each row equals the coverings of grids built
    # afresh for each cell, the route before the grid was kept
    builds, real = [], spectrum.disk_grid
    monkeypatch.setattr(spectrum, "disk_grid",
                        lambda radius, tol: builds.append((radius, tol)) or real(radius, tol))
    basis = GeneratorBasis.from_pairs((("alpha", math.sqrt(2.0)), ("beta", math.sqrt(3.0))))
    rho = measures.make_rho(basis.generator("alpha"), basis.generator("beta"), basis)
    for tol in (0.1, 0.05):
        assert main(["density-scan", "--out", str(tmp_path / "scan.csv"), "--N", "6",
                     "--tol", repr(tol)]) == 0
        rows = capsys.readouterr().out.strip().split("\n")[1:]
        want = []
        for e in range(4, 7):
            ns = np.arange(-(1 << e), (1 << e) + 1, dtype=np.int64)
            cov = [spectrum.covering_radius(real(1.0, tol), measures.transforms([rho], part)[0])
                   for part in (ns, ns[ns % 2 == 0], ns[ns % 2 == 1])]
            want.append(f"{1 << e},{cov[0]!r},{cov[1]!r},{cov[2]!r}")
        assert rows == want
    assert builds == [(1.0, 0.1), (1.0, 0.05)]


def test_density_scan_rejects_tiny_exponent(tmp_path, capsys):
    rc = main(["density-scan", "--out", str(tmp_path / "s.csv"), "--N", "3"])
    assert rc == 2
    capsys.readouterr()


def test_spectral_radius_brackets_discrete(tmp_path, measure_file, capsys):
    # the command writes radius_bracket's two ends, and nothing else when
    # the walks close the bracket without the norm-root squarings
    out = tmp_path / "radius.json"
    rc = main(["spectral-radius", "--input", str(measure_file), "--out", str(out)])
    stdout = capsys.readouterr().out
    assert rc == 0
    (lower, upper), fallback = radius_bracket(measure_from_json(read_json(measure_file)), 6)
    assert fallback is None and 0.0 < lower <= upper
    assert stdout == f"bracket [{lower!r}, {upper!r}]\n"
    assert json.loads(out.read_text(encoding="utf-8")) == {"torus_lower": lower,
                                                           "final_bound": upper}


def test_spectral_radius_bracket_of_point_masses_is_ordered(tmp_path, basis, capsys):
    # the torus lower end of a point mass used to print an ulp above the upper end
    rng = default_rng(2001)
    path, out = tmp_path / "point.json", tmp_path / "radius.json"
    for _ in range(25):
        w = complex(*rng.normal(size=2))
        write_json(path, measure_to_json(
            DiscreteMeasure.from_atoms(basis, [(basis.generator("a"), w)])))
        assert main(["spectral-radius", "--input", str(path), "--out", str(out)]) == 0
        line = capsys.readouterr().out.splitlines()[0]
        lower, upper = (float(v) for v in line[len("bracket ["):-1].split(", "))
        assert lower <= upper


def test_spectral_radius_rejects_nan_weight(tmp_path, measure_file, capsys):
    obj = json.loads(measure_file.read_text(encoding="utf-8"))
    obj["atoms"][0]["re"] = math.nan
    bad = tmp_path / "nan.json"
    bad.write_text(json.dumps(obj), encoding="utf-8")
    out = tmp_path / "radius.json"
    rc = main(["spectral-radius", "--input", str(bad), "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "must be finite" in captured.err
    assert not out.exists()


def test_spectral_radius_over_empty_basis(tmp_path, capsys):
    basis = GeneratorBasis()
    mu = DiscreteMeasure.from_atoms(
        basis, [(basis.angle(Fraction(j, 65)), 1.0 / 65) for j in range(65)])
    path = tmp_path / "roots.json"
    write_json(path, measure_to_json(mu))
    out = tmp_path / "radius.json"
    assert main(["spectral-radius", "--input", str(path), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert json.loads(out.read_text(encoding="utf-8"))["torus_lower"] > 0.0


def test_spectral_radius_overflow_writes_nothing(tmp_path, capsys):
    basis = GeneratorBasis()
    huge = DiscreteMeasure.from_atoms(basis, [(basis.zero(), 1e308),
                                              (basis.half_turn(), 1e308)])
    path = tmp_path / "huge.json"
    write_json(path, measure_to_json(huge))
    out = tmp_path / "radius.json"
    rc = main(["spectral-radius", "--input", str(path), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


def test_spectral_radius_overflow_is_one_stderr_line(tmp_path):
    # numpy's RuntimeWarnings bypass capsys, so only a child process sees them
    basis = GeneratorBasis()
    huge = DiscreteMeasure.from_atoms(basis, [(basis.zero(), 1e308),
                                              (basis.half_turn(), 1e308)])
    path = tmp_path / "huge.json"
    write_json(path, measure_to_json(huge))
    out = tmp_path / "radius.json"
    env = {**os.environ, "PYTHONPATH": str(Path(natspec.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-m", "natspec", "spectral-radius", "--input",
                           str(path), "--out", str(out)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("weight", [1e-170, 1e200])
def test_spectral_radius_brackets_extreme_weights(tmp_path, weight, capsys):
    # squares of these weights leave the float range unless rescaled first
    basis = GeneratorBasis.from_pairs((("a", math.sqrt(2.0)),))
    mu = DiscreteMeasure.from_atoms(basis, [(basis.zero(), weight),
                                            (basis.half_turn() + basis.generator("a"), weight)])
    path = tmp_path / "mu.json"
    write_json(path, measure_to_json(mu))
    out = tmp_path / "radius.json"
    assert main(["spectral-radius", "--input", str(path), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    data = json.loads(out.read_text(encoding="utf-8"))
    assert data["torus_lower"] == pytest.approx(2 * weight, rel=1e-12, abs=0.0)
    assert data["final_bound"] == pytest.approx(2 * weight, rel=1e-12, abs=0.0)


def test_spectral_radius_torsion_blowup_falls_back_to_the_squarings(tmp_path, capsys):
    # torsion order lcm(1000003, 999983, 997), about 10^15 classes: the
    # walker refuses the lattice, the norm-root squarings give the upper end
    # and 0 the lower, and the command says why and exits 0, as decompose does
    basis = GeneratorBasis.from_pairs((("a", math.sqrt(2.0)),))
    mu = DiscreteMeasure.from_atoms(basis, [
        (basis.angle(Fraction(1, 1000003)), 0.25),
        (basis.angle(Fraction(1, 999983)) + basis.generator("a"), 0.25),
        (basis.angle(Fraction(1, 997)), 0.5)])
    path = tmp_path / "lcm.json"
    write_json(path, measure_to_json(mu))
    out = tmp_path / "radius.json"
    rc = main(["spectral-radius", "--input", str(path), "--out", str(out), "--kmax", "0"])
    captured = capsys.readouterr()
    assert rc == 0 and captured.err == ""
    fallback, bracket = captured.out.splitlines()
    assert fallback.startswith("# radius fallback: mu ran the norm-root squarings over k <= 0, "
                               "because the walker refused the lattice: the character torus "
                               "has ")
    assert "torsion classes" in fallback
    assert bracket == "bracket [0.0, 1.0]"
    assert json.loads(out.read_text(encoding="utf-8")) == {
        "torus_lower": 0.0, "final_bound": 1.0,
        "fekete": {"entries": [[0, 1.0]], "final_bound": 1.0, "budget_hit": False}}


def test_spectral_radius_refuses_the_grid_before_any_squaring(tmp_path, measure_file,
                                                              monkeypatch, capsys):
    # --grid below 16 and a negative --kmax are refused before any walk or
    # squaring; a --grid past the walker's limit is no ceiling at all
    calls = []
    monkeypatch.setattr(spectrum, "fekete_bound", lambda *a: calls.append(a))
    monkeypatch.setattr(spectrum, "_lattice_max", lambda *a: calls.append(a))
    out = tmp_path / "radius.json"
    for flags, message in ((["--grid", "8"], "error: grid must be at least 16\n"),
                           (["--kmax", "-1"], "error: k_max must be nonnegative\n")):
        rc = main(["spectral-radius", "--input", str(measure_file), "--out", str(out)] + flags)
        assert rc == 2
        assert capsys.readouterr() == ("", message)
        assert calls == [] and not out.exists()
    monkeypatch.undo()
    huge = tmp_path / "huge.json"
    assert main(["spectral-radius", "--input", str(measure_file), "--out", str(huge),
                 "--grid", "100000000"]) == 0
    assert main(["spectral-radius", "--input", str(measure_file), "--out", str(out)]) == 0
    assert huge.read_bytes() == out.read_bytes()
    capsys.readouterr()


def test_decompose_brackets_over_four_generators(tmp_path, capsys):
    basis = GeneratorBasis.from_pairs((("sqrt2", math.sqrt(2)), ("sqrt3", math.sqrt(3)),
                                       ("ln3", math.log(3)), ("ln5", math.log(5))))
    mu = DiscreteMeasure.from_atoms(basis, [
        (basis.angle(Fraction(1, 3), (1, 1, 0, 0)), 0.5),
        (basis.angle(Fraction(0), (0, 1, 1, 1)), 0.25j)])
    path = tmp_path / "four.json"
    write_json(path, measure_to_json(mu))
    out = tmp_path / "out"
    rc = main(["decompose", "--input", str(path), "--out", str(out), "--kmax", "3"])
    assert rc == 0, capsys.readouterr().err
    assert "# radius fallback" not in capsys.readouterr().out
    # 6 torsion classes x 32^4 points is the largest lattice within the
    # walker's limit
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["passed"] is True and "fekete" not in report
    for lo, hi in report["radius_brackets"]:
        assert 0.0 < lo <= hi


def test_decompose_reports_a_radius_fallback(tmp_path, capsys):
    # five free dimensions are more than the torus walker takes: both radii
    # fall back to the norm-root bound, and each fallback prints one line
    basis = GeneratorBasis.from_pairs(FRESH_GENERATOR_VALUES[:5])
    mu = DiscreteMeasure.from_atoms(basis, [(basis.angle(Fraction(0), (1, 0, 1, 0, 1)), 0.5),
                                            (basis.angle(Fraction(0), (0, 1, 0, 1, 1)), 0.5)])
    path = tmp_path / "five.json"
    write_json(path, measure_to_json(mu))
    out = tmp_path / "out"
    rc = main(["decompose", "--input", str(path), "--out", str(out), "--kmax", "2"])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 0
    fallbacks = [ln for ln in lines if ln.startswith("# radius fallback: ")]
    assert [ln.split()[3] for ln in fallbacks] == ["R0", "R1"]
    assert all("k <= 2" in ln and "5 free dimensions" in ln for ln in fallbacks)
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert [f["final_bound"] for f in report["fekete"]] == [report["R0"], report["R1"]]


def test_decompose_reports_a_density_fallback(tmp_path, capsys, suite_verifications):
    # at N = 8192 the fresh pair's half-clouds cover the unit disk to about
    # 0.07 only, so on the suite's input the bound is above the threshold,
    # check (e) takes each cloud's own covering, and each says so in one
    # comment line; at the default N the bound decides, and nothing is said
    mu, _, library = suite_verifications[0]
    path = tmp_path / "suite.json"
    write_json(path, measure_to_json(mu))
    for n, routes in (("8192", ["exact", "exact"]), ("10000", ["bound", "bound"])):
        out = tmp_path / n
        rc = main(["decompose", "--input", str(path), "--out", str(out), "--N", n,
                   "--kmax", "3"])
        lines = capsys.readouterr().out.splitlines()
        assert rc == 0
        fallbacks = [ln for ln in lines if ln.startswith("# density fallback: ")]
        assert [ln.split()[3] for ln in fallbacks] == [
            name for name, route in zip(("nu0", "nu1"), routes) if route == "exact"]
        assert all("bound" in ln and "above the threshold" in ln for ln in fallbacks)
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        checks = {c["name"]: c for c in report["verification"]["checks"]}
        assert [checks[name]["details"]["route"]
                for name in ("density_nu0", "density_nu1")] == routes
        if n == "8192":
            assert [checks[name]["residual"] for name in ("density_nu0", "density_nu1")] == [
                library.check(name).residual for name in ("density_nu0", "density_nu1")]


def test_decompose_at_huge_denominator_falls_back_and_builds_no_table(tmp_path, capsys):
    # one atom at 1/(2**38 + 7) turns: transforms must not build a length-q
    # root table (4 TiB); the walker refuses both pieces' lattices, so both
    # radii, and check (f) after them, take the norm-root bound
    basis = GeneratorBasis.from_pairs((("a", math.sqrt(2.0)),))
    mu = DiscreteMeasure.from_atoms(basis, [(basis.angle(Fraction(1, 274877906951)), 1.0)])
    path = tmp_path / "far.json"
    write_json(path, measure_to_json(mu))
    tracemalloc.start()
    try:
        rc = main(["decompose", "--input", str(path), "--out", str(tmp_path / "out")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert rc == 0 and captured.err == ""
    assert peak < 1 << 27
    lines = captured.out.splitlines()
    fallbacks = [ln for ln in lines if ln.startswith("# radius fallback: ")]
    assert [ln.split()[3] for ln in fallbacks] == ["R0", "R1"]
    assert all("torsion classes" in ln for ln in fallbacks)
    checks = lines[len(fallbacks):-1]
    assert len(checks) == 12 and all(ln.startswith("PASS ") for ln in checks)
    assert checks[-2:] == ["PASS spectrum_nu0: residual 0.0 (threshold 0.0)",
                           "PASS spectrum_nu1: residual 0.0 (threshold 0.0)"]


@pytest.mark.parametrize("n", ["0", "-1", "1000000000000"])
def test_decompose_refuses_N_out_of_range(tmp_path, measure_file, n, capsys):
    out = tmp_path / "out"
    rc = main(["decompose", "--input", str(measure_file), "--out", str(out), "--N", n])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == "error: N must be between 1 and 2**20\n"
    assert not out.exists()


def test_spectral_radius_brackets_densities(tmp_path, basis, capsys):
    # a density's bracket is max_K |mu_hat(k)| less and plus its allowance:
    # the lower end is written as torus_lower, as for atoms
    mu = MixedMeasure.from_density(basis, {1: 1.0, -2: 0.5})
    path = tmp_path / "density.json"
    write_json(path, measure_to_json(mu))
    out = tmp_path / "radius.json"
    assert main(["spectral-radius", "--input", str(path), "--out", str(out)]) == 0
    (lower, upper), fallback = radius_bracket(mu, 6)
    assert fallback is None
    assert capsys.readouterr().out == f"bracket [{lower!r}, {upper!r}]\n"
    assert json.loads(out.read_text(encoding="utf-8")) == {"torus_lower": lower,
                                                           "final_bound": upper}
    allowance = measures._transform_allowance(mu, 2)
    assert 1.0 - allowance <= lower <= 1.0 <= upper <= 1.0 + allowance


def _np_transform_sup_with_slack(mu: MixedMeasure, n_max: int) -> tuple[float, float]:
    """(sup over |n| <= n_max of |mu_hat(n)|, its rounding slack), summed
    directly in numpy from each atom's angle 2 pi turns + sum_i c_i g_i and
    the density's coefficients, with no natspec transform code.  The slack
    charges each atom 8 u (n_max |angle| + K + 8) of its modulus, past the
    roundings of its angle, of n times it, of the exponential and of the sum
    of K terms."""
    u = 2.0 ** -53
    ns = np.arange(-n_max, n_max + 1)
    angles = np.array([2 * math.pi * float(a.turns)
                       + sum(c * v for c, v in zip(a.coeffs, mu.basis.values))
                       for a in mu.disc.atoms], dtype=np.float64)
    weights = np.array(list(mu.disc.atoms.values()), dtype=np.complex128)
    values = np.exp(-1j * np.outer(ns, angles)) @ weights if len(weights) else 0 * ns + 0j
    for k, c in mu.ac.coeffs.items():
        if abs(k) <= n_max:
            values[k + n_max] += c
    slack = 8 * u * float(np.abs(weights) @ (n_max * np.abs(angles) + len(weights) + 8))
    return float(np.max(np.abs(values))), slack


@st.composite
def _cli_measures(draw):
    # turns in multiples of 1/q for q <= 6, at most 5 atoms over at most two
    # generators, and a density of degree at most 3 on half the draws
    basis = GeneratorBasis.from_pairs((("a", math.sqrt(2)), ("b", math.sqrt(3))))
    q = draw(st.integers(1, 6))
    weight = st.builds(complex, st.integers(-1000, 1000), st.integers(-1000, 1000))
    atoms = draw(st.lists(st.tuples(st.integers(0, q - 1), st.integers(-3, 3),
                                    st.integers(-3, 3), weight), min_size=1, max_size=5))
    disc = DiscreteMeasure.from_atoms(basis, [(basis.angle(Fraction(k, q), (a, b)), w / 1000)
                                              for k, a, b, w in atoms])
    density = draw(st.one_of(st.just({}), st.dictionaries(st.integers(-3, 3), weight,
                                                          min_size=1, max_size=4)))
    if not density:
        return disc
    return MixedMeasure(disc, MixedMeasure.from_density(
        basis, {k: c / 1000 for k, c in density.items()}).ac)


@settings(max_examples=30, deadline=None)
@given(_cli_measures())
def test_spectral_radius_writes_the_library_bracket_bit_for_bit(mu):
    # two routes: the command's two keys are radius_bracket's ends, and the
    # upper end is at least the transform sup that numpy sums directly
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "mu.json", Path(tmp) / "radius.json"
        write_json(path, measure_to_json(mu))
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["spectral-radius", "--input", str(path), "--out", str(out)]) == 0
        data = json.loads(out.read_text(encoding="utf-8"))
    (lower, upper), _ = radius_bracket(mu, 6)
    assert (data["torus_lower"], data["final_bound"]) == (lower, upper)
    sup, slack = _np_transform_sup_with_slack(as_mixed(mu), 256)
    assert lower <= upper and sup <= upper + slack


def _one_axis_measure() -> DiscreteMeasure:
    """1 + z - z^2 on one generator: radius sqrt5, norm 3, exponent span 2."""
    basis = GeneratorBasis.from_pairs((("a", math.sqrt(2)),))
    return DiscreteMeasure.from_atoms(basis, [(basis.zero(), 1.0), (basis.generator("a"), 1.0),
                                              (basis.angle(coeffs=(2,)), -1.0)])


def test_spectral_radius_grid_is_the_finest_lattice_walked(tmp_path, monkeypatch, capsys):
    # without --grid the walks go on to grid 32, where the bracket closes;
    # --grid 16 or 24 stops them at 16, whose upper end is 4% wide, so the
    # norm-root squarings run and the smaller upper end is kept
    mu = _one_axis_measure()
    path, out = tmp_path / "mu.json", tmp_path / "radius.json"
    write_json(path, measure_to_json(mu))
    grids = []
    real = spectrum._lattice_max
    monkeypatch.setattr(spectrum, "_lattice_max",
                        lambda p, grid, classes=None: grids.append(grid)
                        or real(p, grid, classes))
    for flags, walked in (([], [16, 32]), (["--grid", "24"], [16]), (["--grid", "16"], [16])):
        grids.clear()
        assert main(["spectral-radius", "--input", str(path), "--out", str(out),
                     "--kmax", "4"] + flags) == 0
        assert grids == walked
    lines = capsys.readouterr().out.splitlines()
    assert [ln for ln in lines if ln.startswith("#")] == lines[1:4:2] and len(lines) == 5
    lower, upper = spectral_bracket(mu, 16)
    report = fekete_bound(mu, 4)
    assert lines[-2] == (f"# radius fallback: mu ran the norm-root squarings over k <= 4, "
                         f"because the lattice walks ended at [{lower!r}, {upper!r}], wider "
                         f"than 2^-6 of the upper end")
    assert report.final_bound < upper
    assert json.loads(out.read_text(encoding="utf-8")) == {
        "torus_lower": lower, "final_bound": report.final_bound,
        "fekete": {"entries": [list(e) for e in report.entries],
                   "final_bound": report.final_bound, "budget_hit": False}}


def test_bench_bracket_command_line_runs_in_a_child_process(tmp_path):
    # the bracket benchmark's command line on an order-24 measure over four
    # generators: exit 0 and both keys it reads
    basis = GeneratorBasis.from_pairs(FRESH_GENERATOR_VALUES[:4])
    mu = DiscreteMeasure.from_atoms(basis, [
        (basis.angle(Fraction(1, 8), (1, 0, -1, 2)), 0.5 - 0.25j),
        (basis.angle(Fraction(2, 3), (0, 1, 1, 0)), -0.75),
        (basis.angle(Fraction(5, 24), (-2, 1, 0, 1)), 0.125j),
        (basis.angle(Fraction(0), (1, 1, 1, 1)), 0.3 + 0.1j),
        (basis.angle(Fraction(1, 2), (2, -1, 0, 0)), -0.2j),
        (basis.angle(Fraction(7, 12), (0, 0, 2, -1)), 0.6)])
    assert char_polynomial(mu).order == 24 and char_polynomial(mu).dims == 4
    path, out = tmp_path / "mu.json", tmp_path / "sr.json"
    write_json(path, measure_to_json(mu))
    env = {**os.environ, "PYTHONPATH": str(Path(natspec.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-m", "natspec", "spectral-radius", "--input",
                           str(path), "--out", str(out), "--kmax", "3", "--grid", "24"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0 and proc.stderr == ""
    data = json.loads(out.read_text(encoding="utf-8"))
    assert 0.0 < data["torus_lower"] <= data["final_bound"]


def test_kronecker_flags_and_solution_file(tmp_path, capsys):
    out = tmp_path / "solution.json"
    rc = main(["kronecker", "--alpha", repr(math.sqrt(2)), "--beta", repr(math.sqrt(3)),
               "--x", "0", "--y", "0", "--eps", "0.3", "--min-abs-n", "1",
               "--out", str(out)])
    stdout = capsys.readouterr().out
    assert rc == 0
    assert stdout.startswith("n 40  err_alpha 0.0198744032001446")
    data = json.loads(out.read_text(encoding="utf-8"))
    assert data["n"] == 40 and data["evaluations"] == 79


def test_kronecker_problem_file_input(tmp_path, capsys):
    problem = KroneckerProblem(alpha=math.sqrt(2), beta=math.sqrt(3), target_x=0.0,
                               target_y=0.0, epsilon=0.3, min_abs_n=1, parity="odd")
    path = tmp_path / "problem.json"
    write_json(path, asdict(problem))
    rc = main(["kronecker", "--input", str(path)])
    stdout = capsys.readouterr().out
    assert rc == 0
    n = int(stdout.split()[1])
    assert n % 2 == 1


def test_kronecker_solver_flags_override_problem_file(tmp_path, capsys):
    problem = KroneckerProblem(alpha=math.sqrt(2), beta=math.sqrt(3), target_x=0.0,
                               target_y=0.0, epsilon=0.3, min_abs_n=1, parity="odd")
    path = tmp_path / "problem.json"
    write_json(path, asdict(problem))
    rc = main(["kronecker", "--input", str(path), "--parity", "even"])
    stdout = capsys.readouterr().out
    assert rc == 0
    n = int(stdout.split()[1])
    assert n % 2 == 0


def test_kronecker_problem_flags_conflict_with_input_exit_2(tmp_path, capsys):
    problem = KroneckerProblem(alpha=math.sqrt(2), beta=math.sqrt(3), target_x=0.0,
                               target_y=0.0, epsilon=0.3)
    path = tmp_path / "problem.json"
    write_json(path, asdict(problem))
    rc = main(["kronecker", "--input", str(path), "--alpha", "1.0"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "--alpha" in err and "cannot be combined with --input" in err


def test_kronecker_missing_flags_exit_2(capsys):
    rc = main(["kronecker", "--alpha", "1.0"])
    assert rc == 2
    assert "--beta" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--x", "--eps"])
def test_kronecker_non_finite_flag_exits_2(flag, capsys):
    args = {"--alpha": "1.41", "--beta": "1.73", "--x": "0.5", "--y": "0.5", "--eps": "0.1"}
    args[flag] = "nan"
    rc = main(["kronecker", *[tok for pair in args.items() for tok in pair]])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "must be finite" in err


def test_kronecker_non_finite_problem_file_exits_2(tmp_path, capsys):
    problem = asdict(KroneckerProblem(
        alpha=1.41, beta=1.73, target_x=0.5, target_y=0.5, epsilon=0.1))
    problem["target_x"] = math.nan
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem), encoding="utf-8")  # json writes a NaN token
    rc = main(["kronecker", "--input", str(path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "must be finite" in err


def test_kronecker_not_found_exit_1(capsys):
    rc = main(["kronecker", "--alpha", "1.41", "--beta", "1.73", "--x", "0",
               "--y", "0", "--eps", "1e-9", "--nmax", "100", "--min-abs-n", "1"])
    err = capsys.readouterr().err
    assert rc == 1
    assert "best n=98" in err


def test_module_entry_point():
    env = {**os.environ, "PYTHONPATH": str(Path(natspec.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "natspec", "kronecker", "--alpha", "1.4142135623730951",
         "--beta", "1.7320508075688772", "--x", "1.0", "--y", "2.0", "--eps", "0.1"],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("n ")


@pytest.mark.parametrize("tol", ["1e-6", "inf", "nan"])
def test_decompose_refuses_unusable_tol(tmp_path, measure_file, tol, capsys):
    # 1e-6 asks for a 183 TiB disk grid; inf and nan have no grid at all
    out = tmp_path / "out"
    rc = main(["decompose", "--input", str(measure_file), "--out", str(out), "--tol", tol])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("error: tol ") and captured.err.count("\n") == 1
    assert not list(tmp_path.rglob("nu*.json"))


@pytest.mark.parametrize("tol", ["1e-6", "inf", "nan"])
def test_density_scan_refuses_unusable_tol(tmp_path, tol, capsys):
    out = tmp_path / "scan.csv"
    rc = main(["density-scan", "--out", str(out), "--N", "4", "--tol", tol])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("error: tol ") and captured.err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("args", [["--N", "21"], ["--N", "40"], ["--alpha", "nan"],
                                  ["--beta", "inf"], ["--alpha=-inf"], ["--alpha", "7"],
                                  ["--alpha", "0"], ["--alpha", "1.5", "--beta", "1.5"]])
def test_density_scan_refuses_unbounded_or_non_finite_input(tmp_path, args, capsys):
    # --N 40 would ask for 2^41 transform values (16 TiB); nan and inf
    # angles have no transform values at all; the angles are the generators
    # of a basis, so each lies in (0, 2 pi) and they differ: the cloud at
    # alpha >= 2 pi is the one at alpha mod 2 pi, and at alpha = beta a
    # curve, not a disk.  Each is refused before any array is built
    out = tmp_path / "scan.csv"
    rc = main(["density-scan", "--out", str(out), *args])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("args, refusal", [
    (["--N", "20", "--tol", "1e-3"], "error: tol 0.001 asks for more than"),
    (["--N", "16", "--tol", "0.004"], "error: --N 16 and --tol 0.004 ask for 30634539 disk grid "
                                      "queries (785501 points x 13 levels x 3)")])
def test_density_scan_refuses_its_work_before_doing_any(tmp_path, args, refusal, capsys):
    # the scan costs about (disk grid points) x (N - 3 levels) x 3 queries:
    # 12.6 M grid points at tol 1e-3, and 30.6 M queries at tol 0.004
    out = tmp_path / "scan.csv"
    started = time.perf_counter()
    rc = main(["density-scan", "--out", str(out), *args])
    assert time.perf_counter() - started < 1.0
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith(refusal) and captured.err.count("\n") == 1
    assert not out.exists()
    # the default scan's 125 801 points x 13 levels x 3 stay within the limit
    assert 125_801 * 13 * 3 <= cli._MAX_DENSITY_SCAN_QUERIES


def test_density_scan_weighs_each_query_by_the_cloud_it_searches(tmp_path, monkeypatch,
                                                                 capsys):
    # --N 20 --tol 0.01 asks for 6.4 M queries, within the query limit, but
    # at N = 2^20 each searches a cloud of up to 2^21 + 1 points (7.2 s in
    # all); weighted by log2 of those sizes it is 79 M, above the limit
    out = tmp_path / "scan.csv"
    started = time.perf_counter()
    rc = main(["density-scan", "--out", str(out), "--N", "20", "--tol", "0.01"])
    assert time.perf_counter() - started < 1.0
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("error: --N 20 and --tol 0.01 ask for 7.916e+07 disk grid "
                                   "queries weighted by log2")
    assert captured.err.count("\n") == 1
    assert not out.exists()
    # the default --N 16 (50.7 M) stays within both limits: with the
    # coverings stubbed out, the scan runs
    monkeypatch.setattr(cli, "_pair_covering", lambda *args: 0.0)
    assert main(["density-scan", "--out", str(out), "--N", "16"]) == 0
    assert out.read_text(encoding="utf-8").splitlines()[-1] == "65536,0.0,0.0,0.0"


@pytest.mark.parametrize("nmax", [2 ** 31 + 1, 2 ** 63 - 1])
def test_kronecker_refuses_n_max_above_the_cap(tmp_path, nmax, capsys):
    # an unsatisfiable eps would scan every |n| <= nmax; above 2^31 the
    # request is refused before any scan, from flags and from a problem file
    out = tmp_path / "solution.json"
    flags = ["--alpha", "1.41", "--beta", "1.73", "--x", "0", "--y", "0", "--eps", "1e-30"]
    rc = main(["kronecker", *flags, "--nmax", str(nmax), "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "n_max must be at most 2147483648" in captured.err
    assert not out.exists()

    problem = asdict(KroneckerProblem(
        alpha=1.41, beta=1.73, target_x=0.0, target_y=0.0, epsilon=1e-30))
    problem["n_max"] = nmax
    path = tmp_path / "problem.json"
    write_json(path, problem)
    rc = main(["kronecker", "--input", str(path), "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "n_max must be at most 2147483648" in captured.err
    assert not out.exists()


def test_kronecker_refuses_min_abs_n_above_n_max(tmp_path, capsys):
    out = tmp_path / "solution.json"
    rc = main(["kronecker", "--alpha", "1.41", "--beta", "1.73", "--x", "0", "--y", "0",
               "--eps", "0.1", "--nmax", "10", "--min-abs-n", "20", "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == "error: min_abs_n must lie in 0..n_max = 10, got 20\n"
    assert not out.exists()


def test_kronecker_refuses_a_huge_angle_before_any_scan(tmp_path, capsys):
    # n * 1e300 has no meaningful phase in long double: refused up front
    out = tmp_path / "solution.json"
    rc = main(["kronecker", "--alpha", "1e300", "--beta", "1.7", "--x", "0.3", "--y", "0",
               "--eps", "1e-30", "--nmax", "100000", "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "route slack" in captured.err
    assert not out.exists()


def test_decompose_defaults_are_the_options_defaults():
    args = cli.build_parser().parse_args(["decompose", "--input", "m", "--out", "o"])
    opts = DecompositionOptions()
    assert (args.N, args.tol, args.kmax, args.radius_mode) == (
        opts.verify_N, opts.verify_tol, opts.fekete_k_max, opts.radius_mode)
    params = inspect.signature(verify_decomposition).parameters
    assert (params["N"].default, params["tol"].default) == (opts.verify_N, opts.verify_tol)


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))


@pytest.mark.parametrize("command, out", [("decompose", "out"),
                                          ("spectral-radius", "radius.json")])
@pytest.mark.parametrize("k", [10 ** 9, 2 ** 70])
def test_high_degree_density_exits_1_before_any_quadrature(tmp_path, command, out, k):
    # the norm quadrature would take 64 k points; the degree is refused first,
    # in a child process whose address space is capped at 3 GiB
    path = tmp_path / "density.json"
    path.write_text(json.dumps({"kind": "mixed", "basis": [], "atoms": [],
                                "ac": [{"k": k, "re": 0.5, "im": 0.0}]}))
    env = {**os.environ, "PYTHONPATH": str(Path(natspec.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-m", "natspec", command, "--input", str(path),
                           "--out", str(tmp_path / out)],
                          env=env, capture_output=True, text=True, timeout=120,
                          preexec_fn=_limit_address_space)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == f"error: density degree {k} is above the limit 65536\n"
    assert not (tmp_path / out).exists()


def test_importing_the_cli_loads_no_scipy():
    # scipy serves only the KD-tree covering; importing it costs a cold
    # start of kronecker or spectral-radius about a third of a second.
    # concurrent.futures serves only the spread torus walk's pool
    env = {**os.environ, "PYTHONPATH": str(Path(natspec.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c",
                           "import sys, natspec.cli; "
                           "print('scipy' in sys.modules, 'concurrent.futures' in sys.modules)"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0 and proc.stdout == "False False\n"


# -- the BLAS thread policy ---------------------------------------------------

def _bracket_measure_file(tmp_path) -> Path:
    """Six atoms over four generators with turn denominator 16: a torus of
    16 x 16^4 points, at the spread walk's threshold."""
    rng = default_rng(1905)
    basis = GeneratorBasis.from_pairs(FRESH_GENERATOR_VALUES[:4])
    atoms = [(basis.angle(Fraction(int(rng.integers(0, 16)) if k else 1, 16),
                          tuple(int(k % 4 == i) + int(c)
                                for i, c in enumerate(rng.integers(-1, 2, 4)))),
              complex(*rng.uniform(-1, 1, 2))) for k in range(6)]
    path = tmp_path / "bracket.json"
    write_json(path, measure_to_json(DiscreteMeasure.from_atoms(basis, atoms)))
    return path


def test_cli_runs_at_one_blas_thread_and_restores_the_host_count(tmp_path, monkeypatch,
                                                                 capsys):
    functions = blas._thread_functions()
    if functions is None:
        pytest.skip("numpy has no bundled OpenBLAS with thread-count symbols")
    get, set_ = functions
    seen = []
    for name, handler in list(cli._DISPATCH.items()):
        monkeypatch.setitem(cli._DISPATCH, name,
                            lambda args, run=handler: seen.append(blas.blas_threads()) or run(args))
    path = _bracket_measure_file(tmp_path)
    runs = [(0, ["spectral-radius", "--input", str(path), "--out", str(tmp_path / "sr.json"),
                 "--kmax", "1", "--grid", "16"]),
            (1, ["kronecker", "--alpha", "1.41", "--beta", "1.73", "--x", "1", "--y", "2",
                 "--eps", "1e-9", "--nmax", "10"]),
            (2, ["spectral-radius", "--input", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path / "x.json")])]
    host = get()
    try:
        set_(2)
        for code, argv in runs:
            assert main(argv) == code
            assert get() == 2
    finally:
        set_(host)
    capsys.readouterr()
    assert seen == [1, 1, 1]


_IMPORT_PROBE = """
import ctypes
from pathlib import Path
import numpy as np
libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
get = None
for path in libs.glob("*openblas*"):
    get = getattr(ctypes.CDLL(str(path)), "scipy_openblas_get_num_threads64_", None)
if get is None:
    print("no symbol")
else:
    before = get()
    import natspec, natspec.cli
    print(before, get())
"""


def test_importing_the_cli_keeps_the_host_blas_thread_count():
    env = {**os.environ, "PYTHONPATH": str(Path(natspec.__file__).resolve().parents[1]),
           "OPENBLAS_NUM_THREADS": "2"}
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    if proc.stdout == "no symbol\n":
        pytest.skip("numpy has no bundled scipy-openblas")
    assert proc.stdout == "2 2\n"


@pytest.mark.parametrize("loader", ["found", "not found"])
def test_cli_walk_spreads_only_when_blas_runs_one_thread(tmp_path, monkeypatch, capsys,
                                                         loader):
    if loader == "found" and blas._thread_functions() is None:
        pytest.skip("numpy has no bundled OpenBLAS with thread-count symbols")
    if loader == "not found":
        monkeypatch.setattr(blas, "_thread_functions", lambda: None)
    counts = []
    real = spectrum._shares
    monkeypatch.setattr(spectrum, "_cpus", lambda: 2)
    monkeypatch.setattr(spectrum, "_shares",
                        lambda classes, points: counts.append(len(real(classes, points)))
                        or real(classes, points))
    path, out = _bracket_measure_file(tmp_path), tmp_path / "sr.json"
    rc = main(["spectral-radius", "--input", str(path), "--out", str(out),
               "--kmax", "1", "--grid", "16"])
    assert rc == 0 and "bracket [" in capsys.readouterr().out
    assert counts == [2 if loader == "found" else 1]
    # the same bits as the library's walk on the calling thread
    p = char_polynomial(measure_from_json(read_json(path)))
    assert json.loads(out.read_text(encoding="utf-8"))["torus_lower"] == torus_max(p, 16)
