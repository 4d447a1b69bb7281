"""Command line interface: subcommands, exit codes, deterministic outputs."""

import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path

import pytest

import natspec
from natspec import cli
from natspec.angles import GeneratorBasis
from natspec.cli import main
from natspec.measures import DiscreteMeasure, MixedMeasure
from natspec.sampling import default_rng, random_discrete
from natspec.serialize import measure_from_json, measure_to_json, write_json
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
                            "not 'fekete'\n")
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


def test_density_scan_rejects_tiny_exponent(tmp_path, capsys):
    rc = main(["density-scan", "--out", str(tmp_path / "s.csv"), "--N", "3"])
    assert rc == 2
    capsys.readouterr()


def test_spectral_radius_brackets_discrete(tmp_path, measure_file, capsys):
    out = tmp_path / "radius.json"
    rc = main(["spectral-radius", "--input", str(measure_file), "--out", str(out)])
    stdout = capsys.readouterr().out
    assert rc == 0
    assert "bracket [" in stdout and "upper bound " in stdout
    data = json.loads(out.read_text(encoding="utf-8"))
    assert data["torus_lower"] <= data["final_bound"] + 1e-6
    assert isinstance(data["budget_hit"], bool)
    assert [k for k, _ in data["entries"]] == list(range(len(data["entries"])))


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
        basis, [(basis.from_turns(Fraction(j, 65)), 1.0 / 65) for j in range(65)])
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


def test_spectral_radius_torsion_blowup_exits_1(tmp_path, capsys):
    # torsion order lcm(1000003, 999983, 997), about 10^15 classes
    basis = GeneratorBasis.from_pairs((("a", math.sqrt(2.0)),))
    mu = DiscreteMeasure.from_atoms(basis, [
        (basis.from_turns(Fraction(1, 1000003)), 0.25),
        (basis.from_turns(Fraction(1, 999983)) + basis.generator("a"), 0.25),
        (basis.from_turns(Fraction(1, 997)), 0.5)])
    path = tmp_path / "lcm.json"
    write_json(path, measure_to_json(mu))
    out = tmp_path / "radius.json"
    rc = main(["spectral-radius", "--input", str(path), "--out", str(out), "--kmax", "0"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "torsion classes" in captured.err
    assert not out.exists()


def test_spectral_radius_refuses_the_grid_before_any_squaring(tmp_path, measure_file,
                                                              monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(cli, "fekete_bound", lambda *a: calls.append(a))
    out = tmp_path / "radius.json"
    rc = main(["spectral-radius", "--input", str(measure_file), "--out", str(out),
               "--grid", "100000000"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err.startswith("error: the character torus has ")
    assert captured.err.count("\n") == 1
    assert calls == [] and not out.exists()


def test_decompose_exact_discrete_over_four_generators(tmp_path, capsys):
    basis = GeneratorBasis.from_pairs((("sqrt2", math.sqrt(2)), ("sqrt3", math.sqrt(3)),
                                       ("ln3", math.log(3)), ("ln5", math.log(5))))
    mu = DiscreteMeasure.from_atoms(basis, [
        (basis.angle(Fraction(1, 3), (1, 1, 0, 0)), 0.5),
        (basis.angle(Fraction(0), (0, 1, 1, 1)), 0.25j)])
    path = tmp_path / "four.json"
    write_json(path, measure_to_json(mu))
    out = tmp_path / "out"
    rc = main(["decompose", "--input", str(path), "--out", str(out),
               "--radius-mode", "exact_discrete", "--kmax", "3"])
    assert rc == 0, capsys.readouterr().err
    # 6 torsion classes x 128^4 points exceed the walker's limit, so the
    # lower ends come from grid 32
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["passed"] is True
    for lo, hi in report["radius_brackets"]:
        assert 0.0 < lo <= hi


def test_decompose_at_huge_denominator_exits_1(tmp_path, capsys):
    # one atom at 1/(2**38 + 7) turns: transforms must not build a length-q
    # root table (2 TiB), and check (f) then stops on the torus budget
    basis = GeneratorBasis.from_pairs((("a", math.sqrt(2.0)),))
    mu = DiscreteMeasure.from_atoms(basis, [(basis.from_turns(Fraction(1, 274877906951)), 1.0)])
    path = tmp_path / "far.json"
    write_json(path, measure_to_json(mu))
    rc = main(["decompose", "--input", str(path), "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "torsion classes" in captured.err


@pytest.mark.parametrize("n", ["0", "-1", "1000000000000"])
def test_decompose_refuses_N_out_of_range(tmp_path, measure_file, n, capsys):
    out = tmp_path / "out"
    rc = main(["decompose", "--input", str(measure_file), "--out", str(out), "--N", n])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == "error: N must be between 1 and 2**20\n"
    assert not out.exists()


def test_spectral_radius_skips_lower_bound_for_densities(tmp_path, basis, capsys):
    path = tmp_path / "density.json"
    write_json(path, measure_to_json(MixedMeasure.from_density(basis, {1: 1.0, -2: 0.5})))
    out = tmp_path / "radius.json"
    assert main(["spectral-radius", "--input", str(path), "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "bracket" not in stdout
    data = json.loads(out.read_text(encoding="utf-8"))
    assert "torus_lower" not in data


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
    proc = subprocess.run(
        [sys.executable, "-m", "natspec", "kronecker", "--alpha", "1.4142135623730951",
         "--beta", "1.7320508075688772", "--x", "1.0", "--y", "2.0", "--eps", "0.1"],
        capture_output=True, text=True)
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
                                  ["--beta", "inf"], ["--alpha=-inf"]])
def test_density_scan_refuses_unbounded_or_non_finite_input(tmp_path, args, capsys):
    # --N 40 would ask for 2^41 transform values (16 TiB); nan and inf
    # angles have no transform values at all; both are refused before any
    # array is built
    out = tmp_path / "scan.csv"
    rc = main(["density-scan", "--out", str(out), *args])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert not out.exists()


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
