"""Command line interface: subcommands, exit codes, deterministic outputs."""

import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import natspec
from natspec.angles import GeneratorBasis
from natspec.cli import main
from natspec.measures import DiscreteMeasure, MixedMeasure
from natspec.sampling import default_rng, random_discrete
from natspec.serialize import (dumps, kronecker_problem_to_json, measure_from_json,
                               measure_to_json, write_json)
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
               "--N", "10000", "--grid", "128"])
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
                     "--N", "10000", "--grid", "128"]) == 0
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
    write_json(path, kronecker_problem_to_json(problem))
    rc = main(["kronecker", "--input", str(path)])
    stdout = capsys.readouterr().out
    assert rc == 0
    n = int(stdout.split()[1])
    assert n % 2 == 1


def test_kronecker_solver_flags_override_problem_file(tmp_path, capsys):
    problem = KroneckerProblem(alpha=math.sqrt(2), beta=math.sqrt(3), target_x=0.0,
                               target_y=0.0, epsilon=0.3, min_abs_n=1, parity="odd")
    path = tmp_path / "problem.json"
    write_json(path, kronecker_problem_to_json(problem))
    rc = main(["kronecker", "--input", str(path), "--parity", "even"])
    stdout = capsys.readouterr().out
    assert rc == 0
    n = int(stdout.split()[1])
    assert n % 2 == 0


def test_kronecker_problem_flags_conflict_with_input_exit_2(tmp_path, capsys):
    problem = KroneckerProblem(alpha=math.sqrt(2), beta=math.sqrt(3), target_x=0.0,
                               target_y=0.0, epsilon=0.3)
    path = tmp_path / "problem.json"
    write_json(path, kronecker_problem_to_json(problem))
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
    problem = kronecker_problem_to_json(KroneckerProblem(
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
