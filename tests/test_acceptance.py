"""Top-level acceptance gate: ten end-to-end criteria with pinned budgets.

Each test covers one shipped guarantee and enforces both the numerical
tolerance and the wall-clock budget for that guarantee.  Run with ``-v`` to
get one pass/fail line per criterion (plus a timing line under ``-s``).
"""

import math
import time

import numpy as np

from natspec.angles import GeneratorBasis, basis_fresh_generators
from natspec.cli import main
from natspec.decomposition import DecompositionOptions, decompose, verify_decomposition
from natspec.kronecker import hit_target, pair_transform_values
from natspec.measures import (DiscreteMeasure, as_mixed, convolve, make_rho,
                              make_theta0, make_theta1, parity_projections, tv_norm)
from natspec.sampling import default_rng, random_discrete, random_mixed
from natspec.spectrum import (char_polynomial, character_values, disk_grid, fekete_bound,
                              torus_max)
from oracles import hausdorff

BASIS = GeneratorBasis.from_pairs((("a", math.sqrt(2)), ("b", math.sqrt(3))))
EXT = BASIS.extended(basis_fresh_generators(BASIS, 2))
RHO_EXT = make_rho(EXT.generator("ln3"), EXT.generator("ln5"), EXT)

# Covering radii of the unit disk by the two-point transform values at
# N = 2**16, measured once offline: 0.0112 (all), 0.0127 (even), 0.0127 (odd).
TERMINAL_COVERING_BOUND = 0.02


def _report(number: int, budget: float, started: float, detail: str) -> None:
    elapsed = time.monotonic() - started
    print(f"criterion {number:2d} PASS in {elapsed:.2f}s (budget {budget:.0f}s): {detail}")
    assert elapsed < budget


def _embed_to_ext(mu: DiscreteMeasure) -> DiscreteMeasure:
    """Re-declare a measure on BASIS over the four-generator extension."""
    pairs = [(EXT.angle(a.turns, a.coeffs + (0, 0)), w) for a, w in mu.atoms.items()]
    return DiscreteMeasure.from_atoms(EXT, pairs)


def test_criterion_01_projection_algebra_is_exact():
    started = time.monotonic()
    theta0, theta1 = make_theta0(EXT), make_theta1(EXT)
    delta0 = DiscreteMeasure.from_atoms(EXT, [(EXT.zero(), 1.0)])
    assert convolve(theta0, theta1).is_zero
    assert convolve(theta0, theta0) == theta0
    assert convolve(theta1, theta1) == theta1
    assert theta0 + theta1 == delta0
    rng = default_rng(1001)
    for _ in range(50):
        mu = _embed_to_ext(random_discrete(rng, BASIS))
        m0, m1 = parity_projections(mu)
        assert m0 + m1 == mu
        assert convolve(convolve(m0, RHO_EXT), theta1).is_zero
        assert convolve(convolve(m1, RHO_EXT), theta0).is_zero
    _report(1, 5.0, started, "projection identities exact on 50 random measures")


def test_criterion_02_convolution_theorem():
    started = time.monotonic()
    rng = default_rng(1002)
    ns = np.arange(-64, 65)
    worst = 0.0
    for _ in range(100):
        a = random_mixed(rng, BASIS)
        b = random_mixed(rng, BASIS)
        resid = np.max(np.abs(convolve(a, b).transform(ns)
                              - a.transform(ns) * b.transform(ns)))
        worst = max(worst, float(resid))
    assert worst < 1e-10
    _report(2, 30.0, started, f"transform multiplicativity on 100 pairs, worst {worst:.2e}")


def test_criterion_03_decomposition_identity_and_parity_laws():
    started = time.monotonic()
    rng = default_rng(1003)
    worst = 0.0
    for _ in range(100):
        mu = random_mixed(rng, BASIS)
        # A shallow norm-root depth still yields certified radii; the laws
        # under test hold for any valid choice.
        result = decompose(mu, DecompositionOptions(verify=False, fekete_k_max=1))
        report = verify_decomposition(mu, result, N=128)
        checks = {c.name: c for c in report.checks}
        assert checks["identity_structural"].residual < 1e-12
        for name in ("identity_transform", "parity_nu0", "parity_nu1"):
            assert checks[name].residual < 1e-9, f"{name}: {checks[name].residual}"
            worst = max(worst, checks[name].residual)
        assert len(as_mixed(result.nu2).disc.atoms) <= 8
    _report(3, 60.0, started, f"identity and parity laws on 100 measures, worst {worst:.2e}")


def test_criterion_04_unit_radius_of_the_two_point_average():
    started = time.monotonic()
    rho = make_rho(BASIS.generator("a"), BASIS.generator("b"), BASIS)
    fekete = fekete_bound(rho, k_max=4)
    assert all(abs(bound - 1.0) <= 1e-12 for _, bound in fekete.entries)
    lower = torus_max(char_polynomial(rho), 512)
    assert 0.999 <= lower <= 1.0 + 1e-12
    _report(4, 30.0, started,
            f"norm-root bounds all within 1e-12 of 1, torus bound {lower!r}")


def test_criterion_05_transform_cloud_density_scan(tmp_path):
    started = time.monotonic()
    out = tmp_path / "scan.csv"
    assert main(["density-scan", "--out", str(out), "--N", "16"]) == 0
    rows = [ln.split(",") for ln in
            out.read_text(encoding="utf-8").strip().split("\n")[2:]]
    assert rows[0][0] == "16" and rows[-1][0] == "65536"
    for col in (1, 2, 3):
        vals = [float(r[col]) for r in rows]
        assert all(b <= a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < TERMINAL_COVERING_BOUND
    terminal = ", ".join(f"{float(rows[-1][c]):.4f}" for c in (1, 2, 3))
    _report(5, 120.0, started, f"covering radii nonincreasing, terminal {terminal}")


def test_criterion_06_target_hitting_with_parity():
    started = time.monotonic()
    rng = default_rng(1006)
    alpha, beta = math.sqrt(2), math.sqrt(3)
    for _ in range(200):
        w = complex(math.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform()))
        for parity in ("even", "odd"):
            n = hit_target(alpha, beta, w, 0.05, parity=parity, n_max=10 ** 6)
            assert (n % 2 == 0) == (parity == "even")
            value = pair_transform_values(np.array([n], dtype=np.int64), alpha, beta)[0]
            assert abs(value - w) < 0.05
    _report(6, 120.0, started, "200 disk targets hit at 0.05 for each parity, re-verified")


def test_criterion_07_even_piece_has_disk_spectrum():
    started = time.monotonic()
    rng = default_rng(1007)
    worst_gap, worst_excess = 0.0, -math.inf
    for _ in range(20):
        raw = random_discrete(rng, BASIS)
        mu = raw.scale(2.0 / tv_norm(raw))
        result = decompose(mu, DecompositionOptions(verify=False))
        cloud = result.nu0.transform(np.arange(-10_000, 10_001))
        gap = hausdorff(cloud, disk_grid(result.R0, 0.05))
        worst_gap = max(worst_gap, float(gap))
        assert gap < 0.1
        sample = character_values(char_polynomial(result.nu0), 16)
        excess = float(np.max(np.abs(sample))) - result.R0
        worst_excess = max(worst_excess, excess)
        assert excess <= 1e-6
    _report(7, 180.0, started,
            f"20 even pieces: worst disk gap {worst_gap:.4f}, worst excess {worst_excess:.2e}")


def test_criterion_08_radius_brackets_tighten():
    started = time.monotonic()
    rng = default_rng(1008)
    for _ in range(50):
        mu = random_discrete(rng, BASIS)
        p = char_polynomial(mu)
        lower_coarse = torus_max(p, 32)
        lower_fine = torus_max(p, 64)
        upper_coarse = fekete_bound(mu, k_max=3).final_bound
        upper_fine = fekete_bound(mu, k_max=6).final_bound
        assert lower_fine <= upper_fine + 1e-6
        assert (upper_fine - lower_fine) <= (upper_coarse - lower_coarse) + 1e-9
    _report(8, 180.0, started, "50 brackets valid and nonincreasing under refinement")


def test_criterion_09_doubled_radii_still_verify():
    started = time.monotonic()
    rng = default_rng(1003)  # the same population as criterion 3
    for _ in range(100):
        mu = random_mixed(rng, BASIS)
        base = decompose(mu, DecompositionOptions(verify=False, fekete_k_max=1))
        doubled = decompose(mu, DecompositionOptions(
            radius_mode="manual", manual_radii=(2.0 * base.R0, 2.0 * base.R1),
            verify=False))
        report = verify_decomposition(mu, doubled, N=10_000)
        for check in report.checks:
            assert check.passed, f"{check.name}: {check.residual} > {check.threshold}"
    _report(9, 60.0, started, "100 decompositions verify end to end with doubled radii")


def test_criterion_10_reproducible_check_suite(tmp_path, capsys):
    started = time.monotonic()
    outputs, bodies = [], []
    for name in ("one.txt", "two.txt"):
        path = tmp_path / name
        assert main(["verify", "--out", str(path)]) == 0
        outputs.append(capsys.readouterr().out)
        lines = path.read_text(encoding="utf-8").split("\n")
        assert lines[0].startswith("# generated ")
        bodies.append("\n".join(lines[1:]))
    assert outputs[0] == outputs[1]
    assert bodies[0] == bodies[1]
    assert "suite PASS" in outputs[0]
    with capsys.disabled():
        _report(10, 60.0, started, "seeded suite output byte-identical across runs")
