"""Splitting a measure into three pieces with disk-shaped transform closures."""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from natspec import decomposition
from natspec.decomposition import (DecompositionOptions, decompose,
                                   verify_decomposition)
from natspec.errors import BudgetExceededError, RadiusValidationError
from natspec.measures import DiscreteMeasure, MixedMeasure, as_mixed, tv_norm
from natspec.sampling import default_rng, random_discrete, random_mixed

ALL_CHECKS = ("identity_structural", "identity_transform", "nu2_support",
              "orthogonality", "parity_nu0", "parity_nu1", "modulus_nu0",
              "modulus_nu1", "density_nu0", "density_nu1")
DISCRETE_ONLY_CHECKS = ("spectrum_membership", "spectrum_coverage")


def test_random_mixed_inputs_pass_all_checks(basis):
    rng = default_rng(404)
    for _ in range(3):
        mu = random_mixed(rng, basis)
        result = decompose(mu)
        assert result.report.passed
        assert result.report.names() == ALL_CHECKS


def test_random_discrete_inputs_also_check_spectrum(basis):
    rng = default_rng(505)
    for _ in range(2):
        mu = random_discrete(rng, basis)
        result = decompose(mu)
        assert result.report.passed
        assert result.report.names() == ALL_CHECKS + DISCRETE_ONLY_CHECKS


@pytest.mark.parametrize("tol", [0.2, 0.1, 0.05, 0.02])
def test_coverage_witness_resolves_a_quarter_of_tol(basis, tol):
    # the witness's grid follows tol, so its covering radius of about
    # 2 R0 / grid stays well inside the threshold tol * max(1, R0)
    rng = default_rng(808)
    for _ in range(3):
        raw = random_discrete(rng, basis)
        mu = raw.scale(2.0 / tv_norm(raw))
        result = decompose(mu, DecompositionOptions(verify=False, fekete_k_max=3))
        check = verify_decomposition(mu, result, N=2000, tol=tol).check("spectrum_coverage")
        assert check.passed and check.residual <= check.threshold / 4


def test_zero_measure_decomposes_to_zero(basis):
    zero = DiscreteMeasure.from_atoms(basis, [])
    result = decompose(zero)
    assert result.R0 == 0.0 and result.R1 == 0.0
    assert result.nu0.is_zero and result.nu1.is_zero and result.nu2.is_zero
    assert result.report.passed


def test_point_mass_example(basis):
    mu = DiscreteMeasure.from_atoms(basis, [(basis.generator("a"), 1.0)])
    result = decompose(mu)
    assert result.R0 == 1.0 and result.R1 == 1.0
    # the remainder piece is minus the average of the two fresh point masses
    assert result.nu2.atoms == {result.alpha: -0.5 - 0j, result.beta: -0.5 - 0j}
    assert result.basis.names == ("a", "b", "ln3", "ln5")
    assert result.report.passed


def test_sign_projector_example(basis, theta0):
    result = decompose(theta0)
    assert result.R0 == 1.0 and result.R1 == 0.0
    assert result.nu1.is_zero
    assert result.report.passed


def test_pure_density_input(basis):
    mu = MixedMeasure.from_density(basis, {1: 1.0})
    result = decompose(mu)
    assert result.R0 == 0.0
    assert result.R1 == pytest.approx(1.0, abs=1e-12)
    assert as_mixed(result.nu0).is_zero
    assert result.report.passed
    # spectrum membership needs a purely discrete input, so it is skipped here
    assert result.report.names() == ALL_CHECKS


def test_scaling_equivariance(basis):
    rng = default_rng(606)
    mu = random_discrete(rng, basis)
    base = decompose(mu, DecompositionOptions(verify=False))
    doubled = decompose(mu.scale(2.0), DecompositionOptions(verify=False))
    assert doubled.R0 == pytest.approx(2.0 * base.R0, rel=1e-12)
    assert doubled.R1 == pytest.approx(2.0 * base.R1, rel=1e-12)
    for small, big in ((base.nu0, doubled.nu0), (base.nu1, doubled.nu1),
                       (base.nu2, doubled.nu2)):
        assert set(small.atoms) == set(big.atoms)
        for pos, w in small.atoms.items():
            assert big.atoms[pos] == pytest.approx(2.0 * w, rel=1e-12, abs=1e-12)


def test_manual_radii_must_dominate_transform(basis):
    mu = DiscreteMeasure.from_atoms(basis, [(basis.generator("a"), 1.0)])
    with pytest.raises(RadiusValidationError):
        decompose(mu, DecompositionOptions(radius_mode="manual",
                                           manual_radii=(0.1, 0.1), verify=False))
    with pytest.raises(RadiusValidationError):
        decompose(mu, DecompositionOptions(radius_mode="manual", verify=False))
    result = decompose(mu, DecompositionOptions(radius_mode="manual",
                                                manual_radii=(2.0, 2.0), verify=False))
    assert result.R0 == 2.0 and result.R1 == 2.0
    assert result.fekete_reports is None and result.radius_brackets is None


@pytest.mark.parametrize("mode", ["fekete", "exact_discrete"])
def test_manual_radii_outside_manual_mode_are_refused(monkeypatch, basis, mode):
    mu = DiscreteMeasure.from_atoms(basis, [(basis.generator("a"), 1.0)])
    calls = []
    monkeypatch.setattr(decomposition, "fekete_bound", lambda *a: calls.append(a))
    with pytest.raises(RadiusValidationError, match="only by radius_mode 'manual'"):
        decompose(mu, DecompositionOptions(radius_mode=mode, manual_radii=(5.0, 7.0)))
    assert calls == []


def test_exact_discrete_mode_brackets(basis):
    mu = DiscreteMeasure.from_atoms(basis, [(basis.generator("a"), 1.0)])
    result = decompose(mu, DecompositionOptions(radius_mode="exact_discrete",
                                                verify=False))
    (lo0, hi0), (lo1, hi1) = result.radius_brackets
    assert lo0 <= hi0 + 1e-9 and lo1 <= hi1 + 1e-9
    assert result.R0 == hi0 and result.R1 == hi1
    # each parity piece is two atoms of weight 1/2 with |p| = 1 on the whole
    # torus; the lower end is that grid value less the rounding allowance
    # (K + 8) u sum |c_j| = 10u
    lower = 1.0 - 10 * 2.0 ** -53
    assert result.radius_brackets == ((lower, 1.0), (lower, 1.0))


def test_exact_discrete_mode_refuses_a_lattice_before_any_squaring(monkeypatch, basis):
    # about 10^15 torsion classes fit no grid
    mu = DiscreteMeasure.from_atoms(basis, [
        (basis.from_turns(Fraction(1, 1000003)), 0.25),
        (basis.from_turns(Fraction(1, 999983)) + basis.generator("a"), 0.25),
        (basis.from_turns(Fraction(1, 997)), 0.5)])
    calls = []
    monkeypatch.setattr(decomposition, "fekete_bound", lambda *a: calls.append(a))
    with pytest.raises(BudgetExceededError, match="torsion classes"):
        decompose(mu, DecompositionOptions(radius_mode="exact_discrete", verify=False))
    assert calls == []


def test_exact_discrete_mode_rejects_densities(basis):
    mu = MixedMeasure.from_density(basis, {1: 1.0})
    with pytest.raises(RadiusValidationError):
        decompose(mu, DecompositionOptions(radius_mode="exact_discrete", verify=False))


def test_options_validation(basis):
    mu = DiscreteMeasure.from_atoms(basis, [(basis.zero(), 1.0)])
    with pytest.raises(ValueError):
        decompose(mu, DecompositionOptions(radius_mode="guess", verify=False))


def test_tampered_radius_is_caught(basis):
    rng = default_rng(707)
    mu = random_discrete(rng, basis)
    result = decompose(mu, DecompositionOptions(verify=False))
    tampered = dataclasses.replace(result, R0=result.R0 / 2.0)
    report = verify_decomposition(mu, tampered, N=2000)
    assert not report.passed
    assert not report.check("parity_nu0").passed
    assert not report.check("modulus_nu0").passed


def test_verify_flag_off_defers_report(basis):
    mu = DiscreteMeasure.from_atoms(basis, [(basis.generator("b"), 1.0j)])
    result = decompose(mu, DecompositionOptions(verify=False))
    assert result.report is None
    report = verify_decomposition(mu, result, N=10_000)
    assert report.passed


@pytest.mark.parametrize("N", [0, (1 << 20) + 1])
def test_verify_refuses_N_out_of_range(basis, N):
    mu = DiscreteMeasure.from_atoms(basis, [(basis.generator("b"), 1.0j)])
    with pytest.raises(ValueError, match="N must be between 1 and 2"):
        decompose(mu, DecompositionOptions(verify_N=N))
    result = decompose(mu, DecompositionOptions(verify=False))
    with pytest.raises(ValueError, match="N must be between 1 and 2"):
        verify_decomposition(mu, result, N=N)


def test_report_checks_carry_thresholds(basis):
    mu = DiscreteMeasure.from_atoms(basis, [(basis.generator("a"), 1.0)])
    report = decompose(mu).report
    assert report.check("identity_structural").threshold == 1e-12
    assert report.check("identity_transform").threshold == 1e-9
    assert report.check("orthogonality").threshold == 0.0
    assert report.check("orthogonality").residual == 0.0
    assert report.check("identity_structural").residual == 0.0
