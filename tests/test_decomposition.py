"""Splitting a measure into three pieces with disk-shaped transform closures."""

import dataclasses

import numpy as np
import pytest

from natspec.decomposition import (DecompositionOptions, decompose,
                                   verify_decomposition)
from natspec.errors import RadiusValidationError
from natspec.measures import DiscreteMeasure, MixedMeasure, as_mixed
from natspec.sampling import default_rng, random_discrete, random_mixed

ALL_CHECKS = ("identity_structural", "identity_transform", "nu2_support",
              "orthogonality", "parity_nu0", "parity_nu1", "modulus_nu0",
              "modulus_nu1", "density_nu0", "density_nu1")
DISCRETE_ONLY_CHECKS = ("spectrum_membership", "spectrum_coverage")

FAST = DecompositionOptions(verify_N=10_000, verify_grid=128)


def test_random_mixed_inputs_pass_all_checks(basis):
    rng = default_rng(404)
    for _ in range(3):
        mu = random_mixed(rng, basis)
        result = decompose(mu, FAST)
        assert result.report.passed
        assert result.report.names() == ALL_CHECKS


def test_random_discrete_inputs_also_check_spectrum(basis):
    rng = default_rng(505)
    for _ in range(2):
        mu = random_discrete(rng, basis)
        result = decompose(mu, FAST)
        assert result.report.passed
        assert result.report.names() == ALL_CHECKS + DISCRETE_ONLY_CHECKS


def test_zero_measure_decomposes_to_zero(basis):
    zero = DiscreteMeasure.from_atoms(basis, [])
    result = decompose(zero, FAST)
    assert result.R0 == 0.0 and result.R1 == 0.0
    assert result.nu0.is_zero and result.nu1.is_zero and result.nu2.is_zero
    assert result.report.passed


def test_point_mass_example(basis):
    mu = DiscreteMeasure.from_atoms(basis, [(basis.generator("a"), 1.0)])
    result = decompose(mu, FAST)
    assert result.R0 == 1.0 and result.R1 == 1.0
    # the remainder piece is minus the average of the two fresh point masses
    assert result.nu2.atoms == {result.alpha: -0.5 - 0j, result.beta: -0.5 - 0j}
    assert result.basis.names == ("a", "b", "ln3", "ln5")
    assert result.report.passed


def test_sign_projector_example(basis, theta0):
    result = decompose(theta0, FAST)
    assert result.R0 == 1.0 and result.R1 == 0.0
    assert result.nu1.is_zero
    assert result.report.passed


def test_pure_density_input(basis):
    mu = MixedMeasure.from_density(basis, {1: 1.0})
    result = decompose(mu, FAST)
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
    report = verify_decomposition(mu, tampered, N=2000, grid=64)
    assert not report.passed
    assert not report.check("parity_nu0").passed
    assert not report.check("modulus_nu0").passed


def test_verify_flag_off_defers_report(basis):
    mu = DiscreteMeasure.from_atoms(basis, [(basis.generator("b"), 1.0j)])
    result = decompose(mu, DecompositionOptions(verify=False))
    assert result.report is None
    report = verify_decomposition(mu, result, N=10_000, grid=128)
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
    report = decompose(mu, FAST).report
    assert report.check("identity_structural").threshold == 1e-12
    assert report.check("identity_transform").threshold == 1e-9
    assert report.check("orthogonality").threshold == 0.0
    assert report.check("orthogonality").residual == 0.0
    assert report.check("identity_structural").residual == 0.0
