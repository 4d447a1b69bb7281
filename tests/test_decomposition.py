"""Splitting a measure into three pieces with disk-shaped transform closures."""

import dataclasses
import json
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from natspec import decomposition, measures, spectrum
from natspec.angles import FRESH_GENERATOR_VALUES, GeneratorBasis
from natspec.cli import main
from natspec.decomposition import (DecompositionOptions, decompose,
                                   verify_decomposition)
from natspec.errors import RadiusValidationError
from natspec.measures import (DiscreteMeasure, MixedMeasure, as_mixed, convolve, make_rho,
                              make_theta0, make_theta1, parity_projections, transforms)
from natspec.sampling import default_rng, random_discrete, random_mixed
from natspec.serialize import measure_to_json
from natspec.spectrum import (char_polynomial, covering_radius, disk_grid, fekete_bound,
                              spectral_bracket)
from oracles import brute_covering

ALL_CHECKS = ("identity_structural", "identity_transform", "nu2_support",
              "orthogonality", "parity_nu0", "parity_nu1", "modulus_nu0",
              "modulus_nu1", "density_nu0", "density_nu1", "spectrum_nu0", "spectrum_nu1")


def test_random_mixed_inputs_pass_all_checks(basis):
    rng = default_rng(404)
    for _ in range(3):
        mu = random_mixed(rng, basis)
        result = decompose(mu)
        assert result.report.passed
        assert tuple(c.name for c in result.report.checks) == ALL_CHECKS


def test_random_discrete_inputs_also_check_spectrum(basis):
    rng = default_rng(505)
    for _ in range(2):
        mu = random_discrete(rng, basis)
        result = decompose(mu)
        assert result.report.passed
        assert tuple(c.name for c in result.report.checks) == ALL_CHECKS


def order_448_measure() -> DiscreteMeasure:
    """Three atoms over sqrt2 and sqrt3 with turns 1/64 and 3/7: 448 torsion
    classes.  nu0's lattice, 448 x 16^4 points with the two fresh axes, is
    above the walker's limit; mu0's, 448 x 16^2, is not."""
    basis = GeneratorBasis.from_pairs(FRESH_GENERATOR_VALUES[:2])
    return DiscreteMeasure.from_atoms(basis, [
        (basis.angle(Fraction(1, 64)) + basis.generator("sqrt2"), 0.5),
        (basis.generator("sqrt3"), 0.3),
        (basis.angle(Fraction(3, 7)), 0.2j)])


def test_spectrum_check_runs_at_a_torsion_order_the_nu0_lattice_would_pass(tmp_path, capsys):
    result = decompose(order_448_measure())
    assert result.radius_fallbacks == (None, None)
    assert result.report.passed
    assert tuple(c.name for c in result.report.checks) == ALL_CHECKS
    for name, r in (("spectrum_nu0", result.R0), ("spectrum_nu1", result.R1)):
        check = result.report.check(name)
        assert check.details == {"upper": r, "radius": r, "exact": True}
        assert check.residual == 0.0 and check.threshold == 0.0
    path = tmp_path / "order448.json"
    path.write_text(json.dumps(measure_to_json(order_448_measure())))
    assert main(["decompose", "--input", str(path), "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err == ""
    report = json.loads((tmp_path / "out" / "report.json").read_text(encoding="utf-8"))
    assert report["passed"] is True
    checks = {c["name"]: c for c in report["verification"]["checks"]}
    assert tuple(checks) == ALL_CHECKS
    for name, r in (("spectrum_nu0", report["R0"]), ("spectrum_nu1", report["R1"])):
        assert checks[name]["details"] == {"upper": r, "radius": r, "exact": True}


def test_manual_radius_below_the_spectral_radius_fails_the_spectrum_check():
    # R1 halfway between sup_{|n| <= 10^4} |mu1_hat(n)| and the certified
    # lower end of r(mu1) is below the radius, yet above every transform
    # value that (d) and (e) read
    basis = GeneratorBasis.from_pairs(FRESH_GENERATOR_VALUES[:2])
    rng = default_rng(7)
    for _ in range(3):
        mu = random_mixed(rng, basis)
        base = decompose(mu, DecompositionOptions(verify=False))
        mu1 = parity_projections(base.mu_embedded)[1]
        sup = float(np.max(np.abs(transforms([mu1], np.arange(-10_000, 10_001))[0])))
        lower = spectral_bracket(mu1)[0]
        assert sup < lower
        r1 = (sup + lower) / 2
        report = decompose(mu, DecompositionOptions(radius_mode="manual",
                                                    manual_radii=(base.R0, r1))).report
        assert [c.name for c in report.checks if not c.passed] == ["spectrum_nu1"]
        check = report.check("spectrum_nu1")
        assert check.details["exact"] and check.residual >= lower - r1 > 0


def test_spectrum_check_catches_a_split_that_keeps_the_identity(basis):
    # moving one half-turn pair of mu0's atoms from nu0 to nu1 leaves
    # nu0 + nu1 + nu2 == mu exact, but nu_i - mu_i is no longer R_i rho * theta
    mu = random_discrete(default_rng(909), basis)
    result = decompose(mu, DecompositionOptions(verify=False))
    mu0 = parity_projections(result.mu_embedded)[0]
    x, w = next(iter(mu0.atoms.items()))
    partner = x + result.basis.half_turn()
    assert mu0.atoms[partner] == w
    pair = DiscreteMeasure.from_atoms(result.basis, [(x, w), (partner, w)])
    report = verify_decomposition(mu, dataclasses.replace(
        result, nu0=result.nu0 - pair, nu1=result.nu1 + pair))
    assert report.check("identity_structural").residual == 0.0
    for name in ("spectrum_nu0", "spectrum_nu1"):
        check = report.check(name)
        assert not check.passed and check.details["exact"] is False
        assert check.residual <= 0.0


def test_verifier_walks_no_lattice_beyond_the_parity_pieces(monkeypatch, basis):
    rng = default_rng(910)
    for mu in (random_discrete(rng, basis), random_mixed(rng, basis), order_448_measure()):
        result = decompose(mu, DecompositionOptions(verify=False))
        free = max(char_polynomial(as_mixed(m).disc).dims
                   for m in parity_projections(result.mu_embedded))
        walked = []
        real = spectrum._lattice_max
        monkeypatch.setattr(spectrum, "_lattice_max",
                            lambda p, *a: walked.append(p.dims) or real(p, *a))
        assert verify_decomposition(mu, result).passed
        monkeypatch.undo()
        assert walked and max(walked) <= free < len(result.basis)


def test_density_check_catches_a_radius_or_piece_that_misses_the_disk(basis):
    # a radius raised past the cloud leaves grid points of the R0 disk
    # uncovered and fails (e); theta0 in place of theta1 in nu0 pushes cloud
    # points out of the disk, which (d) catches, the check (e) relies on
    rng = default_rng(505)
    for _ in range(3):
        mu = random_discrete(rng, basis)
        result = decompose(mu)
        assert result.report.passed
        ext = result.basis
        raised = verify_decomposition(mu, dataclasses.replace(result, R0=1.5 * result.R0))
        density = raised.check("density_nu0")
        assert not raised.passed
        assert not density.passed and density.residual > 2 * density.threshold
        wrong_piece = convolve(make_rho(result.alpha, result.beta, ext), make_theta0(ext))
        mu0, _ = parity_projections(result.mu_embedded)
        swapped = verify_decomposition(mu, dataclasses.replace(
            result, nu0=mu0 + wrong_piece.scale(result.R0)))
        modulus = swapped.check("modulus_nu0")
        assert not swapped.passed
        assert not modulus.passed and modulus.residual > 2 * modulus.threshold


def test_density_check_records_the_cloud_side_bound(basis):
    # the cloud-to-grid half is bounded a priori once (d) passes: every cloud
    # point is within the grid's covering radius of the disk, plus the
    # modulus slack, of a grid point; the bound is below the threshold, and
    # that half, measured in brute force, stays under it
    rng = default_rng(506)
    mu = random_mixed(rng, basis)
    result = decompose(mu, DecompositionOptions(verify_tol=0.1))
    assert result.report.passed
    nu_t = transforms([result.nu0, result.nu1], np.arange(-10_000, 10_001))
    for name, vals in zip(("density_nu0", "density_nu1"), nu_t):
        check = result.report.check(name)
        r = check.details["radius"]
        bound = check.details["cloud_to_grid_bound"]
        assert bound == math.sqrt(5) / 4 * 0.1 * r + decomposition.MODULUS_SLACK
        assert bound < check.threshold
        grid = disk_grid(r, 0.1)
        assert max(np.max(np.min(np.abs(chunk[:, None] - grid[None, :]), axis=1))
                   for chunk in np.array_split(vals, 20)) <= bound


def measure_with_fresh_pair(i: int, j: int, weights) -> DiscreteMeasure:
    """Three atoms over e and the built-in generators before j other than i,
    so that ``decompose`` takes FRESH_GENERATOR_VALUES[i] and [j] as its
    fresh pair."""
    basis = GeneratorBasis.from_pairs([("e", math.e)] + [FRESH_GENERATOR_VALUES[k]
                                                         for k in range(j) if k != i])
    e = basis.generator("e")
    return DiscreteMeasure.from_atoms(basis, [
        (e, weights[0]), (basis.angle(Fraction(1, 3)), weights[1]),
        (e + e + basis.angle(Fraction(1, 4)), weights[2])])


@settings(max_examples=10, deadline=None)
@given(st.sampled_from([(i, j) for j in range(len(FRESH_GENERATOR_VALUES)) for i in range(j)]),
       st.integers(16, 1 << 12), st.floats(0.05, 0.2),
       st.lists(st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
                min_size=3, max_size=3))
def test_density_check_is_at_least_the_brute_force_covering(pair, N, tol, weights):
    # two routes: the tree's cached covering of the fresh pair's half-cloud
    # equals a dense distance matrix's over the transforms values of rho,
    # and check (e)'s residual, bound or exact, is at least the dense
    # covering of the R_i disk by nu_i's cloud
    i, j = pair
    result = decompose(measure_with_fresh_pair(i, j, weights),
                       DecompositionOptions(verify_N=N, verify_tol=tol))
    assert result.basis.values[-2:] == (FRESH_GENERATOR_VALUES[i][1],
                                        FRESH_GENERATOR_VALUES[j][1])
    ns = np.arange(-N, N + 1, dtype=np.int64)
    [rho_t] = transforms([make_rho(result.alpha, result.beta, result.basis)], ns)
    for parity, sel in (("all", ns == ns), ("even", ns % 2 == 0), ("odd", ns % 2 != 0)):
        assert spectrum._pair_covering(result.alpha, result.beta, result.basis, N, tol,
                                       parity) == brute_covering(disk_grid(1.0, tol), rho_t[sel])
    for name, nu, r in (("density_nu0", result.nu0, result.R0),
                        ("density_nu1", result.nu1, result.R1)):
        check = result.report.check(name)
        assert None not in [check.details[key] for key in ("bound", "pair_cover", "rounding")]
        assert check.residual >= brute_covering(disk_grid(r, tol), transforms([nu], ns)[0])
        if check.details["route"] == "bound":
            assert check.residual == check.details["bound"] <= check.threshold


def with_fresh_pair(result, alpha, beta):
    """``result`` rebuilt as ``decompose`` builds it, on the positions alpha
    and beta of its basis in place of its fresh generators."""
    mu0, mu1 = parity_projections(result.mu_embedded)
    rho = make_rho(alpha, beta, result.basis)
    add0 = convolve(rho, make_theta1(result.basis)).scale(result.R0)
    add1 = convolve(rho, make_theta0(result.basis)).scale(result.R1)
    return dataclasses.replace(result, nu0=mu0 + add0, nu1=mu1 + add1, nu2=(-add0) + (-add1),
                               alpha=alpha, beta=beta)


def test_a_fresh_pair_of_other_positions_takes_the_bound(basis):
    # alpha a generator plus a third of a turn, beta a generator less
    # another: the cached covering reads rho_hat from transforms as the
    # verifier does, so these positions take the bound like bare generators
    mu = random_mixed(default_rng(514), basis)
    plain = decompose(mu, DecompositionOptions(verify=False))
    ext = plain.basis
    result = with_fresh_pair(plain, ext.generator("ln3") + ext.angle(Fraction(1, 3)),
                             ext.generator("ln5") - ext.generator("a"))
    report = verify_decomposition(mu, result)
    assert report.passed
    ns = np.arange(-10_000, 10_001, dtype=np.int64)
    for name, nu, r in (("density_nu0", result.nu0, result.R0),
                        ("density_nu1", result.nu1, result.R1)):
        check = report.check(name)
        assert check.details["route"] == "bound"
        assert check.residual >= brute_covering(disk_grid(r, 0.05), transforms([nu], ns)[0])


def test_the_cached_covering_reads_the_verifier_s_rho_values_bit_for_bit(monkeypatch, basis):
    # the bound R cov + c needs no phase allowance only because cov covers
    # the very floats rho_t that check (c) compares against; a stray atom on
    # nu2 leaves an identity residual, so the verifier's call takes five
    # measures
    mu = random_mixed(default_rng(513), basis)
    result = decompose(mu, DecompositionOptions(verify=False))
    stray = DiscreteMeasure.from_atoms(result.basis, [(result.alpha, 1e-3)])
    calls, samples = [], []
    real_transforms, real_covering = decomposition.transforms, spectrum.covering_radius

    def transforms_spy(ms, ns):
        values = real_transforms(ms, ns)
        calls.append((list(ms), values))
        return values

    monkeypatch.setattr(decomposition, "transforms", transforms_spy)
    monkeypatch.setattr(spectrum, "covering_radius",
                        lambda reference, sample: samples.append(sample)
                        or real_covering(reference, sample))
    verify_decomposition(mu, dataclasses.replace(result, nu2=result.nu2 + stray))
    [(ms, values)] = calls
    assert len(ms) == 5 and ms[1] == make_rho(result.alpha, result.beta, result.basis)
    odd, even = samples  # |n| <= 10^4: the odd n of nu0, then the even n of nu1
    assert odd.tobytes() == values[1][1::2].tobytes()
    assert even.tobytes() == values[1][0::2].tobytes()


def test_density_check_falls_back_to_the_exact_covering_on_the_suite(suite_verifications):
    # at N = 8192 the half-clouds cover the unit disk to 0.069 only, so the
    # bound is above the threshold and the cloud's own covering decides, bit
    # for bit as before the bound
    for mu, result, report in suite_verifications:
        nu_t = transforms([result.nu0, result.nu1], np.arange(-8192, 8193))
        for name, vals, r in zip(("density_nu0", "density_nu1"), nu_t, (result.R0, result.R1)):
            check = report.check(name)
            assert check.passed and check.details["route"] == "exact"
            assert check.details["bound"] > check.threshold
            assert check.residual == covering_radius(disk_grid(r, 0.05), vals)


@pytest.mark.parametrize("shift", [1e-6, 0.01, 0.3])
def test_a_moved_weight_fails_parity_and_the_density_verdict_follows_the_oracle(basis, shift):
    # moving one weight of nu0's R0 rho * theta1 atoms breaks nu0_hat = R0
    # rho_hat at odd n, which (c) catches; (e) then passes exactly when the
    # dense covering is within the threshold, whichever route it takes
    mu = random_mixed(default_rng(511), basis)
    result = decompose(mu, DecompositionOptions(verify=False))
    assert result.nu0.disc.atoms[result.alpha] == 0.25 * result.R0
    moved = DiscreteMeasure.from_atoms(result.basis, [(result.alpha, shift * result.R0)])
    report = verify_decomposition(mu, dataclasses.replace(result, nu0=result.nu0 + moved))
    assert not report.check("parity_nu0").passed
    check = report.check("density_nu0")
    vals = transforms([result.nu0 + moved], np.arange(-10_000, 10_001))[0]
    oracle = brute_covering(disk_grid(result.R0, 0.05), vals)
    assert check.passed == (oracle <= check.threshold)
    assert check.residual >= oracle
    assert check.details["route"] == ("bound" if shift < 0.3 else "exact")


def test_a_second_decomposition_with_the_same_fresh_pair_builds_no_tree(monkeypatch, basis):
    calls = []
    real = spectrum.covering_radius

    def counting(*args):
        calls.append(len(args[1]))
        return real(*args)

    monkeypatch.setattr(spectrum, "covering_radius", counting)
    monkeypatch.setattr(decomposition, "covering_radius", counting)
    rng = default_rng(512)
    first = decompose(random_mixed(rng, basis))
    assert calls == [10_000, 10_001]  # the odd and the even n with |n| <= 10^4
    second = decompose(random_discrete(rng, basis))
    assert calls == [10_000, 10_001]
    for result in (first, second):
        assert result.report.passed
        assert {result.report.check(name).details["route"]
                for name in ("density_nu0", "density_nu1")} == {"bound"}


def test_pair_covering_cache_size_is_the_module_constant():
    assert spectrum._pair_covering.cache_parameters()["maxsize"] == spectrum._PAIR_COVER_CACHE


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
    assert tuple(c.name for c in result.report.checks) == ALL_CHECKS


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
    assert result.radius_fallbacks is None and result.radius_brackets is None


@pytest.mark.parametrize("scale", [1.0, 2.0 ** 40, 2.0 ** -40])
def test_manual_radii_are_checked_relative_to_the_norm(basis, scale):
    # |mu0_hat(n)| reaches 1.5e-13 here: an absolute slack of 1e-12 let the
    # radii (0, 0) through, a slack relative to ||mu_i|| refuses them at
    # every scale
    mu = DiscreteMeasure.from_atoms(basis, [(basis.generator("a"), 1e-13),
                                            (basis.zero(), 2e-13)]).scale(scale)
    with pytest.raises(RadiusValidationError, match="R0=0.0 is below the transform bound"):
        decompose(mu, DecompositionOptions(radius_mode="manual", manual_radii=(0.0, 0.0),
                                           verify=False))
    base = decompose(mu, DecompositionOptions(verify=False))
    result = decompose(mu, DecompositionOptions(radius_mode="manual",
                                                manual_radii=(base.R0, base.R1)))
    assert result.report.passed


@pytest.mark.parametrize("mode", ["bracket", "fekete", "exact_discrete"])
def test_manual_radii_outside_manual_mode_are_refused(monkeypatch, basis, mode):
    # the modes "fekete" and "exact_discrete" are gone and refused as unknown
    mu = DiscreteMeasure.from_atoms(basis, [(basis.generator("a"), 1.0)])
    calls = []
    monkeypatch.setattr(spectrum, "fekete_bound", lambda *a: calls.append(a))
    message = "only by radius_mode 'manual'" if mode == "bracket" else "unknown radius_mode"
    with pytest.raises(ValueError, match=message):
        decompose(mu, DecompositionOptions(radius_mode=mode, manual_radii=(5.0, 7.0)))
    assert calls == []


def test_bracket_mode_brackets(basis):
    mu = DiscreteMeasure.from_atoms(basis, [(basis.generator("a"), 1.0)])
    result = decompose(mu, DecompositionOptions(verify=False))
    (lo0, hi0), (lo1, hi1) = result.radius_brackets
    assert result.R0 == hi0 and result.R1 == hi1
    assert result.radius_fallbacks == (None, None)
    # each parity piece is two atoms of weight 1/2 with |p| = 1 on the whole
    # torus; the lower end is that grid value less the rounding allowance
    # (K + 8) u sum |c_j| = 10u, the upper end the norm
    lower = 1.0 - 10 * 2.0 ** -53
    assert result.radius_brackets == ((lower, 1.0), (lower, 1.0))


def _counting_fekete(monkeypatch):
    calls = []
    real = spectrum.fekete_bound

    def counting(mu, k_max):
        calls.append(k_max)
        return real(mu, k_max)

    monkeypatch.setattr(spectrum, "fekete_bound", counting)
    return calls


def test_radius_falls_back_to_the_norm_roots_only_for_a_refused_lattice(monkeypatch, basis):
    calls = _counting_fekete(monkeypatch)
    rng = default_rng(808)
    for mu in (random_discrete(rng, basis), random_mixed(rng, basis)):
        result = decompose(mu, DecompositionOptions(verify=False))
        assert calls == [] and result.radius_fallbacks == (None, None)
    # about 10^15 torsion classes fit no grid, in either piece
    mu = DiscreteMeasure.from_atoms(basis, [
        (basis.angle(Fraction(1, 1000003)), 0.25),
        (basis.angle(Fraction(1, 999983)) + basis.generator("a"), 0.25),
        (basis.angle(Fraction(1, 997)), 0.5)])
    result = decompose(mu, DecompositionOptions(fekete_k_max=2, verify=False))
    assert calls == [2, 2]
    for fallback, r, (lo, hi) in zip(result.radius_fallbacks, (result.R0, result.R1),
                                     result.radius_brackets):
        assert "torsion classes" in fallback.reason
        assert r == fallback.report.final_bound == hi and lo == 0.0
    # an even measure: the odd piece is zero and keeps its bracket
    calls.clear()
    even = DiscreteMeasure.from_atoms(basis, [
        (basis.angle(Fraction(1, 1000003)), 0.5),
        (basis.angle(Fraction(1, 1000003)) + basis.half_turn(), 0.5),
        (basis.angle(Fraction(1, 999983)) + basis.generator("b"), 0.25),
        (basis.angle(Fraction(1, 999983)) + basis.generator("b") + basis.half_turn(),
         0.25)])
    result = decompose(even, DecompositionOptions(fekete_k_max=1, verify=False))
    assert calls == [1]
    assert result.radius_fallbacks[1] is None and result.R1 == 0.0
    assert result.R0 == result.radius_fallbacks[0].report.final_bound


def test_radius_falls_back_above_the_walkers_dimensions(monkeypatch):
    calls = _counting_fekete(monkeypatch)
    basis = GeneratorBasis.from_pairs(FRESH_GENERATOR_VALUES[:5])
    mu = DiscreteMeasure.from_atoms(basis, [(basis.angle(Fraction(0), (1, 0, 1, 0, 1)), 0.5),
                                            (basis.angle(Fraction(0), (0, 1, 0, 1, 1)), 0.5)])
    result = decompose(mu, DecompositionOptions(fekete_k_max=1))
    # one call per radius, and one per piece again in check (f), at the
    # depth that the radius's report reached
    assert calls == [1, 1, 1, 1]
    assert all("5 free dimensions" in f.reason for f in result.radius_fallbacks)
    assert result.report.passed


def test_a_density_the_norm_refuses_runs_no_fallback(monkeypatch, tmp_path, capsys):
    # degree 10^6 is refused by the bracket's norm quadrature, not by the
    # walker; fekete_bound's quadrature would refuse it at once, so it is not
    # called, and the command exits 1 with the quadrature's message
    calls = _counting_fekete(monkeypatch)
    path = tmp_path / "density.json"
    path.write_text(json.dumps({"kind": "mixed", "basis": [], "atoms": [],
                                "ac": [{"k": 10 ** 6, "re": 0.5, "im": 0.0}]}))
    assert main(["decompose", "--input", str(path), "--out", str(tmp_path / "out")]) == 1
    assert calls == []
    assert capsys.readouterr().err == "error: density degree 1000000 is above the limit 65536\n"


def test_mixed_radii_come_from_the_bracket(basis):
    # the density's e_3 term dominates the odd piece: R1 is |mu_hat(3)| to
    # within its rounding allowance, below the norm
    mu = MixedMeasure(DiscreteMeasure.from_atoms(basis, [(basis.generator("a"), 0.0625)]),
                      MixedMeasure.from_density(basis, {3: 2.0, -1: 0.25j}).ac)
    result = decompose(mu)
    assert result.report.passed
    (lo1, hi1) = result.radius_brackets[1]
    exact = abs(mu.transform(np.array([3]))[0])
    assert lo1 <= exact <= hi1 == result.R1 and hi1 - lo1 <= 1e-13
    assert result.R1 < fekete_bound(parity_projections(result.mu_embedded)[1], 0).final_bound


def test_options_validation(basis):
    mu = DiscreteMeasure.from_atoms(basis, [(basis.zero(), 1.0)])
    for mode in ("guess", "fekete", "exact_discrete"):
        with pytest.raises(ValueError, match="unknown radius_mode"):
            decompose(mu, DecompositionOptions(radius_mode=mode, verify=False))


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


def test_verification_builds_each_phase_factor_from_two_small_tables(monkeypatch, basis):
    # at N = 10^4 each call builds each generator vector g's tables from
    # B + R * 6 kernel evaluations: B = 256 for its low table and R = 16 for
    # each of the six blocks of 4096 n that |n| <= N meets, not the 2N + 1
    # of one per n.  The verifier's call and the two half-clouds of the
    # cached covering each make one such build.  mu is discrete, so the
    # verifier's convolutions take no transforms of their own
    N, B, R = 10_000, measures._TABLE_SPLIT, measures._ROW_BLOCK
    mu = random_discrete(default_rng(606), basis)
    result = decompose(mu, DecompositionOptions(verify=False))
    calls = []
    real = measures.phase_factors
    monkeypatch.setattr(measures, "phase_factors", lambda ns, g: calls.append(
        Counter({value: ns.size for value in np.ravel(g)})) or real(ns, g))
    assert verify_decomposition(mu, result, N=N).passed
    assert len(set().union(*calls)) >= 2
    assert (N >> 12) - (-N >> 12) + 1 == 6
    assert max(max(call.values()) for call in calls) <= B + R * 6


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
