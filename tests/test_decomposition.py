"""Splitting a measure into three pieces with disk-shaped transform closures."""

import dataclasses
import json
import math
import re
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
from natspec.spectrum import covering_radius, disk_grid, fekete_bound
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
    # R1 halfway between sup_{|n| <= 10^4} |mu1_hat(n)| and a certified
    # lower end of r(mu1), the grid-64 torus maximum of its atoms, is below
    # the radius, yet above every transform value that (e) reads; (d),
    # (f)'s corollary, fails with it
    basis = GeneratorBasis.from_pairs(FRESH_GENERATOR_VALUES[:2])
    rng = default_rng(7)
    for _ in range(3):
        mu = random_mixed(rng, basis)
        base = decompose(mu, DecompositionOptions(verify=False))
        mu1 = parity_projections(base.mu_embedded)[1]
        sup = float(np.max(np.abs(transforms([mu1], np.arange(-10_000, 10_001))[0])))
        lower = spectrum.torus_max(mu1.disc, 64)
        assert sup < lower
        r1 = (sup + lower) / 2
        report = decompose(mu, DecompositionOptions(radius_mode="manual",
                                                    manual_radii=(base.R0, r1))).report
        assert [c.name for c in report.checks if not c.passed] == ["modulus_nu1",
                                                                   "spectrum_nu1"]
        check = report.check("spectrum_nu1")
        assert check.details["exact"] and check.residual >= lower - r1 > 0
        assert report.check("modulus_nu1").residual == check.residual


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
        free = max(int(as_mixed(m).disc.coef.any(axis=0).sum())
                   for m in parity_projections(result.mu_embedded))
        walked = []
        real = spectrum._lattice_max
        monkeypatch.setattr(spectrum, "_lattice_max", lambda d, *a: walked.append(
            int(d.coef.any(axis=0).sum())) or real(d, *a))
        # decompose's brackets of the same pieces would otherwise be reused
        spectrum._memo_bracket.cache_clear()
        assert verify_decomposition(mu, result).passed
        monkeypatch.undo()
        assert walked and max(walked) <= free < len(result.basis)


def test_decompose_walks_each_parity_piece_once(walked_brackets, basis):
    # decompose brackets mu0 and mu1; check (f) derives the same pieces from
    # mu and reads the kept brackets, which are decompose's radii
    rng = default_rng(2904)
    for mu in (random_discrete(rng, basis), random_mixed(rng, basis)):
        walked_brackets.clear()
        result = decompose(mu)
        assert result.report.passed
        pieces = [as_mixed(p) for p in parity_projections(result.mu_embedded)]
        assert walked_brackets == pieces and len(walked_brackets) == 2
        for name, (_, upper), r in zip(("spectrum_nu0", "spectrum_nu1"),
                                       result.radius_brackets, (result.R0, result.R1)):
            assert result.report.check(name).details["upper"] == upper == r


def _verify_warm_and_cold(mu, result):
    """verify_decomposition with decompose's brackets kept, then with none."""
    warm = verify_decomposition(mu, result)
    spectrum._memo_bracket.cache_clear()
    return warm, verify_decomposition(mu, result)


def test_kept_brackets_still_fail_a_radius_an_ulp_below_the_bracket(walked_brackets, basis):
    # nu0 is rebuilt on the lowered R0, so (f) passes its exactness premise
    # and fails on the bracket alone
    rng = default_rng(2905)
    for mu in (random_discrete(rng, basis), random_mixed(rng, basis)):
        result = decompose(mu)
        upper = result.radius_brackets[0][1]
        r0 = math.nextafter(upper, 0.0)
        mu0 = parity_projections(result.mu_embedded)[0]
        rt1 = convolve(make_rho(result.alpha, result.beta, result.basis),
                       make_theta1(result.basis))
        lowered = dataclasses.replace(result, R0=r0, nu0=mu0 + rt1.scale(r0))
        walked_brackets.clear()
        warm, cold = _verify_warm_and_cold(mu, lowered)
        assert len(walked_brackets) == 2  # none for the warm report, two for the cold
        assert warm == cold
        check = warm.check("spectrum_nu0")
        assert not check.passed and check.details["exact"]
        assert check.details["upper"] == upper and check.residual == upper - r0 > 0
        assert warm.check("spectrum_nu1").passed


def test_kept_brackets_still_fail_swapped_pieces(basis):
    rng = default_rng(2906)
    for mu in (random_discrete(rng, basis), random_mixed(rng, basis)):
        result = decompose(mu)
        swapped = dataclasses.replace(result, nu0=result.nu1, nu1=result.nu0)
        warm, cold = _verify_warm_and_cold(mu, swapped)
        assert warm == cold and not warm.passed
        for name in ("spectrum_nu0", "spectrum_nu1"):
            assert not warm.check(name).passed and warm.check(name).details["exact"] is False


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
    # point lies in the closed disk, so within the grid's covering radius of
    # the disk of a grid point; the bound is below the threshold, and that
    # half, measured in brute force, stays under it
    rng = default_rng(506)
    mu = random_mixed(rng, basis)
    result = decompose(mu, DecompositionOptions(verify_tol=0.1))
    assert result.report.passed
    nu_t = transforms([result.nu0, result.nu1], np.arange(-10_000, 10_001))
    for name, vals in zip(("density_nu0", "density_nu1"), nu_t):
        check = result.report.check(name)
        r = check.details["radius"]
        bound = check.details["cloud_to_grid_bound"]
        assert bound == math.sqrt(5) / 4 * 0.1 * r
        assert bound < check.threshold
        grid = disk_grid(r, 0.1)
        assert max(np.max(np.min(np.abs(chunk[:, None] - grid[None, :]), axis=1))
                   for chunk in np.array_split(vals, 20)) <= bound


def test_the_identity_bound_reads_a_density_residual(basis):
    # tau's density coefficient bounds tau_hat at its frequency
    mu = random_mixed(default_rng(520), basis)
    result = decompose(mu, DecompositionOptions(verify=False))
    stray = MixedMeasure.from_density(result.basis, {5: 3e-3j})
    report = verify_decomposition(mu, dataclasses.replace(result, nu2=as_mixed(result.nu2) + stray))
    assert report.check("identity_transform").residual == 3e-3
    assert [c.name for c in report.checks if not c.passed] == [
        "identity_structural", "identity_transform", "nu2_support", "parity_nu0", "parity_nu1"]


@pytest.mark.parametrize("weight", [1e308, math.nan])
def test_a_residual_past_the_float_range_fails_the_identity_without_raising(basis, weight):
    # two stray atoms of 1e308 overflow the upward sum of tau's moduli: the
    # bound is inf, and the checks that read it fail like a nan residual
    mu = random_discrete(default_rng(518), basis)
    result = decompose(mu, DecompositionOptions(verify=False))
    stray = DiscreteMeasure.from_atoms(result.basis, [(result.alpha, weight),
                                                      (result.beta, weight)])
    report = verify_decomposition(mu, dataclasses.replace(result, nu2=result.nu2 + stray))
    assert [c.name for c in report.checks if not c.passed] == [
        "identity_structural", "identity_transform", "parity_nu0", "parity_nu1"]
    assert not report.check("identity_transform").residual < math.inf


def test_a_split_without_parity_fails_every_check_that_rests_on_it(monkeypatch, basis):
    # a split into mu and 0 keeps the identity and (f)'s premise exact, but
    # mu is not even: (b) fails, and (c), (d) and (f), which need it, fail;
    # (e) takes the exact route, on which nu1 = R1 rho * theta0 still passes
    monkeypatch.setattr(decomposition, "parity_projections",
                        lambda m: (m, MixedMeasure.from_discrete(DiscreteMeasure.zero(m.basis))))
    report = decompose(random_discrete(default_rng(519), basis)).report
    assert report.check("identity_structural").residual == 0.0
    assert [c.name for c in report.checks if not c.passed] == [
        "orthogonality", "parity_nu0", "parity_nu1", "modulus_nu0", "modulus_nu1",
        "density_nu0", "spectrum_nu0", "spectrum_nu1"]
    assert {report.check(name).details["route"] for name in ("density_nu0", "density_nu1")} == {
        "exact"}


def test_the_half_turn_test_reads_rows_weights_and_frequencies(basis, theta0, theta1):
    # (b)'s test: theta0 is even and theta1 odd, each only so; an atom
    # without its half-turn image, a partner of another weight, or a
    # density frequency of the other parity has neither parity; zero has both
    half = basis.half_turn()
    a = basis.generator("a")
    zero = MixedMeasure.from_discrete(DiscreteMeasure.zero(basis))
    cases = [(theta0, True, False), (theta1, False, True), (zero, True, True),
             (DiscreteMeasure.from_atoms(basis, [(a, 1.0)]), False, False),
             (DiscreteMeasure.from_atoms(basis, [(a, 1.0), (a + half, 0.5)]), False, False),
             (MixedMeasure(theta0, MixedMeasure.from_density(basis, {2: 1.0}).ac), True, False),
             (MixedMeasure(theta0, MixedMeasure.from_density(basis, {3: 1.0}).ac), False, False),
             (MixedMeasure.from_density(basis, {-1: 1.0, 3: 1.0j}), False, True)]
    for m, even, odd in cases:
        assert (decomposition._has_parity(as_mixed(m), 0),
                decomposition._has_parity(as_mixed(m), 1)) == (even, odd), m


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
@example((0, 1), 2000, 0.1, [0.5, 0.25j, -0.125])
@example((0, 1), 2001, 0.1, [0.5, 0.25j, -0.125])
@given(st.sampled_from([(i, j) for j in range(len(FRESH_GENERATOR_VALUES)) for i in range(j)]),
       st.integers(16, 1 << 12), st.floats(0.05, 0.2),
       st.lists(st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
                min_size=3, max_size=3))
def test_density_check_is_at_least_the_brute_force_covering(pair, N, tol, weights):
    # two routes: the tree's cached coverings of the fresh pair's half-clouds
    # equal a dense distance matrix's over the transforms values of rho, at
    # even and odd N, and are (e)'s pair_cover; check (e)'s residual, bound
    # or exact, is at least the dense covering of the R_i disk by nu_i's cloud
    i, j = pair
    result = decompose(measure_with_fresh_pair(i, j, weights),
                       DecompositionOptions(verify_N=N, verify_tol=tol))
    assert result.basis.values[-2:] == (FRESH_GENERATOR_VALUES[i][1],
                                        FRESH_GENERATOR_VALUES[j][1])
    ns = np.arange(-N, N + 1, dtype=np.int64)
    [rho_t] = transforms([make_rho(result.alpha, result.beta, result.basis)], ns)
    even, odd = brute = tuple(brute_covering(disk_grid(1.0, tol), rho_t[sel])
                              for sel in (ns % 2 == 0, ns % 2 != 0))
    assert decomposition._pair_covering(result.alpha, result.beta, result.basis, N, tol) == brute
    for name, nu, r, cover in (("density_nu0", result.nu0, result.R0, odd),
                               ("density_nu1", result.nu1, result.R1, even)):
        check = result.report.check(name)
        assert check.details["pair_cover"] == cover
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


def test_the_cached_covering_reads_one_transforms_call_of_rho_bit_for_bit(monkeypatch, basis):
    # the bound R (cov + a) allows a = _transform_allowance(rho, N) for the
    # rounding of the floats that cov covers: those of one transforms call
    # of rho over |n| <= N, split by the parity of n
    mu = random_mixed(default_rng(513), basis)
    result = decompose(mu, DecompositionOptions(verify=False))
    calls, samples = [], []
    real_transforms, real_covering = decomposition.transforms, decomposition.covering_radius

    def transforms_spy(ms, ns):
        values = real_transforms(ms, ns)
        calls.append((list(ms), ns, values))
        return values

    monkeypatch.setattr(decomposition, "transforms", transforms_spy)
    monkeypatch.setattr(decomposition, "covering_radius",
                        lambda reference, sample: samples.append(sample)
                        or real_covering(reference, sample))
    report = verify_decomposition(mu, result)
    [(ms, ns, [values])] = calls
    assert ms == [make_rho(result.alpha, result.beta, result.basis)]
    assert ns.tolist() == list(range(-10_000, 10_001))
    # the odd n (nu0's) and the even n (nu1's), in either order
    assert sorted(sample.tobytes() for sample in samples) == sorted(
        [values[1::2].tobytes(), values[0::2].tobytes()])
    allowance = measures._transform_allowance(as_mixed(ms[0]), 10_000)
    for name in ("density_nu0", "density_nu1"):
        d = report.check(name).details
        spread = d["radius"] * (d["pair_cover"] + allowance)
        assert d["allowance"] == allowance and d["route"] == "bound"
        assert d["rounding"] == 8 * measures._U * (d["radius"] + spread)
        assert report.check(name).residual == d["bound"] == spread + d["rounding"]


@pytest.mark.parametrize("N", [2000, 2001])
def test_the_pair_covering_is_the_brute_covering_of_the_verifier_s_rho_halves(monkeypatch,
                                                                              basis, N):
    # the rho_hat values the verifier's bound covers (one transforms call
    # over |n| <= N), split by the parity of n and covered by a dense
    # distance matrix, are bit for bit the cached (even, odd) pair and the
    # pair_cover of nu1's and nu0's density checks
    mu = random_mixed(default_rng(515), basis)
    result = decompose(mu, DecompositionOptions(verify=False))
    decomposition._pair_covering.cache_clear()
    calls = []
    real_transforms = decomposition.transforms

    def transforms_spy(ms, ns):
        values = real_transforms(ms, ns)
        calls.append((list(ms), ns, values))
        return values

    monkeypatch.setattr(decomposition, "transforms", transforms_spy)
    report = verify_decomposition(mu, result, N=N, tol=0.1)
    # the exact route's call of the nu_i, if any, is seen too: take rho's
    rho = make_rho(result.alpha, result.beta, result.basis)
    [(ns, [rho_t])] = [(ns, values) for ms, ns, values in calls if ms == [rho]]
    assert ns.tolist() == list(range(-N, N + 1))
    want = tuple(brute_covering(disk_grid(1.0, 0.1), rho_t[ns % 2 == parity]) for parity in (0, 1))
    assert decomposition._pair_covering(result.alpha, result.beta, result.basis, N, 0.1) == want
    assert (report.check("density_nu1").details["pair_cover"],
            report.check("density_nu0").details["pair_cover"]) == want


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
    # moving one weight of nu0's R0 rho * theta1 atoms breaks (f)'s premise,
    # so (c) fails and (e) takes the cloud's own covering, which passes
    # exactly when the dense covering is within the threshold
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
    assert check.details["route"] == "exact"


def test_a_second_decomposition_with_the_same_fresh_pair_builds_no_tree(monkeypatch, basis):
    calls = []
    real = decomposition.covering_radius

    def counting(*args):
        calls.append(len(args[1]))
        return real(*args)

    monkeypatch.setattr(decomposition, "covering_radius", counting)
    rng = default_rng(512)
    first = decompose(random_mixed(rng, basis))
    assert sorted(calls) == [10_000, 10_001]  # the odd and the even n with |n| <= 10^4
    second = decompose(random_discrete(rng, basis))
    assert sorted(calls) == [10_000, 10_001]
    for result in (first, second):
        assert result.report.passed
        assert {result.report.check(name).details["route"]
                for name in ("density_nu0", "density_nu1")} == {"bound"}


@pytest.mark.parametrize("not_a_measure", [42, "x", None])
def test_decompose_and_verify_refuse_a_non_measure_alike(basis, not_a_measure):
    result = decompose(random_discrete(default_rng(516), basis), DecompositionOptions(verify=False))
    for call in (lambda: decompose(not_a_measure),
                 lambda: verify_decomposition(not_a_measure, result)):
        with pytest.raises(TypeError, match=f"^not a measure: {re.escape(repr(not_a_measure))}$"):
            call()


def test_pair_covering_cache_size_is_the_module_constant():
    assert decomposition._pair_covering.cache_parameters()["maxsize"] == decomposition._PAIR_COVER_CACHE


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


def test_no_certified_radius_integrates_a_density(monkeypatch, basis):
    # the quadrature of TrigPolyDensity.l1_norm_bounds is an estimate, so no
    # bracket, cap or norm-root entry may read it: on mixed inputs, through
    # the walks and through the fallback above the walker's dimensions
    calls = []
    monkeypatch.setattr(measures.TrigPolyDensity, "l1_norm_bounds",
                        lambda self: calls.append(self) or (0.0, 0.0))
    fallbacks = _counting_fekete(monkeypatch)
    five = GeneratorBasis.from_pairs(FRESH_GENERATOR_VALUES[:5])
    wide = MixedMeasure(DiscreteMeasure.from_atoms(
        five, [(five.angle(Fraction(0), (1, 0, 1, 0, 1)), 0.5),
               (five.angle(Fraction(1, 2), (0, 1, 0, 1, 1)), 0.5)]),
        measures.TrigPolyDensity({1: 0.25, -2: 0.5j}))
    rng = default_rng(3201)
    for mu in (random_mixed(rng, basis), random_mixed(rng, basis), wide):
        result = decompose(mu, DecompositionOptions(fekete_k_max=2))
        assert result.report.passed
        assert verify_decomposition(mu, result).passed
        spectrum._memo_bracket.cache_clear()
        for piece in parity_projections(result.mu_embedded):
            if mu is not wide:
                spectrum.spectral_bracket(piece)
            spectrum.radius_bracket(piece, 2)
    assert fallbacks and calls == []


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
    # within its rounding allowance, the cap max(||d||, upper_k) that is
    # fekete_bound's first entry, and below ||mu1|| >= ||d|| + max_k |c_k|
    mu = MixedMeasure(DiscreteMeasure.from_atoms(basis, [(basis.generator("a"), 0.0625)]),
                      MixedMeasure.from_density(basis, {3: 2.0, -1: 0.25j}).ac)
    result = decompose(mu)
    assert result.report.passed
    (lo1, hi1) = result.radius_brackets[1]
    exact = abs(mu.transform(np.array([3]))[0])
    assert lo1 <= exact <= hi1 == result.R1 and hi1 - lo1 <= 1e-13
    mu1 = parity_projections(result.mu_embedded)[1]
    assert result.R1 == fekete_bound(mu1, 0).final_bound
    assert result.R1 < mu1.disc.norm() + max(abs(c) for c in mu1.ac.coeffs.values())


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
    # on the bound route the verifier's only phase factors are the cached
    # covering's, from one transforms call of rho: at N = 10^4 it builds each
    # generator vector g's tables from B + R * 6 kernel evaluations, B = 256
    # for its low table and R = 16 for each of the six blocks of 4096 n that
    # |n| <= N meets, not the 2N + 1 of one per n
    N, B, R = 10_000, measures._TABLE_SPLIT, measures._ROW_BLOCK
    mu = random_discrete(default_rng(606), basis)
    result = decompose(mu, DecompositionOptions(verify=False))
    calls = []
    real = measures.phase_factors
    monkeypatch.setattr(measures, "phase_factors", lambda ns, g: calls.append(
        Counter({value: ns.size for value in np.ravel(g)})) or real(ns, g))
    report = verify_decomposition(mu, result, N=N)
    assert report.passed
    assert {report.check(name).details["route"] for name in ("density_nu0", "density_nu1")} == {
        "bound"}
    verified, calls[:] = list(calls), []
    decomposition._pair_covering.cache_clear()
    decomposition._pair_covering(result.alpha, result.beta, result.basis, N, 0.05)
    assert verified == calls and len(set().union(*calls)) >= 2
    assert (N >> 12) - (-N >> 12) + 1 == 6
    assert max(max(call.values()) for call in calls) <= B + R * 6


def test_a_verifier_after_decompose_builds_no_fresh_pair_and_merges_once_per_sum(monkeypatch,
                                                                                 basis):
    # with the fresh pair's pieces, its covering and the pieces' brackets
    # kept from decompose, the verifier reads rows and brackets only: no
    # transforms, convolve or make_rho call, and tau and each premise
    # nu_i - mu_i - R_i rho * theta are one _sum of one _merge each
    rng = default_rng(517)
    for mu in (random_discrete(rng, basis), random_mixed(rng, basis)):
        result = decompose(mu)
        assert result.report.passed
        calls = []
        for module in (measures, spectrum, decomposition):
            for name in ("transforms", "convolve", "make_rho", "_sum", "_merge"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, lambda *args, real=getattr(module, name),
                                        name=name: calls.append(name) or real(*args))
        report = verify_decomposition(mu, result)
        monkeypatch.undo()
        assert report == result.report
        assert {report.check(name).details["route"]
                for name in ("density_nu0", "density_nu1")} == {"bound"}
        assert calls == ["_sum", "_merge"] * 3


def test_the_fresh_pair_is_rho_and_its_two_half_turn_pieces_bit_for_bit(basis):
    # a second route: the quarter-weight atoms at alpha, beta and their
    # half-turn images, positions built from Fraction turns
    alpha, beta, half = basis.generator("a"), basis.generator("b"), basis.angle(Fraction(1, 2))
    pieces = decomposition._fresh_pair(alpha, beta, basis)
    assert decomposition._fresh_pair(alpha, beta, basis) is pieces
    want = [DiscreteMeasure.from_atoms(basis, [(alpha, 0.5), (beta, 0.5)])]
    want += [DiscreteMeasure.from_atoms(basis, [(alpha, 0.25), (beta, 0.25), (alpha + half, sign),
                                                (beta + half, sign)]) for sign in (-0.25, 0.25)]
    for got, expected in zip(pieces, want):
        assert got.den == expected.den
        for name in ("num", "coef", "w"):
            a, b = getattr(got, name), getattr(expected, name)
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
            assert not a.flags.writeable


def _law_slack(measures_, n_max: int) -> float:
    """The summed ``_transform_allowance`` of the measures at |n| <= n_max,
    plus 4 u times their total variation for the float sums that combine
    their values."""
    mixed = [as_mixed(m) for m in measures_]
    return sum(measures._transform_allowance(m, n_max) + 4 * measures._U * (
        m.disc.norm() + sum(abs(c) for c in m.ac.coeffs.values())) for m in mixed)


def _decompose_and_certify_shaped(seed: int):
    """(mu, result, report): two decompose-shaped inputs (4 atoms over sqrt2
    and sqrt3 at total variation 2, bracket radii at fekete_k_max 4) and two
    certify-shaped ones (4 atoms plus a degree-3 density, radii doubled from
    fekete_k_max 1 and verified in manual mode)."""
    basis = GeneratorBasis.from_pairs(FRESH_GENERATOR_VALUES[:2])
    rng = default_rng(seed)
    cases = []
    for _ in range(2):
        raw = random_discrete(rng, basis)
        mu = raw.scale(2.0 / raw.norm())
        result = decompose(mu, DecompositionOptions(fekete_k_max=4))
        cases.append((mu, result, result.report))
    for _ in range(2):
        mu = random_mixed(rng, basis, degree=3)
        base = decompose(mu, DecompositionOptions(verify=False, fekete_k_max=1))
        doubled = decompose(mu, DecompositionOptions(
            radius_mode="manual", manual_radii=(2.0 * base.R0, 2.0 * base.R1), verify=False))
        cases.append((mu, doubled, verify_decomposition(mu, doubled, N=10_000)))
    return cases


def test_the_laws_the_verifier_derives_hold_on_a_transform_net():
    # two routes: (a), (c) and (d) are derived from rows and brackets; here
    # nu0_hat, nu1_hat, nu2_hat, mu_hat and rho_hat are evaluated on
    # |n| <= 10^4 and the laws are checked on that net, within the values'
    # rounding allowances
    N = 10_000
    ns = np.arange(-N, N + 1, dtype=np.int64)
    even = ns % 2 == 0
    for mu, result, report in _decompose_and_certify_shaped(3101):
        assert report.passed
        mu_e = result.mu_embedded
        rho = make_rho(result.alpha, result.beta, result.basis)
        nu0_t, nu1_t, nu2_t, mu_t, rho_t = transforms(
            [result.nu0, result.nu1, result.nu2, mu_e, rho], ns)
        # (a) every transform value of the identity residual
        slack = _law_slack([result.nu0, result.nu1, result.nu2, mu_e], N)
        assert np.max(np.abs(nu0_t + nu1_t + nu2_t - mu_t)) <= (
            report.check("identity_transform").residual + slack)
        # (c) nu_i_hat is mu_hat on its own parity, R_i rho_hat on the other
        for nu, nu_t, r, own, name in ((result.nu0, nu0_t, result.R0, even, "parity_nu0"),
                                       (result.nu1, nu1_t, result.R1, ~even, "parity_nu1")):
            assert np.max(np.abs(nu_t[own] - mu_t[own])) <= (
                report.check(name).residual + _law_slack([nu, mu_e], N))
            assert np.max(np.abs(nu_t[~own] - r * rho_t[~own])) <= (
                _law_slack([nu, rho.scale(r)], N) + 2 * measures._U * r)
            # (d) the modulus bound |nu_i_hat| <= max(upper, R_i) = R_i
            assert report.check(f"modulus_{name[-3:]}").residual <= 0.0
            assert np.max(np.abs(nu_t)) <= r + _law_slack([nu], N)


@pytest.mark.parametrize("k", [-500, -40, 40, 500])
@pytest.mark.parametrize("draw", [random_mixed, random_discrete])
def test_parity_and_modulus_pass_at_every_power_of_two_scale(draw, k):
    # scaling mu by 2^k is exact in binary floating point, so the verdicts
    # of the parity and modulus checks must not move with k
    basis = GeneratorBasis.from_pairs(FRESH_GENERATOR_VALUES[:2])
    mu = draw(default_rng(3), basis)
    report = decompose(mu.scale(2.0 ** k)).report
    for name in ("parity_nu0", "parity_nu1", "modulus_nu0", "modulus_nu1"):
        assert report.check(name).passed, (name, report.check(name))


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
