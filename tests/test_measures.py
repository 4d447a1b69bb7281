"""Measure algebra: convolution, total variation, transforms, parity splits."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from natspec.angles import GeneratorBasis, angle_add
from natspec.errors import BudgetExceededError
from natspec.measures import (ConvolutionBudget, DiscreteMeasure, MixedMeasure,
                              TrigPolyDensity, _rational_residues, as_mixed, convolve,
                              convolve_power, fourier_coefficient, make_rho,
                              make_theta0, make_theta1, parity_projections, tv_norm,
                              tv_norm_bounds)
from natspec.sampling import default_rng, random_discrete, random_mixed

NS = np.arange(-12, 13)

dyadic_st = st.builds(lambda m, e: m * 2.0 ** e,
                      st.integers(-1024, 1024), st.integers(-8, 0))
weight_st = st.builds(complex, dyadic_st, dyadic_st)
unit_st = st.floats(-1.0, 1.0, allow_nan=False)
float_weight_st = st.builds(complex, unit_st, unit_st)
BASIS = GeneratorBasis.from_pairs((("a", math.sqrt(2)), ("b", math.sqrt(3))))


def mp_transform(mu: DiscreteMeasure, n: int) -> complex:
    """mu_hat(n) summed atom by atom in mpmath at 30 digits.

    The rational part of each phase is reduced exactly in Fraction
    arithmetic, so the value is right for any n; the irrational part uses
    the exact binary values of the generator floats.
    """
    with mpmath.workdps(30):
        total = mpmath.mpc(0)
        for angle, w in mu.atoms.items():
            p, q = angle.turns.numerator, angle.turns.denominator
            rational = Fraction((-n * p) % q, q)
            irrational = sum((c * mpmath.mpf(v) for c, v in zip(angle.coeffs, mu.basis.values)),
                             mpmath.mpf(0))
            phase = 2 * mpmath.pi * mpmath.mpf(rational.numerator) / rational.denominator
            total += mpmath.mpc(w.real, w.imag) * mpmath.expj(phase - n * irrational)
        return complex(total)


def test_projection_measures_are_idempotent(basis, theta0, theta1):
    assert convolve(theta0, theta0) == theta0
    assert convolve(theta1, theta1) == theta1


def test_projection_measures_annihilate_each_other(basis, theta0, theta1):
    prod = convolve(theta0, theta1)
    assert prod.is_zero and len(prod.atoms) == 0


def test_projection_measures_sum_to_identity(basis, theta0, theta1):
    delta0 = DiscreteMeasure.from_atoms(basis, [(basis.zero(), 1.0)])
    assert theta0 + theta1 == delta0


def test_half_turn_squares_to_identity(basis):
    dpi = DiscreteMeasure.from_atoms(basis, [(basis.half_turn(), 1.0)])
    delta0 = DiscreteMeasure.from_atoms(basis, [(basis.zero(), 1.0)])
    assert convolve(dpi, dpi) == delta0


def test_two_point_average_squared(basis, rho):
    sq = convolve_power(rho, 1)
    expected = {(0, 2): 0.25 + 0j, (1, 1): 0.5 + 0j, (2, 0): 0.25 + 0j}
    assert {a.coeffs: w for a, w in sq.atoms.items()} == expected
    assert all(a.turns == 0 for a in sq.atoms)


def test_repeated_squaring_matches_direct_convolution(basis, rho):
    direct = convolve(convolve(convolve(rho, rho), rho), rho)
    assert convolve_power(rho, 2) == direct


def test_power_budget_reports_partial_progress(basis, rho):
    with pytest.raises(BudgetExceededError) as exc:
        convolve_power(rho, 6, budget=ConvolutionBudget(max_atoms=10))
    assert exc.value.completed_exponent == 3
    assert len(exc.value.partial.atoms) == 9


def test_convolve_budget_limits(basis, rho):
    with pytest.raises(BudgetExceededError):
        convolve(rho, rho, budget=ConvolutionBudget(max_atoms=2))
    wide = MixedMeasure.from_density(basis, {k: 1.0 for k in range(-5, 6)})
    with pytest.raises(BudgetExceededError):
        convolve(wide, wide, budget=ConvolutionBudget(max_degree=4))


def test_drop_tol_prunes_small_products(basis):
    small = DiscreteMeasure.from_atoms(
        basis, [(basis.zero(), 1.0), (basis.generator("a"), 1e-15)])
    pruned = convolve(small, small, drop_tol=1e-12)
    assert len(pruned.atoms) == 1
    assert pruned.atoms[basis.zero()] == 1.0


def test_convolution_theorem_on_random_measures(basis):
    rng = default_rng(20240811)
    for _ in range(8):
        a = random_mixed(rng, basis)
        b = random_mixed(rng, basis)
        prod = convolve(a, b)
        resid = np.max(np.abs(prod.transform(NS) - a.transform(NS) * b.transform(NS)))
        assert resid < 1e-10


def _exact_convolution(mu: DiscreteMeasure, nu: DiscreteMeasure) -> dict:
    """Second route for convolve: positions summed as exact Fractions and
    integer tuples, weights summed in mpmath at 40 digits.  Maps each
    position of the sumset to (exact weight, sum of |w_a| |w_b| there)."""
    out: dict = {}
    with mpmath.workdps(40):
        for pa, wa in mu.atoms.items():
            for pb, wb in nu.atoms.items():
                turns = (pa.turns + pb.turns) % 1
                key = (turns, tuple(x + y for x, y in zip(pa.coeffs, pb.coeffs)))
                w, scale = out.get(key, (mpmath.mpc(0), mpmath.mpf(0)))
                out[key] = (w + mpmath.mpc(wa) * mpmath.mpc(wb),
                            scale + abs(mpmath.mpc(wa)) * abs(mpmath.mpc(wb)))
    return out


def _random_measure(rng, basis: GeneratorBasis, q: int, size: int) -> DiscreteMeasure:
    """``size`` distinct positions (turns j/q, coefficients in -2..2) with
    non-dyadic weights k/997, so products and sums round."""
    k = len(basis)
    space = q * 5 ** k
    codes = rng.choice(space, size=min(size, space), replace=False)
    atoms = []
    for code in codes.tolist():
        coeffs = []
        for _ in range(k):
            code, c = divmod(code, 5)
            coeffs.append(c - 2)
        re, im = rng.integers(1, 998, size=2) * rng.choice((-1, 1), size=2)
        atoms.append((basis.angle(Fraction(code, q), coeffs), complex(re, im) / 997))
    return DiscreteMeasure.from_atoms(basis, atoms)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 3), st.sampled_from((1, 2, 12, 65, 97)),
       st.integers(1, 80), st.integers(1, 80), st.integers(0, 2 ** 32 - 1))
@example(0, 65, 65, 65, 0)  # 4225 pairs over an empty basis: reshape(-1, 0) crashed
@example(2, 12, 70, 70, 1)  # above the old 4096-pair switch
@example(3, 2, 9, 11, 2)  # below it
def test_convolve_matches_exact_sums(k, q, size_a, size_b, seed):
    rng = np.random.default_rng(seed)
    basis = GeneratorBasis.from_pairs(
        (("sqrt2", math.sqrt(2)), ("sqrt3", math.sqrt(3)), ("ln3", math.log(3)))[:k])
    mu = _random_measure(rng, basis, q, size_a)
    nu = _random_measure(rng, basis, q, size_b)
    got = convolve(mu, nu)
    exact = _exact_convolution(mu, nu)
    assert {(a.turns, a.coeffs) for a in got.atoms} == {key for key, (w, _) in exact.items()
                                                        if w != 0}
    for angle, w in got.atoms.items():
        want, scale = exact[(angle.turns, angle.coeffs)]
        assert abs(mpmath.mpc(w) - want) <= 1e-15 * scale


def test_convolve_refuses_coefficients_that_could_wrap(basis):
    # int64 sums of coefficients at 2**62 would wrap to negative values
    far = DiscreteMeasure.from_atoms(basis, [(basis.angle(0, (1 << 62, 0)), 1.0)])
    with pytest.raises(ValueError, match="too large"):
        convolve(far, far)


def test_translate_matches_point_mass_convolution(basis):
    rng = default_rng(7)
    mu = random_discrete(rng, basis)
    shift = basis.angle(Fraction(1, 3), (1, -1))
    point = DiscreteMeasure.from_atoms(basis, [(shift, 1.0)])
    assert convolve(point, mu) == mu.translate(shift)


def test_tv_norm_exact_on_point_masses(basis, theta0, theta1, rho):
    assert tv_norm(theta0) == 1.0
    assert tv_norm(convolve(rho, theta1)) == 1.0
    gamma = DiscreteMeasure.from_atoms(basis, [(basis.generator("a"), -0.75 + 1.0j)])
    assert tv_norm(gamma) == abs(-0.75 + 1.0j)


def test_tv_norm_of_plain_densities(basis):
    pure = MixedMeasure.from_density(basis, {1: 2.0})
    assert tv_norm(pure) == 2.0
    one_plus_cos = MixedMeasure.from_density(basis, {0: 1.0, 1: 0.5, -1: 0.5})
    value, err = tv_norm_bounds(one_plus_cos)
    assert value == pytest.approx(1.0, abs=1e-12)
    assert 0.0 <= err < 1e-9
    cos_only = MixedMeasure.from_density(basis, {1: 0.5, -1: 0.5})
    value, err = tv_norm_bounds(cos_only)
    assert value == 0.6366197723675826
    assert abs(value - 2.0 / math.pi) <= max(err, 5e-15)


def test_tv_norm_adds_discrete_and_density_parts(basis, rho):
    mix = MixedMeasure(rho, TrigPolyDensity({0: 0.5, 1: 0.25j}))
    ac_value, ac_err = mix.ac.l1_norm_bounds()
    value, err = tv_norm_bounds(mix)
    assert value == rho.norm() + ac_value
    assert err == ac_err


def test_tv_norm_submultiplicative_under_convolution(basis):
    rng = default_rng(99)
    for _ in range(6):
        a = random_mixed(rng, basis, n_atoms=3, degree=2)
        b = random_mixed(rng, basis, n_atoms=3, degree=2)
        assert tv_norm(convolve(a, b)) <= tv_norm(a) * tv_norm(b) + 1e-8


def test_fourier_coefficient_conventions(basis, rho):
    pure = MixedMeasure.from_density(basis, {3: 2.0})
    assert fourier_coefficient(pure, 3) == 2.0
    assert fourier_coefficient(pure, 2) == 0.0
    gamma = basis.generator("a")
    point = DiscreteMeasure.from_atoms(basis, [(gamma, 1.0)])
    for n in (-5, 0, 1, 7):
        expected = complex(math.cos(n * math.sqrt(2)), -math.sin(n * math.sqrt(2)))
        assert fourier_coefficient(point, n) == pytest.approx(expected, abs=1e-12)
    want = (np.exp(-5j * math.sqrt(2)) + np.exp(-5j * math.sqrt(3))) / 2.0
    assert fourier_coefficient(rho, 5) == pytest.approx(want, abs=1e-12)


def test_transform_vectorized_matches_scalar(basis):
    rng = default_rng(3)
    mu = random_mixed(rng, basis)
    # the long range makes arrays above numpy's 256 KiB temporary-elision
    # threshold, where an in-place complex product would round differently
    for ns in (NS, np.arange(-10 ** 4, 10 ** 4 + 1)):
        vec = mu.transform(ns)
        for i in np.linspace(0, len(ns) - 1, min(len(ns), 401)).astype(int):
            assert vec[i] == fourier_coefficient(mu, int(ns[i]))


@settings(max_examples=200)
@given(st.integers(1, 1 << 40).flatmap(
           lambda q: st.tuples(st.integers(0, q - 1), st.just(q))),
       st.lists(st.integers(-(1 << 62), 1 << 62), min_size=1, max_size=8))
@example(((1 << 40) - 5, 1 << 40), [1 << 62, 3 - (1 << 62)])  # (q - 1) * p >= 2**63
def test_rational_residues_are_exact(pq, ns):
    p, q = pq
    got = _rational_residues(np.array(ns, dtype=np.int64), p, q)
    assert got.tolist() == [(-n * p) % q for n in ns]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.sampled_from((1, 2, 3, 7, 12, 97, 1_000_003)),
                          st.integers(0, 10 ** 6), float_weight_st),
                min_size=1, max_size=4),
       st.lists(st.integers(-(1 << 62), 1 << 62), min_size=1, max_size=8))
@example([(1_000_003, 999_998, 1.0 + 0j)], [1 << 44])  # wrapped in int64 before
def test_rational_transform_matches_exact_phases(atoms, ns):
    mu = DiscreteMeasure.from_atoms(
        BASIS, [(BASIS.from_turns(Fraction(p % q, q)), w) for q, p, w in atoms])
    vec = mu.transform(np.array(ns, dtype=np.int64))
    for n, v in zip(ns, vec):
        assert abs(v - mp_transform(mu, n)) <= 1e-12 * mu.norm()


@st.composite
def grouped_measures(draw):
    """Discrete measures whose atoms share generator-coefficient vectors:
    several turns per vector, some with their half-turn partner."""
    vectors = draw(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                            min_size=1, max_size=4, unique=True))
    atoms = []
    for vec in vectors:
        turns = draw(st.lists(st.builds(Fraction, st.integers(0, 11), st.just(12)),
                              min_size=1, max_size=3, unique=True))
        for t in turns:
            atoms.append((BASIS.angle(t, vec), draw(float_weight_st)))
            if draw(st.booleans()):
                atoms.append((BASIS.angle(t + Fraction(1, 2), vec), draw(float_weight_st)))
    return DiscreteMeasure.from_atoms(BASIS, atoms)


@settings(max_examples=30, deadline=None)
@given(grouped_measures())
def test_grouped_transform_matches_mpmath(mu):
    ns = np.arange(-10 ** 4, 10 ** 4 + 1)
    vec = mu.transform(ns)
    for i in np.linspace(0, len(ns) - 1, 41).astype(int):
        assert abs(vec[i] - mp_transform(mu, int(ns[i]))) <= 1e-11 * mu.norm()


def test_parity_split_pairs_atoms_exactly(basis):
    rng = default_rng(17)
    mu = random_discrete(rng, basis, n_atoms=6)
    m0, m1 = parity_projections(mu)
    half = basis.half_turn()
    for part, sign in ((m0, 1.0), (m1, -1.0)):
        for pos, w in part.atoms.items():
            assert part.atoms.get(angle_add(pos, half), 0.0) == sign * w


def test_parity_split_separates_density_frequencies(basis):
    mix = MixedMeasure.from_density(basis, {-2: 1.0j, -1: 0.5, 0: 2.0, 1: 3.0, 2: 4.0})
    m0, m1 = parity_projections(mix)
    assert m0.ac.coeffs == {-2: 1.0j, 0: 2.0, 2: 4.0}
    assert m1.ac.coeffs == {-1: 0.5, 1: 3.0}


@settings(max_examples=40)
@given(st.lists(weight_st, min_size=1, max_size=5), st.integers(0, 3))
def test_parity_split_recombines_exactly(weights, denom_index):
    basis = GeneratorBasis.from_pairs((("a", math.sqrt(2)), ("b", math.sqrt(3))))
    q = (2, 3, 4, 8)[denom_index]
    atoms = []
    for i, w in enumerate(weights):
        atoms.append((basis.angle(Fraction(i % q, q), (i, 1 - i)), w))
    mu = DiscreteMeasure.from_atoms(basis, atoms)
    m0, m1 = parity_projections(mu)
    assert m0 + m1 == mu


def test_parity_split_recombines_mixed(basis):
    rng = default_rng(5)
    for _ in range(10):
        mu = random_mixed(rng, basis)
        m0, m1 = parity_projections(mu)
        assert m0 + m1 == as_mixed(mu)


def test_as_mixed_wraps_discrete(basis, rho):
    wrapped = as_mixed(rho)
    assert wrapped.is_discrete and wrapped.disc == rho
    assert as_mixed(wrapped) is wrapped


def test_mixed_arithmetic_accepts_discrete_on_either_side(basis, rho):
    density = MixedMeasure.from_density(basis, {0: 0.5, 2: 0.25})
    left = rho + density
    right = density + rho
    assert isinstance(left, MixedMeasure) and isinstance(right, MixedMeasure)
    assert left.disc == right.disc and left.ac == right.ac
    diff = rho - density
    assert diff.disc == rho and (diff + density).disc == rho
    assert (rho - as_mixed(rho)).is_zero


def test_scale_and_negate(basis, rho):
    doubled = rho.scale(2.0)
    assert tv_norm(doubled) == 2.0
    assert (-rho) + rho == DiscreteMeasure.from_atoms(basis, [])
    assert (rho - rho).is_zero
