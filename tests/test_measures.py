"""Measure algebra: convolution, total variation, transforms, parity splits."""

import math
import operator
import os
import struct
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from functools import reduce
from pathlib import Path
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import natspec
from natspec.angles import Angle, GeneratorBasis, phase_factors
from natspec.errors import BudgetExceededError
from natspec import decomposition, measures
from natspec.measures import (DiscreteMeasure, MixedMeasure, TrigPolyDensity,
                              _exact_halves_complex, _rational_residues, _roots, as_mixed,
                              convolve, make_rho, make_theta0, make_theta1,
                              parity_projections, transforms, tv_norm, tv_norm_bounds,
                              unit_roots)
from natspec.sampling import default_rng, random_discrete, random_mixed
from natspec.spectrum import fekete_bound
from oracles import mp_transform

NS = np.arange(-12, 13)

dyadic_st = st.builds(lambda m, e: m * 2.0 ** e,
                      st.integers(-1024, 1024), st.integers(-8, 0))
weight_st = st.builds(complex, dyadic_st, dyadic_st)
unit_st = st.floats(-1.0, 1.0, allow_nan=False)
# a relative bound such as 1e-12 * norm rounds to 0 when the norm is
# subnormal, so the relative-accuracy properties draw normal weights and
# subnormal ones are held to the underflow unit below
normal_st = st.floats(-1.0, 1.0, allow_nan=False, allow_subnormal=False)
float_weight_st = st.builds(complex, normal_st, normal_st)
subnormal_st = st.floats(-2.0 ** -1022, 2.0 ** -1022)
BASIS = GeneratorBasis.from_pairs((("a", math.sqrt(2)), ("b", math.sqrt(3))))


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
    sq = convolve(rho, rho)
    expected = {(0, 2): 0.25 + 0j, (1, 1): 0.5 + 0j, (2, 0): 0.25 + 0j}
    assert {a.coeffs: w for a, w in sq.atoms.items()} == expected
    assert all(a.turns == 0 for a in sq.atoms)


def test_repeated_squaring_matches_direct_convolution(basis, rho):
    direct = convolve(convolve(convolve(rho, rho), rho), rho)
    sq = convolve(rho, rho)
    assert convolve(sq, sq) == direct


def _line(basis, size: int, axis: int) -> DiscreteMeasure:
    """``size`` unit atoms at j times one generator, 0 <= j < size."""
    return DiscreteMeasure.from_atoms(
        basis, [(basis.angle(0, (j, 0) if axis == 0 else (0, j)), 1.0) for j in range(size)])


def test_convolve_refuses_too_many_pairs_before_allocating(basis):
    line = _line(basis, 2001, 0)  # 2001**2 = 4_004_001 pairs, one above the limit
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError, match="4004001 atom pairs"):
            convolve(line, line)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_convolve_budget_limits(basis):
    # orthogonal axes: every one of the 450 * 450 = 202_500 pairs is its own atom
    with pytest.raises(BudgetExceededError, match="202500 atoms"):
        convolve(_line(basis, 450, 0), _line(basis, 450, 1))
    assert len(convolve(_line(basis, 400, 0), _line(basis, 500, 1))) == 200_000
    delta = MixedMeasure.from_discrete(DiscreteMeasure(basis, {basis.zero(): 1.0}))
    with pytest.raises(BudgetExceededError, match="65537"):
        convolve(delta, MixedMeasure.from_density(basis, {65_537: 1.0}))
    assert convolve(delta, MixedMeasure.from_density(basis, {-65_536: 1.0})).ac.degree == 65_536


def test_fekete_bound_stops_at_the_convolution_limits(basis):
    # 36 atoms on a 6 x 6 coefficient grid: mu^(2^k) has (5 * 2^k + 1)^2
    # atoms, so the fifth squaring needs 6561**2 pairs and stops the loop
    mu = DiscreteMeasure.from_atoms(
        basis, [(basis.angle(0, (i, j)), complex(i + 1, j - 2) / 17)
                for i in range(6) for j in range(6)])
    report = fekete_bound(mu, k_max=8)
    assert report.budget_hit
    assert [k for k, _ in report.entries] == [0, 1, 2, 3, 4]
    bits = [struct.pack("<d", r) for _, r in report.entries]
    assert bits == [struct.pack("<d", r) for _, r in fekete_bound(mu, 4).entries]
    sup = max(abs(mp_transform(mu, n)) for n in range(-256, 257))
    assert all(r >= sup for _, r in report.entries)


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


def test_translate_refuses_coefficients_that_could_wrap(basis):
    # a translate is a convolution with a unit point mass at the shift
    def translate(mu, shift):
        return convolve(DiscreteMeasure(basis, {shift: 1.0}), mu)

    far = DiscreteMeasure.from_atoms(basis, [(basis.angle(0, (1 << 62, 0)), 1.0)])
    with pytest.raises(ValueError, match="too large"):
        translate(far, basis.generator("a"))
    near = DiscreteMeasure.from_atoms(basis, [(basis.zero(), 1.0)])
    with pytest.raises(ValueError, match="too large"):
        translate(near, basis.angle(0, (0, -(1 << 62))))
    assert translate(near, basis.angle(0, (0, 1 - (1 << 62)))).atoms == {
        basis.angle(0, (0, 1 - (1 << 62))): 1.0}


def test_construction_refuses_positions_int64_cannot_hold(basis):
    with pytest.raises(ValueError, match="2\\*\\*62"):
        DiscreteMeasure(basis, {basis.angle(Fraction(1, (1 << 62) + 1)): 1.0})
    with pytest.raises(ValueError, match="2\\*\\*62"):  # lcm 2**40 * 3**26 > 2**62
        DiscreteMeasure.from_atoms(basis, [(basis.angle(Fraction(1, 1 << 40)), 1.0),
                                           (basis.angle(Fraction(1, 3 ** 26)), 1.0)])
    a = DiscreteMeasure.from_atoms(basis, [(basis.angle(Fraction(1, 1 << 40)), 1.0)])
    b = DiscreteMeasure.from_atoms(basis, [(basis.angle(Fraction(1, 3 ** 26)), 1.0)])
    with pytest.raises(ValueError, match="2\\*\\*62"):
        a + b
    for c in (1 << 63, -(1 << 63) - 1):
        with pytest.raises(ValueError, match="int64"):
            DiscreteMeasure(basis, {basis.angle(0, (c, 0)): 1.0})
    edge = DiscreteMeasure(basis, {basis.angle(0, ((1 << 63) - 1, -(1 << 63))): 1.0})
    assert list(edge.atoms) == [basis.angle(0, ((1 << 63) - 1, -(1 << 63)))]


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


def _coefficient(mu, n: int) -> complex:
    """mu_hat(n) evaluated alone, as a one-element transform."""
    return complex(mu.transform(np.array([n], dtype=np.int64))[0])


def test_fourier_coefficient_conventions(basis, rho):
    pure = MixedMeasure.from_density(basis, {3: 2.0})
    assert _coefficient(pure, 3) == 2.0
    assert _coefficient(pure, 2) == 0.0
    gamma = basis.generator("a")
    point = DiscreteMeasure.from_atoms(basis, [(gamma, 1.0)])
    for n in (-5, 0, 1, 7):
        expected = complex(math.cos(n * math.sqrt(2)), -math.sin(n * math.sqrt(2)))
        assert _coefficient(point, n) == pytest.approx(expected, abs=1e-12)
    want = (np.exp(-5j * math.sqrt(2)) + np.exp(-5j * math.sqrt(3))) / 2.0
    assert _coefficient(rho, 5) == pytest.approx(want, abs=1e-12)


def test_transform_vectorized_matches_scalar(basis):
    rng = default_rng(3)
    mu = random_mixed(rng, basis)
    # the long range makes arrays above numpy's 256 KiB temporary-elision
    # threshold, where an in-place complex product would round differently
    for ns in (NS, np.arange(-10 ** 4, 10 ** 4 + 1)):
        vec = mu.transform(ns)
        for i in np.linspace(0, len(ns) - 1, min(len(ns), 401)).astype(int):
            assert vec[i] == _coefficient(mu, int(ns[i]))


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
        BASIS, [(BASIS.angle(Fraction(p % q, q)), w) for q, p, w in atoms])
    vec = mu.transform(np.array(ns, dtype=np.int64))
    for n, v in zip(ns, vec):
        assert abs(v - mp_transform(mu, n)) <= 1e-12 * mu.norm()


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.sampled_from((1, 2, 3, 7, 12, 97, 1_000_003)),
                          st.integers(0, 10 ** 6),
                          st.builds(complex, subnormal_st, subnormal_st)),
                min_size=1, max_size=4),
       st.lists(st.integers(-(1 << 62), 1 << 62), min_size=1, max_size=8))
@example([(3, 1, 5e-324j)], [1])  # an exact tie: -0.5 * 2**-1074
def test_rational_transform_subnormal_weights_within_underflow_unit(atoms, ns):
    # below 2**-1022 a product keeps no relative precision: each rounded
    # product is off by half a unit eta = 2**-1074.  A term is H L with
    # H = w * root(256 b) and L = root(a): each component of H is off by
    # eta (two products) plus |w| times the root's own error (under 1e-15:
    # about half an ulp per component), which L, of modulus 1, carries into
    # a component of H L as at most sqrt2 eta, and the two products of that
    # component add eta more; sums of subnormals are exact, and the
    # reference and the bound round once more
    mu = DiscreteMeasure.from_atoms(
        BASIS, [(BASIS.angle(Fraction(p % q, q)), w) for q, p, w in atoms])
    bound = ((1 + math.sqrt(2)) * len(atoms) + 2) * 2.0 ** -1074 + 2e-15 * mu.norm()
    vec = mu.transform(np.array(ns, dtype=np.int64))
    for n, v in zip(ns, vec):
        err = v - mp_transform(mu, n)
        assert abs(err.real) <= bound and abs(err.imag) <= bound


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


def _bits(w: complex) -> bytes:
    return struct.pack("<dd", w.real, w.imag)


def test_unit_roots_direct_route_matches_table():
    # the table route (q <= 2**16) and the direct route give the same bits,
    # whatever the residues' order and array shape
    rng = np.random.default_rng(1)
    for q in list(range(1, 301)) + [4096, 65536]:
        r = rng.permutation(q)[:4096]
        assert unit_roots(r, q).tobytes() == _roots(r, q).tobytes()
        assert unit_roots(r.reshape(-1, 1), q).shape == (len(r), 1)
    # above the table, a root agrees with the table's root of the same fraction
    for q, m in ((1 << 17, 2), (3 << 16, 3), (1 << 20, 16), (255 << 16, 255)):
        j = rng.integers(0, q // m, size=4096)
        assert unit_roots(m * j, q).tobytes() == unit_roots(j, q // m).tobytes()
        for r in (0, q // 4, q // 2, 3 * q // 4):  # the axis roots, exact on both routes
            if r % m == 0:
                assert unit_roots(r, q) == unit_roots(r // m, q // m)
    assert unit_roots(1, 4) == 1j and unit_roots(1 << 19, 1 << 20) == -1.0
    assert isinstance(unit_roots(5, 1 << 20), np.complex128)


def test_unit_roots_within_an_ulp_of_mpmath_and_conjugate():
    # two routes: the table against mpmath cosines and sines at 113 bits,
    # each component within one ulp (exact where the true value is 0, and
    # for r/q = 2/3 the real part is exactly -1/2)
    for q in (3, 5, 6, 7, 12, 24, 360, (1 << 16) + 1):
        r = np.arange(q)
        roots = unit_roots(r, q)
        with mpmath.workprec(113):
            for k, z in enumerate(roots.tolist()):
                angle = 2 * mpmath.pi * k / q
                for got, exact in ((z.real, mpmath.cos(angle)), (z.imag, mpmath.sin(angle))):
                    if abs(exact) < 2.0 ** -100:
                        assert got == 0.0
                    else:
                        assert abs(mpmath.mpf(got) - exact) <= math.ulp(float(exact))
        # a residue and its negative give conjugate roots, bit for bit
        # (the half turn, its own negative, has an imaginary part of +0.0)
        pair = r[(r > 0) & (2 * r != q)]
        assert unit_roots(q - pair, q).tobytes() == np.conj(roots[pair]).tobytes()
    assert unit_roots(2, 3) == complex(-0.5, -unit_roots(1, 3).imag)
    assert unit_roots(1, 12).imag == 0.5 and unit_roots(1, 8).real == unit_roots(1, 8).imag


def test_transform_at_huge_denominator_builds_no_table():
    # at 2**38 + 7 a length-q root table would take 4 TiB; at 2**61 + 1,
    # 8 (q - 1) passes int64 and the roots take their octants in Python
    # integers
    for q, k in ((274877906951, 2), ((1 << 61) + 1, 1)):
        mu = DiscreteMeasure.from_atoms(BASIS, [(BASIS.angle(Fraction(1, q)), 0.5 - 0.25j),
                                                (BASIS.angle(Fraction(q - 3, k * q)), 1.0)])
        ns = np.array([-(1 << 62), -q, -5, 0, 1, 7, q - 1, 2 * q + 1, 1 << 44], dtype=np.int64)
        tracemalloc.start()
        try:
            vec = mu.transform(ns)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        for n, v in zip(ns.tolist(), vec):
            assert abs(v - mp_transform(mu, n)) <= 1e-12 * mu.norm()
    assert mu.den == q and 8 * (q - 1) >= 1 << 63
    # a residue and its negative give conjugate roots, bit for bit
    r = np.concatenate([[1, 2, q // 8, q // 4, q // 2, q - 2],
                        np.random.default_rng(1).integers(1, q, 200)])
    assert unit_roots(q - r, q).tobytes() == np.conj(unit_roots(r, q)).tobytes()


DENOMINATORS = tuple(range(1, 13)) + (97, 1_000_003)
signed_st = st.sampled_from((0.0, -0.0)) | dyadic_st | unit_st


@st.composite
def position_pools(draw):
    """A few positions over BASIS, some with their half-turn partner."""
    pool = []
    for _ in range(draw(st.integers(1, 5))):
        q = draw(st.sampled_from(DENOMINATORS))
        turns = Fraction(draw(st.integers(0, q - 1)), q)
        coeffs = draw(st.tuples(st.integers(-3, 3), st.integers(-3, 3)))
        pool.append((turns, coeffs))
        if draw(st.booleans()):
            pool.append(((turns + Fraction(1, 2)) % 1, coeffs))
    return pool


def _dict_sum(pairs) -> dict:
    """Second route for the merge: a dict keyed by (Fraction, tuple), each
    sum taken in input order starting from its first term."""
    acc: dict = {}
    for key, w in pairs:
        acc[key] = acc[key] + w if key in acc else w
    return {key: w for key, w in acc.items() if w != 0}


def _dict_parity(atoms: dict) -> tuple[dict, dict]:
    even, odd = {}, {}
    for key in sorted(atoms):
        partner = ((key[0] + Fraction(1, 2)) % 1, key[1])
        if key in even or key in odd or partner in even or partner in odd:
            continue
        h, d = _exact_halves_complex(atoms[key], atoms.get(partner, 0j))
        even[key], even[partner], odd[key], odd[partner] = h, h, d, -d
    return ({k: w for k, w in even.items() if w != 0}, {k: w for k, w in odd.items() if w != 0})


def _assert_items(mu: DiscreteMeasure, expected: dict) -> None:
    with mock.patch.object(Angle, "__post_init__", side_effect=AssertionError("Angle built")):
        assert len(mu.atoms) == len(mu) == len(expected)
    got = [((a.turns, a.coeffs), _bits(w)) for a, w in mu.atoms.items()]
    assert got == [(key, _bits(expected[key])) for key in sorted(expected)]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_merge_matches_dict_sums_bitwise(data):
    pool = data.draw(position_pools())
    weights = st.builds(complex, signed_st, signed_st)
    draws = [data.draw(st.lists(st.tuples(st.sampled_from(pool), weights), max_size=10))
             for _ in range(2)]
    mu, nu = (DiscreteMeasure.from_atoms(BASIS, [(BASIS.angle(t, c), w) for (t, c), w in d])
              for d in draws)
    mu_d, nu_d = _dict_sum(draws[0]), _dict_sum(draws[1])
    _assert_items(mu, mu_d)
    _assert_items(mu + nu, _dict_sum(list(mu_d.items()) + list(nu_d.items())))
    # a translate, as a convolution with a unit point mass: each weight is
    # its complex product with 1, which can flip a signed zero
    t, c = data.draw(st.sampled_from(pool))
    _assert_items(convolve(DiscreteMeasure(BASIS, {BASIS.angle(t, c): 1.0}), mu),
                  _dict_sum([(((k[0] + t) % 1, tuple(x + y for x, y in zip(k[1], c))), (1 + 0j) * w)
                             for k, w in mu_d.items()]))
    for part, want in zip(parity_projections(mu), _dict_parity(mu_d)):
        _assert_items(part, want)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_sum_matches_the_left_fold_and_dict_sums(data):
    # two routes for the n-ary sum: the left fold of +, equal in den, num
    # and coef and in each weight as a number, and dict sums of every row in
    # input order, bit for bit
    pool = data.draw(position_pools())
    weights = st.builds(complex, signed_st, signed_st)
    draws = data.draw(st.lists(st.lists(st.tuples(st.sampled_from(pool), weights), max_size=6),
                               min_size=1, max_size=5))
    ms = [DiscreteMeasure.from_atoms(BASIS, [(BASIS.angle(t, c), w) for (t, c), w in d])
          for d in draws]
    got, fold = measures._sum(ms), reduce(operator.add, ms)
    assert got.basis == fold.basis and got.den == fold.den
    assert got.num.tobytes() == fold.num.tobytes() and got.coef.tobytes() == fold.coef.tobytes()
    assert got.w.tolist() == fold.w.tolist()
    _assert_items(got, _dict_sum([((a.turns, a.coeffs), w) for m in ms
                                  for a, w in m.atoms.items()]))


def test_sum_and_the_left_fold_differ_only_in_a_zero_sign_that_no_check_reads():
    # the fold cancels 1 + i against -1 - i and restarts from -0, so its
    # real part is -0 + -0 = -0; the one merge sums 1 - 1 + -0 = +0
    x = BASIS.generator("a")
    ms = [DiscreteMeasure(BASIS, {x: w}) for w in (1 + 1j, -1 - 1j, complex(-0.0, 1.0))]
    got, fold = measures._sum(ms), reduce(operator.add, ms)
    assert got.w.tolist() == fold.w.tolist() == [1j]
    assert _bits(got.w[0]) == _bits(complex(0.0, 1.0)) != _bits(fold.w[0])
    assert (decomposition._structural_residual(as_mixed(got))
            == decomposition._structural_residual(as_mixed(fold)) == 1.0)
    assert got.is_zero == fold.is_zero is False


def test_merge_across_wide_coefficient_ranges():
    # ranges too wide for one packed sort key: the rows are lexsorted
    rng = np.random.default_rng(4)
    values = (-(1 << 63), -(1 << 40), -1, 0, 3, 1 << 62, (1 << 63) - 1)
    keys = [(Fraction(j, 3), (a, b)) for j in range(3) for a in values for b in values]
    pairs = [(keys[i], complex(*rng.integers(-8, 9, size=2).tolist()) / 8)
             for i in rng.integers(0, len(keys), size=400).tolist()]
    mu = DiscreteMeasure.from_atoms(BASIS, [(BASIS.angle(t, c), w) for (t, c), w in pairs])
    _assert_items(mu, _dict_sum(pairs))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_row_groups_rank_rows_like_sorted_tuples(data):
    # columns whose ranges reach both int64 ends, and packed keys at the
    # 2**62 span: each row's group is its rank among the distinct rows, as
    # sorted Python tuples give it, and row first[g] is in group g
    extents = data.draw(st.lists(st.sampled_from((1, 2, 3, 1 << 31, 1 << 61, 1 << 62,
                                                  (1 << 62) + 1, 1 << 64)),
                                 min_size=1, max_size=4))
    pools = []
    for extent in extents:
        lo = max(-(1 << 63), -data.draw(st.integers(0, extent - 1)))
        hi = min(lo + extent - 1, (1 << 63) - 1)
        pools.append(data.draw(st.lists(st.sampled_from((lo, hi)) | st.integers(lo, hi),
                                        min_size=1, max_size=3)))
    rows = data.draw(st.lists(st.tuples(*map(st.sampled_from, pools)), max_size=12))
    group, first = measures._row_groups(np.array(rows, dtype=np.int64).reshape(-1, len(pools)).T)
    ranks = {row: i for i, row in enumerate(sorted(set(rows)))}
    assert group.tolist() == [ranks[row] for row in rows]
    assert [rows[i] for i in first.tolist()] == sorted(ranks)


def _assert_same_rows(got: DiscreteMeasure, want: DiscreteMeasure) -> None:
    assert got.basis == want.basis and got.den == want.den
    for name in ("num", "coef", "w"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# scales whose products with signed_st weights round, underflow to zero or
# to subnormals, or flip signs of zero
scale_st = st.builds(complex, st.sampled_from((0.0, -0.0, 1.0, -3.5, 2.0 ** -1074,
                                               2.0 ** -1060, 1 / 997, 2.0 ** 900)),
                     st.sampled_from((0.0, -0.0, 2.0 ** -1074, -1.0, 1 / 3)))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_canonical_rows_match_the_merge_bitwise(data):
    # scale, negation and the decomposition's basis lift keep rows that are
    # already canonical and skip the merge's grouping and sort; the merge of
    # the same rows gives the same den, num, coef and w, bit for bit
    pool = data.draw(position_pools())
    weights = st.builds(complex, signed_st, signed_st)
    pairs = data.draw(st.lists(st.tuples(st.sampled_from(pool), weights), max_size=10))
    mu = DiscreteMeasure.from_atoms(BASIS, [(BASIS.angle(t, c), w) for (t, c), w in pairs])
    c = data.draw(scale_st)
    if c != 0:
        _assert_same_rows(mu.scale(c), DiscreteMeasure._rows(
            BASIS, mu.den, mu.num, mu.coef, [w * c for w in mu.w.tolist()]))
    _assert_same_rows(-mu, DiscreteMeasure._rows(BASIS, mu.den, mu.num, mu.coef, -mu.w))
    ext = BASIS.extended((("ln3", math.log(3)),))
    _assert_same_rows(decomposition._embed(mu, ext), DiscreteMeasure._rows(
        ext, mu.den, mu.num, np.pad(mu.coef, ((0, 0), (0, 1))), mu.w))


def test_scale_drops_an_underflowed_weight_and_reduces_den():
    # 0.25 * 2**-1074 rounds to zero: its atom at a quarter turn goes, and
    # the half-turn atom left needs den 2 only
    mu = DiscreteMeasure.from_atoms(BASIS, [(BASIS.angle(Fraction(1, 4)), 0.25),
                                            (BASIS.angle(Fraction(1, 2)), -1.0)])
    tiny = mu.scale(2.0 ** -1074)
    assert tiny.den == 2 and tiny.num.tolist() == [1]
    assert _bits(tiny.w[0]) == _bits(complex(-(2.0 ** -1074), 0.0))
    _assert_same_rows(tiny, DiscreteMeasure._rows(BASIS, mu.den, mu.num, mu.coef,
                                                  [w * 2.0 ** -1074 for w in mu.w.tolist()]))


# signed zeros, and values whose products round (j / 997 is not dyadic)
rounding_st = st.sampled_from((0.0, -0.0)) | st.integers(-996, 996).map(lambda j: j / 997)


@pytest.mark.parametrize("k", [0, 1, 2, 5])
def test_half_turn_pairs_match_the_angle_route_and_dict_sums(k):
    # theta0 and theta1 are built as their two rows; the constructor's route
    # through Angle, the encoding and the merge, and a dict sum, give the
    # same den, num, coef and w, bit for bit
    basis = GeneratorBasis.from_pairs((f"g{i}", 0.5 + i) for i in range(k))
    for make, odd in ((make_theta0, 0.5), (make_theta1, -0.5)):
        pairs = [(basis.zero(), complex(0.5)), (basis.half_turn(), complex(odd))]
        _assert_same_rows(make(basis), DiscreteMeasure(basis, dict(pairs)))
        _assert_items(make(basis), _dict_sum([((a.turns, a.coeffs), w) for a, w in pairs]))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_parity_pieces_match_the_angle_route_and_dict_sums(data):
    # the parity pieces are sorted once for both and kept as canonical rows;
    # rebuilding each from its (Angle, weight) pairs through the merge, and
    # the dict route of the split, give the same rows, bit for bit
    pool = data.draw(position_pools())
    weights = st.builds(complex, signed_st | rounding_st, signed_st | rounding_st)
    pairs = data.draw(st.lists(st.tuples(st.sampled_from(pool), weights), max_size=10))
    mu = DiscreteMeasure.from_atoms(BASIS, [(BASIS.angle(t, c), w) for (t, c), w in pairs])
    for part, want in zip(parity_projections(mu), _dict_parity(_dict_sum(pairs))):
        _assert_items(part, want)
        merged = DiscreteMeasure.from_atoms(BASIS, [(BASIS.angle(t, c), w)
                                                    for (t, c), w in want.items()])
        _assert_same_rows(part, merged)


@st.composite
def mixed_measures(draw):
    """A few atoms from a position pool plus density coefficients at |k| <= 6."""
    pool = draw(position_pools())
    weights = st.builds(complex, rounding_st | signed_st, rounding_st | signed_st)
    # no atoms half the time, so a rounding bit of the density x density
    # products is not lost in the larger discrete x density sums
    atoms = draw(st.lists(st.tuples(st.sampled_from(pool), weights),
                          max_size=6 * draw(st.integers(0, 1))))
    disc = DiscreteMeasure.from_atoms(BASIS, [(BASIS.angle(t, c), w) for (t, c), w in atoms])
    return MixedMeasure(disc, TrigPolyDensity(
        draw(st.dictionaries(st.integers(-6, 6), weights, max_size=8))))


def _density_sum(first: dict, *rest: dict) -> dict:
    """Parts summed left to right as TrigPolyDensity adds them: a key missing
    on the left reads 0j, and exact zeros are dropped after every step."""
    acc = {k: v for k, v in first.items() if v != 0}
    for part in rest:
        for k, v in part.items():
            if v != 0:
                acc[k] = acc.get(k, 0j) + v
        acc = {k: v for k, v in acc.items() if v != 0}
    return acc


@settings(max_examples=150, deadline=None)
@given(mixed_measures(), mixed_measures())
@example(MixedMeasure.from_density(BASIS, {1: complex(3, 5) / 997}),  # numpy rounds
         MixedMeasure.from_density(BASIS, {1: complex(7, -11) / 997}))  # it differently
def test_density_convolution_matches_numpy_and_python_products_bitwise(a, b):
    # second route: disc x density as numpy products c_k * d_hat(k), which
    # round differently from Python's, density x density as Python products
    def disc_ac(d: DiscreteMeasure, f: TrigPolyDensity) -> dict:
        ks = np.array(list(f.coeffs), dtype=np.int64)
        cs = np.array(list(f.coeffs.values()), dtype=np.complex128)
        return dict(zip(ks.tolist(), (cs * d.transform(ks)).tolist()))

    ac_ac = {k: c * b.ac.coeffs[k] for k, c in a.ac.coeffs.items() if k in b.ac.coeffs}
    want = _density_sum(disc_ac(a.disc, b.ac), disc_ac(b.disc, a.ac), ac_ac)
    got = convolve(a, b).ac.coeffs
    assert [(k, _bits(v)) for k, v in got.items()] == [(k, _bits(want[k])) for k in sorted(want)]


def test_parity_split_pairs_atoms_exactly(basis):
    rng = default_rng(17)
    mu = random_discrete(rng, basis, n_atoms=6)
    m0, m1 = parity_projections(mu)
    half = basis.half_turn()
    for part, sign in ((m0, 1.0), (m1, -1.0)):
        for pos, w in part.atoms.items():
            assert part.atoms.get(pos + half, 0.0) == sign * w


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
    assert wrapped.ac.is_zero and wrapped.disc == rho
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


def _one_by_one(ms, ns) -> list[bytes]:
    return [transforms([m], ns)[0].tobytes() for m in ms]


def _one_n_value(mu: DiscreteMeasure, n: int) -> complex:
    """transforms' formula at one n on its own: n = 256 b + a split in
    Python integers, each atom's residues in Python integers, its roots and
    phase factors from one-element ``unit_roots`` and ``phase_factors``
    calls at this a and this 256 b only, H_j = w_j (root_j(256 b) hi_g) and
    L_j = root_j(a) lo_g, and the sum as element (b mod 16, a) of one
    (16 x K)(K x 256) product per block of 128 terms (at least 2, padded
    with zeros) whose other rows and columns are zero, the blocks summed in
    order."""
    b, a = divmod(n, 256)
    row = b % 16
    one = lambda x: np.array([x], dtype=np.complex128)  # noqa: E731
    total = None
    for s in range(0, len(mu), 128):
        width = max(2, min(128, len(mu) - s))
        left = np.zeros((16, width), dtype=np.complex128)
        right = np.zeros((width, 256), dtype=np.complex128)
        for j in range(s, min(s + 128, len(mu))):
            num, coeffs, w = int(mu.num[j]), tuple(mu.coef[j].tolist()), complex(mu.w[j])
            low = one(unit_roots((-a * num) % mu.den, mu.den))
            high = one(unit_roots((-256 * b * num) % mu.den, mu.den))
            if any(coeffs):
                g = np.longdouble(0.0)
                for c, v in zip(coeffs, mu.basis.values):
                    if c:
                        g += np.longdouble(c) * np.longdouble(v)
                low = np.multiply(low, phase_factors(np.array([a], dtype=np.int64), g))
                high = np.multiply(high, phase_factors(np.array([256 * b], dtype=np.int64), g))
            left[row, j - s] = np.multiply(one(w), high)[0]
            right[j - s, a] = low[0]
        value = np.matmul(left, right)[row, a]
        total = value if total is None else total + value
    return complex(0.0) if total is None else complex(total)


def _per_n_transform(mu: DiscreteMeasure, ns: np.ndarray) -> np.ndarray:
    return np.array([_one_n_value(mu, n) for n in ns.tolist()], dtype=np.complex128)


@settings(max_examples=40, deadline=None)
@given(st.lists(grouped_measures() | mixed_measures(), min_size=1, max_size=5))
def test_batched_transforms_match_single_measures_bitwise(ms):
    # measures over one basis share coefficient vectors, and with them a
    # call's phase tables; each keeps the bits it has alone
    ns = np.arange(-300, 301, dtype=np.int64)
    alone = _one_by_one(ms, ns)
    assert alone == [m.transform(ns).tobytes() for m in ms]
    # a mixed measure's values are its atoms' sum plus its density's
    assert alone == [(d.disc.transform(ns) + d.ac.transform(ns)).tobytes()
                     for d in map(as_mixed, ms)]
    batched = transforms(ms, ns)
    assert [v.tobytes() for v in batched] == alone
    for m, v in zip(ms, batched):
        d = as_mixed(m)
        for i in (0, 17, 300, 433, 600):
            n = int(ns[i])
            exact = mp_transform(d.disc, n) + d.ac.coeffs.get(n, 0j)
            assert abs(v[i] - exact) <= 1e-12 * (d.disc.norm() + sum(map(abs, d.ac.coeffs.values())))


def _table_builds(monkeypatch) -> list[tuple[np.ndarray, np.ndarray]]:
    """(points, generator values) of every ``phase_factors`` call that
    ``transforms`` makes from now on."""
    builds, real = [], measures.phase_factors
    monkeypatch.setattr(measures, "phase_factors",
                        lambda points, g: builds.append((points, np.ravel(g))) or real(points, g))
    return builds


def test_transforms_compute_each_phase_factor_once_within_the_cap(monkeypatch):
    # two measures with atoms on the same 12 coefficient vectors: each g's
    # two tables, the low one over a < 256 and the high one over the 16 rows
    # b of each of the call's ten blocks of 4096 n (b = -80..79), are built
    # once per call.  The call's memory is capped at its outputs, each n's
    # place in the product, one product, and four arrays of the terms'
    # roots and factors at the table points: no full-length temporary
    vectors = [(a, b) for a in (-1, 1, 2) for b in (-2, -1, 1, 3)]
    ms = [DiscreteMeasure.from_atoms(BASIS, [(BASIS.angle(Fraction(k, 5), v), 1.0 + k * 1j)
                                             for v in vectors]) for k in range(2)]
    ns = np.arange(-20_000, 20_001, dtype=np.int64)
    builds = _table_builds(monkeypatch)
    tracemalloc.start()
    try:
        values = transforms(ms, ns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    [(points, gs)] = builds
    assert len(set(gs.tolist())) == len(gs) == 12
    assert points.tolist() == list(range(256)) + [256 * b for b in range(-80, 80)]
    assert [v.tobytes() for v in values] == _one_by_one(ms, ns)
    cap = (2 * 16 + 8) * len(ns) + 16 * 10 * 4096 + 4 * 16 * 12 * len(points)
    assert peak <= cap


@pytest.mark.parametrize("ns", [
    [-3, -2, -1, 0, 1, 2, 3], [-2, 3, 5], [7], [-256, 255, 256, 1 << 40],
    list(range(-300, 301)), [np.iinfo(np.int64).min, -1, 0, np.iinfo(np.int64).max]])
def test_low_table_at_the_call_s_low_parts_keeps_the_full_table_bits(ns, monkeypatch):
    # each generator vector's low table is built at the call's distinct
    # a = n mod 256 only, ascending, then at the 16 rows of each block of
    # 4096 n; the other a < 256 stay zero in the product, and each n gets
    # the bits of the formula taken at that n alone, over every a < 256
    ns = np.array(ns, dtype=np.int64)
    mu = DiscreteMeasure.from_atoms(BASIS, [
        (BASIS.angle(Fraction(k, 7), coeffs), complex(1.0 - k, 0.5 * k))
        for k, coeffs in enumerate(((1, 0), (0, -3), (2, 5), (-7, 1)))])
    builds = _table_builds(monkeypatch)
    got = transforms([mu], ns)[0]
    [(points, gs)] = builds
    lows = sorted({n % 256 for n in ns.tolist()})
    assert len(gs) == 4 and points[:len(lows)].tolist() == lows
    assert len(points) == len(lows) + 16 * len(measures._blocks(ns)[0])
    assert got.tobytes() == _per_n_transform(mu, ns).tobytes()


def test_few_n_build_phase_tables_at_their_own_low_and_high_parts(monkeypatch):
    # a density's frequencies (convolution with atoms, the bracket's density
    # maximum) build each generator vector's tables at their own a = n mod
    # 256 only and at the 16 rows of each block of 4096 n they meet, two
    # here, however far apart those blocks are; the values keep the bits of
    # the formula at each n alone
    rng = default_rng(1901)
    atoms = random_discrete(rng, BASIS, n_atoms=6)
    generators = {tuple(c) for c in atoms.coef.tolist() if any(c)}
    for density in (TrigPolyDensity({-3: 0.5, -1: 0.25j, 2: -0.75, 3: 0.125 + 0.5j}),
                    TrigPolyDensity({-(1 << 16): 0.5, 3: 0.125 + 0.5j})):
        lows = sorted(k % 256 for k in density.coeffs)
        for run in (lambda: convolve(atoms, MixedMeasure(DiscreteMeasure.zero(BASIS), density)),
                    lambda: measures._transform_sups([MixedMeasure(atoms, density)],
                                                     list(density.coeffs))):
            builds = _table_builds(monkeypatch)
            run()
            [(points, gs)] = builds
            assert len(gs) == len(generators)
            assert points[:len(lows)].tolist() == lows and len(points) == len(lows) + 16 * 2
        ks = np.array(list(density.coeffs), dtype=np.int64)
        assert atoms.transform(ks).tobytes() == _per_n_transform(atoms, ks).tobytes()


@settings(max_examples=40, deadline=None)
@given(st.lists(grouped_measures() | mixed_measures(), min_size=1, max_size=3),
       st.lists(st.integers(0, 18_000), min_size=1, max_size=9))
def test_few_n_transforms_are_slices_of_a_dense_call(ms, picks):
    # two routes to the same n: a call at a few n, whose tables hold only
    # their own a = n mod 256, and the dense call over five blocks of 4096
    # n, whose tables hold every a; each n keeps its bits in any order
    dense = np.arange(-9000, 9001, dtype=np.int64)
    full = transforms(ms, dense)
    few = transforms(ms, dense[picks])
    assert [v.tobytes() for v in few] == [v[picks].tobytes() for v in full]


@pytest.mark.parametrize("ns", [
    [0.5], [1.9], np.array([2.0, 3.0]), np.array([1 + 0j]), [True, False], ["1"],
    np.array([1 << 63], dtype=np.uint64), 3, np.int64(3), [[1, 2]],
    np.zeros((2, 2), dtype=np.int64)],
    ids=["half", "1.9", "integral floats", "complex", "booleans", "strings", "uint64 past int64",
         "0-d int", "0-d int64", "2-D list", "2-D array"])
def test_transforms_refuse_ns_that_are_not_a_1d_integer_array(ns, monkeypatch):
    # a float n once read as the integer below it, and a 0-d or 2-D ns
    # failed deep inside the phase tables; each is refused before any work
    mu = DiscreteMeasure.from_atoms(BASIS, [(BASIS.angle(Fraction(1, 3), (1, -1)), 0.5j),
                                            (BASIS.generator("b"), 1.0)])
    mixed = MixedMeasure(mu, TrigPolyDensity({1: 0.25}))
    monkeypatch.setattr(measures, "phase_factors", mock.Mock(side_effect=AssertionError))
    for evaluate in (lambda: transforms([mu, mixed], ns), lambda: mu.transform(ns),
                     lambda: mixed.transform(ns), lambda: mixed.ac.transform(ns)):
        with pytest.raises(ValueError, match="ns "):
            evaluate()


def test_transforms_take_any_1d_integer_array():
    mu = MixedMeasure(DiscreteMeasure.from_atoms(
        BASIS, [(BASIS.angle(Fraction(1, 3), (1, -1)), 0.5j), (BASIS.generator("b"), 1.0)]),
        TrigPolyDensity({1: 0.25}))
    want = mu.transform(np.array([-2, 0, 1, 200], dtype=np.int64))
    for ns in ([-2, 0, 1, 200], np.array([-2, 0, 1, 200], dtype=np.int16),
               np.array([-2, 0, 1, 200], dtype=np.int32)):
        assert mu.transform(ns).tobytes() == want.tobytes()
    assert mu.transform(np.array([0, 1, 200], dtype=np.uint8)).tobytes() == want[1:].tobytes()
    assert mu.transform([]).shape == (0,)


_TRANSFORM_THREAD_PROBE = """
import hashlib, numpy as np
from fractions import Fraction
from natspec.angles import FRESH_GENERATOR_VALUES, GeneratorBasis
from natspec.measures import DiscreteMeasure, MixedMeasure, TrigPolyDensity, transforms
rng = np.random.default_rng(11)
basis = GeneratorBasis.from_pairs(FRESH_GENERATOR_VALUES[:2])

def atoms(count, q):
    return [(basis.angle(Fraction(int(rng.integers(0, q)), q),
                         tuple(int(c) for c in rng.integers(1, 4, 2) * rng.choice([-1, 1], 2))),
             complex(*rng.uniform(-1, 1, 2))) for _ in range(count)]

one = DiscreteMeasure.from_atoms(basis, atoms(1, 7))
mixed = MixedMeasure(DiscreteMeasure.from_atoms(basis, atoms(6, 12)),
                     TrigPolyDensity({-2: 0.5j, 1: 0.25, 4097: -0.75}))
many = DiscreteMeasure.from_atoms(basis, atoms(300, 97))
assert len(one) == 1 and len(many) > 2 * 128
dense = np.arange(-10_000, 10_001, dtype=np.int64)
sparse = np.concatenate([rng.integers(-(1 << 62), 1 << 62, 50), [-(1 << 63), (1 << 63) - 1]])
for ns in (dense, sparse):
    for values in transforms([one, mixed, many], ns):
        print(hashlib.sha256(values.tobytes()).hexdigest())
"""


def test_transforms_ignore_blas_thread_count():
    # one (R x K)(K x 256) product shape per block of rows, at most 128
    # terms deep: the bits are the same with 1 and 2 BLAS threads for one
    # atom (a zero term pads it to 2), a measure on two generators with a
    # density, and 300 atoms (three term blocks), at a dense range and at
    # sparse n with both int64 extremes
    env = {**os.environ, "PYTHONPATH": str(Path(natspec.__file__).resolve().parents[1])}
    outputs = []
    for threads in ("1", "2"):
        env["OPENBLAS_NUM_THREADS"] = threads
        proc = subprocess.run([sys.executable, "-c", _TRANSFORM_THREAD_PROBE], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert len(outputs[0].splitlines()) == 6


def test_quarter_pi_is_the_old_long_double_literal():
    # pi/4 taken from the one long-double pi keeps the bits of the literal
    # it replaced; dividing by 4 is exact, and == on finite nonzero long
    # doubles compares every significant bit
    assert measures._QUARTER_PI_LD == np.longdouble("0.785398163397448309615660845819875721")


def test_high_degree_density_norm_is_refused_before_the_quadrature():
    with pytest.raises(BudgetExceededError, match="density degree 65537 is above the limit"):
        TrigPolyDensity({65_537: 1.0}).l1_norm_bounds()
    value, _ = TrigPolyDensity({measures._MAX_DEGREE: 1.0}).l1_norm_bounds()
    assert value == pytest.approx(1.0, abs=1e-9)


def test_period_table_keeps_the_per_n_bits():
    # every n of a call gets the bits of transforms' formula taken at that n
    # alone, whatever the other n: measures whose rational parts repeat with
    # periods 12, 2 and 65537 (past the cached root tables), at a dense range
    # and at n drawn from all of int64, and 300 atoms, past one term block;
    # the weights carry signed zeros and the n include both int64 extremes
    extremes = [np.iinfo(np.int64).min, np.iinfo(np.int64).min + 1, -(1 << 62) - 7, -13, -1,
                0, 1, 12, 1 << 62, np.iinfo(np.int64).max - 1, np.iinfo(np.int64).max]
    a, b = BASIS.generator("a"), BASIS.generator("b")
    twelve = DiscreteMeasure.from_atoms(BASIS, [
        (BASIS.angle(Fraction(1, 3)), complex(-0.0, 2.0)),
        (BASIS.angle(Fraction(3, 4)), complex(0.75, -0.0)),
        (BASIS.angle(Fraction(5, 12)) + a, complex(-0.0, -1.5)),
        (BASIS.angle(Fraction(1, 12)) + a + b, -0.25 + 0.5j),
        (BASIS.angle(Fraction(1, 6)) + a + b, complex(1.0, -0.0)),
        (BASIS.angle(Fraction(1, 4)) + a + b, 0.125 - 2.0j),
        (BASIS.angle(Fraction(1, 2)) + b, complex(-0.0, 0.5))])
    big = DiscreteMeasure.from_atoms(BASIS, [
        (BASIS.angle(Fraction(1, 65537)), 0.5 - 0.25j),
        (BASIS.angle(Fraction(65535, 65537)), complex(-0.0, 1.0)),
        (BASIS.angle(Fraction(7, 65537)) + b, complex(2.0, -0.0))])
    rng = default_rng(1701)
    for mu in (twelve, big):
        for ns in (np.arange(-300, 301, dtype=np.int64),
                   np.concatenate([extremes, rng.integers(-(1 << 63), (1 << 63) - 1, 40,
                                                          dtype=np.int64)])):
            assert transforms([mu], ns)[0].tobytes() == _per_n_transform(mu, ns).tobytes()
    # the values do not depend on the other measures in the call
    ns = np.concatenate([extremes, rng.integers(-50, 50, 60)])
    together = transforms([twelve, big, twelve], ns)
    assert [v.tobytes() for v in together] == [
        transforms([m], ns)[0].tobytes() for m in (twelve, big, twelve)]
    # 300 atoms over 97ths make three blocks of at most 128 terms, summed in
    # order; within 1e-12 ||mu|| of the 30-digit sum where the long-double
    # phases are exact to that
    many = DiscreteMeasure.from_atoms(BASIS, [
        (BASIS.angle(Fraction(int(rng.integers(0, 97)), 97),
                     tuple(int(c) for c in rng.integers(1, 4, 2) * rng.choice([-1, 1], 2))),
         complex(*rng.uniform(-1, 1, 2))) for _ in range(300)])
    assert len(many) > 2 * 128
    ns = np.concatenate([extremes, rng.integers(-20_000, 20_000, 10)])
    values = transforms([many], ns)[0]
    assert values.tobytes() == _per_n_transform(many, ns).tobytes()
    for n, v in zip(ns.tolist(), values.tolist()):
        if abs(n) <= 20_000:
            assert abs(v - mp_transform(many, n)) <= 1e-12 * many.norm()


def test_phase_tables_give_each_n_the_same_bits_in_any_array(monkeypatch):
    # n = 4096 k + 256 r + a: the product spans every block k from the least
    # to the largest when that is at most 2 ceil(len(ns) / 4096) + 2 blocks
    # and only the distinct k otherwise; an n keeps its bits in a dense arange, in sparse
    # arrays with both int64 extremes, on each side of that boundary, and
    # alone
    lo64, hi64 = np.iinfo(np.int64).min, np.iinfo(np.int64).max
    a, b = BASIS.generator("a"), BASIS.generator("b")
    mu = DiscreteMeasure.from_atoms(BASIS, [
        (BASIS.angle(Fraction(1, 3)), 0.5 - 1.0j),
        (BASIS.angle(Fraction(2, 7), (3, -1)), complex(-0.0, 1.25)),
        (BASIS.angle(Fraction(1, 2), (3, -1)), -0.75 + 0.5j),
        (a + b + b, 2.0 - 0.25j),
        (BASIS.angle(0, (0, -5)), complex(0.125, -0.0))])
    routes = []
    real = measures._blocks
    monkeypatch.setattr(measures, "_blocks", lambda ns: routes.append(
        len(real(ns)[0]) == (int(ns.max()) >> 12) - (int(ns.min()) >> 12) + 1) or real(ns))
    rows = 40  # entries in each boundary array
    arrays = {
        "dense arange": (np.arange(-5000, 5001, dtype=np.int64), True),
        # 36 blocks, more than one product group holds
        "dense over two groups": (np.arange(-70_000, 70_001, 997, dtype=np.int64), True),
        # 4 blocks spanned by rows entries, one block empty: the last dense case
        "dense at the boundary": (np.append(np.arange(-20, rows - 21), 4096 * 2), True),
        # one block further: 5 blocks spanned, 3 of them met
        "sparse past the boundary": (np.append(np.arange(-20, rows - 21), 4096 * 3), False),
        "sparse with extremes": (np.array([lo64, lo64 + 1, -(1 << 40) - 3, -257, -256, -1, 0, 1,
                                           255, 256, 10_000, 1 << 40, hi64 - 1, hi64],
                                          dtype=np.int64), False),
    }
    values = {}
    for name, (ns, dense) in arrays.items():
        routes.clear()
        got = transforms([mu], ns)[0]
        assert routes == [dense], name
        for n, v in zip(ns.tolist(), got.tolist()):
            values.setdefault(n, set()).add(struct.pack("<dd", v.real, v.imag))
    # an n alone is always a dense call of one block
    for n, bits in values.items():
        alone = transforms([mu], np.array([n], dtype=np.int64))[0][0]
        bits.add(struct.pack("<dd", alone.real, alone.imag))
        assert len(bits) == 1, n
    # the boundary arrays share n with the dense arange and the sparse ones
    assert len(values) < sum(len(ns) for ns, _ in arrays.values())


def test_far_apart_clusters_compute_no_block_between_them(rho):
    # two clusters of 50 000 n at -10**8 and 10**8 span 48 830 blocks of
    # 4096 n; the product computes at most twice the blocks that the n could
    # fill, and each n keeps the bits of a call on its own cluster
    low = np.arange(-10 ** 8, 50_000 - 10 ** 8, dtype=np.int64)
    ns = np.concatenate([low, -low[::-1]])
    assert len(measures._blocks(ns)[0]) <= 2 * -(-ns.size // 4096) + 2
    apart = np.concatenate([transforms([rho], ns[:50_000])[0],
                            transforms([rho], ns[50_000:])[0]])
    assert transforms([rho], ns)[0].tobytes() == apart.tobytes()
    # the benchmark's calls (a symmetric range, its even and odd n, a
    # density's frequencies) keep the path that spans every block
    dense = np.arange(-10 ** 4, 10 ** 4 + 1, dtype=np.int64)
    for ns in (dense, dense[::2], dense[1::2], np.arange(-256, 257, dtype=np.int64),
               np.arange(-3, 4, dtype=np.int64)):
        with mock.patch.object(np, "unique", side_effect=AssertionError("distinct blocks")):
            blocks, position = measures._blocks(ns)
        assert blocks.tolist() == list(range(int(ns.min()) >> 12, (int(ns.max()) >> 12) + 1))
        assert position.tolist() == (ns - (blocks[0] << 12)).tolist()
