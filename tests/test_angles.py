"""Exact angle arithmetic over a rational-plus-generator representation."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from natspec.angles import (FRESH_GENERATOR_VALUES, GeneratorBasis, basis_fresh_generators,
                            phase_factors)
from natspec.errors import BasisMismatchError, GeneratorsExhaustedError

BASIS = GeneratorBasis.from_pairs((("a", math.sqrt(2)), ("b", math.sqrt(3))))

turns_st = st.fractions(min_value=-3, max_value=3, max_denominator=24)
coeffs_st = st.tuples(st.integers(-6, 6), st.integers(-6, 6))
angles_st = st.builds(BASIS.angle, turns_st, coeffs_st)


def test_turns_wrap_into_unit_interval():
    assert BASIS.angle(Fraction(5, 4)) == BASIS.angle(Fraction(1, 4))
    assert BASIS.angle(Fraction(-1, 4)).turns == Fraction(3, 4)
    assert BASIS.angle(Fraction(7, 3), (2, -1)) == BASIS.angle(Fraction(1, 3), (2, -1))


def test_equal_angles_hash_equal():
    x, y = BASIS.angle(Fraction(1, 2)), BASIS.angle(Fraction(3, 2))
    assert x == y and hash(x) == hash(y)


def test_zero_and_half_turn():
    assert BASIS.zero().turns == 0 and BASIS.zero().coeffs == (0, 0)
    half = BASIS.half_turn()
    assert half.turns == Fraction(1, 2)
    assert half + half == BASIS.zero()


def test_generator_lookup():
    assert BASIS.index("a") == 0 and BASIS.index("b") == 1
    assert BASIS.generator("a").coeffs == (1, 0)
    assert BASIS.generator("b").coeffs == (0, 1)
    with pytest.raises(ValueError):
        BASIS.index("missing")


def test_rationality_flag():
    # an angle is a rational number of turns iff it has no generator part
    assert not any(BASIS.angle(Fraction(1, 3)).coeffs)
    assert any(BASIS.angle(Fraction(1, 3), (1, 0)).coeffs)


@given(angles_st, angles_st)
def test_addition_commutes(x, y):
    assert x + y == y + x


@given(angles_st, angles_st, angles_st)
def test_addition_associates(x, y, z):
    assert (x + y) + z == x + (y + z)


@given(angles_st)
def test_negation_cancels(x):
    assert x + (-x) == BASIS.zero()


def test_fresh_generators_skip_values_already_in_basis():
    fresh = basis_fresh_generators(BASIS, 2)
    assert fresh == (("ln3", 1.0986122886681098), ("ln5", 1.6094379124341003))
    used_names = {name for name, _ in BASIS.pairs()}
    used_values = {value for _, value in BASIS.pairs()}
    for name, value in fresh:
        assert name not in used_names and value not in used_values


def test_fresh_generators_requires_positive_count():
    with pytest.raises(ValueError):
        basis_fresh_generators(BASIS, 0)


def test_fresh_generators_exhaust():
    available = len(FRESH_GENERATOR_VALUES) - 2
    assert len(basis_fresh_generators(BASIS, available)) == available
    with pytest.raises(GeneratorsExhaustedError):
        basis_fresh_generators(BASIS, available + 1)


def test_extended_basis_keeps_order_and_grows():
    ext = BASIS.extended((("c", math.log(7)),))
    assert ext.index("a") == 0 and ext.index("c") == 2
    assert len(ext) == 3
    assert ext.pairs()[:2] == BASIS.pairs()


def test_mismatched_bases_rejected():
    other = GeneratorBasis.from_pairs((("a", math.sqrt(2)),))
    with pytest.raises(BasisMismatchError):
        BASIS.zero() + other.zero()


LD_EPS = float(np.finfo(np.longdouble).eps)


def test_phase_factors_match_mpmath():
    # one long-double rounding of n g, then float64 roundings of the reduced
    # phase and of the exponential
    ns = np.array([0, 1, -7, 4096, -999_983, 2 ** 31, -(2 ** 40)], dtype=np.int64)
    for g in (math.sqrt(2), math.log(3), 5.5):
        got = phase_factors(ns, g)
        with mpmath.workdps(40):
            for n, z in zip(ns.tolist(), got):
                exact = complex(mpmath.expj(-n * mpmath.mpf(g)))
                assert abs(z - exact) <= 1e-15 + abs(n * g) * LD_EPS
