"""Tests for exact cyclotomic numbers and exponential-sum functions.

The transform is checked against its defining pointwise formula
f(lcm(N, m))^gcd(N, m), evaluated exactly.
"""
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motivesums.exactalg import cyclotomic
from motivesums.lefschetz import (
    CyclotomicRational,
    LefschetzFunction,
    f_N_transform,
    place_product,
)

zeta = CyclotomicRational.root_of_unity


# ---------------------------------------------------------------------------
# CyclotomicRational
# ---------------------------------------------------------------------------


def test_roots_of_unity_orders():
    for n in (1, 2, 3, 4, 5, 6, 8, 12):
        z = zeta(n)
        assert z**n == 1
        for k in range(1, n):
            assert z**k != 1, (n, k)


def test_cross_conductor_equality():
    assert zeta(2) == CyclotomicRational.from_rational(-1)
    assert zeta(4) ** 2 == -1
    assert zeta(6) == 1 + zeta(3)
    assert zeta(3) + zeta(3) ** 2 == -1


def test_field_arithmetic():
    z = zeta(5)
    s = z + z**2 + z**3 + z**4
    assert s == -1
    assert (1 + z) * (1 - z) == 1 - z**2
    assert z.inverse() == z**4
    assert (z / z) == 1
    with pytest.raises(ZeroDivisionError):
        (z - z).inverse()


def test_rational_detection_and_integrality():
    assert CyclotomicRational.from_rational(Fraction(3, 2)).as_rational() == Fraction(3, 2)
    assert not zeta(3).is_rational()
    assert zeta(3).is_integral()
    assert not (zeta(3) * Fraction(1, 2)).is_integral()
    assert (zeta(3) * 6).divided_exactly(3) == zeta(3) * 2
    with pytest.raises(ArithmeticError):
        (zeta(3) * 2).divided_exactly(4)


def test_promotion_roundtrip():
    z3 = zeta(3)
    z12 = z3.promoted(12)
    assert z12 == z3
    assert z12 * zeta(4) == zeta(12, 7)  # 1/3 + 1/4 = 7/12


rationals = st.fractions(min_value=-4, max_value=4, max_denominator=5)


@given(st.integers(3, 12), st.lists(rationals, max_size=5), st.lists(rationals, max_size=11))
@settings(max_examples=150, deadline=None)
def test_reduction_recovers_planted_remainder(n, quo, low):
    # quo * Phi_n + rem reduces to rem whenever deg rem < phi(n)
    modulus = cyclotomic(n).coeffs
    phi = len(modulus) - 1
    rem = low[:phi] + [Fraction(0)] * (phi - len(low[:phi]))
    f = rem + [Fraction(0)] * (len(quo) + phi - len(rem))
    for i, a in enumerate(quo):
        for j, b in enumerate(modulus):
            f[i + j] += a * b
    assert CyclotomicRational(n, f).coords == tuple(rem)


@given(st.integers(3, 12), st.lists(rationals, min_size=1, max_size=11))
@settings(max_examples=150, deadline=None)
def test_inverse_is_a_two_sided_inverse(n, coords):
    x = CyclotomicRational(n, coords)
    if x.is_zero():
        with pytest.raises(ZeroDivisionError):
            x.inverse()
    else:
        assert x * x.inverse() == 1 and x.inverse() * x == 1


# ---------------------------------------------------------------------------
# LefschetzFunction basics
# ---------------------------------------------------------------------------


def test_chi_pointwise():
    for n in (1, 2, 3, 4, 6):
        f = LefschetzFunction.chi(n)
        for m in range(1, 4 * n + 1):
            assert f.evaluate_rational(m) == (n if m % n == 0 else 0)


def test_merge_and_zero():
    f = LefschetzFunction.single(1, 2) + LefschetzFunction.single(-1, 2)
    assert f.terms == ()
    g = LefschetzFunction.single(1, 2) + LefschetzFunction.single(2, 2)
    assert len(g.terms) == 1 and g.evaluate_rational(3) == 24


def test_algebra_pointwise():
    f = LefschetzFunction.chi(2)
    g = LefschetzFunction.single(1, 3)
    for m in range(1, 9):
        assert (f + g).evaluate_rational(m) == f.evaluate_rational(m) + g.evaluate_rational(m)
        assert (f * g).evaluate_rational(m) == f.evaluate_rational(m) * g.evaluate_rational(m)
        assert (g**3).evaluate_rational(m) == g.evaluate_rational(m) ** 3
        assert g.compose_scale(2).evaluate_rational(m) == g.evaluate_rational(2 * m)


def test_is_integer_valued():
    assert LefschetzFunction.chi(3).is_integer_valued()
    half = LefschetzFunction.constant(Fraction(1, 2))
    assert not half.is_integer_valued()
    # half-integer coefficients that still take integer values
    f = LefschetzFunction([(Fraction(1, 2), CyclotomicRational.from_rational(3)),
                           (Fraction(1, 2), CyclotomicRational.from_rational(1)),
                           (Fraction(1, 1), CyclotomicRational.from_rational(2))])
    assert f.is_integer_valued(6)


# ---------------------------------------------------------------------------
# transforms against the pointwise oracle
# ---------------------------------------------------------------------------

SAMPLE_FUNCTIONS = {
    "chi2": LefschetzFunction.chi(2),
    "chi3": LefschetzFunction.chi(3),
    "const2": LefschetzFunction.constant(2),
    "base3": LefschetzFunction.single(1, 3),
}


@pytest.mark.parametrize("name", sorted(SAMPLE_FUNCTIONS))
@pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 12])
def test_transform_matches_pointwise_formula(name, n):
    f = SAMPLE_FUNCTIONS[name]
    g = f_N_transform(f, n)
    for m in range(1, 5 * n + 1):
        lhs = g.evaluate(m)
        rhs = f.evaluate(math.lcm(n, m)) ** math.gcd(n, m)
        assert lhs == rhs, (name, n, m)


@pytest.mark.parametrize("n1,n2", [(2, 3), (3, 4), (4, 3), (8, 3), (2, 5)])
def test_transform_coprime_composition(n1, n2):
    f = LefschetzFunction.single(1, 3) + LefschetzFunction.constant(-1)
    lhs = f_N_transform(f_N_transform(f, n1), n2)
    rhs = f_N_transform(f, n1 * n2)
    diff = lhs - rhs
    assert diff.terms == ()


@pytest.mark.parametrize("degrees", [(1, 1), (2,), (2, 3)])
def test_place_product_pointwise(degrees):
    f = LefschetzFunction.single(1, 3) + LefschetzFunction.constant(1)
    g = place_product(f, degrees)
    for m in range(1, 13):
        expected = CyclotomicRational.from_rational(1)
        for d in degrees:
            r = math.gcd(d, m)
            expected = expected * f.evaluate(m * d // r) ** r
        assert g.evaluate(m) == expected, (degrees, m)
