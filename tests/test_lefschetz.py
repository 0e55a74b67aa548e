"""Tests for exact cyclotomic numbers and exponential-sum functions.

CyclotomicRational is checked against a reference that keeps Fraction
coordinates and inverts by linear algebra; LefschetzFunction against the sum
of c * b**m over its raw (coefficient, base) pairs; the transform against its
defining pointwise formula f(lcm(N, m))^gcd(N, m), evaluated exactly.
"""
import dataclasses
import math
import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motivesums.exactalg import BudgetError, cyclotomic, dense_divmod, dense_mul, power_by_squaring
from motivesums.lefschetz import (
    CyclotomicRational,
    LefschetzFunction,
    f_N_transform,
    place_product,
)
from motivesums.lseries import lefschetz_fit

zeta = CyclotomicRational.root_of_unity


def cyc(n, coords):
    """CyclotomicRational from rational coordinates over their common denominator."""
    coords = [Fraction(c) for c in coords]
    den = math.lcm(*(c.denominator for c in coords))
    return CyclotomicRational(n, [int(c * den) for c in coords], den)


# ---------------------------------------------------------------------------
# reference: Fraction coordinates, reduced modulo Phi_n over Q
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class FractionCyclotomic:
    """Element of Q(zeta_n) as Fraction coordinates over the power basis,
    reduced modulo the n-th cyclotomic polynomial by division over Q."""

    conductor: int
    coords: tuple

    def __init__(self, conductor, coords):
        modulus = [Fraction(c) for c in cyclotomic(conductor).coeffs]
        cs = [Fraction(c) for c in coords]
        if len(cs) >= len(modulus):
            cs = dense_divmod(cs, modulus, operator.sub, operator.mul, operator.truediv)[1]
        cs += [Fraction(0)] * (len(modulus) - 1 - len(cs))
        object.__setattr__(self, "conductor", conductor)
        object.__setattr__(self, "coords", tuple(cs))

    def promoted(self, target):
        step = target // self.conductor
        out = [Fraction(0)] * ((len(self.coords) - 1) * step + 1)
        for i, c in enumerate(self.coords):
            out[i * step] = c
        return FractionCyclotomic(target, out)

    def _common(self, other):
        n = math.lcm(self.conductor, other.conductor)
        return self.promoted(n), other.promoted(n)

    def __add__(self, other):
        a, b = self._common(other)
        return FractionCyclotomic(a.conductor, [x + y for x, y in zip(a.coords, b.coords)])

    def __neg__(self):
        return FractionCyclotomic(self.conductor, [-c for c in self.coords])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return FractionCyclotomic(self.conductor, [c * other for c in self.coords])
        a, b = self._common(other)
        return FractionCyclotomic(a.conductor, dense_mul(a.coords, b.coords, operator.add, operator.mul))

    def __pow__(self, n):
        base = self.inverse() if n < 0 else self
        return power_by_squaring(base, abs(n), operator.mul, FractionCyclotomic(1, [1]))

    def inverse(self):
        """Solve x * y = 1 by Gauss-Jordan elimination on the matrix of
        multiplication by x."""
        phi = len(self.coords)
        cols = [(self * FractionCyclotomic(self.conductor, [0] * j + [1])).coords for j in range(phi)]
        rows = [[col[i] for col in cols] + [Fraction(int(i == 0))] for i in range(phi)]
        for c in range(phi):
            pivot = next((r for r in range(c, phi) if rows[r][c]), None)
            if pivot is None:
                raise ZeroDivisionError("not invertible")
            rows[c], rows[pivot] = rows[pivot], rows[c]
            rows[c] = [v / rows[c][c] for v in rows[c]]
            for r in range(phi):
                f = rows[r][c]
                if r != c and f:
                    rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
        return FractionCyclotomic(self.conductor, [row[-1] for row in rows])

    def __eq__(self, other):
        a, b = self._common(other)
        return a.coords == b.coords

    def __hash__(self):
        if not any(self.coords[1:]):
            return hash(self.coords[0])
        return hash((self.conductor, self.coords))

    def divided_exactly(self, k):
        for c in self.coords:
            if c.denominator != 1 or c.numerator % k:
                raise ArithmeticError(f"{c} not divisible by {k}")
        return FractionCyclotomic(self.conductor, [c / k for c in self.coords])

    def __str__(self):
        if not any(self.coords[1:]):
            return str(self.coords[0])
        parts = []
        for i, c in enumerate(self.coords):
            if c == 0:
                continue
            z = "" if i == 0 else (f"z{self.conductor}" if i == 1 else f"z{self.conductor}^{i}")
            parts.append(f"{c}" + (f"*{z}" if z else ""))
        return " + ".join(parts)


def assert_matches(x, ref):
    """x represents ref: same conductor and coordinates, integer coordinates
    over the least common denominator, and the same printed form."""
    den = math.lcm(*(c.denominator for c in ref.coords))
    assert x.conductor == ref.conductor
    assert (x.num, x.den) == (tuple(int(c * den) for c in ref.coords), den)
    assert x.coords == ref.coords
    assert str(x) == str(ref)


small_rationals = st.fractions(min_value=-6, max_value=6, max_denominator=6)
elements = st.tuples(st.integers(1, 12), st.lists(small_rationals, max_size=14))


@given(elements, elements, small_rationals)
@settings(max_examples=120, deadline=None)
def test_ring_operations_match_fraction_reference(xs, ys, r):
    x, y = cyc(*xs), cyc(*ys)
    rx, ry = FractionCyclotomic(*xs), FractionCyclotomic(*ys)
    assert_matches(x, rx)
    assert_matches(x + y, rx + ry)
    assert_matches(x - y, rx - ry)
    assert_matches(-x, -rx)
    assert_matches(x * y, rx * ry)
    assert_matches(x * r, rx * r)
    assert_matches(x + r, rx + FractionCyclotomic(1, [r]))
    for e in range(4):
        assert_matches(x**e, rx**e)


@given(elements, st.integers(1, 3))
@settings(max_examples=100, deadline=None)
def test_inverse_and_negative_powers_match_fraction_reference(xs, e):
    x, rx = cyc(*xs), FractionCyclotomic(*xs)
    if x.is_zero():
        with pytest.raises(ZeroDivisionError):
            x.inverse()
        return
    assert_matches(x.inverse(), rx.inverse())
    assert_matches(x**-e, rx**-e)
    assert_matches(cyc(1, [1]) / x, rx.inverse())


@given(elements, elements, st.integers(1, 3))
@settings(max_examples=120, deadline=None)
def test_equality_hash_and_promotion_match_fraction_reference(xs, ys, k):
    x, y = cyc(*xs), cyc(*ys)
    rx, ry = FractionCyclotomic(*xs), FractionCyclotomic(*ys)
    assert_matches(x.promoted(x.conductor * k), rx.promoted(rx.conductor * k))
    assert (x == y) == (rx == ry)
    # the same element, reached at another conductor or as a rational
    for other in (x.promoted(x.conductor * k), x - y + y):
        assert x == other and other == x
    assert x != x + 1
    if x.is_rational():
        assert x == x.as_rational() and hash(x) == hash(x.as_rational()) == hash(rx)
    # equal elements hash alike, at any conductor
    z = x - y + y
    assert hash(x) == hash(x.promoted(x.conductor * k)) == hash(z) == hash(cyc(*xs))


@given(elements, st.integers(-4, 4).filter(bool), st.integers(1, 6))
@settings(max_examples=100, deadline=None)
def test_divided_exactly_matches_fraction_reference(xs, m, k):
    rx = FractionCyclotomic(*xs)
    den = math.lcm(*(c.denominator for c in rx.coords))
    # an integral multiple, which k divides exactly when it divides every coordinate
    x, rx = cyc(*xs) * (den * m), rx * (den * m)
    if all(c.numerator % k == 0 for c in rx.coords):
        assert_matches(x.divided_exactly(k), rx.divided_exactly(k))
    else:
        with pytest.raises(ArithmeticError) as want:
            rx.divided_exactly(k)
        with pytest.raises(ArithmeticError) as got:
            x.divided_exactly(k)
        assert str(got.value) == str(want.value)
    if den > 1:
        with pytest.raises(ArithmeticError):
            cyc(*xs).divided_exactly(1)


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
    assert -zeta(3) == zeta(6, 5) and hash(-zeta(3)) == hash(zeta(6, 5))
    assert len({zeta(4), zeta(4).promoted(12), zeta(12, 3)}) == 1


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
    # integral: every power-basis coordinate is an integer (the power basis
    # is an integral basis for cyclotomic fields)
    assert all(c.denominator == 1 for c in zeta(3).coords)
    assert not all(c.denominator == 1 for c in (zeta(3) * Fraction(1, 2)).coords)
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
    assert cyc(n, f).coords == tuple(rem)


@given(st.integers(3, 12), st.lists(rationals, min_size=1, max_size=11))
@settings(max_examples=150, deadline=None)
def test_inverse_is_a_two_sided_inverse(n, coords):
    x = cyc(n, coords)
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
    assert LefschetzFunction.single(5, 0).terms == ()
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


def test_equality_ignores_term_order():
    f = LefschetzFunction.single(1, 2) + LefschetzFunction.single(1, 3)
    g = LefschetzFunction.single(1, 3) + LefschetzFunction.single(1, 2)
    assert f == g and hash(f) == hash(g)


def test_non_torsion_base_raises():
    base = 1 + zeta(5)
    with pytest.raises(ValueError, match="not a root of unity"):
        LefschetzFunction.single(1, base)
    with pytest.raises(ValueError, match="not a root of unity"):
        LefschetzFunction([(1, zeta(3)), (2, base)])
    with pytest.raises(ValueError, match="not a root of unity"):
        lefschetz_fit([Fraction(1)] * 4, [1, base])


def is_integer_valued(f, up_to=None):
    """Pointwise check that f(m) is a rational integer for m = 1 .. up_to
    (default: the number of terms)."""
    bound = up_to if up_to is not None else max(1, len(f.terms))
    for m in range(1, bound + 1):
        v = f.evaluate(m)
        if not v.is_rational() or v.as_rational().denominator != 1:
            return False
    return True


def test_is_integer_valued():
    assert is_integer_valued(LefschetzFunction.chi(3))
    half = LefschetzFunction.constant(Fraction(1, 2))
    assert not is_integer_valued(half)
    # half-integer coefficients that still take integer values
    f = LefschetzFunction([(Fraction(1, 2), CyclotomicRational.from_rational(3)),
                           (Fraction(1, 2), CyclotomicRational.from_rational(1)),
                           (Fraction(1, 1), CyclotomicRational.from_rational(2))])
    assert is_integer_valued(f, 6)


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


# ---------------------------------------------------------------------------
# LefschetzFunction against sum c * b**m over the raw (coefficient, base) pairs
# ---------------------------------------------------------------------------


def ref_value(pairs, m):
    """sum c * b**m, every power by square-and-multiply in Q(zeta_n)."""
    acc = CyclotomicRational.from_rational(0)
    for c, b in pairs:
        acc = acc + b**m * c
    return acc


def ref_mul(p, q):
    return [(c1 * c2, b1 * b2) for c1, b1 in p for c2, b2 in q]


def ref_pow(p, e):
    out = [(Fraction(1), CyclotomicRational.from_rational(1))]
    for _ in range(e):
        out = ref_mul(out, p)
    return out


@st.composite
def torsion_pairs(draw, coefficients):
    """Up to three (coefficient, r * zeta_d^j) pairs with r a nonzero
    rational of either sign and every d dividing one n <= 12, each base
    given at a conductor between d and n."""
    n = draw(st.integers(1, 12))
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    pairs = []
    for _ in range(draw(st.integers(0, 3))):
        conductor = draw(st.sampled_from(divisors))
        d = draw(st.sampled_from([d for d in divisors if conductor % d == 0]))
        r = draw(st.fractions(-6, 6, max_denominator=6).filter(bool))
        base = zeta(d, draw(st.integers(0, d - 1))).promoted(conductor) * r
        pairs.append((draw(coefficients), base))
    return pairs


rational_pairs = torsion_pairs(st.fractions(-4, 4, max_denominator=4))
integer_pairs = torsion_pairs(st.integers(-3, 3))


@pytest.mark.parametrize("base", [-zeta(3), -zeta(5, 2) * Fraction(3, 2), -zeta(9, 4) * 2, -zeta(7).promoted(14)])
def test_negative_radius_at_odd_conductor(base):
    f = LefschetzFunction.single(2, base)
    for m in range(-2, 13):
        assert f.evaluate(m) == base**m * 2
    assert f.terms[0][1] == base


@given(rational_pairs, rational_pairs, st.integers(0, 3), st.integers(-2, 3), st.randoms())
@settings(max_examples=80, deadline=None)
def test_function_algebra_matches_power_reference(p, q, e, k, rnd):
    f, g = LefschetzFunction(p), LefschetzFunction(q)
    assert LefschetzFunction(f.terms) == f
    shuffled = p[:]
    rnd.shuffle(shuffled)
    assert LefschetzFunction(shuffled) == f and hash(LefschetzFunction(shuffled)) == hash(f)
    assert f + g == g + f and hash(f + g) == hash(g + f) and f * g == g * f
    # the key arithmetic lands on the keys that conversion gives
    assert f * g == LefschetzFunction(ref_mul(p, q)) and f**e == LefschetzFunction(ref_pow(p, e))
    assert f.compose_scale(k) == LefschetzFunction([(c, b**k) for c, b in p])
    for m in range(-1, 7):
        assert f.evaluate(m) == ref_value(p, m)
        assert (f + g).evaluate(m) == ref_value(p + q, m)
        assert (f - g).evaluate(m) == ref_value(p + [(-c, b) for c, b in q], m)
        assert (f * g).evaluate(m) == ref_value(ref_mul(p, q), m)
        assert (f**e).evaluate(m) == ref_value(ref_pow(p, e), m)
        assert f.compose_scale(k).evaluate(m) == ref_value([(c, b**k) for c, b in p], m)


@given(integer_pairs, st.sampled_from([1, 2, 3, 4, 6]), st.integers(1, 4),
       st.lists(st.integers(1, 3), min_size=1, max_size=3))
@settings(max_examples=60, deadline=None)
def test_transforms_match_power_reference(p, n, k, degrees):
    f = LefschetzFunction(p)
    divided = LefschetzFunction([(c * k, b) for c, b in p]).divided_exactly(k)
    g = f_N_transform(f, n)
    h = place_product(f, degrees)
    for m in range(1, 7):
        assert divided.evaluate(m) == ref_value(p, m)
        assert g.evaluate(m) == ref_value(p, math.lcm(n, m)) ** math.gcd(n, m)
        expected = CyclotomicRational.from_rational(1)
        for d in degrees:
            r = math.gcd(d, m)
            expected = expected * ref_value(p, m * d // r) ** r
        assert h.evaluate(m) == expected
    if any(c % (k + 1) for c in (c for c, _ in f.terms)):
        with pytest.raises(ArithmeticError):
            f.divided_exactly(k + 1)


def test_reduction_budget():
    # (N - phi(N)) * phi(N) steps: 1,000,002 for the prime 1,000,003, and
    # at least N / sqrt(2) for N = 10^30; refused before any term is built
    with pytest.raises(BudgetError):
        LefschetzFunction.chi(1_000_003)
    with pytest.raises(BudgetError):
        f_N_transform(LefschetzFunction.constant(2), 10**30)
    with pytest.raises(BudgetError):
        place_product(LefschetzFunction.chi(4), [9, 241])
    # angles 1/36 and 1/241 need N = 8676 when evaluated
    f = LefschetzFunction.single(1, zeta(36)) * LefschetzFunction.single(1, zeta(241))
    with pytest.raises(BudgetError):
        f.evaluate(1)
    assert LefschetzFunction.single(1, zeta(241)).evaluate(241) == 1


def test_place_degrees_must_be_positive():
    for degrees in ([0], [2, -1]):
        with pytest.raises(ValueError, match="place degrees must be positive"):
            place_product(LefschetzFunction.chi(2), degrees)
