"""Tests for curve data and base change."""
import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motivesums.cli import _curve_from
from motivesums.curves import CurveDatum, charpoly_of_power, h0_det, h0_quotient_factors, h0_quotient_in_x
from motivesums.exactalg import IntPolynomial, SymbolicPolynomial, cyclotomic
from motivesums.motives import ArtinTateMotive, GradedPiece, motive_of


def projective_line(q, s=(1, 1), t=()):
    return CurveDatum(q=q, weil_numerator=[1], s_degrees=s, t_degrees=t)


def elliptic_q2():
    # point count 2 over the field with 2 elements
    return CurveDatum(q=2, weil_numerator=[1, -1, 2], s_degrees=(1,), t_degrees=())


def test_from_json():
    c = _curve_from('{"q":2,"weil_numerator":[1,-1,2],"s_degrees":[1,1],"t_degrees":[]}')
    assert c.q == 2
    assert c.weil_numerator.coeffs == (1, -1, 2)
    assert c.genus == 1
    assert c.t_degrees == ()


def test_validation():
    with pytest.raises(ValueError):
        CurveDatum(q=1, weil_numerator=[1], s_degrees=(1,))
    with pytest.raises(ValueError):
        CurveDatum(q=2, weil_numerator=[2], s_degrees=(1,))
    with pytest.raises(ValueError):
        CurveDatum(q=2, weil_numerator=[1, 1], s_degrees=(1,))
    with pytest.raises(ValueError):
        CurveDatum(q=2, weil_numerator=[1], s_degrees=())
    with pytest.raises(ValueError):
        CurveDatum(q=2, weil_numerator=[1], s_degrees=(0,))
    for q in (6, 12, 2 * 3**5, 101 * 103):
        with pytest.raises(ValueError, match="not a prime power"):
            CurveDatum(q=q, weil_numerator=[1], s_degrees=(1,))


def test_functional_equation_is_checked():
    # p_(2g-i) = q^(g-i) * p_i: genus 1 needs leading coefficient q, genus 2
    # also p_3 = q * p_1
    for q, weil in ((2, [1, 0, 3]), (3, [1, -1, 2]), (2, [1, 1, 0, 1, 4]), (2, [1, 1, 0, 3, 4])):
        with pytest.raises(ValueError, match="functional equation"):
            CurveDatum(q=q, weil_numerator=weil, s_degrees=(1,))
    genus2 = CurveDatum(q=2, weil_numerator=[1, 1, 0, 2, 4], s_degrees=(1,))
    assert genus2.base_change(3).weil_numerator.coeffs[4] == 64


def test_prime_power_fields_beyond_the_oracle_range():
    # base change leaves the oracle's 2^16 range behind
    assert projective_line(3).base_change(12).q == 3**12
    assert CurveDatum(q=2**31 - 1, weil_numerator=[1], s_degrees=(1,)).q == 2**31 - 1
    assert CurveDatum(q=65537**2, weil_numerator=[1], s_degrees=(1,)).q == 65537**2


def test_base_change_elliptic():
    c2 = elliptic_q2().base_change(2)
    assert c2.q == 4
    assert c2.weil_numerator.coeffs == (1, 3, 4)


def test_base_change_identity_and_composition():
    c = elliptic_q2()
    assert c.base_change(1) is c
    assert c.base_change(2).base_change(3).weil_numerator == c.base_change(6).weil_numerator
    assert c.base_change(2).base_change(3).q == c.base_change(6).q


def test_base_change_splits_places():
    c = CurveDatum(q=3, weil_numerator=[1], s_degrees=(1, 2, 3), t_degrees=(6,))
    c2 = c.base_change(2)
    assert sorted(c2.s_degrees) == [1, 1, 1, 3]
    assert sorted(c2.t_degrees) == [3, 3]
    c3 = c.base_change(3)
    assert sorted(c3.s_degrees) == [1, 1, 1, 1, 2]
    assert sorted(c3.t_degrees) == [2, 2, 2]


def test_charpoly_of_power():
    # inverse roots of 1 - u are {1}; powering keeps them
    assert charpoly_of_power(IntPolynomial((1, -1)), 5).coeffs == (1, -1)
    # inverse roots of 1 + u are {-1}; squaring gives {1}
    assert charpoly_of_power(IntPolynomial((1, 1)), 2).coeffs == (1, -1)
    # inverse roots i, -i of 1 + u^2 square to -1 twice
    assert charpoly_of_power(IntPolynomial((1, 0, 1)), 2).coeffs == (1, 2, 1)


def test_h0_det_degree_one_matches_frobenius_det():
    m = motive_of({"Sp": 4})
    assert h0_det([1], m) == m.frobenius_det()


def test_h0_det_two_points():
    m = motive_of({"Sp": 4})
    assert h0_det([1, 1], m) == m.frobenius_det() ** 2


def test_h0_det_degree_two_place():
    t = SymbolicPolynomial.variable("t")
    q = SymbolicPolynomial.variable("q")
    m = motive_of({"Sp": 4})
    expected = (1 - t**2 * q**2) * (1 - t**2 * q**6)
    assert h0_det([2], m) == expected


def test_h0_det_unitary_degree_two():
    t = SymbolicPolynomial.variable("t")
    m = motive_of({"U": 1})
    # inverse root -1 squared is 1
    assert h0_det([2], m) == 1 - t**2


def _unit_cyclotomic(d):
    """Phi_d with constant term 1: 1 - u for d = 1, Phi_d itself otherwise."""
    return IntPolynomial((1, -1)) if d == 1 else cyclotomic(d)


@given(st.lists(st.integers(1, 12), min_size=1, max_size=4), st.integers(1, 6), st.integers(1, 4))
@settings(max_examples=200, deadline=None)
def test_charpoly_divides_its_powered_substitution(ds, e, weight):
    # c_e(U^e) is the product of c(zeta*U) over the e-th roots of unity zeta,
    # so c(U) divides it with an integer quotient of constant term 1
    c = IntPolynomial((1,))
    for d in ds:
        c = c * _unit_cyclotomic(d)
    powered = charpoly_of_power(c, e).substitute_power(e)
    quo, rem = divmod(powered, c)
    assert rem.is_zero() and quo * c == powered and quo.coeffs[0] == 1
    motive = ArtinTateMotive([GradedPiece(weight, c)])
    # the first place contributes the quotient, later places the whole factor
    assert h0_quotient_factors((e,), motive) == (((quo, weight),) if quo.degree > 0 else ())
    assert h0_quotient_factors((1, e), motive) == ((powered, weight),)


def test_quotient_factors_need_a_place():
    with pytest.raises(ValueError):
        h0_quotient_factors((), motive_of({"SL": 2}))


def _quotient_factors_per_motive(degrees, motive):
    """The per-(degree tuple, motive) route that place factors replaced: each
    place's c_e(U^e) for every piece, the first place's divided by c(U)."""
    out = []
    for i, e in enumerate(degrees):
        for p in motive.pieces:
            f = charpoly_of_power(p.charpoly, e).substitute_power(e)
            if i == 0:
                f = f / p.charpoly
            if f.degree > 0:
                out.append((f, p.weight))
    return tuple(out)


_PIECES = st.builds(
    GradedPiece,
    st.integers(1, 4),
    st.lists(st.integers(1, 12), min_size=1, max_size=3).map(
        lambda ds: math.prod(map(_unit_cyclotomic, ds), start=IntPolynomial((1,)))
    ),
)


@given(st.lists(_PIECES, max_size=4), st.lists(st.integers(1, 6), min_size=1, max_size=4))
@settings(max_examples=200, deadline=None)
def test_quotient_factors_match_the_per_motive_route(pieces, degrees):
    motive = ArtinTateMotive(pieces)
    expected = _quotient_factors_per_motive(degrees, motive)
    assert h0_quotient_factors(degrees, motive) == expected
    # the factors at q = x and t = x^k, multiplied out: the x-polynomial
    # that l_value evaluates and z_polynomial keeps
    for t_power in (0, 1):
        product = IntPolynomial((1,))
        for f, w in expected:
            k = t_power + w - 1
            product = product * (f.substitute_power(k) if k else f.evaluate(1))
        assert h0_quotient_in_x(degrees, motive, t_power) == product


def test_quotient_factors_of_the_benchmark_groups_match_the_per_motive_route():
    specs = [{"SL": n} for n in range(2, 7)] + [{"Sp": 4}, {"Sp": 6}, {"GL": 2}, {"GL": 3}, {"U": 2}, {"U": 3}]
    specs += [{"Res": [2, {"U": 2}]}, {"Res": [2, {"GL": 2}]}, {"Res": [3, {"SL": 2}]}]
    for spec in specs:
        for degrees in ((1,), (1, 1), (2,), (1, 2), (3,), (1, 3), (2, 3), (1, 1, 1), (3, 3, 1, 1, 1)):
            motive = motive_of(spec)
            assert h0_quotient_factors(degrees, motive) == _quotient_factors_per_motive(degrees, motive)


def test_weil_reciprocal_is_kept_and_left_out_of_equality():
    curve = CurveDatum(q=3, weil_numerator=[1, 2, 3], s_degrees=(1, 2), t_degrees=(1,))
    assert curve.weil_reciprocal() == IntPolynomial((3, 2, 1))
    assert curve.weil_reciprocal() is curve.weil_reciprocal()
    changed = curve.base_change(2)
    assert changed.weil_reciprocal() == changed.weil_numerator.reversed_coeffs()
    twin = CurveDatum(q=3, weil_numerator=IntPolynomial((1, 2, 3)), s_degrees=[1, 2], t_degrees=[1])
    assert twin == curve and hash(twin) == hash(curve)
    assert "reciprocal" not in repr(curve)
    assert [f.name for f in dataclasses.fields(curve) if f.compare] == ["q", "weil_numerator", "s_degrees", "t_degrees"]
