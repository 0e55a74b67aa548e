"""Tests for L-values, the base-change polynomial, and exponential fits."""
import math
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import motivesums
from motivesums import curves, verify
from motivesums.classsums import class_sum
from motivesums.curves import CurveDatum, h0_det
from motivesums.exactalg import IntPolynomial, SymbolicPolynomial, power_by_squaring, to_int_poly
from motivesums.lefschetz import CyclotomicRational, LefschetzFunction
from motivesums.lseries import (
    NotPolynomial,
    evaluate_with_weil_roots,
    j_variable_names,
    l_value,
    lefschetz_fit,
    multiplicity_sum,
    symmetric_pair_eval,
    weil_root_product,
    z_polynomial,
)
from motivesums.motives import motive_of
from test_exactalg import sylvester_resultant


def projective_line(q, s=(1,), t=(1,)):
    return CurveDatum(q=q, weil_numerator=[1], s_degrees=s, t_degrees=t)


def elliptic_q2(s=(1,), t=(1,)):
    return CurveDatum(q=2, weil_numerator=[1, -1, 2], s_degrees=s, t_degrees=t)


GROUPS = [{"SL": n} for n in (2, 3, 4, 5)] + [
    {"Sp": 4},
    {"Sp": 6},
    {"GL": 3},
    {"Res": [2, {"U": 2}]},
]


@pytest.mark.parametrize("spec", GROUPS, ids=str)
@pytest.mark.parametrize("q", [2, 3, 5])
def test_trivial_l_value(spec, q):
    assert l_value(motive_of(spec), projective_line(q)) == 1


def test_central_ratio_sp4():
    # independent per-eigenvalue product: (1-q)(1-q^3) / ((1-q^2)(1-q^4))
    curve = projective_line(3, s=(1, 1), t=())
    assert l_value(motive_of({"Sp": 4}), curve) == Fraction(52, 640)
    for q in (2, 5, 7):
        curve = projective_line(q, s=(1, 1), t=())
        expected = Fraction((1 - q) * (1 - q**3), (1 - q**2) * (1 - q**4))
        assert l_value(motive_of({"Sp": 4}), curve) == expected


def test_gl_type_vanishing_without_twisting():
    curve = projective_line(3, s=(1, 1), t=())
    assert l_value(motive_of({"GL": 2}), curve) == 0
    assert l_value(motive_of({"Res": [2, {"GL": 1}]}), curve) == 0


def test_single_splitting_place_survives():
    # one copy of the trivial eigenvalue cancels; value is finite and nonzero
    curve = projective_line(3, s=(1,), t=())
    v = l_value(motive_of({"Sp": 2}), curve)
    assert v == Fraction(1, 1 - 9)


def test_l_value_with_weil_roots():
    # elliptic curve, inverse roots a, b with a+b = 1, ab = 2
    curve = elliptic_q2()
    m = motive_of({"SL": 2})
    # F1 = (1 - a*2)(1 - b*2) = 1 - 2(a+b) + 4ab = 7; F2 = 1; F3 = 1/(1 - 8)... times h0 quotient
    # S = T = {1}: F2 and F3 quotients are 1, so value = F1 = 7
    assert l_value(m, curve) == 7


@given(st.lists(st.integers(-9, 9), min_size=1, max_size=7).map(IntPolynomial), st.integers(1, 3))
@settings(max_examples=100, deadline=None)
def test_weil_root_product_in_genus_two(poly, m):
    assume(not poly.is_zero())
    curve = CurveDatum(2, [1, 1, 1, 2, 4], (1, 1)).base_change(m)
    value = weil_root_product(curve, poly)
    assert type(value) is int
    assert value == sylvester_resultant(curve.weil_reciprocal(), poly)


def _l_value_reference(motive, curve):
    """The symbolic route: determinants in t and q, with q substituted
    afterwards and the evaluations done in Fractions."""
    q = curve.q

    def det_at_q(degrees):
        return to_int_poly(h0_det(degrees, motive).substitute({"q": q}), "t")

    det_q = det_at_q((1,))
    value = Fraction(weil_root_product(curve, det_q))
    value *= (det_at_q(curve.s_degrees) / det_q).evaluate(Fraction(1))
    if curve.t_degrees:
        return value * (det_at_q(curve.t_degrees) / det_q).evaluate(Fraction(q))
    return value / det_q.evaluate(Fraction(q))


# every group shape of the benchmark's lvalues workload
ALL_GROUPS = (
    [{"SL": n} for n in range(2, 7)]
    + [{"Sp": 4}, {"Sp": 6}, {"GL": 2}, {"GL": 3}, {"U": 2}, {"U": 3}]
    + [{"Res": [2, {"U": 2}]}, {"Res": [2, {"GL": 2}]}, {"Res": [3, {"SL": 2}]}]
)
PLACE_SHAPES = [((1, 1), ()), ((1,), (1,)), ((1, 2), (1,)), ((2, 3), (2,)), ((3,), ())]


@pytest.mark.parametrize("spec", ALL_GROUPS, ids=str)
def test_l_value_matches_symbolic_route(spec):
    motive = motive_of(spec)
    for q in (2, 3, 4, 5, 7, 8, 9):
        # genus 0, and genus 1 with the extreme traces of the Weil bound
        bound = math.isqrt(4 * q)
        for weil in ([1], [1, -bound, q], [1, bound, q]):
            for m in (1, 2, 3):
                for s, t in PLACE_SHAPES:
                    curve = CurveDatum(q, weil, s, t).base_change(m)
                    assert l_value(motive, curve) == _l_value_reference(motive, curve), (q, weil, m, s, t)


# ---------------------------------------------------------------------------
# z_polynomial
# ---------------------------------------------------------------------------


def test_z_trivial():
    z = z_polynomial(motive_of({"SL": 2}), projective_line(2))
    assert z == 1


def test_z_matches_l_value_numerically():
    for spec in ({"SL": 3}, {"Sp": 4}, {"Res": [2, {"U": 2}]}):
        m = motive_of(spec)
        curve = projective_line(3, s=(1, 1), t=(1,))
        z = z_polynomial(m, curve, symbolic_j=0)
        assert z.evaluate({"x": 3}) == l_value(m, curve)


def test_z_rational_without_twisting():
    with pytest.raises(NotPolynomial):
        z_polynomial(motive_of({"Sp": 4}), projective_line(3, s=(1, 1), t=()))


def test_z_empty_motive():
    assert z_polynomial(motive_of({"SL": 1}), projective_line(2)) == 1


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("spec", [{"SL": 2}, {"Sp": 4}], ids=str)
def test_base_change_law_projective_line(spec, m):
    # degree-1 places keep every section eigenvalue trivial, so powering
    # the J-variables is a no-op and the law reduces to x -> q^m
    curve = projective_line(3, s=(1, 1), t=(1,))
    z = z_polynomial(motive_of(spec), curve, symbolic_j=0)
    lhs = l_value(motive_of(spec), curve.base_change(m))
    assert lhs == z.evaluate({"x": 3**m})


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("spec", [{"SL": 2}, {"Sp": 4}], ids=str)
def test_base_change_law_elliptic(spec, m):
    curve = elliptic_q2(s=(1, 1), t=(1,))
    names = j_variable_names(2)
    z = z_polynomial(motive_of(spec), curve, symbolic_j=2)
    changed = curve.base_change(m)
    lhs = l_value(motive_of(spec), changed)
    rhs = evaluate_with_weil_roots(z, changed, 2**m, names)
    assert lhs == rhs


def _z_by_substitution(motive, curve, symbolic_j):
    """z_polynomial through determinants in t and q, with q -> x and
    t -> a_i substituted afterwards."""
    x = SymbolicPolynomial.variable("x")
    det = motive.frobenius_det()
    det_x = det.substitute({"q": x})
    f1 = SymbolicPolynomial.constant(1)
    for name in j_variable_names(symbolic_j):
        f1 = f1 * det.substitute({"q": x, "t": SymbolicPolynomial.variable(name)})

    def quotient(degrees):
        h0 = h0_det(degrees, motive).substitute({"q": x})
        if not det_x.vars:
            if det_x != 1:
                raise NotPolynomial("constant determinant")
            return h0
        return h0.exact_div(det_x, "t")

    f2 = quotient(curve.s_degrees).substitute({"t": 1})
    if curve.t_degrees:
        f3 = quotient(curve.t_degrees).substitute({"t": x})
    elif det_x == 1:
        f3 = SymbolicPolynomial.constant(1)
    else:
        raise NotPolynomial("empty twisting list")
    return f1 * f2 * f3


@pytest.mark.parametrize("spec", ALL_GROUPS, ids=str)
@given(
    q=st.sampled_from([2, 3, 4, 5, 7, 8, 9]),
    genus=st.integers(0, 1),
    r=st.integers(0, 2),
    shape=st.sampled_from(PLACE_SHAPES + [((1,), (2, 3)), ((2,), ())]),
    data=st.data(),
)
@settings(max_examples=25, deadline=None)
def test_z_polynomial_matches_substitution_route(spec, q, genus, r, shape, data):
    bound = math.isqrt(4 * q)
    weil = [1, data.draw(st.integers(-bound, bound)), q] if genus else [1]
    curve = CurveDatum(q, weil, *shape)
    motive = motive_of(spec)
    try:
        want = _z_by_substitution(motive, curve, r)
    except NotPolynomial:
        with pytest.raises(NotPolynomial):
            z_polynomial(motive, curve, symbolic_j=r)
        return
    got = z_polynomial(motive, curve, symbolic_j=r)
    assert got == want
    assert (got.vars, str(got)) == (want.vars, str(want))


def _full_product_route(motive, curve, symbolic_j):
    """Whole determinants in t and x: h0_det multiplied out over all places
    and divided by the Frobenius determinant with exact_div in t, then
    evaluated at t = 1 (splitting places) and t = x (twisting places).
    Returns (det_x, f1, f2, f3), f1 the product over a_i of the determinant
    at t = a_i, and f3 None without twisting places."""
    x = SymbolicPolynomial.variable("x")
    det_x = h0_det((1,), motive, q="x")
    f1 = SymbolicPolynomial.constant(1)
    for name in j_variable_names(symbolic_j):
        f1 = f1 * h0_det((1,), motive, t=name, q="x")

    def quotient(degrees):
        h0 = h0_det(degrees, motive, q="x")
        if not det_x.vars:
            if det_x != 1:
                raise NotPolynomial("constant determinant")
            return h0
        return h0.exact_div(det_x, "t")

    f2 = quotient(curve.s_degrees).substitute({"t": 1})
    f3 = quotient(curve.t_degrees).substitute({"t": x}) if curve.t_degrees else None
    return det_x, f1, f2, f3


def _z_by_full_product(motive, curve, symbolic_j):
    det_x, f1, f2, f3 = _full_product_route(motive, curve, symbolic_j)
    if f3 is None:
        if det_x != 1:
            raise NotPolynomial("empty twisting list")
        f3 = SymbolicPolynomial.constant(1)
    return f1 * f2 * f3


def _l_value_by_full_product(motive, curve):
    """The full-product route at x = q, with the Weil roots as a1, a2 for
    genus 1; without twisting places, divided by det(t = q)."""
    names = j_variable_names(2 * curve.genus)
    det_x, f1, f2, f3 = _full_product_route(motive, curve, len(names))
    if f3 is not None:
        return evaluate_with_weil_roots(f1 * f2 * f3, curve, curve.q, names)
    denom = det_x.substitute({"t": SymbolicPolynomial.variable("x")}).evaluate({"x": curve.q})
    if denom == 0:
        raise ZeroDivisionError("determinant vanishes at t = q")
    return evaluate_with_weil_roots(f1 * f2, curve, curve.q, names) / denom


def _outcome(fn, *args):
    """The printed value (with the variables of a polynomial), or the type
    of the exception raised."""
    try:
        value = fn(*args)
    except (ArithmeticError, ValueError) as exc:
        return type(exc)
    return getattr(value, "vars", None), str(value)


_BASE_SPECS = st.one_of(
    st.builds(lambda kind, n: {kind: n}, st.sampled_from(["SL", "GL", "U"]), st.integers(1, 5)),
    st.builds(lambda n: {"Sp": 2 * n}, st.integers(1, 3)),
    st.just({"SO": 5}),
)
_MOTIVE_SPECS = st.one_of(
    _BASE_SPECS,
    st.builds(
        lambda d, kind, n: {"Res": [d, {kind: n}]}, st.integers(2, 3), st.sampled_from(["U", "GL"]), st.integers(1, 3)
    ),
    st.builds(lambda inner, n: {"Product": [inner, {"U": n}]}, _BASE_SPECS, st.integers(1, 3)),
)


@given(
    spec=_MOTIVE_SPECS,
    q=st.sampled_from([2, 3, 4, 5, 7, 9]),
    genus=st.integers(0, 1),
    # a first place of degree 1 to 4, then places that may repeat it
    first=st.integers(1, 4),
    more=st.lists(st.integers(1, 3), max_size=2),
    twisting=st.lists(st.integers(1, 3), max_size=2),
    m=st.integers(1, 3),
    r=st.integers(0, 2),
    data=st.data(),
)
@settings(max_examples=300, deadline=None)
def test_per_piece_route_matches_full_product(spec, q, genus, first, more, twisting, m, r, data):
    bound = math.isqrt(4 * q)
    weil = [1, data.draw(st.integers(-bound, bound)), q] if genus else [1]
    motive = motive_of(spec)
    curve = CurveDatum(q, weil, [first] + more, twisting)
    assert _outcome(z_polynomial, motive, curve, r) == _outcome(_z_by_full_product, motive, curve, r)
    changed = curve.base_change(m)
    assert _outcome(l_value, motive, changed) == _outcome(_l_value_by_full_product, motive, changed)


# ---------------------------------------------------------------------------
# symmetric pair evaluation
# ---------------------------------------------------------------------------


def test_symmetric_pair_eval_elementary():
    a = SymbolicPolynomial.variable("a")
    b = SymbolicPolynomial.variable("b")
    w = IntPolynomial((2, -1, 1))  # roots a+b = 1, ab = 2
    assert symmetric_pair_eval(a + b, ("a", "b"), w) == 1
    assert symmetric_pair_eval(a * b, ("a", "b"), w) == 2
    assert symmetric_pair_eval(a**2 + b**2, ("a", "b"), w) == -3
    assert symmetric_pair_eval((1 - 2 * a) * (1 - 2 * b), ("a", "b"), w) == 7


def test_symmetric_pair_eval_rejects_asymmetric():
    a = SymbolicPolynomial.variable("a")
    b = SymbolicPolynomial.variable("b")
    x = SymbolicPolynomial.variable("x")
    # irreducible, split, and with a double root
    for w in (IntPolynomial((2, -1, 1)), IntPolynomial((2, -3, 1)), IntPolynomial((4, -4, 1))):
        with pytest.raises(ValueError):
            symmetric_pair_eval(a - b, ("a", "b"), w)
        with pytest.raises(ValueError):
            symmetric_pair_eval(a - b + x, ("a", "b"), w, {"x": 3})
    split = CurveDatum(q=4, weil_numerator=[1, -4, 4], s_degrees=(1, 1))
    with pytest.raises(ValueError):
        evaluate_with_weil_roots(a - b + x, split, 4, ("a", "b"))


def _pair_eval_reference(poly, pair, monic_quadratic, assignment=None):
    """Fraction arithmetic in Q[y]/(w), every power of a root taken afresh
    for every term."""
    w0, w1 = Fraction(monic_quadratic.coeffs[0]), Fraction(monic_quadratic.coeffs[1])
    assignment = assignment or {}
    na, nb = pair

    def mul(u, v):
        c0 = u[0] * v[0]
        c1 = u[0] * v[1] + u[1] * v[0]
        c2 = u[1] * v[1]
        # reduce y^2 = -w1*y - w0
        return (c0 - c2 * w0, c1 - c2 * w1)

    one = (Fraction(1), Fraction(0))
    root = (Fraction(0), Fraction(1))
    conj = (-w1, Fraction(-1))
    total = (Fraction(0), Fraction(0))
    for exps, coeff in poly.terms.items():
        term = (Fraction(coeff), Fraction(0))
        for var, e in zip(poly.vars, exps):
            if not e:
                continue
            if var == na:
                term = mul(term, power_by_squaring(root, e, mul, one))
            elif var == nb:
                term = mul(term, power_by_squaring(conj, e, mul, one))
            else:
                term = (term[0] * Fraction(assignment[var]) ** e, term[1] * Fraction(assignment[var]) ** e)
        total = (total[0] + term[0], total[1] + term[1])
    if total[1] != 0:
        raise ValueError("expression is not symmetric in the conjugate pair")
    return total[0]


@st.composite
def _symmetric_polys(draw):
    """Sums of c * x^i * (a + b)^j * (a*b)^k."""
    a, b, x = (SymbolicPolynomial.variable(v) for v in "abx")
    acc = SymbolicPolynomial.constant(0)
    for c, i, j, k in draw(
        st.lists(st.tuples(st.integers(-5, 5), st.integers(0, 2), st.integers(0, 5), st.integers(0, 3)), max_size=5)
    ):
        acc = acc + c * x**i * (a + b) ** j * (a * b) ** k
    return acc


# y^2 + w1*y + w0: any, split with distinct roots, or with a double root
_MONIC_QUADRATICS = st.one_of(
    st.tuples(st.integers(-9, 9), st.integers(-9, 9)).map(lambda c: IntPolynomial(c + (1,))),
    st.tuples(st.integers(-5, 5), st.integers(-5, 5)).map(lambda r: IntPolynomial((r[0] * r[1], -r[0] - r[1], 1))),
    st.integers(-5, 5).map(lambda r: IntPolynomial((r * r, -2 * r, 1))),
)


@given(
    _symmetric_polys(),
    _MONIC_QUADRATICS,
    st.one_of(st.integers(-4, 4), st.fractions(min_value=-3, max_value=3, max_denominator=5)),
)
@settings(max_examples=300, deadline=None)
def test_symmetric_pair_eval_matches_fraction_reference(poly, w, x):
    value = symmetric_pair_eval(poly, ("a", "b"), w, {"x": x})
    assert value == _pair_eval_reference(poly, ("a", "b"), w, {"x": x})
    w0, w1 = w.coeffs[0], w.coeffs[1]
    disc = w1 * w1 - 4 * w0
    root = math.isqrt(max(disc, 0))
    if root * root == disc:
        r1, r2 = (-w1 + root) // 2, (-w1 - root) // 2
        assert value == poly.evaluate({"x": x, "a": r1, "b": r2})


def _tuple_keyed_pair_eval(poly, pair, monic_quadratic, assignment=None):
    """The earlier symmetric_pair_eval, which unpacked every term into an
    exponent tuple: terms grouped by (j, k) over poly.terms, then the same
    table of r^m in Z[y]/(w)."""
    w0, w1 = monic_quadratic.coeffs[:2]
    assignment = assignment or {}
    names, terms = poly.vars, poly.terms
    ia, ib = (names.index(v) if v in names else None for v in pair)
    tables = []
    for i, v in enumerate(names):
        if v not in pair:
            x = assignment[v]
            x = x if isinstance(x, int) else Fraction(x)
            tables.append((i, {e: x**e for e in {exps[i] for exps in terms}}))
    groups = {}
    for exps, c in terms.items():
        for i, powers in tables:
            c *= powers[exps[i]]
        jk = (0 if ia is None else exps[ia], 0 if ib is None else exps[ib])
        groups[jk] = groups.get(jk, 0) + c
    a, b = [1], [0]
    for _ in range(max((abs(j - k) for j, k in groups), default=0)):
        am, bm = a[-1], b[-1]
        a.append(-bm * w0)
        b.append(am - bm * w1)
    const = ypart = 0
    for (j, k), c in groups.items():
        c *= w0 ** min(j, k)
        am, bm = a[abs(j - k)], b[abs(j - k)]
        if j < k:
            am, bm = am - bm * w1, -bm
        const += c * am
        ypart += c * bm
    if ypart:
        raise ValueError("expression is not symmetric in the conjugate pair")
    return Fraction(const)


_A, _B = SymbolicPolynomial.variable("a"), SymbolicPolynomial.variable("b")


@given(_symmetric_polys(), st.integers(-6, 6), st.integers(-6, 6), st.integers(-4, 4))
@settings(max_examples=200, deadline=None)
def test_packed_pair_eval_at_split_quadratics(poly, r, s, x):
    # w = (y - r)(y - s): the value is the polynomial at a = r, b = s
    w = IntPolynomial((r * s, -r - s, 1))
    assert symmetric_pair_eval(poly, ("a", "b"), w, {"x": x}) == poly.evaluate({"x": x, "a": r, "b": s})
    assert symmetric_pair_eval(poly, ("b", "a"), w, {"x": x}) == poly.evaluate({"x": x, "a": s, "b": r})
    # a - b adds 2 to the y-part, which is 0 for the symmetric part
    with pytest.raises(ValueError):
        symmetric_pair_eval(poly + _A - _B, ("a", "b"), w, {"x": x})


@given(
    _symmetric_polys(),
    st.integers(-9, 9),
    st.integers(-9, 9),
    st.fractions(min_value=-3, max_value=3, max_denominator=7),
    st.integers(-3, 3),
)
@settings(max_examples=200, deadline=None)
def test_packed_pair_eval_matches_tuple_keyed_code(poly, w0, w1, x, c):
    # an irreducible w: its discriminant is not a square
    disc = w1 * w1 - 4 * w0
    assume(disc < 0 or math.isqrt(disc) ** 2 != disc)
    w = IntPolynomial((w0, w1, 1))
    value = symmetric_pair_eval(poly, ("a", "b"), w, {"x": x})
    assert value == _tuple_keyed_pair_eval(poly, ("a", "b"), w, {"x": x})
    # an asymmetric c*(a - b) * x is refused by both unless it vanishes
    tilted = poly + c * (_A - _B) * SymbolicPolynomial.variable("x")
    if c and x:
        for evaluate in (symmetric_pair_eval, _tuple_keyed_pair_eval):
            with pytest.raises(ValueError):
                evaluate(tilted, ("a", "b"), w, {"x": x})
    else:
        assert symmetric_pair_eval(tilted, ("a", "b"), w, {"x": x}) == value


def test_symmetric_pair_eval_needs_every_other_variable():
    w = IntPolynomial((2, -1, 1))
    x = SymbolicPolynomial.variable("x")
    with pytest.raises(KeyError):
        symmetric_pair_eval(x * (_A + _B), ("a", "b"), w)


def test_symmetric_pair_eval_with_extra_vars():
    a = SymbolicPolynomial.variable("a")
    b = SymbolicPolynomial.variable("b")
    x = SymbolicPolynomial.variable("x")
    w = IntPolynomial((2, -1, 1))
    assert symmetric_pair_eval(x * (a + b) + a * b, ("a", "b"), w, {"x": 5}) == 7


# ---------------------------------------------------------------------------
# multiplicity sums
# ---------------------------------------------------------------------------


def test_multiplicity_fixed_character():
    assert multiplicity_sum({"SL": 2}, projective_line(3)) == 1
    assert multiplicity_sum({"Sp": 4}, projective_line(3)) == 1


def test_multiplicity_all_characters():
    assert multiplicity_sum({"SL": 2}, projective_line(3), fixed_chi=False) == 4
    assert multiplicity_sum({"SL": 3}, projective_line(4), fixed_chi=False) == 9
    assert multiplicity_sum({"Sp": 4}, projective_line(2), fixed_chi=False) == 1


def test_multiplicity_requires_twisting():
    with pytest.raises(ValueError):
        multiplicity_sum({"SL": 2}, projective_line(3, t=()))


# ---------------------------------------------------------------------------
# exponential fitting
# ---------------------------------------------------------------------------


def test_fit_alternating():
    values = [Fraction(2 if m % 2 == 0 else 0) for m in range(1, 7)]
    bases = [CyclotomicRational.from_rational(1), CyclotomicRational.from_rational(-1)]
    fitted = lefschetz_fit(values, bases)
    assert fitted is not None
    assert sorted(c for c, _ in fitted.terms) == [1, 1]


def test_fit_zero():
    values = [Fraction(0)] * 5
    fitted = lefschetz_fit(values, [CyclotomicRational.from_rational(1)])
    assert fitted is not None and fitted.terms == ()


def test_fit_geometric():
    values = [Fraction(3**m) for m in range(1, 6)]
    fitted = lefschetz_fit(values, [CyclotomicRational.from_rational(3)])
    assert fitted is not None
    assert fitted.terms == ((Fraction(1), CyclotomicRational.from_rational(3)),)


def test_fit_rejects_wrong_model():
    values = [Fraction(m * m) for m in range(1, 8)]
    bases = [CyclotomicRational.from_rational(1), CyclotomicRational.from_rational(2)]
    assert lefschetz_fit(values, bases) is None


def test_fit_with_extra_bases():
    f = LefschetzFunction.chi(2)
    values = [f.evaluate_rational(m) for m in range(1, 9)]
    bases = [
        CyclotomicRational.from_rational(1),
        CyclotomicRational.from_rational(-1),
        CyclotomicRational.from_rational(3),
    ]
    fitted = lefschetz_fit(values, bases)
    assert fitted is not None
    for m in range(1, 9):
        assert fitted.evaluate_rational(m) == values[m - 1]


def cyclotomic_fit(values, candidate_bases):
    """The fit by the older, independent route: Gauss-Jordan elimination
    over CyclotomicRational, inverting each pivot, on the first k points of
    k distinct bases, a rationality test on the solution, then the held-out
    points checked one by one."""
    distinct = {LefschetzFunction.single(1, b): b for b in candidate_bases}
    k = len(distinct)
    rhs = [CyclotomicRational.from_rational(v) for v in values[:k]]
    mat = [[s.evaluate(m) for s in distinct] + [rhs[m - 1]] for m in range(1, k + 1)]
    for col in range(k):
        piv = next((r for r in range(col, k) if not mat[r][col].is_zero()), None)
        if piv is None:
            raise ValueError("singular system")
        mat[col], mat[piv] = mat[piv], mat[col]
        inv = mat[col][col].inverse()
        mat[col] = [v * inv for v in mat[col]]
        for r in range(k):
            f = mat[r][col]
            if r != col and not f.is_zero():
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[col])]
    coeffs = [row[k] for row in mat]
    if not all(c.is_rational() for c in coeffs):
        return None
    fitted = LefschetzFunction(zip((c.as_rational() for c in coeffs), distinct.values()))
    if any(fitted.evaluate(m) != values[m - 1] for m in range(k + 1, len(values) + 1)):
        return None
    return fitted


zeta = CyclotomicRational.root_of_unity
# Galois orbits of bases r * zeta with zeta of order 3, 4 or 6 (and two
# rational ones): a rational coefficient shared over an orbit gives
# rational values
ORBITS = [
    [zeta(n, j) * r for j in range(n) if math.gcd(j, n) == 1]
    for n in (1, 2, 3, 4, 6)
    for r in (1, 2, Fraction(1, 3))
]
nonzero_coeffs = st.fractions(-5, 5, max_denominator=6).filter(bool)


@st.composite
def planted_fits(draw):
    """(planted function, its values at m = 1..M, candidate bases): the
    planted orbits, and maybe others, are the candidates, in drawn order."""
    indices = draw(st.lists(st.integers(0, len(ORBITS) - 1), min_size=1, max_size=4, unique=True))
    used = indices[: draw(st.integers(1, len(indices)))]
    coeffs = draw(st.lists(nonzero_coeffs, min_size=len(used), max_size=len(used)))
    planted = LefschetzFunction((c, b) for c, i in zip(coeffs, used) for b in ORBITS[i])
    candidates = draw(st.permutations([b for i in indices for b in ORBITS[i]]))
    count = len(candidates) + draw(st.integers(1, 3))
    return planted, [planted.evaluate_rational(m) for m in range(1, count + 1)], candidates


@given(planted_fits())
@settings(max_examples=60, deadline=None)
def test_fit_recovers_planted_sums_over_roots_of_unity(fit):
    planted, values, candidates = fit
    assert lefschetz_fit(values, candidates) == planted
    # without a base the planted sum uses, nothing fits
    used = {b for _, b in planted.terms}
    dropped = next(i for i, b in enumerate(candidates) if b in used)
    assert lefschetz_fit(values, candidates[:dropped] + candidates[dropped + 1 :]) is None


@given(planted_fits(), st.data())
@settings(max_examples=60, deadline=None)
def test_fit_agrees_with_the_cyclotomic_elimination(fit, data):
    _, values, candidates = fit
    i = data.draw(st.integers(0, len(values) - 1))
    values[i] += data.draw(st.fractions(-2, 2, max_denominator=3))
    candidates += data.draw(st.lists(st.sampled_from([0, 5, -zeta(6)]), max_size=2))
    values += [Fraction(1)] * (len(candidates) + 1 - len(values))
    try:
        want = cyclotomic_fit(values, candidates)
    except ValueError:
        with pytest.raises(ValueError, match="singular system"):
            lefschetz_fit(values, candidates)
    else:
        assert lefschetz_fit(values, candidates) == want


def test_multiplicity_fits_need_no_cyclotomic_inverse(monkeypatch):
    def refuse(self):
        raise AssertionError("CyclotomicRational.inverse called")

    monkeypatch.setattr(CyclotomicRational, "inverse", refuse)
    results = verify.check_multiplicity_counts()
    assert any(label.startswith("multiplicity-fit") for label, _ in results)
    assert all(passed for _, passed in results)


def test_fit_over_a_common_conductor_past_the_budget_is_refused_at_once():
    # each base's own index is inside the reduction budget, but their lcm,
    # 1009 * 1013, is not: promoting the values to it must raise BudgetError
    # before Phi_1022117 is built, which would take far longer than the
    # timeout; a child process, so that an unbounded reduction fails
    code = "\n".join([
        "from motivesums.exactalg import BudgetError",
        "from motivesums.lefschetz import CyclotomicRational",
        "from motivesums.lseries import lefschetz_fit",
        "zeta = CyclotomicRational.root_of_unity",
        "try:",
        "    lefschetz_fit([0, 0, 0], [zeta(1009), zeta(1013)])",
        "except BudgetError as exc:",
        "    print(exc)",
    ])
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(motivesums.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=20)
    assert (run.returncode, run.stderr) == (0, "")
    assert run.stdout == "index 1022117: one reduction modulo Phi_1022117 exceeds 1000000 steps\n"


# ---------------------------------------------------------------------------
# memoized determinant quotients
# ---------------------------------------------------------------------------


def _clear_determinant_memos():
    curves._h0_det.cache_clear()
    curves._h0_quotient_factors.cache_clear()


@pytest.mark.parametrize("weil", [[1], [1, 1, 3]], ids=["genus0", "genus1"])
def test_l_values_are_the_same_with_cold_and_warm_caches(weil):
    # every value computed with cleared memos, then twice more with the
    # memos filling up and full; groups share place degrees, so a memo
    # keyed without the motive or the variable names would differ
    specs = [{"SL": 2}, {"SL": 3}, {"SL": 4}, {"Sp": 4}, {"GL": 2}]
    shapes = [((1,), (1,)), ((1, 1), (2,)), ((2, 3), (1,)), ((2,), (3,))]
    jobs = []
    for spec in specs:
        motive = motive_of(spec)
        for s, t in shapes:
            for names in (("t", "q"), ("a1", "x"), ("a2", "x")):
                jobs.append(lambda motive=motive, s=s, names=names: h0_det(s, motive, *names))
            for m in (1, 2, 3, 5):
                curve = CurveDatum(3, weil, s, t).base_change(m)
                jobs.append(lambda motive=motive, curve=curve: l_value(motive, curve))
                jobs.append(lambda motive=motive, curve=curve: z_polynomial(motive, curve, len(weil) - 1))
                if "GL" not in spec:
                    split = CurveDatum(3, weil, s + t).base_change(m)
                    jobs.append(lambda spec=spec, curve=split: class_sum(spec, curve))

    def cold(job):
        _clear_determinant_memos()
        return job()

    runs = [[cold(job) for job in jobs], [job() for job in jobs], [job() for job in jobs]]
    # str as well: printing follows the variable order, which == ignores
    assert [[(v, str(v)) for v in run] for run in runs[1:]] == [[(v, str(v)) for v in runs[0]]] * 2
