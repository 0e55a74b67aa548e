"""L-values of weight-graded Frobenius data over curve data.

The value at the central point factors as F1 * F2 * F3: a product over the
curve's Weil inverse roots, a global-sections quotient for the splitting
places evaluated at t = 1, and a twisted quotient for the twisting places
evaluated at t = q.  Both quotients are divided piece by piece before
anything is multiplied: a place of degree e contributes c_e(U^e) for a
piece (w, c), in the one variable U = t * q^(w-1), and c(U) divides the
first place's factor exactly (curves.h0_quotient_factors).  With q = x,
the factors of each place list make one integer polynomial in x, memoized
by the place degrees and the motive (curves.h0_quotient_in_x): l_value
evaluates it at x = q and z_polynomial keeps it, so vanishing emerges from
the arithmetic rather than from special cases.
"""
from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from typing import Sequence

from .curves import CurveDatum, h0_det, h0_quotient_in_x
from .exactalg import IntPolynomial, SymbolicPolynomial, rational_solution, resultant, shifted_rows, to_int_poly
from .lefschetz import CyclotomicRational, LefschetzFunction
from .motives import ArtinTateMotive, motive_of, parse_group_spec


class NotPolynomial(ArithmeticError):
    """Raised when a quantity guaranteed polynomial only under extra
    hypotheses turns out rational."""


def weil_root_product(curve: CurveDatum, poly: IntPolynomial) -> int:
    """Product of poly over the inverse roots of the curve's Weil numerator,
    exactly.  Genus 1 reduces poly modulo the monic reciprocal
    w = y^2 + w1*y + w0 by Horner's rule, to a + b*y in Z[y]/(w), and takes
    its norm (a + b*r)(a + b*s) = a^2 - w1*a*b + w0*b^2 over the roots r, s
    of w, as r + s = -w1 and r*s = w0.  Higher genus takes the resultant
    against the monic reciprocal."""
    w = curve.weil_reciprocal()
    if w.degree == 0:
        return 1
    if w.degree == 2:
        w0, w1, _ = w.coeffs
        a = b = 0
        for c in reversed(poly.coeffs):
            a, b = c - w0 * b, a - w1 * b
        return a * a - w1 * a * b + w0 * b * b
    return resultant(w, poly)


def l_value(motive: ArtinTateMotive, curve: CurveDatum) -> Fraction:
    """Exact central L-value of the motive over the curve datum, in integer
    arithmetic with one Fraction at the end.

    F2 and F3 are products of the per-piece quotient factors F(U) of
    curves.h0_quotient_factors at U = q^(w-1) and U = q^w, read off
    curves.h0_quotient_in_x at x = q.  Without twisting places F3 is
    1 / prod c(q^w) over the pieces.  F1 is the product over pieces of
    weil_root_product(c(t * q^(w-1))), as the resultant is multiplicative;
    genus 0 has no Weil roots and F1 = 1."""
    return Fraction(*_l_value_parts(motive, curve))


def _l_value_parts(motive: ArtinTateMotive, curve: CurveDatum) -> tuple[int, int]:
    """l_value as an integer numerator and a nonzero integer denominator,
    not reduced."""
    q = curve.q
    f1 = 1
    if curve.genus:
        f1 = math.prod(
            weil_root_product(
                curve, IntPolynomial(c * q ** (i * (p.weight - 1)) for i, c in enumerate(p.charpoly.coeffs))
            )
            for p in motive.pieces
        )
    f2 = h0_quotient_in_x(curve.s_degrees, motive, 0).evaluate(q)
    if curve.t_degrees:
        return f1 * f2 * h0_quotient_in_x(curve.t_degrees, motive, 1).evaluate(q), 1
    denom = math.prod(p.charpoly.evaluate(q**p.weight) for p in motive.pieces)
    if denom == 0:
        raise ZeroDivisionError("weight >= 1 eigenvalues cannot hit 1 at t = q")
    return f1 * f2, denom


def j_variable_names(arity: int) -> tuple[str, ...]:
    return tuple(f"a{i + 1}" for i in range(arity))


def z_polynomial(
    motive: ArtinTateMotive, curve: CurveDatum, symbolic_j: int = 0
) -> SymbolicPolynomial:
    """The L-value with q replaced by the variable x and the curve's Weil
    inverse roots by symbolic variables a1..ar; integral whenever both place
    lists are nonempty.

    F2 * F3 is one integer polynomial in x: each quotient factor F(U) of
    curves.h0_quotient_factors becomes F(x^(w-1)) for a splitting place (the
    constant F(1) when w = 1) and F(x^w) for a twisting place.  Only F1, the
    product over a_i of the Frobenius determinant at t = a_i and q = x, is
    built symbolically, and only when there are J-variables.

    Raises NotPolynomial when the twisting list is empty and the value is
    genuinely rational.
    """
    f23 = h0_quotient_in_x(curve.s_degrees, motive, 0)
    if curve.t_degrees:
        f23 = f23 * h0_quotient_in_x(curve.t_degrees, motive, 1)
    elif any(p.charpoly.degree > 0 for p in motive.pieces):
        raise NotPolynomial("rational, not polynomial: empty twisting list")
    z = SymbolicPolynomial.from_int_poly(f23, "x")
    return _symbolic_f1(motive, symbolic_j) * z if symbolic_j > 0 else z


@functools.cache
def _symbolic_f1(motive: ArtinTateMotive, symbolic_j: int) -> SymbolicPolynomial:
    """z_polynomial's F1, memoized by the motive and the arity."""
    return math.prod(h0_det((1,), motive, t=name, q="x") for name in j_variable_names(symbolic_j))


def symmetric_pair_eval(
    poly: SymbolicPolynomial,
    pair: tuple[str, str],
    monic_quadratic: IntPolynomial,
    assignment: dict | None = None,
) -> Fraction:
    """Evaluate a polynomial that is symmetric in a conjugate pair of
    variables at the two roots r, s = -w1 - r of a monic integer quadratic
    w = y^2 + w1*y + w0, with all other variables given integer or rational
    values, in integer pairs a + b*y of Z[y]/(w).

    One pass over the terms groups them by their exponents (j, k) in the
    pair (SymbolicPolynomial.evaluate_except), and
    r^j * s^k = w0^min(j, k) * r^(j-k), or w0^min(j, k) * s^(k-j) when
    k > j, is read from one table of r^m.  The y-part must vanish, as it
    does for a symmetric polynomial whether or not w splits; the constant
    part is then the value.  Fractions enter only with a rational value."""
    if monic_quadratic.degree != 2 or not monic_quadratic.is_monic():
        raise ValueError("conjugate pair requires a monic quadratic")
    w0, w1 = monic_quadratic.coeffs[:2]
    groups = poly.evaluate_except(pair, assignment or {})
    # r^m = a_m + b_m*y is the m-th shift of 1 modulo w, and
    # s^m = (a_m - b_m*w1) - b_m*y
    m_max = max((abs(j - k) for j, k in groups), default=0)
    r_powers = list(itertools.islice(shifted_rows((1, 0), (w0, w1)), m_max + 1))
    w0_powers = {m: w0**m for m in {min(jk) for jk in groups}}
    const = ypart = 0
    for (j, k), c in groups.items():
        c *= w0_powers[min(j, k)]
        am, bm = r_powers[abs(j - k)]
        if j < k:
            am, bm = am - bm * w1, -bm
        const += c * am
        ypart += c * bm
    if ypart:
        raise ValueError("expression is not symmetric in the conjugate pair")
    return Fraction(const)


def evaluate_with_weil_roots(
    poly: SymbolicPolynomial, curve: CurveDatum, x_value: int, j_names: Sequence[str]
) -> Fraction:
    """Evaluate a polynomial in x and the J-variables at x = x_value and the
    J-variables at the curve's Weil inverse roots.  Genus 0 has no
    J-variables and evaluates in integers; for genus 1 the polynomial must
    be symmetric in the two J-variables, and symmetric_pair_eval evaluates
    it at the conjugate pair, whether the roots are rational or not."""
    w = curve.weil_reciprocal()
    if len(j_names) != w.degree:
        raise ValueError("arity does not match the number of Weil roots")
    if w.degree == 0:
        return Fraction(to_int_poly(poly, "x").evaluate(x_value))
    if w.degree == 2:
        return symmetric_pair_eval(poly, (j_names[0], j_names[1]), w, {"x": x_value})
    raise ValueError("only genus 0 and 1 evaluations are supported")


_CENTER_ORDERS = {
    "SL": lambda n, size: math.gcd(n, size - 1),
    "Sp": lambda n, size: math.gcd(2, size - 1),
}
_RANKS = {"SL": lambda n: n - 1, "Sp": lambda n: n // 2}


def multiplicity_sum(spec, curve: CurveDatum, fixed_chi: bool = True) -> Fraction:
    """Signed L-value giving the conditional count of cuspidal objects with
    the prescribed local behavior; with fixed_chi False the count is summed
    over central characters, multiplying in the center orders at the
    twisting places."""
    spec = parse_group_spec(spec)
    (kind, n), = spec.items()
    if kind not in _RANKS:
        raise ValueError("multiplicity sums are defined for SL and Sp only")
    if not curve.t_degrees:
        raise ValueError("twisting places required; use the class-sum path instead")
    rank = _RANKS[kind](n)
    sign = (-1) ** ((len(curve.s_degrees) + len(curve.t_degrees)) * rank)
    value = sign * l_value(motive_of(spec), curve)
    if not fixed_chi:
        for d in curve.t_degrees:
            size = curve.q**d
            value *= _CENTER_ORDERS[kind](n, size) * (size - 1)
    return value


def lefschetz_fit(
    values: Sequence[Fraction], candidate_bases: Sequence[CyclotomicRational]
) -> LefschetzFunction | None:
    """Fit values(m), m = 1..M, as an exact exponential sum with rational
    coefficients over the given bases: one rational system, a row per point
    and per power-basis coordinate of its value in Q(zeta_N), N the lcm of
    the bases' conductors, solved by exactalg.rational_solution.  Each base
    must be a root of unity times a nonzero rational (ValueError otherwise);
    equal bases are merged.  ValueError when M does not exceed their number
    or a zero base leaves a zero column; None when no rational coefficients
    fit every point."""
    # equal bases give equal single-term functions, so each is kept once
    distinct = {LefschetzFunction.single(1, b): b for b in candidate_bases}
    if len(values) < len(distinct) + 1:
        raise ValueError("need at least one held-out point beyond the solve block")
    columns = [[s.evaluate(m) for m in range(1, len(values) + 1)] for s in distinct]
    columns.append([CyclotomicRational.from_rational(v) for v in values])
    n = math.lcm(*(col[0].conductor for col in columns))
    rows = [row for cells in zip(*columns) for row in zip(*(c.promoted(n).coords for c in cells))]
    try:
        coeffs = rational_solution(rows)
    except ValueError:
        raise ValueError("singular system: candidate bases do not separate the points") from None
    return None if coeffs is None else LefschetzFunction(zip(coeffs, distinct.values()))
