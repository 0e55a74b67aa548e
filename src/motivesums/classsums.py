"""Class sums over semisimple conjugacy types and symbolic certificates.

The class sum adds class count times central L-value over all conjugacy
types.  The certificates re-express that sum as an explicit integer
polynomial in x (standing for the field size) and in symbolic inverse-root
variables a1..ar, verifying every divisibility and congruence condition
needed for integrality along the way.  Each verified condition is recorded
with a witness; any failure raises CertificateError naming the condition.

The types that class_sum adds up depend on the group and the parity of q
only, so each is built once, with its centralizer motive, and memoized by
value: the key is the group kind, its size and whether q is even.  The memo
holds one entry per distinct key and is never evicted; the values are tuples
of frozen types and motives, so a caller cannot change what another reads.
"""
from __future__ import annotations

import dataclasses
import functools
import math
from fractions import Fraction
from typing import Callable, Sequence

from .classtypes import (
    SLType,
    SpType,
    count_sl,
    count_sp,
    divisors,
    enumerate_sp_types,
    moebius,
    sl_centralizer_motive,
    sp_centralizer_motive,
    table_goldens,
)
from .curves import CurveDatum
from .exactalg import (
    BudgetError,
    InexactDivision,
    IntPolynomial,
    SymbolicPolynomial,
    check_degree,
    factorize,
    poly_gcd,
    rational_solution,
    to_int_poly,
)
from .lseries import evaluate_with_weil_roots, j_variable_names, l_value
from .motives import ArtinTateMotive, parse_group_spec


class CertificateError(ArithmeticError):
    """Raised when a certificate condition fails; names the condition."""


@dataclasses.dataclass(frozen=True)
class Check:
    label: str
    passed: bool
    witness: str


@dataclasses.dataclass(frozen=True)
class SymbolicCertificate:
    """An integer polynomial in x and a1..ar together with the verified
    conditions that establish its integrality."""

    group: dict
    j_arity: int
    polynomial: SymbolicPolynomial
    checks: tuple[Check, ...]
    closed_forms: tuple[tuple[str, SymbolicPolynomial], ...] = ()
    regime: str = ""


@dataclasses.dataclass(frozen=True)
class DerivativeWitness:
    """Denominator-cleared symmetric quantities used by the derivative
    checks at x = -1: A is the product of (1+a)^k and B, C, D are the
    cleared forms of the weighted sums over the a-variables."""

    A: SymbolicPolynomial
    B: SymbolicPolynomial
    C: SymbolicPolynomial
    D: SymbolicPolynomial


# the empty product, which math.prod needs as its start
_ONE = SymbolicPolynomial.constant(1)


def derivative_witness(j_names: Sequence[str], k: int) -> DerivativeWitness:
    ones = [1 + SymbolicPolynomial.variable(name) for name in j_names]
    alphas = [SymbolicPolynomial.variable(name) for name in j_names]
    r = len(j_names)
    a = math.prod((p**k for p in ones), start=_ONE)

    def rest(skip: set) -> SymbolicPolynomial:
        return math.prod((ones[j] ** k for j in range(r) if j not in skip), start=_ONE)

    b = SymbolicPolynomial.constant(0)
    c = SymbolicPolynomial.constant(0)
    d = SymbolicPolynomial.constant(0)
    for i in range(r):
        b = b + alphas[i] * ones[i] ** (k - 1) * rest({i})
        c = c + alphas[i] ** 2 * ones[i] ** (k - 2) * rest({i})
        for j in range(r):
            if j != i:
                d = d + (
                    alphas[i]
                    * alphas[j]
                    * ones[i] ** (k - 1)
                    * ones[j] ** (k - 1)
                    * rest({i, j})
                )
    return DerivativeWitness(A=a, B=b, C=c, D=d)


# ---------------------------------------------------------------------------
# class sums
# ---------------------------------------------------------------------------


def class_sum(spec, curve: CurveDatum) -> Fraction:
    """Sum over semisimple conjugacy types of class count times central
    L-value of the centralizer's Frobenius data.  Only single-block SL
    types and Sp types without general-linear blocks are summed: any other
    type has a weight-1 piece c with the root 1 (the product of 1 - u^d
    over two or more blocks, over 1 - u; the 1 - u^e of a general-linear
    block), and a second splitting place, of degree e, contributes the
    factor c_e(1) = 0 to its L-value."""
    spec = parse_group_spec(spec)
    if curve.t_degrees:
        raise ValueError("twisting places must be empty for class sums")
    if len(curve.s_degrees) < 2:
        raise ValueError("class sums require at least two splitting places")
    ((kind, size),) = spec.items()
    q = curve.q
    total = Fraction(0)
    for t, motive in _summed_types(kind, size, q % 2 == 0):
        count = count_sl(size, t.pairs[0][0], q) if kind == "SL" else count_sp(t, q)
        total += count * l_value(motive, curve)
    return total


@functools.cache
def _summed_types(kind: str, size: int, q_even: bool) -> tuple[tuple[SLType | SpType, ArtinTateMotive], ...]:
    """The types that class_sum adds up, each with its centralizer motive."""
    if kind == "SL":
        if size < 1:
            raise ValueError("n must be positive")
        types = [SLType([(d, size // d)]) for d in divisors(size)]
        return tuple((t, sl_centralizer_motive(t)) for t in types)
    if kind == "Sp":
        if size % 2:
            raise ValueError("Sp size must be even")
        types = [t for t in enumerate_sp_types(size // 2, q_even) if not t.gl_pairs]
        return tuple((t, sp_centralizer_motive(t)) for t in types)
    raise ValueError(f"class sums are implemented for SL and Sp, not {kind}")


# ---------------------------------------------------------------------------
# building blocks shared by the SL certificates
# ---------------------------------------------------------------------------


def h_polynomial(total_n: int, total_d: int, j_names: Sequence[str]) -> SymbolicPolynomial:
    """Product over the a-variables of (1 + a + ... + a^(D-1)) times
    (1 - a^D x^(jD)) for j = 1 .. N/D - 1, with N = total_n, D = total_d."""
    if total_n % total_d:
        raise ValueError("block degree must divide the total size")
    x = SymbolicPolynomial.variable("x")
    acc = SymbolicPolynomial.constant(1)
    for name in j_names:
        a = SymbolicPolynomial.variable(name)
        geo = SymbolicPolynomial.constant(0)
        for j in range(total_d):
            geo = geo + a**j
        factor = geo
        for j in range(1, total_n // total_d):
            factor = factor * (1 - a**total_d * x ** (j * total_d))
        acc = acc * factor
    return acc


def m_numerator(n: int, d: int) -> IntPolynomial:
    """Numerator over (x^n - 1) of the density factor attached to blocks of
    degree d: sum of mu(e) (x^(d/e) - 1) over e | d."""
    acc = IntPolynomial()
    for e in divisors(d):
        term = [0] * (d // e + 1)
        term[0], term[-1] = -1, 1
        acc = acc + moebius(e) * IntPolynomial(term)
    return acc


# the bound on a certificate's largest product that a build may have: the
# largest bound among the verification battery's builds is 462,400, for
# sl_script_p(8, 2, 5, 5), whose largest product has 62,000 terms
TERM_BUDGET = 500_000


def _check_terms(exponents: int, r: int, x_degree: int) -> None:
    """Raise BudgetError, before any work, when a product over r
    a-variables, each with at most `exponents` distinct exponents, of
    degree x_degree in x could have more than TERM_BUDGET terms:
    exponents^r * (x_degree + 1) bounds its term count."""
    # 2^r <= exponents^r, so the power is formed only for a small r
    if r > TERM_BUDGET or (exponents > 1 and 2**r > TERM_BUDGET) or exponents**r * (x_degree + 1) > TERM_BUDGET:
        raise BudgetError(f"the certificate's products may reach more than {TERM_BUDGET} terms; lower the arity r")


def _require(checks: list[Check], label: str, passed: bool, witness: str):
    checks.append(Check(label, passed, witness))
    if not passed:
        raise CertificateError(f"certificate condition failed: {label} ({witness})")


# ---------------------------------------------------------------------------
# SL certificates
# ---------------------------------------------------------------------------


def sl_prime_certificate(l: int, r: int) -> SymbolicCertificate:
    """Certificate for SL of prime degree: the difference between the split
    and inert block products divides exactly by 1 + x + ... + x^(l-1),
    yielding two closed forms selected by whether x = 1 mod l."""
    check_degree(l - 1)  # the divisor's degree in x, checked before any work
    if l < 2 or factorize(l) != [(l, 1)]:
        raise ValueError("degree must be prime")
    if r < 0:
        raise ValueError("arity must be nonnegative")
    # per a-variable, the split product has exponents 0..l-1 and degree
    # l(l-1)/2 in x
    _check_terms(l, r, r * l * (l - 1) // 2)
    names = j_variable_names(r)
    h_split = h_polynomial(l, 1, names)
    h_inert = h_polynomial(l, l, names)
    divisor = SymbolicPolynomial.from_int_poly(IntPolynomial([1] * l), "x")
    checks: list[Check] = []
    # the divisor is monic, so no division step can be inexact
    quo, rem = (h_split - h_inert).divrem(divisor, "x")
    _require(checks, "geometric-factor-division", rem.is_zero(), str(rem))
    generic = quo + h_inert
    split = l * quo + h_inert
    return SymbolicCertificate(
        group={"SL": l},
        j_arity=r,
        polynomial=generic,
        checks=tuple(checks),
        closed_forms=(("split", split), ("nonsplit", generic)),
        regime="split form when the field size is 1 mod the degree",
    )


def sl_script_p(n: int, r: int, n_prime: int = 1, d_prime: int = 1) -> SymbolicCertificate:
    """Certificate that the weighted sum over d | n of the block product of
    size (n_prime*n, d_prime*d) against the degree-d density factor clears
    (x^n - 1) exactly, leaving an integer polynomial."""
    if n < 1 or r < 0:
        raise ValueError("size and arity must be positive / nonnegative")
    if n_prime < 1 or d_prime < 1:
        raise ValueError("scales must be positive")
    if n_prime % d_prime:
        raise ValueError("d_prime must divide n_prime")
    if math.gcd(d_prime, n) != 1:
        raise ValueError("d_prime must be coprime to n")
    check_degree(n_prime * n)  # the block products' degree in x, checked before any work
    # each a-exponent is below n_prime*n, and d = 1 gives the largest degree in x
    big_n = n_prime * n
    _check_terms(big_n, r, r * big_n * (big_n // d_prime - 1) // 2 + n)
    names = j_variable_names(r)
    num = SymbolicPolynomial.constant(0)
    for d in divisors(n):
        h = h_polynomial(n_prime * n, d_prime * d, names)
        num = num + h * SymbolicPolynomial.from_int_poly(m_numerator(n, d), "x")
    den_coeffs = [0] * (n + 1)
    den_coeffs[0], den_coeffs[-1] = -1, 1
    den = SymbolicPolynomial.from_int_poly(IntPolynomial(den_coeffs), "x")
    checks: list[Check] = []
    quo, rem = num.divrem(den, "x")
    _require(checks, "integral-clearance", rem.is_zero(), str(rem))
    return SymbolicCertificate(
        group={"SL": n},
        j_arity=r,
        polynomial=quo,
        checks=tuple(checks),
        regime=(
            "equals the class sum when gcd(n, field size - 1) = 1"
            if (n_prime, d_prime) == (1, 1)
            else f"generalized block sizes (n_prime={n_prime}, d_prime={d_prime})"
        ),
    )


# ---------------------------------------------------------------------------
# Sp certificates
# ---------------------------------------------------------------------------

_X = IntPolynomial((0, 1))
_OP = IntPolynomial((1, 1))  # 1 + x
_Q4 = IntPolynomial((1, 0, 1))  # 1 + x^2
_Q6 = IntPolynomial((1, -1, 1))  # 1 - x + x^2


def _golden_sp_ratios() -> dict:
    """Transcribed count-times-ratio rational functions, keyed by
    (half-dimension, parity) and table row label, as (numerator,
    denominator) integer polynomial pairs."""
    x = _X
    return {
        (2, "odd"): {
            "t1": (2 * IntPolynomial((1, 1, 1)), _OP * _OP * _Q4),
            "t2": (IntPolynomial((1,)), _OP * _OP),
            "t3": (2 * IntPolynomial((-1, 1)), _OP * _OP),
            "t4": (IntPolynomial((-1, 1)), _OP * _OP),
            "t5": (IntPolynomial((-1, 1)) * IntPolynomial((-3, 1)), 2 * _OP * _OP),
            "t6": (IntPolynomial((-1, 0, 1)), 2 * _Q4),
        },
        (2, "even"): {
            "t1": (IntPolynomial((1, 1, 1)), _OP * _OP * _Q4),
            "t3": (x, _OP * _OP),
            "t4": (x, _OP * _OP),
            "t5": (x * IntPolynomial((-2, 1)), 2 * _OP * _OP),
            "t6": (x * x, 2 * _Q4),
        },
        (3, "odd"): {
            "t1": (2 * IntPolynomial((1, 1, 1, 1, 1)), _OP * _OP * _OP * _Q4 * _Q6),
            "t2": (2 * IntPolynomial((1, 1, 1)), _OP * _OP * _OP * _Q4),
            "t3": (
                2 * IntPolynomial((-1, 1)) * IntPolynomial((1, 1, 1)),
                _OP * _OP * _OP * _Q4,
            ),
            "t4": (IntPolynomial((-1, 1)), _OP * _OP * _OP),
            "t5": (2 * IntPolynomial((-1, 1)), _OP * _OP * _OP),
            "t6": (IntPolynomial((-1, 1)) * IntPolynomial((-3, 1)), _OP * _OP * _OP),
            "t7": (IntPolynomial((-1, 1)), _Q4),
            "t8": (IntPolynomial((-1, 1)) * _Q4, _OP * _OP * _OP * _Q6),
            "t9": (IntPolynomial((-1, 1)) * IntPolynomial((-3, 1)), _OP * _OP * _OP),
            "t10": (
                IntPolynomial((-1, 1)) * IntPolynomial((-3, 1)) * IntPolynomial((-5, 1)),
                6 * _OP * _OP * _OP,
            ),
            "t11": (IntPolynomial((-1, 1)) * IntPolynomial((-1, 1)), 2 * _Q4),
            "t12": (x * IntPolynomial((-1, 1)), 3 * _Q6),
        },
        (3, "even"): {
            "t1": (IntPolynomial((1, 1, 1, 1, 1)), _OP * _OP * _OP * _Q4 * _Q6),
            "t3": (x * IntPolynomial((1, 1, 1)), _OP * _OP * _OP * _Q4),
            "t5": (x, _OP * _OP * _OP),
            "t6": (x * IntPolynomial((-2, 1)), 2 * _OP * _OP * _OP),
            "t7": (x * x, 2 * _OP * _Q4),
            "t8": (x * _Q4, _OP * _OP * _OP * _Q6),
            "t9": (x * IntPolynomial((-2, 1)), _OP * _OP * _OP),
            "t10": (
                x * IntPolynomial((-2, 1)) * IntPolynomial((-4, 1)),
                6 * _OP * _OP * _OP,
            ),
            "t11": (x * x * x, 2 * _OP * _Q4),
            "t12": (x * IntPolynomial((-1, 1)), 3 * _Q6),
        },
    }


# rows entering the (1+x)-power derivative checks:
# label -> (S(-1), S'(-1) or None, AB coefficient of H'(-1),
#           (AB, AC, AD) coefficients of H''(-1) or None)
_WITNESS_ROWS = {
    (2, "odd"): {
        "t1": (Fraction(1), None, -4, None),
        "t2": (Fraction(1), None, -2, None),
        "t3": (Fraction(-4), None, -1, None),
        "t4": (Fraction(-2), None, -1, None),
        "t5": (Fraction(4), None, 0, None),
    },
    (2, "even"): {
        "t1": (Fraction(1, 2), None, -4, None),
        "t3": (Fraction(-1), None, -1, None),
        "t4": (Fraction(-1), None, -1, None),
        "t5": (Fraction(3, 2), None, 0, None),
    },
    (3, "odd"): {
        "t1": (Fraction(1, 3), Fraction(0), -9, (26, 46, 81)),
        "t2": (Fraction(1), Fraction(0), -5, (6, 14, 25)),
        "t3": (Fraction(-2), Fraction(1), -4, (6, 6, 16)),
        "t4": (Fraction(-2), Fraction(1), -2, (0, 2, 4)),
        "t5": (Fraction(-4), Fraction(2), -2, (0, 2, 4)),
        "t6": (Fraction(8), Fraction(-6), -1, (0, 0, 1)),
        "t8": (Fraction(-4, 3), Fraction(2, 3), -3, (2, 4, 9)),
        "t9": (Fraction(8), Fraction(-6), -1, (0, 0, 1)),
        "t10": (Fraction(-8), Fraction(22, 3), 0, (0, 0, 0)),
    },
    (3, "even"): {
        "t1": (Fraction(1, 6), Fraction(0), -9, (26, 46, 81)),
        "t3": (Fraction(-1, 2), Fraction(1, 2), -4, (6, 6, 16)),
        "t5": (Fraction(-1), Fraction(1), -2, (0, 2, 4)),
        "t6": (Fraction(3, 2), Fraction(-2), -1, (0, 0, 1)),
        "t8": (Fraction(-2, 3), Fraction(2, 3), -3, (2, 4, 9)),
        "t9": (Fraction(3), Fraction(-4), -1, (0, 0, 1)),
        "t10": (Fraction(-5, 2), Fraction(23, 6), 0, (0, 0, 0)),
    },
}

# rows whose cleared form has only a simple (1+x) factor; their second
# derivative at -1 enters with the mixed product instead of A
_WITNESS_SPECIAL = {(3, "even"): {"t7": Fraction(1, 2), "t11": Fraction(-1, 2)}}


# the degree of every tabulated class count is at most this
_COUNT_DEGREE = 4


@functools.cache
def _count_polynomial(fn: Callable[[int], Fraction]):
    """Interpolate a polynomial count function exactly, as one linear system
    through the points 0.._COUNT_DEGREE and two check points; returns an
    integer numerator polynomial and a positive integer denominator."""
    points = [*range(_COUNT_DEGREE + 1), _COUNT_DEGREE + 3, _COUNT_DEGREE + 7]
    coeffs = rational_solution([x**d for d in range(_COUNT_DEGREE + 1)] + [fn(x)] for x in points)
    if coeffs is None:
        raise ArithmeticError("count is not polynomial of the expected degree")
    lcm = math.lcm(*(c.denominator for c in coeffs))
    return IntPolynomial(int(c * lcm) for c in coeffs), lcm


@functools.cache
def _rational_derivatives_at(num: IntPolynomial, den: IntPolynomial, point: int, order: int):
    """Values of num/den and its first `order` derivatives at the point,
    exactly; the reduced denominator must not vanish there."""
    g = poly_gcd(num, den)
    n, d = num / g, den / g
    dv = d.evaluate(point)
    if dv == 0:
        raise ZeroDivisionError("denominator vanishes at the evaluation point")
    values = [Fraction(n.evaluate(point), dv)]
    if order >= 1:
        n1 = n.derivative() * d - n * d.derivative()
        values.append(Fraction(n1.evaluate(point), dv**2))
        if order >= 2:
            n2 = n1.derivative() * d - 2 * n1 * d.derivative()
            values.append(Fraction(n2.evaluate(point), dv**3))
    return tuple(values)


def sp_certificate(n: int, parity: str, r: int) -> SymbolicCertificate:
    """Certificate that the symplectic class sum of half-dimension n (2 or
    3) over a field of the given parity is an integer polynomial in x and
    the a-variables, verified through congruence, derivative, and
    cyclotomic-remainder conditions."""
    if n not in (2, 3):
        raise ValueError("half-dimension must be 2 or 3")
    if parity not in ("odd", "even"):
        raise ValueError("parity must be 'odd' or 'even'")
    if r < 0:
        raise ValueError("arity must be nonnegative")
    rows = table_goldens()[(n, parity)]
    golden = _golden_sp_ratios()[(n, parity)]
    names = j_variable_names(r)
    x = SymbolicPolynomial.variable("x")
    checks: list[Check] = []

    scalar = 2 if n == 2 else 6
    parts = [_OP] * n + [_Q4] + ([_Q6] if n == 3 else [])
    cleared_den = scalar * math.prod(parts)
    # a determinant has degree at most n in t and n^2 in q; a multiplier's
    # degree is at most the cleared denominator's
    _check_terms(n + 1, r, r * n * n + cleared_den.degree)

    total = SymbolicPolynomial.constant(0)
    h_by_label: dict[str, SymbolicPolynomial] = {}
    for row in rows:
        num_count, den_count = _count_polynomial(row.count)
        d_one = to_int_poly(row.det.substitute({"t": 1, "q": x}), "x")
        d_x = to_int_poly(row.det.substitute({"t": x, "q": x}), "x")
        r_num = num_count * d_one
        r_den = den_count * d_x
        g_num, g_den = golden[row.label]
        match = (r_num * g_den - g_num * r_den).is_zero()
        _require(checks, f"count-ratio-transcription-{row.label}", match, str(r_num))
        try:
            multiplier = (cleared_den * g_num) / g_den
        except InexactDivision as exc:
            _require(checks, f"denominator-clearance-{row.label}", False, str(exc))
        h = math.prod(
            (row.det.substitute({"t": SymbolicPolynomial.variable(name), "q": x}) for name in names),
            start=_ONE,
        )
        h_by_label[row.label] = h
        total = total + SymbolicPolynomial.from_int_poly(multiplier, "x") * h

    _require(
        checks,
        "even-coefficient-congruence",
        total.content() % 2 == 0,
        "all cleared coefficients divisible by 2",
    )
    if n == 3:
        _require(
            checks,
            "triple-coefficient-congruence",
            total.content() % 3 == 0,
            "all cleared coefficients divisible by 3",
        )

    g = total
    for order in range(n):
        value = g.substitute({"x": -1})
        _require(
            checks,
            f"minus-one-vanishing-order-{order}",
            value.is_zero(),
            str(value),
        )
        g = g.derivative("x")

    quartic = SymbolicPolynomial.from_int_poly(_Q4, "x")
    _, rem4 = total.divrem(quartic, "x")
    _require(checks, "fourth-root-vanishing", rem4.is_zero(), str(rem4))
    if n == 3:
        sextic = SymbolicPolynomial.from_int_poly(_Q6, "x")
        _, rem6 = total.divrem(sextic, "x")
        _require(checks, "sixth-root-vanishing", rem6.is_zero(), str(rem6))

    _freshman_congruences(n, names, checks)
    _witness_conditions(n, parity, golden, h_by_label, names, checks)

    den_sym = SymbolicPolynomial.from_int_poly(cleared_den, "x")
    quo, rem = total.divrem(den_sym, "x")
    _require(checks, "integral-clearance", rem.is_zero(), str(rem))

    return SymbolicCertificate(
        group={"Sp": 2 * n},
        j_arity=r,
        polynomial=quo,
        checks=tuple(checks),
        regime=f"{parity} field size",
    )


def _freshman_congruences(n: int, names: Sequence[str], checks: list[Check]):
    alphas = [SymbolicPolynomial.variable(name) for name in names]
    power = math.prod(((1 + a) ** n for a in alphas), start=_ONE)
    diff2 = power - math.prod(((1 + a) ** (n - 2) * (1 + a**2) for a in alphas), start=_ONE)
    if n == 3:
        diff3 = power - math.prod((1 + a**3 for a in alphas), start=_ONE)
        _require(
            checks,
            "power-congruence-mod-3",
            diff3.content() % 3 == 0,
            "cube of product congruence",
        )
    _require(checks, "power-congruence-mod-2", diff2.content() % 2 == 0, "square of product congruence")


def _witness_conditions(n, parity, golden, h_by_label, names, checks: list[Check]):
    rows = _WITNESS_ROWS[(n, parity)]
    witness = derivative_witness(names, n)
    order = n - 1
    sums = {"s": Fraction(0), "s1": Fraction(0), "s2": Fraction(0)}
    first_order = Fraction(0)
    second_ab = Fraction(0)
    second_ac = Fraction(0)
    second_ad = Fraction(0)
    op_power = _OP**n
    for label, (s_val, s1_val, h1_coeff, h2_coeffs) in rows.items():
        g_num, g_den = golden[label]
        values = _rational_derivatives_at(g_num * op_power, g_den, -1, order)
        _require(
            checks,
            f"ratio-value-at-minus-one-{label}",
            values[0] == s_val,
            f"{values[0]}",
        )
        if s1_val is not None:
            _require(
                checks,
                f"ratio-slope-at-minus-one-{label}",
                values[1] == s1_val,
                f"{values[1]}",
            )
        h = h_by_label[label]
        h1 = h.derivative("x")
        _require(
            checks,
            f"derivative-witness-{label}",
            h1.substitute({"x": -1}) == h1_coeff * witness.B,
            f"first derivative coefficient {h1_coeff}",
        )
        _require(
            checks,
            f"value-witness-{label}",
            h.substitute({"x": -1}) == witness.A,
            "product of (1+a)^k",
        )
        if h2_coeffs is not None:
            c_ab, c_ac, c_ad = h2_coeffs
            claimed = c_ab * witness.B + c_ac * witness.C + c_ad * witness.D
            _require(
                checks,
                f"second-derivative-witness-{label}",
                h1.derivative("x").substitute({"x": -1}) == claimed,
                f"second derivative coefficients {h2_coeffs}",
            )
            second_ab += s_val * c_ab
            second_ac += s_val * c_ac
            second_ad += s_val * c_ad
        sums["s"] += values[0]
        sums["s1"] += values[1]
        if order >= 2:
            sums["s2"] += values[2]
            second_ab += 2 * s1_val * h1_coeff
        first_order += s_val * h1_coeff
    special = _WITNESS_SPECIAL.get((n, parity), {})
    for label, s2_claimed in special.items():
        g_num, g_den = golden[label]
        values = _rational_derivatives_at(g_num * op_power, g_den, -1, 2)
        _require(
            checks,
            f"ratio-curvature-at-minus-one-{label}",
            values[0] == 0 and values[1] == 0 and values[2] == s2_claimed,
            f"{values[2]}",
        )
        sums["s2"] += values[2]
        mixed = math.prod(
            ((1 + SymbolicPolynomial.variable(nm)) * (1 + SymbolicPolynomial.variable(nm) ** 2) for nm in names),
            start=_ONE,
        )
        _require(
            checks,
            f"value-witness-{label}",
            h_by_label[label].substitute({"x": -1}) == mixed,
            "product of (1+a)(1+a^2)",
        )
    _require(checks, "witness-sum-value", sums["s"] == 0, str(sums["s"]))
    _require(checks, "witness-sum-slope", sums["s1"] == 0, str(sums["s1"]))
    _require(checks, "witness-first-order-combination", first_order == 0, str(first_order))
    if order >= 2:
        _require(checks, "witness-sum-curvature", sums["s2"] == 0, str(sums["s2"]))
        _require(checks, "witness-second-order-ab", second_ab == 0, str(second_ab))
        _require(checks, "witness-second-order-ac", second_ac == 0, str(second_ac))
        _require(checks, "witness-second-order-ad", second_ad == 0, str(second_ad))


# ---------------------------------------------------------------------------
# numeric evaluation of certificates
# ---------------------------------------------------------------------------


def evaluate_certificate(cert: SymbolicCertificate, curve: CurveDatum, m: int = 1) -> Fraction:
    """Evaluate the certificate polynomial at x = q^m and the a-variables at
    the m-th powers of the curve's Weil inverse roots."""
    changed = curve.base_change(m)
    x_val = curve.q**m
    poly = cert.polynomial
    if cert.closed_forms:
        ((kind, size),) = cert.group.items()
        forms = dict(cert.closed_forms)
        poly = forms["split"] if x_val % size == 1 else forms["nonsplit"]
    return evaluate_with_weil_roots(poly, changed, x_val, j_variable_names(cert.j_arity))
