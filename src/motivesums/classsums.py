"""Class sums over semisimple conjugacy types and symbolic certificates.

The class sum adds class count times central L-value over all conjugacy
types.  The certificates re-express that sum as an explicit integer
polynomial in x (standing for the field size) and in symbolic inverse-root
variables a1..ar, verifying every divisibility and congruence condition
needed for integrality along the way.  Each verified condition is recorded
with a witness; any failure raises CertificateError naming the condition.

The types that class_sum adds up depend on the group and the parity of q
only, so each is built once, with its centralizer motive, and memoized by
value: the key is the group kind, its size and, for Sp, whether q is even.
The memo holds one entry per distinct key and is never evicted; the values
are tuples of frozen types and motives, so a caller cannot change what
another reads.  The sum itself is one integer numerator over one
denominator, made a Fraction once at the end.

An Sp certificate's row data depends on values only, so each piece is
computed once per distinct value and memoized: a count's interpolation and
transcription check by its values at the interpolation points, as integer
(numerator, denominator) pairs, a determinant's specializations d(1, x),
d(x, x) and its derivatives at q = -1 by the determinant, the product of
det(a, x) over the a-variables by the determinant and the names, its
derivatives at x = -1 by those and the highest order a check reads, the
ratio checks by the transcribed pairs, and the derivative witnesses and
power congruences by the names.  No memo is keyed by the group and parity
alone, so a changed count, determinant or ratio is checked afresh.  Each
memo holds one entry per distinct key and is never evicted; the values are
tuples, frozen checks and immutable polynomials, and the transcribed ratios
are handed out as new dicts on every call.
"""
from __future__ import annotations

import dataclasses
import functools
import math
from fractions import Fraction
from typing import Sequence

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
from .lseries import _l_value_parts, evaluate_with_weil_roots, j_variable_names
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


# the empty product, which math.prod needs as its start, and the empty sum
_ONE = SymbolicPolynomial.constant(1)
_ZERO = SymbolicPolynomial.constant(0)


@functools.cache
def derivative_witness(j_names: tuple[str, ...], k: int) -> DerivativeWitness:
    """A = prod (1+a)^k, B = sum a (1+a)^(k-1) * rest, C = sum a^2
    (1+a)^(k-2) * rest and D = sum over ordered pairs of distinct variables
    a a' ((1+a)(1+a'))^(k-1) * rest, rest the product of (1+b)^k over the
    other variables b; each is built from the witness of all names but the
    last, as the product rule builds a product's derivatives."""
    if not j_names:
        return DerivativeWitness(A=_ONE, B=_ZERO, C=_ZERO, D=_ZERO)
    w = derivative_witness(j_names[:-1], k)
    a = SymbolicPolynomial.variable(j_names[-1])
    p, p1, p2 = (1 + a) ** k, a * (1 + a) ** (k - 1), a**2 * (1 + a) ** (k - 2)
    products = SymbolicPolynomial.sum_of_products
    return DerivativeWitness(
        A=w.A * p,
        B=products([(w.B, p), (w.A, p1)]),
        C=products([(w.C, p), (w.A, p2)]),
        D=products([(w.D, p), (w.B, 2 * p1)]),
    )


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
    num, den = 0, 1
    # SL types do not depend on the parity of q, so SL keys leave it out
    for t, motive in _summed_types(kind, size, kind == "Sp" and q % 2 == 0):
        count = count_sl(size, t.pairs[0][0], q) if kind == "SL" else count_sp(t, q)
        value_num, value_den = _l_value_parts(motive, curve)
        num, den = num * value_den + count * value_num * den, den * value_den
    return Fraction(num, den)


@functools.cache
def _summed_types(kind: str, size: int, q_even: bool) -> tuple[tuple[SLType | SpType, ArtinTateMotive], ...]:
    """The types that class_sum adds up, each with its centralizer motive;
    q_even, whether q is even, matters for Sp only."""
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
    num = SymbolicPolynomial.sum_of_products(
        (h_polynomial(n_prime * n, d_prime * d, names), SymbolicPolynomial.from_int_poly(m_numerator(n, d), "x"))
        for d in divisors(n)
    )
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
    denominator) integer polynomial pairs.  Every call returns new dicts,
    so a caller may change them without changing what another reads."""
    return {key: dict(rows) for key, rows in _golden_pairs()}


@functools.cache
def _golden_pairs() -> tuple:
    """The transcribed table of _golden_sp_ratios, as nested tuples."""
    x = _X
    table = {
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
    return tuple((key, tuple(rows.items())) for key, rows in table.items())


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


# the degree of every tabulated class count is at most this; a count is
# read at 0.._COUNT_DEGREE and at two check points
_COUNT_DEGREE = 4
_COUNT_POINTS = (*range(_COUNT_DEGREE + 1), _COUNT_DEGREE + 3, _COUNT_DEGREE + 7)


@functools.cache
def _count_polynomial(values: tuple[Fraction, ...]):
    """Interpolate a count function from its values at _COUNT_POINTS, as one
    linear system whose two extra rows check that it is polynomial; returns
    an integer numerator polynomial and a positive integer denominator."""
    coeffs = rational_solution(
        [x**d for d in range(_COUNT_DEGREE + 1)] + [v] for x, v in zip(_COUNT_POINTS, values)
    )
    if coeffs is None:
        raise ArithmeticError("count is not polynomial of the expected degree")
    lcm = math.lcm(*(c.denominator for c in coeffs))
    return IntPolynomial(int(c * lcm) for c in coeffs), lcm


@functools.cache
def _det_at_one_and_x(det: SymbolicPolynomial) -> tuple[IntPolynomial, IntPolynomial]:
    """A centralizer determinant d(t, q) as d(1, x) and d(x, x), read off
    as polynomials in q."""
    q = SymbolicPolynomial.variable("q")
    return tuple(to_int_poly(det.substitute({"t": t}), "q") for t in (1, q))


@functools.cache
def _transcription(count_values: tuple[tuple[int, int], ...], det, g_num: IntPolynomial, g_den: IntPolynomial):
    """Whether count(x) * d(1, x) / d(x, x) equals g_num / g_den, for the
    count with these values at _COUNT_POINTS, given as (numerator,
    denominator) pairs, which hash faster than Fractions, and the
    determinant d(t, q); and the numerator count * d(1, x) as text."""
    num_count, den_count = _count_polynomial(tuple(Fraction(n, d) for n, d in count_values))
    d_one, d_x = _det_at_one_and_x(det)
    r_num = num_count * d_one
    return (r_num * g_den - g_num * (den_count * d_x)).is_zero(), str(r_num)


@functools.cache
def _cleared_multiplier(cleared_den: IntPolynomial, g_num: IntPolynomial, g_den: IntPolynomial) -> IntPolynomial:
    """cleared_den * g_num / g_den; InexactDivision when it is not integral."""
    return (cleared_den * g_num) / g_den


@functools.cache
def _det_jet(det: SymbolicPolynomial) -> tuple[IntPolynomial, ...]:
    """det(t, -1) and its first two derivatives in q at q = -1, as integer
    polynomials in t: a term c t^i q^j gives c (-1)^j t^i, -j c (-1)^j t^i
    and j (j-1) c (-1)^j t^i."""
    jets = [[0] * (det.degree_in("t") + 1) for _ in range(3)]
    for (i, j), c in det.evaluate_except(("t", "q"), {}).items():
        c = -c if j % 2 else c
        jets[0][i] += c
        jets[1][i] -= j * c
        jets[2][i] += j * (j - 1) * c
    return tuple(map(IntPolynomial, jets))


@functools.cache
def _det_product(det: SymbolicPolynomial, names: tuple[str, ...]) -> SymbolicPolynomial:
    """h, the product of det(a, x) over the a-variables names, built from
    the product over all names but the last."""
    if not names:
        return _ONE
    f = det.substitute({"t": SymbolicPolynomial.variable(names[-1]), "q": SymbolicPolynomial.variable("x")})
    return f if len(names) == 1 else _det_product(det, names[:-1]) * f


@functools.cache
def _det_product_jet(det: SymbolicPolynomial, names: tuple[str, ...], order: int) -> tuple[SymbolicPolynomial, ...]:
    """h(-1) and its derivatives up to the given order, at most 2, for
    h = _det_product(det, names), as polynomials in the a-variables, built
    from those over all names but the last by the product rule."""
    if not names:
        return (_ONE, _ZERO, _ZERO)[: order + 1]
    f = [SymbolicPolynomial.from_int_poly(j, names[-1]) for j in _det_jet(det)[: order + 1]]
    if len(names) == 1:
        return tuple(f)
    h = _det_product_jet(det, names[:-1], order)
    products = SymbolicPolynomial.sum_of_products
    jet = [h[0] * f[0]]
    if order >= 1:
        jet.append(products([(h[1], f[0]), (h[0], f[1])]))
    if order >= 2:
        jet.append(products([(h[2], f[0]), (h[1], 2 * f[1]), (h[0], f[2])]))
    return tuple(jet)


@functools.cache
def _rational_derivatives_at(num: IntPolynomial, den: IntPolynomial, point: int, order: int):
    """Values of num/den and its first `order` derivatives at the point,
    exactly; the reduced denominator must not vanish there."""
    g = poly_gcd(num, den)
    # the reduced numerator's and denominator's values and first two
    # derivatives at the point, by Horner's rule
    jets = []
    for f in (num / g, den / g):
        v = f1 = f2 = 0
        for c in reversed(f.coeffs):
            f2, f1, v = f2 * point + f1, f1 * point + v, v * point + c
        jets.append((v, f1, 2 * f2))
    (n0, n1, n2), (d0, d1, d2) = jets
    if d0 == 0:
        raise ZeroDivisionError("denominator vanishes at the evaluation point")
    values = [Fraction(n0, d0), Fraction(n1 * d0 - n0 * d1, d0**2)]
    values.append(Fraction(n2 * d0**2 - (n0 * d2 + 2 * n1 * d1) * d0 + 2 * n0 * d1**2, d0**3))
    return tuple(values[: order + 1])


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
    checks: list[Check] = []

    scalar = 2 if n == 2 else 6
    parts = [_OP] * n + [_Q4] + ([_Q6] if n == 3 else [])
    cleared_den = scalar * math.prod(parts)
    # a determinant has degree at most n in t and n^2 in q; a multiplier's
    # degree is at most the cleared denominator's
    _check_terms(n + 1, r, r * n * n + cleared_den.degree)

    # rows with equal determinants share one product h
    multipliers: dict[SymbolicPolynomial, IntPolynomial] = {}
    for row in rows:
        g_num, g_den = golden[row.label]
        values = tuple((v.numerator, v.denominator) for v in map(row.count, _COUNT_POINTS))
        match, witness = _transcription(values, row.det, g_num, g_den)
        _require(checks, f"count-ratio-transcription-{row.label}", match, witness)
        try:
            multiplier = _cleared_multiplier(cleared_den, g_num, g_den)
        except InexactDivision as exc:
            _require(checks, f"denominator-clearance-{row.label}", False, str(exc))
        multipliers[row.det] = multipliers.get(row.det, 0) + multiplier
    total = SymbolicPolynomial.sum_of_products(
        (SymbolicPolynomial.from_int_poly(multiplier, "x"), _det_product(det, names))
        for det, multiplier in multipliers.items()
    )

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

    # the congruences make every step of the division by cleared_den, whose
    # leading coefficient is the scalar, exact; rem = total - cleared_den *
    # quo has total's remainder modulo each factor of cleared_den, and far
    # fewer terms
    quo, rem = total.divrem(SymbolicPolynomial.from_int_poly(cleared_den, "x"), "x")

    def reduced(modulus: IntPolynomial) -> SymbolicPolynomial:
        return rem.divrem(SymbolicPolynomial.from_int_poly(modulus, "x"), "x")[1]

    # total and its remainder modulo (1+x)^n agree at -1 to order n - 1
    g = reduced(_OP**n)
    for order in range(n):
        value = g.substitute({"x": -1})
        _require(
            checks,
            f"minus-one-vanishing-order-{order}",
            value.is_zero(),
            str(value),
        )
        g = g.derivative("x")

    rem4 = reduced(_Q4)
    _require(checks, "fourth-root-vanishing", rem4.is_zero(), str(rem4))
    if n == 3:
        rem6 = reduced(_Q6)
        _require(checks, "sixth-root-vanishing", rem6.is_zero(), str(rem6))

    mod2, mod3 = _freshman_congruences(n, names)
    if n == 3:
        _require(checks, "power-congruence-mod-3", mod3, "cube of product congruence")
    _require(checks, "power-congruence-mod-2", mod2, "square of product congruence")
    _witness_conditions(n, parity, golden, {row.label: row.det for row in rows}, names, checks)
    _require(checks, "integral-clearance", rem.is_zero(), str(rem))

    return SymbolicCertificate(
        group={"Sp": 2 * n},
        j_arity=r,
        polynomial=quo,
        checks=tuple(checks),
        regime=f"{parity} field size",
    )


@functools.cache
def _freshman_congruences(n: int, names: tuple[str, ...]) -> tuple[bool, bool]:
    """Whether the product of (1+a)^n over the a-variables is congruent to
    that of (1+a)^(n-2) (1+a^2) mod 2 and, for n = 3, to that of 1+a^3
    mod 3 (True for n = 2)."""
    power, square, cube = _freshman_products(n, names)
    return (power - square).content() % 2 == 0, n == 2 or (power - cube).content() % 3 == 0


@functools.cache
def _freshman_products(n: int, names: tuple[str, ...]) -> tuple[SymbolicPolynomial, ...]:
    """The products of (1+a)^n, (1+a)^(n-2) (1+a^2) and 1+a^3 over the
    a-variables, each built from the one over all names but the last."""
    if not names:
        return _ONE, _ONE, _ONE
    a = SymbolicPolynomial.variable(names[-1])
    power, square, cube = _freshman_products(n, names[:-1])
    return power * (1 + a) ** n, square * ((1 + a) ** (n - 2) * (1 + a**2)), cube * (1 + a**3)


def _witness_conditions(n, parity, golden, dets, names, checks: list[Check]):
    rows = _WITNESS_ROWS[(n, parity)]
    special = _WITNESS_SPECIAL.get((n, parity), {})
    per_label, closing = _ratio_witnesses(n, parity, tuple(golden[label] for label in (*rows, *special)))
    witness = derivative_witness(names, n)
    for (label, (_, _, h1_coeff, h2_coeffs)), ratio_checks in zip(rows.items(), per_label):
        for check in ratio_checks:
            _require(checks, check.label, check.passed, check.witness)
        # h''(-1) is formed only for the rows whose checks read it (Sp_6)
        jet = _det_product_jet(dets[label], names, 1 if h2_coeffs is None else 2)
        _require(
            checks,
            f"derivative-witness-{label}",
            jet[1] == h1_coeff * witness.B,
            f"first derivative coefficient {h1_coeff}",
        )
        _require(checks, f"value-witness-{label}", jet[0] == witness.A, "product of (1+a)^k")
        if h2_coeffs is not None:
            c_ab, c_ac, c_ad = h2_coeffs
            claimed = c_ab * witness.B + c_ac * witness.C + c_ad * witness.D
            _require(
                checks,
                f"second-derivative-witness-{label}",
                jet[2] == claimed,
                f"second derivative coefficients {h2_coeffs}",
            )
    if special:
        mixed = math.prod(
            ((1 + SymbolicPolynomial.variable(nm)) * (1 + SymbolicPolynomial.variable(nm) ** 2) for nm in names),
            start=_ONE,
        )
    for label, ratio_checks in zip(special, per_label[len(rows) :]):
        for check in ratio_checks:
            _require(checks, check.label, check.passed, check.witness)
        (h0,) = _det_product_jet(dets[label], names, 0)
        _require(checks, f"value-witness-{label}", h0 == mixed, "product of (1+a)(1+a^2)")
    for check in closing:
        _require(checks, check.label, check.passed, check.witness)


@functools.cache
def _ratio_witnesses(n: int, parity: str, pairs: tuple) -> tuple[tuple[tuple[Check, ...], ...], tuple[Check, ...]]:
    """The checks on the transcribed ratios times (1+x)^n at -1, for the
    golden pairs of the rows of _WITNESS_ROWS and then _WITNESS_SPECIAL:
    each row's checks, then the checks on their sums and on the
    combinations of the witness coefficients."""
    rows = _WITNESS_ROWS[(n, parity)]
    special = _WITNESS_SPECIAL.get((n, parity), {})
    order = n - 1
    sums = {"s": Fraction(0), "s1": Fraction(0), "s2": Fraction(0)}
    first_order = Fraction(0)
    second_ab = Fraction(0)
    second_ac = Fraction(0)
    second_ad = Fraction(0)
    op_power = _OP**n
    per_label = []
    for (label, (s_val, s1_val, h1_coeff, h2_coeffs)), (g_num, g_den) in zip(rows.items(), pairs):
        values = _rational_derivatives_at(g_num * op_power, g_den, -1, order)
        label_checks = [Check(f"ratio-value-at-minus-one-{label}", values[0] == s_val, f"{values[0]}")]
        if s1_val is not None:
            label_checks.append(Check(f"ratio-slope-at-minus-one-{label}", values[1] == s1_val, f"{values[1]}"))
        per_label.append(tuple(label_checks))
        if h2_coeffs is not None:
            c_ab, c_ac, c_ad = h2_coeffs
            second_ab += s_val * c_ab
            second_ac += s_val * c_ac
            second_ad += s_val * c_ad
        sums["s"] += values[0]
        sums["s1"] += values[1]
        if order >= 2:
            sums["s2"] += values[2]
            second_ab += 2 * s1_val * h1_coeff
        first_order += s_val * h1_coeff
    for (label, s2_claimed), (g_num, g_den) in zip(special.items(), pairs[len(rows) :]):
        values = _rational_derivatives_at(g_num * op_power, g_den, -1, 2)
        passed = values[0] == 0 and values[1] == 0 and values[2] == s2_claimed
        per_label.append((Check(f"ratio-curvature-at-minus-one-{label}", passed, f"{values[2]}"),))
        sums["s2"] += values[2]
    closing = [
        Check("witness-sum-value", sums["s"] == 0, str(sums["s"])),
        Check("witness-sum-slope", sums["s1"] == 0, str(sums["s1"])),
        Check("witness-first-order-combination", first_order == 0, str(first_order)),
    ]
    if order >= 2:
        closing += [
            Check("witness-sum-curvature", sums["s2"] == 0, str(sums["s2"])),
            Check("witness-second-order-ab", second_ab == 0, str(second_ab)),
            Check("witness-second-order-ac", second_ac == 0, str(second_ac)),
            Check("witness-second-order-ad", second_ad == 0, str(second_ad)),
        ]
    return tuple(per_label), tuple(closing)


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
