"""Tests for the exact polynomial core.

Derived quantities (resultants, root-power transforms) are checked against
independent oracles implemented here: a Sylvester-matrix determinant over
Fraction, explicit root-multiset products, and the characteristic polynomial
of a power of the companion matrix.
"""
import itertools
import math
import operator
import sys
import threading
import time
import uuid
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from motivesums import exactalg
from motivesums.exactalg import (
    InexactDivision,
    IntPolynomial,
    SymbolicPolynomial,
    cyclotomic,
    exact_quotient,
    factorize,
    poly_gcd,
    prime_power,
    rational_solution,
    resultant,
    root_power_transform,
    shifted_rows,
    to_int_poly,
)

# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def sylvester_resultant(p: IntPolynomial, q: IntPolynomial) -> int:
    """Resultant as the determinant of the Sylvester matrix over Fraction."""
    m, n = p.degree, q.degree
    if m == 0:
        return p.coeffs[0] ** n
    if n == 0:
        return q.coeffs[0] ** m
    size = m + n
    rows = []
    pc = list(reversed(p.coeffs))
    qc = list(reversed(q.coeffs))
    for i in range(n):
        rows.append([0] * i + pc + [0] * (size - i - len(pc)))
    for i in range(m):
        rows.append([0] * i + qc + [0] * (size - i - len(qc)))
    mat = [[Fraction(v) for v in row] for row in rows]
    det = Fraction(1)
    for k in range(size):
        piv = next((i for i in range(k, size) if mat[i][k] != 0), None)
        if piv is None:
            return 0
        if piv != k:
            mat[k], mat[piv] = mat[piv], mat[k]
            det = -det
        det *= mat[k][k]
        for i in range(k + 1, size):
            f = mat[i][k] / mat[k][k]
            for j in range(k, size):
                mat[i][j] -= f * mat[k][j]
    assert det.denominator == 1
    return int(det)


def bareiss_det(m: list[list[int]]) -> int:
    """Exact integer determinant by fraction-free Gaussian elimination."""
    n = len(m)
    m = [row[:] for row in m]
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def companion_root_power(w: IntPolynomial, m: int) -> IntPolynomial:
    """The characteristic polynomial of C^m for the companion matrix C of the
    monic w, from the d+1 determinants det(x0*I - C^m), x0 = 0..d, by
    Lagrange interpolation over Fraction."""
    d = w.degree
    comp = [[int(i == j + 1) for j in range(d)] for i in range(d)]
    for i in range(d):
        comp[i][d - 1] = -w.coeffs[i]
    power = [[int(i == j) for j in range(d)] for i in range(d)]
    for _ in range(m):
        power = [[sum(power[i][k] * comp[k][j] for k in range(d)) for j in range(d)] for i in range(d)]
    total = [Fraction(0)] * (d + 1)
    for x0 in range(d + 1):
        value = bareiss_det([[int(i == j) * x0 - power[i][j] for j in range(d)] for i in range(d)])
        basis, denom = [Fraction(1)], 1
        for xj in range(d + 1):
            if xj != x0:
                # basis *= x - xj
                basis = [(basis[i - 1] if i else 0) - xj * (basis[i] if i < len(basis) else 0)
                         for i in range(len(basis) + 1)]
                denom *= x0 - xj
        for k, c in enumerate(basis):
            total[k] += value * c / denom
    assert all(c.denominator == 1 for c in total)
    return IntPolynomial(int(c) for c in total)


def product_of_linear(roots) -> IntPolynomial:
    acc = IntPolynomial((1,))
    for r in roots:
        acc = acc * IntPolynomial((-r, 1))
    return acc


small_poly = st.lists(st.integers(-6, 6), min_size=1, max_size=5).map(IntPolynomial)
nonzero_poly = small_poly.filter(lambda p: not p.is_zero())


# ---------------------------------------------------------------------------
# IntPolynomial basics
# ---------------------------------------------------------------------------


def test_int_poly_normalizes_trailing_zeros():
    assert IntPolynomial((1, 2, 0, 0)).coeffs == (1, 2)
    assert IntPolynomial((0, 0)).is_zero()
    assert IntPolynomial().degree == -1


def test_int_poly_arithmetic():
    p = IntPolynomial((1, 1))
    assert (p * p).coeffs == (1, 2, 1)
    assert (p**3).coeffs == (1, 3, 3, 1)
    assert (p - p).is_zero()
    assert (2 * p + 1).coeffs == (3, 2)


@given(st.integers(-(2**70), 2**70), st.integers(-(2**40), 2**40).filter(bool))
@settings(max_examples=200, deadline=None)
def test_exact_quotient_of_a_planted_product(quo, b):
    assert exact_quotient(quo * b, b) == quo
    if abs(b) > 1:
        with pytest.raises(InexactDivision):
            exact_quotient(quo * b + 1, b)


def test_exact_quotient_signs_and_message():
    assert [exact_quotient(a, b) for a, b in ((-12, 4), (12, -4), (-12, -4), (0, -7))] == [-3, -3, 3, 0]
    assert issubclass(InexactDivision, ArithmeticError)
    # floor division would give -4 and -3 here; both must raise
    for a, b in ((-7, 2), (7, -2), (-7, -2)):
        with pytest.raises(InexactDivision) as exc:
            exact_quotient(a, b)
        assert str(exc.value) == f"{a} not divisible by {b}"


def test_int_poly_divmod_exact():
    num = IntPolynomial((-1, 0, 0, 0, 0, 0, 1))
    den = IntPolynomial((-1, 1))
    q, r = divmod(num, den)
    assert r.is_zero()
    assert q.coeffs == (1, 1, 1, 1, 1, 1)
    with pytest.raises(InexactDivision):
        divmod(IntPolynomial((1, 1)), IntPolynomial((0, 2)))


@given(small_poly, nonzero_poly, st.lists(st.integers(-6, 6), max_size=4))
@settings(max_examples=150, deadline=None)
def test_int_divmod_recovers_planted_quotient(quo, g, low):
    # any remainder of degree below g's comes back, whatever g's leading coefficient
    planted = IntPolynomial(low[: g.degree])
    f = quo * g + planted
    q, r = divmod(f, g)
    assert q * g + r == f and r.degree < g.degree
    assert (q, r) == (quo, planted)


@given(nonzero_poly.filter(lambda g: abs(g.leading()) > 1), st.lists(st.integers(-6, 6), max_size=4),
       st.integers(-3, 3), st.data())
@settings(max_examples=100, deadline=None)
def test_int_divmod_raises_when_head_is_not_divisible(g, low, t, data):
    lc = g.leading()
    head = t * lc + data.draw(st.integers(1, abs(lc) - 1))
    f = IntPolynomial(low + [0] * g.degree + [head])
    with pytest.raises(InexactDivision):
        divmod(f, g)


def test_int_poly_evaluate_and_derivative():
    p = IntPolynomial((2, -3, 1))
    assert p.evaluate(5) == 12
    assert p.evaluate(Fraction(1, 2)) == Fraction(3, 4)
    assert p.derivative().coeffs == (-3, 2)


def test_reverse_and_power_substitution():
    p = IntPolynomial((1, -1, 2))
    assert p.reversed_coeffs().coeffs == (2, -1, 1)
    assert p.substitute_power(2).coeffs == (1, 0, -1, 0, 2)


# ---------------------------------------------------------------------------
# prime powers
# ---------------------------------------------------------------------------


def test_prime_power_matches_trial_division_up_to_2_16():
    # smallest prime factors by a sieve; q is a prime power when dividing out
    # its smallest prime factor leaves 1
    top = 2**16
    spf = list(range(top + 1))
    for d in range(2, 257):
        if spf[d] == d:
            for m in range(d * d, top + 1, d):
                spf[m] = min(spf[m], d)
    for q in range(-2, top + 1):
        p, k, rest = (spf[q] if q >= 2 else 0), 0, q
        while q >= 2 and rest % p == 0:
            rest, k = rest // p, k + 1
        if q >= 2 and rest == 1:
            assert prime_power(q) == (p, k)
        else:
            with pytest.raises(ValueError, match="not a prime power"):
                prime_power(q)


def test_prime_power_of_large_fields_is_fast():
    p = 2**61 - 1
    start = time.perf_counter()
    assert prime_power(p) == (p, 1)
    assert prime_power(p**2) == (p, 2)
    assert time.perf_counter() - start < 0.1
    assert prime_power(3**40) == (3, 40)
    # strong pseudoprimes to every base up to 23 and up to 37
    for q in (p * (2**31 - 1), 2**61 * 3, 6, 3825123056546413051, 318665857834031151167461):
        with pytest.raises(ValueError, match="not a prime power"):
            prime_power(q)


def test_prime_power_memo_tells_types_apart():
    # memoized by value and type: with 4 stored, 4.0 still fails as before
    assert prime_power(4) == (2, 2)
    with pytest.raises(AttributeError):
        prime_power(4.0)
    with pytest.raises(ValueError, match="not a prime power"):
        prime_power(True)


def test_prime_power_refuses_roots_beyond_the_primality_bound():
    big = 2**89 - 1  # prime, above the deterministic Miller-Rabin range
    assert big > exactalg.MR_BOUND
    for q in (big, big**2):
        with pytest.raises(ValueError, match=str(exactalg.MR_BOUND)):
            prime_power(q)


def is_prime_by_definition(p: int) -> bool:
    return p >= 2 and all(p % d for d in range(2, p))


@given(st.integers(1, 5000))
def test_factorize_matches_brute_force_definitions(n):
    from motivesums.classtypes import moebius

    factors = factorize(n)
    primes = [p for p, _ in factors]
    assert primes == sorted(set(primes))
    assert all(is_prime_by_definition(p) and e >= 1 for p, e in factors)
    assert math.prod(p**e for p, e in factors) == n
    # mu(n) is 0 when a square above 1 divides n, else -1 to the number of
    # prime divisors; phi(n) counts the residues prime to n
    squarefree = all(n % (d * d) for d in range(2, math.isqrt(n) + 1))
    omega = sum(1 for p in range(2, n + 1) if n % p == 0 and is_prime_by_definition(p))
    mu = (-1) ** omega if squarefree else 0
    assert (0 if any(e > 1 for _, e in factors) else (-1) ** len(factors)) == mu
    assert moebius(n) == mu
    phi = sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)
    assert math.prod(p ** (e - 1) * (p - 1) for p, e in factors) == phi


def test_factorize_rejects_nonpositive():
    for n in (0, -4):
        with pytest.raises(ValueError):
            factorize(n)


# ---------------------------------------------------------------------------
# cyclotomic polynomials
# ---------------------------------------------------------------------------


def test_cyclotomic_small_values():
    assert cyclotomic(1).coeffs == (-1, 1)
    assert cyclotomic(2).coeffs == (1, 1)
    assert cyclotomic(3).coeffs == (1, 1, 1)
    assert cyclotomic(4).coeffs == (1, 0, 1)
    assert cyclotomic(6).coeffs == (1, -1, 1)
    assert cyclotomic(12).coeffs == (1, 0, -1, 0, 1)


@pytest.mark.parametrize("n", list(range(1, 61)))
def test_cyclotomic_product_identity(n):
    prod = IntPolynomial((1,))
    for d in range(1, n + 1):
        if n % d == 0:
            prod = prod * cyclotomic(d)
    assert prod.coeffs == (-1,) + (0,) * (n - 1) + (1,)


# ---------------------------------------------------------------------------
# shifts modulo a monic polynomial
# ---------------------------------------------------------------------------


@given(st.integers(1, 6), st.data())
@settings(max_examples=150, deadline=None)
def test_shifted_rows_are_remainders_of_long_division(d, data):
    # row i is y^i * row mod p, taken here by IntPolynomial long division
    low = data.draw(st.lists(st.integers(-9, 9), min_size=d, max_size=d), label="low")
    row = data.draw(st.lists(st.integers(-9, 9), min_size=d, max_size=d), label="row")
    p = IntPolynomial(low + [1])
    for i, got in enumerate(itertools.islice(shifted_rows(row, low), 13)):
        assert len(got) == d
        assert IntPolynomial(got) == divmod(IntPolynomial([0] * i + row), p)[1]


@given(st.integers(1, 6), st.data())
@settings(max_examples=50, deadline=None)
def test_shifted_rows_over_the_rationals(d, data):
    # with Fraction coefficients throughout; reduction modulo an integer monic
    # p is Z-linear, so row i times the common denominator D of row is the
    # remainder of y^i * (D * row), taken in IntPolynomial
    low = data.draw(st.lists(st.integers(-9, 9), min_size=d, max_size=d), label="low")
    row = data.draw(st.lists(st.fractions(-9, 9, max_denominator=12), min_size=d, max_size=d), label="row")
    den = math.lcm(*(c.denominator for c in row))
    p = IntPolynomial(low + [1])
    for i, got in enumerate(itertools.islice(shifted_rows(row, [Fraction(c) for c in low]), 13)):
        assert all(type(c) in (Fraction, int) for c in got)
        expected = divmod(IntPolynomial([0] * i + [int(c * den) for c in row]), p)[1]
        assert IntPolynomial(c * den for c in got) == expected


# ---------------------------------------------------------------------------
# gcd and resultant
# ---------------------------------------------------------------------------


def test_poly_gcd_known():
    a = IntPolynomial((-1, 0, 1))
    b = IntPolynomial((1, 2, 1))
    assert poly_gcd(a, b).coeffs == (1, 1)
    assert poly_gcd(a, IntPolynomial()).coeffs == (-1, 0, 1)


@given(nonzero_poly, nonzero_poly, nonzero_poly)
@settings(max_examples=150, deadline=None)
def test_poly_gcd_divides_and_leaves_coprime_cofactors(a, b, c):
    # a planted common factor c makes gcds of positive degree common
    a, b = a * c, b * c
    g = poly_gcd(a, b)
    # / is integer long division and raises InexactDivision on a remainder
    ra, rb = a / g, b / g
    assert resultant(ra, rb) != 0
    assert g.content() == math.gcd(a.content(), b.content())
    assert g.leading() > 0


def euclid_gcd(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """The reference gcd: the last nonzero remainder of Euclid's algorithm
    over the rationals, made primitive with a positive leading coefficient,
    times the gcd of the contents (the primitive part alone when one
    argument is zero)."""
    f, g = [Fraction(c) for c in a.coeffs], [Fraction(c) for c in b.coeffs]
    while g:
        f, g = g, exactalg.dense_divmod(f, g, operator.sub, operator.mul, operator.truediv)[1]
    if not f:
        return IntPolynomial()
    den = math.lcm(*(c.denominator for c in f))
    f = [int(c * den) for c in f]
    unit = math.gcd(*f) if f[-1] > 0 else -math.gcd(*f)
    scale = math.gcd(a.content(), b.content()) if a.coeffs and b.coeffs else 1
    return IntPolynomial(c // unit * scale for c in f)


@given(small_poly, small_poly, small_poly, st.integers(-3, 3))
@settings(max_examples=300, deadline=None)
def test_poly_gcd_matches_euclid_over_the_rationals(a, b, c, k):
    # planted common factors and scalars, zero arguments and equal degrees
    for x, y in ((a * c, b * c), (a * k, a * c), (a, IntPolynomial()), (IntPolynomial(), b)):
        assert poly_gcd(x, y) == euclid_gcd(x, y)


def test_resultant_known_values():
    # Res(x^2 - 1, x - 2) = value of x^2 - 1 at 2
    assert resultant(IntPolynomial((-1, 0, 1)), IntPolynomial((-2, 1))) == 3
    # common root => 0
    assert resultant(IntPolynomial((-1, 0, 1)), IntPolynomial((-1, 1))) == 0
    assert resultant(IntPolynomial((5,)), IntPolynomial((1, 1, 1))) == 25
    # degree 0: Res(c, q) = c^deg q and Res(p, c) = c^deg p
    assert resultant(IntPolynomial((-2,)), IntPolynomial((-1, 0, 0, 1))) == -8
    assert resultant(IntPolynomial((1, 1, 1)), IntPolynomial((3,))) == 9
    assert resultant(IntPolynomial((-3, 1)), IntPolynomial((-2,))) == -2
    assert resultant(IntPolynomial((5,)), IntPolynomial((7,))) == 1
    # Res(y^2 - 2, y) = sqrt(2) * -sqrt(2): r = y has no constant term, so
    # the elimination swaps its two rows, and the swap gives the sign
    assert resultant(IntPolynomial((-2, 0, 1)), IntPolynomial((0, 1))) == -2


@given(nonzero_poly, nonzero_poly)
@settings(max_examples=150, deadline=None)
def test_resultant_matches_sylvester_determinant(p, q):
    assert resultant(p, q) == sylvester_resultant(p, q)


@given(nonzero_poly, nonzero_poly, nonzero_poly)
@settings(max_examples=80, deadline=None)
def test_resultant_multiplicative(p, q, r):
    assert resultant(p, q * r) == resultant(p, q) * resultant(p, r)


@given(st.integers(1, 6), st.data())
@settings(max_examples=150, deadline=None)
def test_resultant_with_a_negative_leading_coefficient(d, data):
    # the monic substitution scales by powers of lc, so a negative lc checks
    # the signs of the scaling and of the exact division
    low = data.draw(st.lists(st.integers(-9, 9), min_size=d, max_size=d))
    p = IntPolynomial(low + [data.draw(st.integers(-7, -1))])
    q = data.draw(nonzero_poly)
    value = resultant(p, q)
    assert type(value) is int
    assert value == sylvester_resultant(p, q)


@given(st.integers(1, 6), st.integers(-4, 4), nonzero_poly)
@settings(max_examples=100, deadline=None)
def test_resultant_of_a_shared_root_is_zero(d, root, b):
    shared = IntPolynomial((-root, 1))
    # degree d, with leading coefficient -2
    p = shared * IntPolynomial((1,) * (d - 1) + (-2,))
    value = resultant(p, shared * b)
    assert value == 0 and type(value) is int


# ---------------------------------------------------------------------------
# rational linear solve
# ---------------------------------------------------------------------------


@st.composite
def _planted_systems(draw):
    """(rows, x, k): a nonsingular integer k x k block, then 1..3 further
    integer rows, all with right-hand sides a . x for a planted rational x,
    in a drawn order; also the positions of the further rows."""
    k = draw(st.integers(1, 4))
    entry = st.integers(-5, 5)
    block = draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=k, max_size=k))
    assume(bareiss_det(block) != 0)
    extra = draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=1, max_size=3))
    x = draw(st.lists(st.fractions(-10, 10, max_denominator=12), min_size=k, max_size=k))
    rows = [a + [sum(map(operator.mul, a, x))] for a in block + extra]
    order = draw(st.permutations(range(len(rows))))
    return [rows[i] for i in order], x, [j for j, i in enumerate(order) if i >= k]


@given(_planted_systems(), st.data())
@settings(max_examples=150, deadline=None)
def test_rational_solution_recovers_a_planted_solution(system, data):
    rows, x, further = system
    assert rational_solution(rows) == x
    # the square block fixes x, so a further row with another right-hand
    # side leaves no solution
    i = data.draw(st.sampled_from(further))
    delta = data.draw(st.fractions(-3, 3, max_denominator=4).filter(bool))
    perturbed = [row[:-1] + [row[-1] + delta] if j == i else row for j, row in enumerate(rows)]
    assert rational_solution(perturbed) is None
    # a repeated column makes the columns dependent, consistent or not
    c = data.draw(st.integers(0, len(x) - 1))
    for system in (rows, perturbed):
        with pytest.raises(ValueError, match="dependent"):
            rational_solution([row[:-1] + [row[c], row[-1]] for row in system])


def fraction_gauss_jordan(rows) -> list[Fraction] | None:
    """The reference solve: Gauss-Jordan elimination over the Fractions,
    pivoting on the first nonzero entry of each column, with the contract
    of rational_solution."""
    mat = [[Fraction(v) for v in row] for row in rows]
    k = len(mat[0]) - 1
    for col in range(k):
        piv = next((r for r in range(col, len(mat)) if mat[r][col]), None)
        if piv is None:
            raise ValueError("linearly dependent columns: no unique solution")
        mat[col], mat[piv] = mat[piv], mat[col]
        head = mat[col]
        inv = 1 / head[col]
        head[col:] = [v * inv for v in head[col:]]
        for r, row in enumerate(mat):
            f = row[col]
            if f and r != col:
                row[col:] = [a - f * b for a, b in zip(row[col:], head[col:])]
    if any(row[k] for row in mat[k:]):
        return None
    return [row[k] for row in mat[:k]]


# zero in a third of the draws, so that pivots are skipped and systems are
# often singular
_system_entries = st.one_of(st.just(0), st.integers(-4, 4), st.fractions(-4, 4, max_denominator=6))


@st.composite
def _rational_systems(draw):
    """Augmented rows of 1..6 unknowns and 0..3 rows more than unknowns:
    free right-hand sides (mostly inconsistent once rows outnumber the
    unknowns), right-hand sides a . x for a planted x, or a column that is a
    multiple of another."""
    k = draw(st.integers(1, 6))
    m = k + draw(st.integers(0, 3))
    a = draw(st.lists(st.lists(_system_entries, min_size=k, max_size=k), min_size=m, max_size=m))
    shape = draw(st.sampled_from(["free", "planted", "dependent"]))
    if shape == "dependent" and k > 1:
        i, j = draw(st.permutations(range(k)))[:2]
        c = draw(_system_entries)
        a = [row[:j] + [c * row[i]] + row[j + 1 :] for row in a]
    if shape == "planted":
        x = draw(st.lists(_system_entries, min_size=k, max_size=k))
        b = [sum(map(operator.mul, row, x)) for row in a]
    else:
        b = draw(st.lists(_system_entries, min_size=m, max_size=m))
    return [row + [v] for row, v in zip(a, b)]


@given(_rational_systems())
@settings(max_examples=200, deadline=None)
def test_rational_solution_matches_the_fraction_elimination(rows):
    def outcome(solve):
        try:
            return solve([list(row) for row in rows])
        except ValueError as exc:
            return f"ValueError: {exc}"

    assert outcome(rational_solution) == outcome(fraction_gauss_jordan)


def test_rational_solution_small_cases():
    assert rational_solution([[2, 1], [4, 2]]) == [Fraction(1, 2)]
    assert rational_solution([[2, 1], [4, 3]]) is None
    # x + y = 3, y = 1: the first row is read only once y is cleared from it
    assert rational_solution([[1, 1, 3], [0, 1, 1]]) == [2, 1]
    assert rational_solution([[0], [0]]) == [] and rational_solution([[0], [1]]) is None
    with pytest.raises(ValueError):
        rational_solution([[1, 0, 1], [2, 0, 2]])  # a zero column


# ---------------------------------------------------------------------------
# root power transform
# ---------------------------------------------------------------------------


def test_root_power_fixed_example():
    w = IntPolynomial((2, -1, 1))
    assert root_power_transform(w, 2).coeffs == (4, 3, 1)


@given(st.lists(st.integers(-4, 4), min_size=1, max_size=4), st.integers(1, 4))
@settings(max_examples=100, deadline=None)
def test_root_power_matches_explicit_roots(roots, m):
    w = product_of_linear(roots)
    expected = product_of_linear([r**m for r in roots])
    assert root_power_transform(w, m) == expected


@given(st.lists(st.integers(-3, 3), min_size=1, max_size=3), st.integers(1, 3), st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_root_power_composes(roots, m1, m2):
    w = product_of_linear(roots)
    assert root_power_transform(root_power_transform(w, m1), m2) == root_power_transform(w, m1 * m2)


monic_poly = st.lists(st.integers(-30, 30), min_size=1, max_size=8).map(lambda low: IntPolynomial(low + [1]))


@given(monic_poly, st.integers(1, 12), st.sampled_from([1, -1]))
@settings(max_examples=200, deadline=None)
def test_root_power_matches_companion_matrix_route(w, m, sign):
    assert root_power_transform(w * sign, m) == companion_root_power(w, m)


@given(monic_poly)
@settings(max_examples=100, deadline=None)
def test_root_power_graeffe_identity(w):
    # w_2(x^2) = (-1)^d w(x) w(-x)
    w_neg = IntPolynomial(c * (-1) ** i for i, c in enumerate(w.coeffs))
    assert root_power_transform(w, 2).substitute_power(2) == w * w_neg * (-1) ** w.degree


def test_root_power_requires_monic():
    with pytest.raises(ValueError):
        root_power_transform(IntPolynomial((1, 2)), 2)


# ---------------------------------------------------------------------------
# SymbolicPolynomial
# ---------------------------------------------------------------------------


def test_symbolic_creation_order_printing():
    t = SymbolicPolynomial.variable("t")
    q = SymbolicPolynomial.variable("q")
    assert str(1 - t * q) == "1 - t*q"
    assert str(1 - t * q**3) == "1 - t*q^3"
    assert str((1 - t) * (1 + t)) == "1 - t^2"


def test_symbolic_equality_ignores_var_bookkeeping():
    t = SymbolicPolynomial.variable("t")
    q = SymbolicPolynomial.variable("q")
    assert t * q == q * t
    assert t - t == 0
    assert (t + q) - q == t
    assert SymbolicPolynomial.constant(5) == 5


def test_symbolic_substitute():
    t = SymbolicPolynomial.variable("t")
    q = SymbolicPolynomial.variable("q")
    p = 1 - t * q**2
    assert p.substitute({"q": 3}) == 1 - 9 * t
    assert p.substitute({"t": t * t}) == 1 - t**2 * q**2
    assert p.substitute({"t": 1, "q": 2}) == -3


def test_symbolic_evaluate_and_derivative():
    x = SymbolicPolynomial.variable("x")
    y = SymbolicPolynomial.variable("y")
    p = x**2 * y + 3 * y
    assert p.evaluate({"x": 2, "y": Fraction(1, 2)}) == Fraction(7, 2)
    assert p.derivative("x") == 2 * x * y
    assert p.derivative("y") == x**2 + 3
    assert p.derivative("z") == 0


def test_symbolic_scale_exponents():
    x = SymbolicPolynomial.variable("x")
    a = SymbolicPolynomial.variable("a")
    p = 1 + a * x
    assert p.scale_exponents(3, ["x"]) == 1 + a * x**3
    assert p.scale_exponents(2) == 1 + a**2 * x**2


def test_symbolic_divrem_constant_lead():
    t = SymbolicPolynomial.variable("t")
    q = SymbolicPolynomial.variable("q")
    num = (1 - t) * (1 - t * q)
    quo, rem = num.divrem(1 - t, "t")
    assert rem == 0 and quo == 1 - t * q


def test_symbolic_divrem_monomial_lead():
    t = SymbolicPolynomial.variable("t")
    q = SymbolicPolynomial.variable("q")
    num = (1 - t * q) * (1 - t * q**3)
    quo, rem = num.divrem(1 - t * q, "t")
    assert rem == 0 and quo == 1 - t * q**3


def test_symbolic_divrem_reconstruction():
    t = SymbolicPolynomial.variable("t")
    num = t**5 + 3 * t**2 + 1
    den = t**2 + 1
    quo, rem = num.divrem(den, "t")
    assert quo * den + rem == num
    assert rem.degree_in("t") < 2


@given(
    st.lists(st.integers(-5, 5), min_size=1, max_size=4),
    st.lists(st.integers(-5, 5), min_size=1, max_size=3),
)
@settings(max_examples=100, deadline=None)
def test_symbolic_divrem_agrees_with_reconstruction(nc, dc):
    t = SymbolicPolynomial.variable("t")
    num = sum((c * t**i for i, c in enumerate(nc)), SymbolicPolynomial.constant(0))
    den = sum((c * t**i for i, c in enumerate(dc)), SymbolicPolynomial.constant(0))
    if den.is_zero():
        return
    d = den.degree_in("t")
    lead = den.coefficient_in("t", d).constant_value()
    try:
        quo, rem = num.divrem(den, "t")
    except InexactDivision:
        assert abs(lead) != 1
        return
    assert quo * den + rem == num


_A_EXP = st.tuples(st.integers(0, 2), st.integers(0, 2))
_A_COEFF = st.dictionaries(_A_EXP, st.integers(-3, 3), max_size=3)
_LEADS = st.one_of(
    st.sampled_from([1, -1, 2, -3]).map(lambda c: {(0, 0): c}),
    st.builds(lambda c, e: {e: c}, st.sampled_from([1, -1, 2, -2]), _A_EXP),
    st.dictionaries(_A_EXP, st.integers(-2, 2).filter(bool), min_size=2, max_size=3),
)


@given(
    st.lists(_A_COEFF, max_size=2),
    _LEADS,
    st.lists(_A_COEFF, max_size=3),
    st.lists(_A_COEFF, max_size=4),
)
@settings(max_examples=200, deadline=None)
def test_symbolic_divrem_multivariate(den_rows, lead_terms, quo_rows, extra_rows):
    """Division in x with coefficients in a1, a2: num = quo_rows*den + extra."""
    x = SymbolicPolynomial.variable("x")

    def in_x(rows):
        return sum(
            (SymbolicPolynomial(("a1", "a2"), r) * x**i for i, r in enumerate(rows)),
            SymbolicPolynomial.constant(0),
        )

    lead = SymbolicPolynomial(("a1", "a2"), lead_terms)
    den = in_x(den_rows) + lead * x ** len(den_rows)
    extra = in_x(extra_rows)
    num = in_x(quo_rows) * den + extra
    if len(lead.terms) != 1:
        with pytest.raises(InexactDivision):
            num.divrem(den, "x")
        return
    try:
        quo, rem = num.divrem(den, "x")
    except InexactDivision:
        assert lead != 1 and lead != -1
        assert extra.degree_in("x") >= den.degree_in("x")
        return
    assert all(e >= 0 for exps in quo.terms for e in exps)
    assert quo * den + rem == num
    assert rem.degree_in("x") < den.degree_in("x")
    if extra.degree_in("x") < den.degree_in("x"):
        assert quo == in_x(quo_rows) and rem == extra


def test_to_int_poly_roundtrip():
    t = SymbolicPolynomial.variable("t")
    p = 1 - 2 * t + t**3
    assert to_int_poly(p, "t").coeffs == (1, -2, 0, 1)
    assert SymbolicPolynomial.from_int_poly(IntPolynomial((1, -2, 0, 1)), "t") == p


# ---------------------------------------------------------------------------
# packed monomials
# ---------------------------------------------------------------------------


def test_exponent_overflow_raises():
    top = 2 ** (exactalg._W - 1)
    v = SymbolicPolynomial.variable("v")
    w = SymbolicPolynomial.variable("w")
    highest = v ** (top - 1) * w
    assert highest.degree_in("v") == top - 1 and highest.degree_in("w") == 1
    half = v ** (top // 2)
    with pytest.raises(OverflowError):
        v**top
    with pytest.raises(OverflowError):
        half * half
    with pytest.raises(OverflowError):
        highest * (v + w)
    with pytest.raises(OverflowError):
        half.scale_exponents(2)
    with pytest.raises(OverflowError):
        (v**2).substitute({"v": half})
    x = SymbolicPolynomial.variable("x")
    with pytest.raises(OverflowError):
        (x * v ** (top - 1)).divrem(x - v, "x")
    with pytest.raises(OverflowError):
        SymbolicPolynomial(("v",), {(top,): 1})


def test_monomial_images_overflow_exactly():
    top = 2 ** (exactalg._W - 1)
    t, q, u, v, w, a = (SymbolicPolynomial.variable(name) for name in "tquvwa")
    # one image whose k-th power reaches the guard in one field, or carries
    # past it into the next
    for k in (4, 8):
        with pytest.raises(OverflowError):
            (v**k).substitute({"v": -3 * u * w ** (top // 4)})
    # five images that each fit but whose product does not: the sum must not
    # carry into the next field
    with pytest.raises(OverflowError):
        (t * q * u * v * w).substitute({name: a**15000 for name in "tquvw"})
    # the largest exponent that fits
    assert (t * q).substitute({"t": -(a ** (top // 2 - 1)), "q": 2 * a ** (top // 2)}) == -2 * a ** (top - 1)


def test_variable_registration_is_thread_safe():
    prefix = uuid.uuid4().hex
    rounds, workers = 100, 8
    barrier = threading.Barrier(workers)
    passed = [0] * workers

    def names_of(r, i):
        return [f"s{prefix}_{r}_{j}" for j in range(3)] + [f"t{prefix}_{r}_{i}"]

    def work(i):
        for r in range(rounds):
            names = names_of(r, i)
            barrier.wait(timeout=60)
            acc = SymbolicPolynomial.constant(1)
            for name in names:
                acc = acc * (SymbolicPolynomial.variable(name) + 1)
            point = {name: k + 2 for k, name in enumerate(names)}
            passed[i] += acc.evaluate(point) == 3 * 4 * 5 * 6 and len(acc.terms) == 16

    threads = [threading.Thread(target=work, args=(i,)) for i in range(workers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert passed == [rounds] * workers
    fresh = {name for r in range(rounds) for i in range(workers) for name in names_of(r, i)}
    shifts = [exactalg._SHIFTS[name] for name in fresh]
    assert len(set(shifts)) == len(shifts)


# Differential checks: every operation against plain-integer evaluation of
# the drawn operands at random integer points.

_POOL = ("x", "y", "z", "w")


@st.composite
def _polys(draw, max_terms=4, max_exp=3):
    """A (vars, {exponent tuple: coefficient}) pair over a shuffled part of the pool."""
    names = draw(st.permutations(_POOL))[: draw(st.integers(0, len(_POOL)))]
    exps = st.tuples(*[st.integers(0, max_exp)] * len(names))
    terms = draw(st.dictionaries(exps, st.integers(-4, 4), max_size=max_terms))
    return tuple(names), terms


def _eval_terms(names, terms, point):
    total = 0
    for exps, c in terms.items():
        for v, e in zip(names, exps):
            c *= point[v] ** e
        total += c
    return total


def _eval(p, point):
    return _eval_terms(p.vars, p.terms, point)


_POINTS = st.fixed_dictionaries({v: st.integers(-3, 3) for v in _POOL})


@given(_polys(), _polys(), _polys(max_terms=3, max_exp=2), _POINTS, st.integers(0, 3), st.booleans())
@settings(max_examples=150, deadline=None)
def test_ring_operations_match_integer_evaluation(a, b, image, point, k, bare):
    p, q = SymbolicPolynomial(*a), SymbolicPolynomial(*b)
    va, vb = _eval_terms(*a, point), _eval_terms(*b, point)
    assert _eval(p, point) == va
    assert p.evaluate(point) == va
    halves = {v: Fraction(c, 2) for v, c in point.items()}
    assert p.evaluate(halves) == _eval_terms(*a, halves)
    assert _eval(p + q, point) == va + vb
    assert _eval(p - q, point) == va - vb
    assert _eval(p * q, point) == va * vb
    assert _eval(p**k, point) == va**k
    assert _eval(3 - p, point) == 3 - va and _eval(p * -2, point) == -2 * va
    # integer, polynomial, signed monomial and bare-variable images; an
    # unmapped variable stays put
    img = SymbolicPolynomial(*image)
    x, y, z = (SymbolicPolynomial.variable(v) for v in "xyz")
    signed = -2 * y**2 * z
    mapping = {"x": k - 1, "y": img, "z": signed}
    moved = dict(point, x=k - 1, y=_eval(img, point), z=_eval(signed, point))
    if bare:
        mapping["w"], moved["w"] = x, point["x"]
    assert _eval(p.substitute(mapping), point) == _eval_terms(*a, moved)


@given(_polys(max_terms=5), _POINTS, st.sampled_from(_POOL), st.integers(0, 3), st.integers(1, 3))
@settings(max_examples=150, deadline=None)
def test_calculus_and_transforms_match_integer_evaluation(a, point, var, power, factor):
    names, terms = a
    p = SymbolicPolynomial(names, terms)
    i = names.index(var) if var in names else None

    def exp_of(exps):
        return exps[i] if i is not None else 0

    derivative = sum(
        c * exp_of(e) * _eval_terms(names, {e[:i] + (e[i] - 1,) + e[i + 1:]: 1}, point)
        for e, c in terms.items()
        if exp_of(e)
    )
    assert _eval(p.derivative(var), point) == derivative
    coefficient = sum(
        _eval_terms(names, {e: c}, dict(point, **{var: 1}))
        for e, c in terms.items()
        if exp_of(e) == power
    )
    assert _eval(p.coefficient_in(var, power), point) == coefficient
    assert _eval(p.scale_exponents(factor, [var]), point) == _eval_terms(
        names, terms, dict(point, **{var: point[var] ** factor})
    )
    assert _eval(p.scale_exponents(factor), point) == _eval_terms(
        names, terms, {v: point[v] ** factor for v in _POOL}
    )


@given(_polys(max_terms=6), _polys(max_terms=3), st.sampled_from(_POOL), _POINTS)
@settings(max_examples=150, deadline=None)
def test_divrem_identity_over_mixed_variable_orders(a, b, var, point):
    num, den = SymbolicPolynomial(*a), SymbolicPolynomial(*b)
    if den.is_zero():
        return
    try:
        quo, rem = num.divrem(den, var)
    except InexactDivision:
        lead = den.coefficient_in(var, den.degree_in(var))
        assert lead != 1 and lead != -1
        return
    assert quo * den + rem == num
    assert _eval(quo, point) * _eval(den, point) + _eval(rem, point) == _eval(num, point)
    assert rem.degree_in(var) < den.degree_in(var)


@given(st.lists(st.tuples(_polys(), _polys()), max_size=3))
@settings(max_examples=150, deadline=None)
def test_sum_of_products_matches_the_ring_operations(pairs):
    pairs = [(SymbolicPolynomial(*p), SymbolicPolynomial(*q)) for p, q in pairs]
    expected = sum((p * q for p, q in pairs), SymbolicPolynomial.constant(0))
    assert SymbolicPolynomial.sum_of_products(pairs) == expected


@given(_polys(max_terms=5), st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_equality_and_hash_ignore_variable_order(a, rnd):
    names, terms = a
    order = list(range(len(names)))
    rnd.shuffle(order)
    shuffled = SymbolicPolynomial(
        tuple(names[i] for i in order), {tuple(e[i] for i in order): c for e, c in terms.items()}
    )
    p = SymbolicPolynomial(names, terms)
    assert p == shuffled and hash(p) == hash(shuffled)
    assert p + 1 != shuffled


# The printer against the exponent-tuple printer it replaced, which keeps the
# format fixed: terms by total degree, then by their exponents in vars order.


def reference_str(p: SymbolicPolynomial) -> str:
    terms = p.terms
    parts = []
    for exps in sorted(terms, key=lambda e: (sum(e), e)):
        c = terms[exps]
        mag = abs(c)
        body = "*".join(v if e == 1 else f"{v}^{e}" for v, e in zip(p.vars, exps) if e)
        if not body:
            body = str(mag)
        elif mag != 1:
            body = f"{mag}*{body}"
        parts.append((c, body))
    return exactalg._signed_sum(parts)


# registered in this order, so that drawn variable orders differ from it
_PRINT_POOL = tuple(f"p{uuid.uuid4().hex[:8]}_{i}" for i in range(4))
for _name in _PRINT_POOL:
    SymbolicPolynomial.variable(_name)

_TOP = 2**15 - 1
_exponents = st.one_of(st.integers(0, 3), st.integers(0, _TOP))
_coefficients = st.one_of(st.integers(-3, 3), st.integers(-(2**80), 2**80), st.sampled_from([2**64 + 1, -(2**64) - 1]))


@st.composite
def _printable(draw):
    names = draw(st.permutations(_PRINT_POOL))[: draw(st.integers(0, len(_PRINT_POOL)))]
    exps = st.tuples(*[_exponents] * len(names))
    return SymbolicPolynomial(tuple(names), draw(st.dictionaries(exps, _coefficients, max_size=10)))


@given(_printable())
@settings(max_examples=300, deadline=None)
def test_printer_matches_the_exponent_tuple_printer(p):
    assert str(p) == reference_str(p)
    # the ungraded order is the exponent tuples' order, which the
    # certificate JSON lists its terms in
    coeffs, columns = p.sorted_columns(graded=False)
    rows = list(zip(*columns)) if columns else [()] * len(coeffs)
    assert list(zip(rows, coeffs)) == sorted(p.terms.items())


@pytest.mark.parametrize("c", [0, 1, -1, 7, -(2**70), 2**64 + 5])
def test_printer_on_constants(c):
    p = SymbolicPolynomial.constant(c)
    assert str(p) == reference_str(p) == str(c)
    assert p.sorted_columns(graded=True) == ([c] if c else [], [])


def test_printer_orders_by_degree_before_variable_order():
    a, b = (SymbolicPolynomial.variable(v) for v in _PRINT_POOL[:2])
    # vars (b, a): b, of degree 1, comes first although a^2 has the smaller
    # exponents (0, 2); of the degree-2 terms, a^2 comes before b^2 (2, 0)
    p = b**2 + b + a**2
    assert p.vars[0] == _PRINT_POOL[1]
    assert str(p) == f"{_PRINT_POOL[1]} + {_PRINT_POOL[0]}^2 + {_PRINT_POOL[1]}^2"
    big = b**_TOP - 3 * a
    assert str(big) == reference_str(big) == f"-3*{_PRINT_POOL[0]} + {_PRINT_POOL[1]}^{_TOP}"


def reference_int_str(p: IntPolynomial) -> str:
    """The dense printer that IntPolynomial used before it shared the sparse
    one: ascending powers of x, a unit coefficient left out off the constant."""
    terms = []
    for i, c in enumerate(p.coeffs):
        if c:
            mag = abs(c)
            vp = "x" if i == 1 else f"x^{i}"
            terms.append((c, str(mag) if i == 0 else vp if mag == 1 else f"{mag}*{vp}"))
    return exactalg._signed_sum(terms)


# degrees past 2^15, where SymbolicPolynomial's exponent fields end
@given(st.lists(_coefficients, max_size=12), st.lists(st.integers(0, 2**16), max_size=3))
@settings(max_examples=300, deadline=None)
def test_int_polynomial_printer_matches_the_dense_printer(coeffs, gaps):
    p = IntPolynomial(coeffs + [c for g in gaps for c in [0] * g + [g - 7]])
    assert str(p) == reference_int_str(p)
