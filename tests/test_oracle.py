"""Tests for the brute-force finite-field oracles."""
import functools
import hashlib
import itertools
import math
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motivesums import oracle
from motivesums.classtypes import (
    SLType,
    count_sl,
    count_sp,
    s_count,
    table_goldens,
)
from motivesums.exactalg import InexactDivision, InvariantError, dense_divmod, monic_head
from motivesums.motives import parse_group_spec
from motivesums.oracle import (
    BudgetError,
    FiniteField,
    factor_monic,
    irreducible_monics,
    self_reciprocal_irreducible_census,
    sl_census,
    sp_census,
)

F2 = FiniteField(2)
F3 = FiniteField(3)
F4 = FiniteField(2, 2)
F5 = FiniteField(5)
F8 = FiniteField(2, 3)
F9 = FiniteField(3, 2)
F25 = FiniteField(5, 2)


# ---------------------------------------------------------------------------
# field arithmetic
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("field", [F2, F3, F4, F5, F8, F9], ids=lambda f: f"q{f.q}")
def test_field_axioms(field):
    q = field.q
    for a in range(q):
        assert field.add(a, 0) == a
        assert field.mul(a, 1) == a
        assert field.add(a, field.neg(a)) == 0
        if a:
            assert field.mul(a, field.inv(a)) == 1
    # multiplicative group order
    for a in range(1, q):
        assert field.power(a, q - 1) == 1


def test_field_construction_validation():
    with pytest.raises(ValueError):
        FiniteField(4)
    with pytest.raises(ValueError):
        FiniteField(2, 17)


def test_of_order_finds_prime_powers():
    primes = [p for p in range(2, 130) if all(p % d for d in range(2, p))]
    prime_powers = {p**k: (p, k) for p in primes for k in range(1, 8) if p**k < 130}
    for q in range(2, 130):
        if q in prime_powers:
            field = FiniteField.of_order(q)
            assert (field.p, field.k, field.q) == prime_powers[q] + (q,)
        else:
            with pytest.raises(ValueError, match="not a prime power"):
                FiniteField.of_order(q)
    field = FiniteField.of_order(289)
    assert (field.p, field.k) == (17, 2)
    # out of range, including a large prime, is rejected before any factoring
    for q in (-4, 0, 1, 2**16 + 1, 2**61 - 1):
        with pytest.raises(ValueError, match="at most 2\\^16"):
            FiniteField.of_order(q)


def test_extension_modulus_shape_and_rootlessness():
    for field in (F4, F8, F9):
        assert len(field.modulus) == field.k + 1 and field.modulus[-1] == 1
        for r in range(field.p):
            assert sum(c * r**i for i, c in enumerate(field.modulus)) % field.p != 0


# ---------------------------------------------------------------------------
# field arithmetic and irreducibility against their definitions
# ---------------------------------------------------------------------------


def ref_digits(field, a):
    return [a // field.p**i % field.p for i in range(field.k)]


def ref_element(field, ds):
    return sum(d % field.p * field.p**i for i, d in enumerate(ds))


def ref_add(field, a, b):
    return ref_element(field, [x + y for x, y in zip(ref_digits(field, a), ref_digits(field, b))])


def ref_neg(field, a):
    return ref_element(field, [-x for x in ref_digits(field, a)])


def ref_sub(field, a, b):
    return ref_element(field, [x - y for x, y in zip(ref_digits(field, a), ref_digits(field, b))])


def ref_mul(field, a, b):
    """The product by definition: convolve the digit vectors, then reduce
    modulo field.modulus by long division in plain integers mod p."""
    k, p = field.k, field.p
    conv = [0] * (2 * k - 1)
    for i, x in enumerate(ref_digits(field, a)):
        for j, y in enumerate(ref_digits(field, b)):
            conv[i + j] += x * y
    for top in range(2 * k - 2, k - 1, -1):
        head = conv[top] % p
        for i, m in enumerate(field.modulus):
            conv[top - k + i] -= head * m
    return ref_element(field, conv[:k])


def trial_division_irreducible(field, poly):
    """Irreducibility by its definition: no monic factor of degree
    1 .. deg/2, found by trial division by every monic polynomial in the
    arithmetic defined above."""
    sub, mul = functools.partial(ref_sub, field), functools.partial(ref_mul, field)
    for d in range(1, (len(poly) - 1) // 2 + 1):
        for g in monics(field.q, d):
            if not dense_divmod(poly, g, sub, mul, monic_head)[1]:
                return False
    return True


def monics(q, d):
    return [digits + (1,) for digits in itertools.product(range(q), repeat=d)]


# 32, 243 and 256 have k = 5 and 8, where a product's reduction takes several
# long-division steps
FIELDS_BY_ORDER = {q: FiniteField.of_order(q) for q in (4, 8, 9, 16, 25, 27, 32, 49, 121, 243, 256)}


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_field_arithmetic_matches_its_definition(data):
    field = FIELDS_BY_ORDER[data.draw(st.sampled_from(sorted(FIELDS_BY_ORDER)), label="q")]
    element = st.integers(0, field.q - 1)
    a, b, c = data.draw(element, label="a"), data.draw(element, label="b"), data.draw(element, label="c")
    assert field.mul(a, b) == ref_mul(field, a, b)
    assert field.add(a, b) == ref_add(field, a, b)
    assert field.neg(a) == ref_neg(field, a)
    assert field.sub(a, b) == ref_sub(field, a, b)
    if a:
        assert field.mul(a, field.inv(a)) == 1
    else:
        with pytest.raises(ZeroDivisionError):
            field.inv(a)
    assert field.mul(a, field.add(b, c)) == field.add(field.mul(a, b), field.mul(a, c))
    assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))
    assert field.power(a, field.q) == a


@pytest.mark.parametrize("q, top", [(2, 5), (3, 5), (4, 3), (5, 3)])
def test_is_irreducible_matches_trial_division_by_every_monic(q, top):
    field = FiniteField.of_order(q)  # a fresh field: the calls below build its lists
    for d in range(1, top + 1):
        expected = [f for f in monics(q, d) if trial_division_irreducible(field, f)]
        assert [f for f in monics(q, d) if field.is_irreducible(f)] == expected
        assert field.irreducibles(d) == expected


PRIME_POWERS = [(p, k) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31) for k in range(2, 11) if p**k <= 1024]


def test_modulus_is_the_first_irreducible_in_enumeration_order():
    for p, k in PRIME_POWERS:
        first = next(f for f in monics(p, k) if trial_division_irreducible(FiniteField(p), f))
        assert FiniteField(p, k).modulus == first, (p, k)


def test_missing_modulus_is_an_invariant_error(monkeypatch):
    monkeypatch.setattr(oracle, "_monic_polys", lambda field, d: iter(()))
    with pytest.raises(InvariantError, match="no irreducible modulus found"):
        FiniteField(2, 3)


# The element encoding rests on the modulus, and census keys on the
# irreducible lists; both digests were taken before the field found its
# modulus through its own irreducibility test.
MODULUS_DIGEST = "6d86e403968d5d2e1900995be0d2ff1779fb7160eaf2682eeacd709338bf2c5c"
IRREDUCIBLE_DIGESTS = {
    4: "b094d2d5e46b3dd30b84298d660381c614edbd80403f1873ad57d6f43ccefc45",
    8: "4f89b8b72258667b2caa084bab2a20ca33e5f99ce64b37daa78f3cd782f2cf09",
    9: "d5874afd2ea31aabd2f937d1074a2216f7bfafeefe598f1f8f43ad9be4dca7a5",
    16: "56b79100867600af49759a55a5fbd1c401129737673b4a4c8cf384245244e6b2",
    25: "62947c06dfe0133d6c173bd1cdc94c88174c9c13fae99657784fbbd04c1ede33",
    27: "117d61c6e0096dd6681a80a99546adf67aff5e4e9dcfa88a1afe02c7e55605d2",
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_extension_moduli_are_pinned():
    assert len(PRIME_POWERS) == 26
    text = "".join(f"{p} {k} {FiniteField(p, k).modulus}\n" for p, k in PRIME_POWERS)
    assert sha256(text) == MODULUS_DIGEST


@pytest.mark.parametrize("q", sorted(IRREDUCIBLE_DIGESTS))
def test_irreducible_lists_are_pinned(q):
    field = FiniteField.of_order(q)
    assert sha256(repr([irreducible_monics(field, d) for d in (1, 2)])) == IRREDUCIBLE_DIGESTS[q]


# ---------------------------------------------------------------------------
# irreducibles
# ---------------------------------------------------------------------------


def test_irreducible_monics_examples():
    assert irreducible_monics(F2, 2, 1) == [(1, 1, 1)]
    assert irreducible_monics(F3, 1, -1) == [(2, 1)]
    assert irreducible_monics(F2, 1) == [(0, 1), (1, 1)]


# at most 5,000 candidates of degree big_d each, to keep the suite quick
GAUSS_CASES = [(f, d) for f in (F2, F3, F4, F9) for d in range(1, 7) if f.q**d <= 5000]


@pytest.mark.parametrize("field, big_d", GAUSS_CASES, ids=[f"{d}-q{f.q}" for f, d in GAUSS_CASES])
def test_gauss_degree_identity(field, big_d):
    total = sum(
        d * len(irreducible_monics(field, d)) for d in range(1, big_d + 1) if big_d % d == 0
    )
    assert total == field.q**big_d


def test_factor_monic_roundtrip():
    for field in (F2, F3, F4):
        # x^4 - 1 style product reassembles
        poly = (field.embed(-1), 0, 0, 0, 1)
        factors = factor_monic(field, poly)
        acc = (1,)
        for p, mult in factors.items():
            for _ in range(mult):
                acc = field.poly_mul(acc, p)
        assert acc == poly


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_poly_division_recovers_planted_quotient(data):
    field = data.draw(st.sampled_from([F2, F4, F9, F25]), label="field")
    element = st.integers(0, field.q - 1)
    a = tuple(data.draw(st.lists(element, max_size=4))) + (data.draw(st.integers(1, field.q - 1)),)
    g = tuple(data.draw(st.lists(element, min_size=1, max_size=4))) + (1,)
    f = field.poly_mul(a, g)
    assert field.poly_div_exact(f, g) == a
    assert field.poly_rem(f, g) == ()
    # adding a nonzero r of lower degree than g leaves remainder r
    r = data.draw(st.lists(element, min_size=len(g) - 1, max_size=len(g) - 1).filter(any))
    bumped = tuple(field.add(c, r[i]) if i < len(r) else c for i, c in enumerate(f))
    while not r[-1]:
        r.pop()
    assert field.poly_rem(bumped, g) == tuple(r)
    with pytest.raises(InexactDivision):
        field.poly_div_exact(bumped, g)


def test_budget_errors():
    with pytest.raises(BudgetError):
        irreducible_monics(F9, 9)
    with pytest.raises(BudgetError):
        sp_census(9, F9)


def test_census_budget_bounds_trial_divisions():
    # 4,096 palindromes of degree 6 are few, their trial divisions are not:
    # each is trial-divided by up to 16 + 120 + 1,360 irreducibles, 6.1
    # million divisions, which took 121 s when the budget counted
    # palindromes only
    field = FiniteField(2, 4)
    with pytest.raises(BudgetError, match="trial divisions"):
        oracle._check_work(field, 4096, 6)
    start = time.perf_counter()
    with pytest.raises(BudgetError, match="trial divisions"):
        sp_census(3, field)
    assert time.perf_counter() - start < 1
    # the largest census run elsewhere (Sp_4 over F_27: 729 palindromes,
    # 27 + 351 divisors each) fits twice over
    oracle._check_work(FiniteField.of_order(27), 2 * 27**2, 4)


# ---------------------------------------------------------------------------
# censuses against the counting formulas
# ---------------------------------------------------------------------------


def test_sl_census_small_examples():
    census = sl_census(2, F3)
    assert census[SLType([(1, 2)])] == 2
    assert census[SLType([(2, 1)])] == 1
    assert census[SLType([(1, 1), (1, 1)])] == 0
    assert sum(census.values()) == 3
    assert sum(sl_census(2, F2).values()) == 2


@pytest.mark.parametrize("field", [F2, F3, F4, F5], ids=lambda f: f"q{f.q}")
@pytest.mark.parametrize("n", [2, 3, 4])
def test_sl_census_total_is_q_power(n, field):
    assert sum(sl_census(n, field).values()) == field.q ** (n - 1)


@pytest.mark.parametrize("field", [F2, F3, F4, F5, F8], ids=lambda f: f"q{f.q}")
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_count_sl_matches_census(n, field):
    if math.gcd(n, field.q - 1) != 1:
        pytest.skip("outside the coprime regime exercised here")
    census = sl_census(n, field)
    for d in (x for x in range(1, n + 1) if n % x == 0):
        assert census[SLType([(d, n // d)])] == count_sl(n, d, field.q), (n, d, field.q)


def test_count_sl_matches_census_noncoprime():
    # the norm-fiber formula also holds when gcd(n, q-1) > 1
    for n, field in ((2, F3), (4, F3), (3, F4), (2, F5)):
        census = sl_census(n, field)
        for d in (x for x in range(1, n + 1) if n % x == 0):
            assert census[SLType([(d, n // d)])] == count_sl(n, d, field.q)


@pytest.mark.parametrize("field", [F2, F3, F4, F5], ids=lambda f: f"q{f.q}")
@pytest.mark.parametrize("n", [1, 2, 3])
def test_sp_census_matches_count_sp(n, field):
    for shape, value in sp_census(n, field).items():
        assert value == count_sp(shape, field.q), (field.q, shape.label())


def test_sp_census_matches_tables():
    for row in table_goldens()[(2, "odd")]:
        assert sp_census(2, F3)[row.sp_type] == row.count(3), row.label
    for row in table_goldens()[(2, "even")]:
        assert sp_census(2, F2)[row.sp_type] == row.count(2), row.label


def test_sp_census_rank_one_matches_sl():
    # the rank-1 symplectic and special linear censuses count the same classes
    for field in (F2, F3, F5):
        assert sum(sp_census(1, field).values()) == sum(sl_census(2, field).values())


@pytest.mark.parametrize(
    "n, field",
    # at most 300 palindromes each, to keep the suite quick
    [(n, f) for n in (1, 2, 3) for f in (F2, F3, F4, F5, F8, F9, FiniteField(2, 4), F25) if f.q**n <= 300],
    ids=lambda v: f"q{v.q}" if isinstance(v, FiniteField) else f"n{v}",
)
def test_sp_census_counts_every_palindrome(n, field):
    assert sum(sp_census(n, field).values()) == field.q**n


@pytest.mark.parametrize(
    "factors",
    [
        {(4, 1): 1, (1, 1): 1},  # (x - 1)(x + 1): odd multiplicity at x - 1
        {(2, 1): 2},  # (x + 2)^2 without its reciprocal x + 3
    ],
    ids=["odd-at-one", "unpaired"],
)
def test_sp_census_refuses_a_factorization_of_no_type(monkeypatch, factors):
    # over F5 no palindromic x^2 + c x + 1 factors like this; a factor list
    # that does is reported, not dropped from the tally
    monkeypatch.setattr(oracle, "factor_monic", lambda field, poly: dict(factors))
    with pytest.raises(InvariantError):
        sp_census(1, F5)


@pytest.mark.parametrize("field", [F2, F3, F4, F5], ids=lambda f: f"q{f.q}")
@pytest.mark.parametrize("two_n", [2, 4, 6, 8])
def test_self_reciprocal_census_matches_formula(two_n, field):
    assert self_reciprocal_irreducible_census(field, two_n) == s_count(two_n, field.q)


def test_self_reciprocal_examples():
    assert self_reciprocal_irreducible_census(F3, 2) == 1
    assert self_reciprocal_irreducible_census(F2, 4) == 1
    assert self_reciprocal_irreducible_census(F5, 4) == 6


# ---------------------------------------------------------------------------
# matrix-level census
# ---------------------------------------------------------------------------


def matrix_census_tiny(spec, field: FiniteField) -> dict[tuple[int, ...], int]:
    """Conjugacy classes of semisimple elements of the rank-1 group over the
    field, keyed by characteristic polynomial; an independent reference that
    checks agreement with the polynomial-level census."""
    spec = parse_group_spec(spec)
    ((kind, size),) = spec.items()
    if kind not in ("SL", "Sp") or size != 2:
        raise ValueError("matrix census is implemented for SL(2) = Sp(2) only")
    q = field.q
    order = q * (q * q - 1)
    if order > 10**5:
        raise BudgetError("group order over budget")
    group = []
    for a, b, c, d in itertools.product(range(q), repeat=4):
        det = field.sub(field.mul(a, d), field.mul(b, c))
        if det == 1:
            group.append((a, b, c, d))
    if len(group) != order:
        raise InvariantError("determinant-one census does not match the group order")

    def mat_mul(m1, m2):
        a, b, c, d = m1
        e, f, g, h = m2
        return (
            field.add(field.mul(a, e), field.mul(b, g)),
            field.add(field.mul(a, f), field.mul(b, h)),
            field.add(field.mul(c, e), field.mul(d, g)),
            field.add(field.mul(c, f), field.mul(d, h)),
        )

    identity = (1, 0, 0, 1)

    def element_order(m):
        acc, e = m, 1
        while acc != identity:
            acc = mat_mul(acc, m)
            e += 1
        return e

    def inverse(m):
        a, b, c, d = m  # determinant is 1
        return (d, field.neg(b), field.neg(c), a)

    semisimple = [m for m in group if element_order(m) % field.p != 0]
    classes: dict[tuple[int, ...], int] = {}
    visited = set()
    for m in semisimple:
        if m in visited:
            continue
        orbit = {mat_mul(mat_mul(g, m), inverse(g)) for g in group}
        visited |= orbit
        a, b, c, d = m
        charpoly = (
            field.sub(field.mul(a, d), field.mul(b, c)),
            field.neg(field.add(a, d)),
            1,
        )
        classes[charpoly] = classes.get(charpoly, 0) + 1
    total_polys = sum(sl_census(2, field).values())
    if sum(classes.values()) != total_polys:
        raise InvariantError("class/polynomial census mismatch")
    return classes


def test_matrix_census_sl2():
    classes = matrix_census_tiny({"SL": 2}, F3)
    assert len(classes) == 3
    assert all(v == 1 for v in classes.values())
    assert len(matrix_census_tiny({"SL": 2}, F2)) == 2


def test_matrix_census_sp2_equals_sl2():
    assert matrix_census_tiny({"Sp": 2}, F3) == matrix_census_tiny({"SL": 2}, F3)


def test_matrix_census_rejects_higher_rank():
    with pytest.raises(ValueError):
        matrix_census_tiny({"SL": 3}, F2)
