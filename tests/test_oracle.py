"""Tests for the brute-force finite-field oracles."""
import itertools
import math

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
from motivesums.exactalg import InexactDivision, InvariantError
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
# irreducibles
# ---------------------------------------------------------------------------


def test_irreducible_monics_examples():
    assert irreducible_monics(F2, 2, 1) == [(1, 1, 1)]
    assert irreducible_monics(F3, 1, -1) == [(2, 1)]
    assert irreducible_monics(F2, 1) == [(0, 1), (1, 1)]


@pytest.mark.parametrize("field", [F2, F3], ids=lambda f: f"q{f.q}")
@pytest.mark.parametrize("big_d", [1, 2, 3, 4, 5, 6])
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
