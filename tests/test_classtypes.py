"""Tests for conjugacy-class types, their centralizer data, and counts."""
import hashlib
from fractions import Fraction

import pytest

from motivesums.classtypes import (
    SLType,
    SpType,
    count_sl,
    count_sp,
    enumerate_sl_types,
    enumerate_sp_types,
    irreducible_count,
    moebius,
    s_count,
    sl_centralizer_motive,
    sp_centralizer_motive,
    table_goldens,
)
from motivesums.exactalg import SymbolicPolynomial


def test_moebius_small():
    assert [moebius(n) for n in range(1, 13)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0]


# ---------------------------------------------------------------------------
# SL types
# ---------------------------------------------------------------------------


def test_enumerate_sl_types_counts():
    assert len(enumerate_sl_types(1)) == 1
    assert len(enumerate_sl_types(2)) == 3
    assert len(enumerate_sl_types(3)) == 5
    for n in (2, 3, 4, 5):
        for t in enumerate_sl_types(n):
            assert t.n == n


# sha256 of the type labels in enumeration order, recorded before the SL and
# Sp enumerations shared one generator.  Census CSV rows and the terms of a
# class sum come in this order.
SL_ORDER = "b03b6ec72df25b6871d2ec4ad653467af08e390c361dbd05f59dbf3d23cc2a5e"
SP_ORDER = "a52a0506e409ad8a5e8945e86700c5ab8f09e4db6c7caba262b50af09574c329"


def test_type_enumeration_order_is_pinned():
    sl = [t.label() for n in range(1, 9) for t in enumerate_sl_types(n)]
    sp = [
        f"{n} {q_even} {t.label()}"
        for n in range(1, 5)
        for q_even in (False, True)
        for t in enumerate_sp_types(n, q_even)
    ]
    assert len(set(sl)) == len(sl) and len(set(sp)) == len(sp)
    assert hashlib.sha256("\n".join(sl).encode()).hexdigest() == SL_ORDER
    assert hashlib.sha256("\n".join(sp).encode()).hexdigest() == SP_ORDER


def test_sl_types_are_multisets():
    assert SLType([(2, 1), (1, 1)]) == SLType([(1, 1), (2, 1)])
    assert SLType([(1, 1), (1, 1)]).pairs == ((1, 1), (1, 1))


def test_sl_centralizer_det_single_block():
    # type n = 2, one degree-2 eigenvalue: det = (1 + t)(1 - t^2 q^2) / kept pieces
    t = SLType([(2, 1)])
    det = sl_centralizer_motive(t).frobenius_det()
    assert det.substitute({"t": 1, "q": 3}).evaluate({}) == 2
    assert det.substitute({"t": 1, "q": 5}).evaluate({}) == 2


@pytest.mark.parametrize("n", [2, 3, 4])
def test_ratio_at_one_matches_symbolic_det(n):
    # det(t=1)/det(t=q) is d*(1-q)/(1-q^n) for a single block of degree d
    # and 0 otherwise; compared cross-multiplied
    q = SymbolicPolynomial.variable("q")
    for t in enumerate_sl_types(n):
        det = sl_centralizer_motive(t).frobenius_det()
        num = det.substitute({"t": 1})
        den = det.substitute({"t": q})
        if len(t.pairs) == 1:
            d, _ = t.pairs[0]
            assert num * (1 - q**n) == d * (1 - q) * den
        else:
            assert num == 0


def test_count_sl_degree_one():
    for n in (2, 3, 4, 5, 6):
        for q in (2, 3, 4, 5, 7, 8, 9):
            import math

            assert count_sl(n, 1, q) == math.gcd(n, q - 1)


def test_count_sl_examples():
    assert count_sl(2, 2, 3) == 1
    assert count_sl(2, 2, 2) == 1
    assert count_sl(3, 3, 2) == 2
    # over F_3 all three monic irreducible quadratics satisfy P(0)^2 = 1
    assert count_sl(4, 2, 3) == 3


def test_count_sl_coprime_regime_moebius_formula():
    # when gcd(n, q - 1) = 1 the count collapses to the plain Moebius form
    for n, q in ((3, 3), (5, 2), (2, 2), (4, 2)):
        import math

        if math.gcd(n, q - 1) != 1:
            continue
        for d in (x for x in range(1, n + 1) if n % x == 0):
            direct = sum(
                moebius(e) * (q ** (d // e) - 1) // (q - 1)
                for e in range(1, d + 1)
                if d % e == 0
            )
            assert d * count_sl(n, d, q) == direct


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_count_sl_sum_identity(n, q):
    total = Fraction(0)
    for d in (x for x in range(1, n + 1) if n % x == 0):
        total += Fraction(d * count_sl(n, d, q) * (1 - q), 1 - q**n)
    assert total == 1


# ---------------------------------------------------------------------------
# Sp types
# ---------------------------------------------------------------------------


def without_gl(types):
    """The types without general-linear blocks, whose L-values vanish."""
    return [t for t in types if not t.gl_pairs]


def half_dimension(t):
    return (
        t.a_plus
        + t.a_minus
        + sum(d * b for d, b in t.unitary_pairs)
        + sum(e * c for e, c in t.gl_pairs)
    )


def test_enumerate_sp_types_counts():
    assert len(without_gl(enumerate_sp_types(2, q_even=False))) == 6
    assert len(without_gl(enumerate_sp_types(2, q_even=True))) == 5
    assert len(without_gl(enumerate_sp_types(3, q_even=False))) == 12
    assert len(without_gl(enumerate_sp_types(3, q_even=True))) == 10
    for t in enumerate_sp_types(3, q_even=False):
        assert half_dimension(t) == 3


def test_sp_type_canonicalizes_sign_blocks():
    assert SpType(1, 2) == SpType(2, 1)


def test_enumerate_sp_types_with_gl_blocks():
    full = enumerate_sp_types(2, q_even=False)
    plain = without_gl(full)
    assert set(plain) < set(full)
    assert SpType(0, 0, (), [(1, 2)]) in full
    assert SpType(0, 0, [(1, 1)], [(1, 1)]) in full


def test_s_count_values():
    assert s_count(2, 3) == 1  # x^2 + 1
    assert s_count(2, 5) == 2
    assert s_count(4, 3) == 2
    assert s_count(4, 2) == 1  # x^4 + x^3 + x^2 + x + 1
    assert s_count(2, 2) == 1  # x^2 + x + 1
    assert s_count(6, 3) == (27 - 3) // 6


def test_s_count_matches_the_two_branch_formula():
    # odd q and n a power of 2: (q^n - 1) / 2n; otherwise the sum over odd
    # d | n of mu(d) q^(n/d), divided by 2n
    for q in (2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 81):
        for n in range(1, 17):
            if q % 2 and n & (n - 1) == 0:
                total = q**n - 1
            else:
                total = sum(moebius(d) * q ** (n // d) for d in range(1, n + 1, 2) if n % d == 0)
            assert total % (2 * n) == 0
            assert s_count(2 * n, q) == total // (2 * n), (q, n)


def test_irreducible_count():
    assert irreducible_count(1, 2) == 2
    assert irreducible_count(2, 2) == 1
    assert irreducible_count(3, 2) == 2
    assert irreducible_count(2, 3) == 3


@pytest.mark.parametrize("key", [(2, "odd"), (2, "even"), (3, "odd"), (3, "even")])
def test_table_counts_match_count_sp(key):
    n, parity = key
    qs = (3, 5, 7, 9) if parity == "odd" else (2, 4, 8)
    for row in table_goldens()[key]:
        for q in qs:
            assert count_sp(row.sp_type, q) == row.count(q), (row.label, q)


@pytest.mark.parametrize("key", [(2, "odd"), (2, "even"), (3, "odd"), (3, "even")])
def test_table_dets_match_centralizer_motive(key):
    for row in table_goldens()[key]:
        det = sp_centralizer_motive(row.sp_type).frobenius_det()
        assert det == row.det, row.label


@pytest.mark.parametrize("key", [(2, "odd"), (3, "odd")])
def test_table_types_cover_enumeration(key):
    n, _ = key
    assert {row.sp_type for row in table_goldens()[key]} == set(
        without_gl(enumerate_sp_types(n, q_even=False))
    )


def test_count_sp_rejects_parity_mismatch():
    with pytest.raises(ValueError):
        count_sp(SpType(1, 1), 2)


def test_count_sp_gl_blocks():
    # q = 3, degree 1: irreducibles with nonzero constant term = {x-1, x+1},
    # both self-reciprocal, so no reciprocal pairs exist
    assert count_sp(SpType(0, 0, (), [(1, 2)]), 3) == 0
    # q = 5: {x-2, x-3} is the unique reciprocal pair
    assert count_sp(SpType(0, 0, (), [(1, 2)]), 5) == 1
    assert count_sp(SpType(0, 0, (), [(1, 1), (1, 1)]), 5) == 0
