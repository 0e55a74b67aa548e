"""Semisimple conjugacy-class types for SL_n and Sp_2n.

A type records the shape of a characteristic polynomial factorization:
for SL_n a multiset of (degree, multiplicity) pairs summing to n; for Sp_2n
the eigenvalue-1/-1 block halves, the self-reciprocal (unitary) blocks, and
the reciprocal-pair (general-linear) blocks.  The centralizer of a semisimple
element depends only on the type, so class counts and centralizer Frobenius
data are computed per type.
"""
from __future__ import annotations

import dataclasses
import functools
import math
from fractions import Fraction
from typing import Iterable

from .exactalg import SymbolicPolynomial, exact_quotient, factorize
from .motives import ArtinTateMotive, motive_of


def moebius(n: int) -> int:
    factors = factorize(n)
    return 0 if any(e > 1 for _, e in factors) else (-1) ** len(factors)


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def _pair_multisets(remaining: int, chosen: tuple = (), floor: tuple[int, int] = (1, 1)):
    """Every multiset of (degree, multiplicity) pairs extending chosen with
    pairs no smaller than floor, of total degree*multiplicity at most
    remaining, as (ascending pairs, unused total), each before its
    extensions.  Census and class-sum order follows this order."""
    yield chosen, remaining
    for d in range(1, remaining + 1):
        for a in range(1, remaining // d + 1):
            if (d, a) >= floor:
                yield from _pair_multisets(remaining - d * a, chosen + ((d, a),), (d, a))


# ---------------------------------------------------------------------------
# SL types
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class SLType:
    """Multiset of (degree, multiplicity) pairs with sum degree*multiplicity
    equal to n."""

    pairs: tuple[tuple[int, int], ...]

    def __init__(self, pairs: Iterable[tuple[int, int]]):
        ps = tuple(sorted(tuple(p) for p in pairs))
        if not ps or any(d < 1 or a < 1 for d, a in ps):
            raise ValueError("pairs must be positive (degree, multiplicity) tuples")
        object.__setattr__(self, "pairs", ps)

    @property
    def n(self) -> int:
        return sum(d * a for d, a in self.pairs)

    def label(self) -> str:
        return "+".join(f"{a}x{d}" for d, a in self.pairs)


def enumerate_sl_types(n: int) -> list[SLType]:
    """All multisets of (degree, multiplicity) pairs of total size n."""
    if n < 1:
        raise ValueError("n must be positive")
    return [SLType(pairs) for pairs, unused in _pair_multisets(n) if not unused]


def sl_centralizer_motive(t: SLType) -> ArtinTateMotive:
    """Frobenius data of the centralizer: the direct sum of degree-d scalar
    restrictions of GL(a) blocks with one trivial weight-1 eigenvalue
    removed."""
    return motive_of({"Product": [{"Res": [d, {"GL": a}]} for d, a in t.pairs]}).quotient_trivial()


def count_sl(n: int, d: int, q: int) -> int:
    """Number of monic irreducible degree-d polynomials P over the field of
    q elements with P(0)^(n/d) = (-1)^n, via norm-fiber Moebius counting."""
    if n % d:
        raise ValueError("degree must divide n")
    total = 0
    for e in divisors(d):
        total += moebius(d // e) * math.gcd(n // e, q - 1) * (q**e - 1) // (q - 1)
    quot = exact_quotient(total, d)
    if quot < 0:
        raise ArithmeticError(f"class count {quot} is negative")
    return quot


# ---------------------------------------------------------------------------
# Sp types
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class SpType:
    """Half-dimension data (a_plus, a_minus; unitary (d, b) blocks;
    general-linear (e, c) blocks); a_plus >= a_minus canonically."""

    a_plus: int
    a_minus: int
    unitary_pairs: tuple[tuple[int, int], ...]
    gl_pairs: tuple[tuple[int, int], ...]

    def __init__(self, a_plus: int, a_minus: int = 0, unitary_pairs=(), gl_pairs=()):
        if a_plus < 0 or a_minus < 0:
            raise ValueError("eigenvalue block halves must be nonnegative")
        if a_plus < a_minus:
            a_plus, a_minus = a_minus, a_plus
        up = tuple(sorted(tuple(p) for p in unitary_pairs))
        gp = tuple(sorted(tuple(p) for p in gl_pairs))
        if any(d < 1 or b < 1 for d, b in up + gp):
            raise ValueError("blocks must be positive (degree, multiplicity) tuples")
        object.__setattr__(self, "a_plus", a_plus)
        object.__setattr__(self, "a_minus", a_minus)
        object.__setattr__(self, "unitary_pairs", up)
        object.__setattr__(self, "gl_pairs", gp)

    def label(self) -> str:
        parts = [f"{self.a_plus}.{self.a_minus}"]
        parts.append("u" + "+".join(f"{b}x{d}" for d, b in self.unitary_pairs))
        parts.append("g" + "+".join(f"{c}x{e}" for e, c in self.gl_pairs))
        return "|".join(parts)


def enumerate_sp_types(n: int, q_even: bool) -> list[SpType]:
    """All types of half-dimension n, general-linear blocks included;
    a_minus = 0 when the field has even size.  No type repeats: a_minus
    never exceeds a_plus and the blocks come in ascending order, so
    SpType's canonical form is what is enumerated."""
    if n < 1:
        raise ValueError("n must be positive")
    return [
        SpType(a_plus, a_minus, up, gp)
        for a_plus in range(n + 1)
        for a_minus in ([0] if q_even else range(min(a_plus, n - a_plus) + 1))
        for up, left in _pair_multisets(n - a_plus - a_minus)
        for gp, unused in _pair_multisets(left)
        if not unused
    ]


def sp_centralizer_motive(t: SpType) -> ArtinTateMotive:
    """Frobenius data of Sp(2a+) x Sp(2a-) x scalar-restricted unitary and
    general-linear blocks."""
    specs = []
    if t.a_plus:
        specs.append({"Sp": 2 * t.a_plus})
    if t.a_minus:
        specs.append({"Sp": 2 * t.a_minus})
    for d, b in t.unitary_pairs:
        specs.append({"Res": [d, {"U": b}]})
    for e, c in t.gl_pairs:
        specs.append({"Res": [e, {"GL": c}]})
    return motive_of({"Product": specs}) if specs else ArtinTateMotive(())


# ---------------------------------------------------------------------------
# counting
# ---------------------------------------------------------------------------


def s_count(two_n: int, q: int) -> int:
    """Number of self-reciprocal irreducible monic polynomials of the given
    even degree 2n over the field with q elements: the sum over odd d | n
    of mu(d) (q^(n/d) - (q mod 2)), divided by 2n (Carlitz 1967).  For odd
    q and n a power of 2 only d = 1 is odd, giving (q^n - 1) / 2n."""
    if two_n < 2 or two_n % 2:
        raise ValueError("degree must be even and at least 2")
    n = two_n // 2
    total = sum(moebius(d) * (q ** (n // d) - q % 2) for d in divisors(n) if d % 2)
    return exact_quotient(total, 2 * n)


def irreducible_count(e: int, q: int) -> int:
    total = sum(moebius(d) * q ** (e // d) for d in divisors(e))
    return exact_quotient(total, e)


def _reciprocal_pair_count(e: int, q: int) -> int:
    """Unordered pairs {Q, Q*} of distinct degree-e irreducible monics with
    nonzero constant term that are mutual reciprocals."""
    irr = irreducible_count(e, q) - (1 if e == 1 else 0)  # exclude x itself
    if e == 1:
        self_rec = 2 if q % 2 else 1  # x - 1 and, for odd q, x + 1
    elif e % 2 == 0:
        self_rec = s_count(e, q)
    else:
        self_rec = 0
    return exact_quotient(irr - self_rec, 2)


def count_sp(t: SpType, q: int) -> int:
    """Number of semisimple classes of the given type over the field with q
    elements, as an exact integer."""
    if q % 2 == 0 and t.a_minus:
        raise ValueError("eigenvalue -1 blocks require odd field size")
    # the falling factorials over the product of the multiplicities' factorials
    num = 2 if t.a_plus != t.a_minus and q % 2 else 1
    den = 1
    for blocks, counter in (
        (t.unitary_pairs, lambda d: s_count(2 * d, q)),
        (t.gl_pairs, lambda e: _reciprocal_pair_count(e, q)),
    ):
        by_degree: dict[int, list[int]] = {}
        for d, b in blocks:
            by_degree.setdefault(d, []).append(b)
        for d, bs in by_degree.items():
            num *= math.perm(counter(d), len(bs))
            for mult in set(bs):
                den *= math.factorial(bs.count(mult))
    value = exact_quotient(num, den)
    if value < 0:
        raise ArithmeticError(f"class count {value} is negative")
    return value


# ---------------------------------------------------------------------------
# golden table data
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class TableRow:
    label: str
    sp_type: SpType
    count: "object"  # callable q -> Fraction
    det: SymbolicPolynomial


@functools.cache
def table_goldens() -> dict[tuple[int, str], tuple[TableRow, ...]]:
    """Embedded per-type class counts and centralizer determinants for
    Sp_4 and Sp_6 at both field parities; consumed by tests and the
    verification suite."""
    t = SymbolicPolynomial.variable("t")
    q = SymbolicPolynomial.variable("q")
    one_plus_t = 1 + t
    m1 = 1 - t * q
    m3 = 1 - t * q**3
    m5 = 1 - t * q**5
    p2 = 1 + t**2
    p3 = 1 + t**3
    pq2 = 1 + t * q**2

    sp4_odd = (
        TableRow("t1", SpType(2), lambda v: Fraction(2), m1 * m3),
        TableRow("t2", SpType(1, 1), lambda v: Fraction(1), m1 * m1),
        TableRow("t3", SpType(1, 0, [(1, 1)]), lambda v: Fraction(v - 1), m1 * one_plus_t),
        TableRow("t4", SpType(0, 0, [(1, 2)]), lambda v: Fraction(v - 1, 2), one_plus_t * m1),
        TableRow(
            "t5",
            SpType(0, 0, [(1, 1), (1, 1)]),
            lambda v: Fraction((v - 1) * (v - 3), 8),
            one_plus_t * one_plus_t,
        ),
        TableRow("t6", SpType(0, 0, [(2, 1)]), lambda v: Fraction(v**2 - 1, 4), p2),
    )
    sp4_even = (
        TableRow("t1", SpType(2), lambda v: Fraction(1), m1 * m3),
        TableRow("t3", SpType(1, 0, [(1, 1)]), lambda v: Fraction(v, 2), m1 * one_plus_t),
        TableRow("t4", SpType(0, 0, [(1, 2)]), lambda v: Fraction(v, 2), one_plus_t * m1),
        TableRow(
            "t5",
            SpType(0, 0, [(1, 1), (1, 1)]),
            lambda v: Fraction(v * (v - 2), 8),
            one_plus_t * one_plus_t,
        ),
        TableRow("t6", SpType(0, 0, [(2, 1)]), lambda v: Fraction(v**2, 4), p2),
    )
    sp6_odd = (
        TableRow("t1", SpType(3), lambda v: Fraction(2), m1 * m3 * m5),
        TableRow("t2", SpType(2, 1), lambda v: Fraction(2), m1 * m1 * m3),
        TableRow("t3", SpType(2, 0, [(1, 1)]), lambda v: Fraction(v - 1), one_plus_t * m1 * m3),
        TableRow("t4", SpType(1, 1, [(1, 1)]), lambda v: Fraction(v - 1, 2), one_plus_t * m1 * m1),
        TableRow("t5", SpType(1, 0, [(1, 2)]), lambda v: Fraction(v - 1), one_plus_t * m1 * m1),
        TableRow(
            "t6",
            SpType(1, 0, [(1, 1), (1, 1)]),
            lambda v: Fraction((v - 1) * (v - 3), 4),
            one_plus_t * one_plus_t * m1,
        ),
        TableRow("t7", SpType(1, 0, [(2, 1)]), lambda v: Fraction(v**2 - 1, 2), p2 * m1),
        TableRow("t8", SpType(0, 0, [(1, 3)]), lambda v: Fraction(v - 1, 2), one_plus_t * m1 * pq2),
        TableRow(
            "t9",
            SpType(0, 0, [(1, 2), (1, 1)]),
            lambda v: Fraction((v - 1) * (v - 3), 4),
            one_plus_t * one_plus_t * m1,
        ),
        TableRow(
            "t10",
            SpType(0, 0, [(1, 1), (1, 1), (1, 1)]),
            lambda v: Fraction((v - 1) * (v - 3) * (v - 5), 48),
            one_plus_t * one_plus_t * one_plus_t,
        ),
        TableRow(
            "t11",
            SpType(0, 0, [(2, 1), (1, 1)]),
            lambda v: Fraction((v - 1) * (v**2 - 1), 8),
            one_plus_t * p2,
        ),
        TableRow("t12", SpType(0, 0, [(3, 1)]), lambda v: Fraction(v**3 - v, 6), p3),
    )
    sp6_even = (
        TableRow("t1", SpType(3), lambda v: Fraction(1), m1 * m3 * m5),
        TableRow("t3", SpType(2, 0, [(1, 1)]), lambda v: Fraction(v, 2), one_plus_t * m1 * m3),
        TableRow("t5", SpType(1, 0, [(1, 2)]), lambda v: Fraction(v, 2), one_plus_t * m1 * m1),
        TableRow(
            "t6",
            SpType(1, 0, [(1, 1), (1, 1)]),
            lambda v: Fraction(v * (v - 2), 8),
            one_plus_t * one_plus_t * m1,
        ),
        TableRow("t7", SpType(1, 0, [(2, 1)]), lambda v: Fraction(v**2, 4), p2 * m1),
        TableRow("t8", SpType(0, 0, [(1, 3)]), lambda v: Fraction(v, 2), one_plus_t * m1 * pq2),
        TableRow(
            "t9",
            SpType(0, 0, [(1, 2), (1, 1)]),
            lambda v: Fraction(v * (v - 2), 4),
            one_plus_t * one_plus_t * m1,
        ),
        TableRow(
            "t10",
            SpType(0, 0, [(1, 1), (1, 1), (1, 1)]),
            lambda v: Fraction(v * (v - 2) * (v - 4), 48),
            one_plus_t * one_plus_t * one_plus_t,
        ),
        TableRow(
            "t11",
            SpType(0, 0, [(2, 1), (1, 1)]),
            lambda v: Fraction(v**3, 8),
            one_plus_t * p2,
        ),
        TableRow("t12", SpType(0, 0, [(3, 1)]), lambda v: Fraction(v**3 - v, 6), p3),
    )
    return {
        (2, "odd"): sp4_odd,
        (2, "even"): sp4_even,
        (3, "odd"): sp6_odd,
        (3, "even"): sp6_even,
    }
