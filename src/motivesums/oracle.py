"""Brute-force ground truth over small finite fields.

Everything here is exhaustive enumeration: monic polynomials are listed,
factored by trial division against the field's irreducible lists, and
tallied into conjugacy types.  A field keeps one list of monic irreducibles
per degree, built on first use and never evicted; is_irreducible is the one
irreducibility test, and it also finds the modulus of an extension field:
the first irreducible of degree k over the prime field, in enumeration
order.  The counting formulas elsewhere in the package are validated
against these censuses, never the other way around.
"""
from __future__ import annotations

import itertools
import operator
from typing import Iterable

from .classtypes import SLType, SpType, enumerate_sl_types, enumerate_sp_types, irreducible_count
from .exactalg import BudgetError, InexactDivision, InvariantError, dense_divmod, dense_mul, monic_head
from .exactalg import power_by_squaring, prime_power


class FiniteField:
    """The field with p^k elements; elements are integers 0 <= a < p^k whose
    base-p digits are the coordinates in the power basis of the modulus.

    The modulus is the first irreducible of degree k over the prime field in
    enumeration order (x for k = 1).  The field keeps one list of monic
    irreducibles per degree, built on first use and never evicted.  mul is
    dense_mul of the digit lists and dense_divmod by the monic modulus, both
    over Z, then the remainder's digits mod p; products are memoized."""

    def __init__(self, p: int, k: int = 1):
        if prime_power(p)[1] != 1:
            raise ValueError(f"{p} is not prime")
        if k < 1 or p**k > 2**16:
            raise ValueError("field size must be a prime power at most 2^16")
        self.p = p
        self.k = k
        self.q = p**k
        self._mul_memo: dict[tuple[int, int], int] = {}
        self._irr_cache: dict[int, list[tuple[int, ...]]] = {}
        prime = FiniteField(p) if k > 1 else self
        self.modulus = next((f for f in _monic_polys(prime, k) if prime.is_irreducible(f)), None)
        if self.modulus is None:
            raise InvariantError("no irreducible modulus found")

    @classmethod
    def of_order(cls, q: int) -> "FiniteField":
        """The field with q elements, for a prime power q at most 2^16."""
        # report an out-of-range size as such, before the factor search
        if not 2 <= q <= 2**16:
            raise ValueError(f"field size must be a prime power at most 2^16, got {q}")
        return cls(*prime_power(q))

    # -- element arithmetic --------------------------------------------------

    def digits(self, a: int) -> list[int]:
        out = []
        for _ in range(self.k):
            a, r = divmod(a, self.p)
            out.append(r)
        return out

    def _from_digits(self, ds: Iterable[int]) -> int:
        acc = 0
        for d in reversed(list(ds)):
            acc = acc * self.p + d % self.p
        return acc

    def embed(self, v: int) -> int:
        return v % self.p

    def add(self, a: int, b: int) -> int:
        return self._from_digits(x + y for x, y in zip(self.digits(a), self.digits(b)))

    def neg(self, a: int) -> int:
        return self._from_digits(-x for x in self.digits(a))

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        key = (a, b) if a <= b else (b, a)
        cached = self._mul_memo.get(key)
        if cached is not None:
            return cached
        conv = dense_mul(self.digits(a), self.digits(b), operator.add, operator.mul)
        rem = dense_divmod(conv, self.modulus, operator.sub, operator.mul, monic_head)[1]
        value = self._mul_memo[key] = self._from_digits(rem)
        return value

    def power(self, a: int, e: int) -> int:
        if e < 0:
            raise ValueError("negative power of a field element; use inv")
        return power_by_squaring(a, e, self.mul, 1)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("zero has no inverse")
        return self.power(a, self.q - 2)

    # -- polynomials over the field -----------------------------------------

    def poly_rem(self, f: tuple[int, ...], g: tuple[int, ...]) -> tuple[int, ...]:
        """Remainder of f by monic g."""
        return tuple(dense_divmod(f, g, self.sub, self.mul, monic_head)[1])

    def poly_div_exact(self, f: tuple[int, ...], g: tuple[int, ...]) -> tuple[int, ...]:
        """Quotient of f by monic g, which must divide f."""
        quo, rem = dense_divmod(f, g, self.sub, self.mul, monic_head)
        if rem:
            raise InexactDivision("exact division expected")
        return tuple(quo)

    def poly_mul(self, f: tuple[int, ...], g: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(dense_mul(f, g, self.add, self.mul))

    def reciprocal(self, f: tuple[int, ...]) -> tuple[int, ...]:
        """Monic reversal x^deg f(1/x) / f(0); requires f(0) nonzero."""
        c0 = f[0]
        inv = self.inv(c0)
        return tuple(self.mul(c, inv) for c in reversed(f))

    # -- irreducibles --------------------------------------------------------

    def irreducibles(self, d: int) -> list[tuple[int, ...]]:
        """The monic irreducibles of degree d in enumeration order; the list
        is built on first use and kept."""
        found = self._irr_cache.get(d)
        if found is None:
            found = self._irr_cache[d] = [f for f in _monic_polys(self, d) if self.is_irreducible(f)]
        return found

    def is_irreducible(self, poly: tuple[int, ...]) -> bool:
        """Whether a monic poly is irreducible: trial division by the monic
        irreducibles of every degree up to half its own."""
        halves = range(1, (len(poly) - 1) // 2 + 1)
        return not any(self.poly_rem(poly, f) == () for e in halves for f in self.irreducibles(e))


# ---------------------------------------------------------------------------
# irreducibles and factorization
# ---------------------------------------------------------------------------

# trial divisions allowed for one census or list of irreducibles.
# sp_census(2, F_37) needs 962,000 and takes 9.9 s on a 2-core Xeon under
# Python 3.11; the largest census that the tests, verify, CI and the
# benchmark run, Sp_4 over F_27 in CI, needs 275,562.
_WORK_BUDGET = 10**6


def _check_work(field: FiniteField, count: int, degree: int) -> None:
    """Raise BudgetError, before any work, when trial-dividing count monic
    polynomials of the given degree by every monic irreducible of degree up
    to half of it (classtypes.irreducible_count of them per degree) would
    take more than _WORK_BUDGET divisions.  The sum stops once it is over,
    after a few degrees, as the counts grow like q^e / e."""
    divisions = 0
    for e in range(1, degree // 2 + 1):
        divisions += count * irreducible_count(e, field.q)
        if divisions > _WORK_BUDGET:
            raise BudgetError(
                f"{count} polynomials of degree {degree} need more than {_WORK_BUDGET} trial divisions;"
                " use the counting formulas"
            )


def _monic_polys(field: FiniteField, d: int):
    for digits in itertools.product(range(field.q), repeat=d):
        yield digits + (1,)


def irreducible_monics(field: FiniteField, d: int, constant: int | None = None):
    """Exhaustive list of irreducible monic polynomials of degree d,
    optionally restricted by constant term (given as an integer embedded
    through the prime subfield)."""
    if d < 1:
        raise ValueError("degree must be positive")
    _check_work(field, field.q**d, d)
    polys = field.irreducibles(d)
    if constant is None:
        return list(polys)
    target = field.embed(constant)
    return [p for p in polys if p[0] == target]


def factor_monic(field: FiniteField, poly: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """Factorization into monic irreducibles by trial division."""
    deg = len(poly) - 1
    out: dict[tuple[int, ...], int] = {}
    rest = poly
    for e in range(1, deg + 1):
        if len(rest) - 1 < 2 * e:
            break
        for p in field.irreducibles(e):
            while len(rest) > len(p) - 1 and field.poly_rem(rest, p) == ():
                out[p] = out.get(p, 0) + 1
                rest = field.poly_div_exact(rest, p)
        if len(rest) - 1 == 0:
            break
    if len(rest) - 1 > 0:
        out[rest] = out.get(rest, 0) + 1
    return out


# ---------------------------------------------------------------------------
# censuses
# ---------------------------------------------------------------------------


def sl_census(n: int, field: FiniteField) -> dict[SLType, int]:
    """Tally of semisimple class types: monic degree-n polynomials with
    constant term (-1)^n, keyed by factorization shape."""
    _check_work(field, field.q ** (n - 1), n)
    tally = {t: 0 for t in enumerate_sl_types(n)}
    constant = field.embed((-1) ** n)
    for digits in itertools.product(range(field.q), repeat=n - 1):
        poly = (constant,) + digits + (1,)
        factors = factor_monic(field, poly)
        shape = SLType((len(p) - 1, mult) for p, mult in factors.items())
        tally[shape] += 1
    return tally


def _palindromes(field: FiniteField, n: int):
    """Monic palindromic polynomials of degree 2n: c_1..c_n free, mirrored
    to c_(2n-1)..c_n.  The budget is checked on the call, before any is built."""
    _check_work(field, field.q**n, 2 * n)
    return (
        (1,) + digits + tuple(reversed(digits[:-1])) + (1,)
        for digits in itertools.product(range(field.q), repeat=n)
    )


def sp_census(n: int, field: FiniteField) -> dict[SpType, int]:
    """Tally of symplectic class types: monic palindromic degree-2n
    polynomials, keyed by factorization shape.  Their multiplicities at
    x - 1 and x + 1 are even, their self-reciprocal factors have even
    degree and reciprocal pairs have equal multiplicity; a factorization
    that breaks this misses half-dimension n and raises InvariantError."""
    palindromes = _palindromes(field, n)
    q_even = field.p == 2
    tally = {t: 0 for t in enumerate_sp_types(n, q_even=q_even)}
    plus_root = (field.embed(-1), 1)  # x - 1
    minus_root = (1, 1)  # x + 1
    for poly in palindromes:
        factors = factor_monic(field, poly)
        a_plus = factors.pop(plus_root, 0)
        a_minus = 0 if q_even else factors.pop(minus_root, 0)
        unitary = []
        gl = []
        for p, mult in factors.items():
            recip = field.reciprocal(p)
            if recip == p:
                unitary.append(((len(p) - 1) // 2, mult))
            elif p < recip:  # one member of each reciprocal pair
                gl.append((len(p) - 1, mult))
        shape = SpType(a_plus // 2, a_minus // 2, unitary, gl)
        half = shape.a_plus + shape.a_minus + sum(d * b for d, b in unitary + gl)
        if half != n:
            raise InvariantError(f"{poly} factors into half-dimension {half}, not {n}: {factors}")
        tally[shape] += 1
    return tally


def self_reciprocal_irreducible_census(field: FiniteField, two_n: int) -> int:
    """Exhaustive count of self-reciprocal irreducible monic polynomials of
    even degree two_n."""
    if two_n < 2 or two_n % 2:
        raise ValueError("degree must be even and at least 2")
    return sum(1 for poly in _palindromes(field, two_n // 2) if field.is_irreducible(poly))
