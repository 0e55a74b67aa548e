"""Function-field curve data: base field size, Weil numerator, marked places.

A curve datum holds q, the numerator P(t) of the curve's zeta function with
P(0) = 1 and even degree, and two lists of marked place degrees (splitting
places S, twisting places T).  Base change to the degree-m extension raises
q to the m-th power, powers the inverse roots of P, and splits each place of
degree d into gcd(d, m) places of degree d / gcd(d, m).

The determinant quotient h0_quotient_factors, its product in x
h0_quotient_in_x and the determinant h0_det depend on the place degrees and
the motive, never on q, so each is built once per key and memoized by
value: the key is the degree tuple, the frozen ArtinTateMotive and, for
h0_quotient_in_x, the power of x put for t, for h0_det the names of t and
q.  All are assembled from place factors, which depend only on a piece's
characteristic polynomial, the place degree and whether the place is the
first one, and are memoized on that key (_place_factor): the pieces of SL,
Sp, GL and U share a handful of characteristic polynomials, so each factor
is built once however many degree tuples and motives use it.
charpoly_of_power is memoized by value too.  Each memo holds one entry per
distinct key and is never evicted; the values are tuples and immutable
polynomials, so a caller cannot change what another reads.

A curve datum keeps its Weil reciprocal from construction, outside
equality and hashing, and a base change, whose field size and numerator
satisfy the checks by construction, is built without checking them again.
"""
from __future__ import annotations

import dataclasses
import functools
import math
from typing import TYPE_CHECKING, Iterable

from .exactalg import IntPolynomial, SymbolicPolynomial, prime_power, root_power_transform

if TYPE_CHECKING:
    from .motives import ArtinTateMotive


@dataclasses.dataclass(frozen=True)
class CurveDatum:
    q: int
    weil_numerator: IntPolynomial
    s_degrees: tuple[int, ...]
    t_degrees: tuple[int, ...]
    # t^deg * P(1/t), kept from construction; it follows from the fields
    _reciprocal: IntPolynomial = dataclasses.field(init=False, repr=False, compare=False)

    def __init__(self, q: int, weil_numerator, s_degrees: Iterable[int], t_degrees: Iterable[int] = ()):
        if q < 2:
            raise ValueError("base field size must be at least 2")
        # no size cap: base change takes q to q^m
        prime_power(q)
        p = weil_numerator if isinstance(weil_numerator, IntPolynomial) else IntPolynomial(weil_numerator)
        if p.is_zero() or p.coeffs[0] != 1:
            raise ValueError("Weil numerator must have constant term 1")
        if p.degree % 2:
            raise ValueError("Weil numerator must have even degree")
        g = p.degree // 2
        if any(p.coeffs[2 * g - i] != q ** (g - i) * p.coeffs[i] for i in range(g)):
            raise ValueError("Weil numerator breaks the functional equation P(t) = q^g t^(2g) P(1/(qt))")
        s = tuple(s_degrees)
        t = tuple(t_degrees)
        if not s:
            raise ValueError("at least one splitting place is required")
        if min(s + t) < 1:
            raise ValueError("place degrees must be positive")
        self._set(q, p, s, t)

    def _set(self, q: int, p: IntPolynomial, s: tuple[int, ...], t: tuple[int, ...]) -> None:
        for name, value in (("q", q), ("weil_numerator", p), ("s_degrees", s), ("t_degrees", t)):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_reciprocal", p.reversed_coeffs())

    @property
    def genus(self) -> int:
        return self.weil_numerator.degree // 2

    def weil_reciprocal(self) -> IntPolynomial:
        """Monic polynomial whose roots are the inverse roots of the Weil
        numerator: t^deg * P(1/t)."""
        return self._reciprocal

    def base_change(self, m: int) -> "CurveDatum":
        """Curve datum over the degree-m constant extension."""
        if m < 1:
            raise ValueError("extension degree must be positive")
        if m == 1:
            return self
        # nothing to check again: q^m is a prime power, the powered numerator
        # keeps its degree and constant term 1, and inverse roots paired as
        # l, q/l stay paired as l^m, q^m/l^m, so the functional equation holds
        out = object.__new__(type(self))
        out._set(
            self.q**m,
            charpoly_of_power(self.weil_numerator, m),
            _split_places(self.s_degrees, m),
            _split_places(self.t_degrees, m),
        )
        return out


def _split_places(degrees: tuple[int, ...], m: int) -> tuple[int, ...]:
    out: list[int] = []
    for d in degrees:
        g = math.gcd(d, m)
        out.extend([d // g] * g)
    return tuple(out)


@functools.cache
def charpoly_of_power(c: IntPolynomial, e: int) -> IntPolynomial:
    """Given c(u) with c(0) = 1 and inverse roots l_i, return the polynomial
    with constant term 1 whose inverse roots are l_i^e."""
    if e == 1:
        return c
    out = root_power_transform(c.reversed_coeffs(), e).reversed_coeffs()
    if out.coeffs[0] != 1:
        raise ArithmeticError("powered characteristic polynomial lost its normalization")
    return out


@functools.cache
def _place_factor(charpoly: IntPolynomial, e: int, first: bool) -> IntPolynomial:
    """The factor of the Frobenius determinant on global sections that a
    place of degree e gives a piece with characteristic polynomial c:
    c_e(U^e), c_e = charpoly_of_power(c, e) and U = t * q^(w-1) for the
    piece's weight w, divided by c(U) when the place is the first one."""
    f = charpoly_of_power(charpoly, e).substitute_power(e)
    return f / charpoly if first else f


def h0_quotient_factors(degrees: Iterable[int], motive: ArtinTateMotive) -> tuple[tuple[IntPolynomial, int], ...]:
    """h0_det(degrees) / h0_det((1,)) as factors (F, w), F a polynomial in
    U = t * q^(w-1) for the piece of weight w.  Since c_e(U^e) is the product
    of c(zeta * U) over the e-th roots of unity zeta, c(U) divides it: the
    first place, of degree e, gives c_e(U^e) / c(U) for each piece, and every
    other place gives c_e(U^e) whole.  Factors equal to 1 are left out.
    Without places the quotient 1 / h0_det((1,)) is not a polynomial, so an
    empty list raises ValueError."""
    return _h0_quotient_factors(tuple(degrees), motive)


@functools.cache
def _h0_quotient_factors(degrees: tuple[int, ...], motive: ArtinTateMotive) -> tuple[tuple[IntPolynomial, int], ...]:
    if not degrees:
        raise ValueError("the determinant quotient needs at least one place")
    out = []
    for i, e in enumerate(degrees):
        for p in motive.pieces:
            f = _place_factor(p.charpoly, e, i == 0)
            if f.degree > 0:
                out.append((f, p.weight))
    return tuple(out)


def h0_quotient_in_x(degrees: Iterable[int], motive: ArtinTateMotive, t_power: int) -> IntPolynomial:
    """The quotient of h0_quotient_factors at q = x and t = x^t_power, as
    one integer polynomial in x: the product of its factors F(U) at
    U = x^(t_power + w - 1), F(1) where that exponent is 0.  t_power = 0
    gives the splitting places' quotient at t = 1, t_power = 1 the twisting
    places' quotient at t = q."""
    return _h0_quotient_in_x(tuple(degrees), motive, t_power)


@functools.cache
def _h0_quotient_in_x(degrees: tuple[int, ...], motive: ArtinTateMotive, t_power: int) -> IntPolynomial:
    out = IntPolynomial((1,))
    for f, w in h0_quotient_factors(degrees, motive):
        k = t_power + w - 1
        out = out * (f.substitute_power(k) if k else f.evaluate(1))
    return out


def h0_factors(degrees: Iterable[int], motive: ArtinTateMotive, t="t", q="q") -> list[SymbolicPolynomial]:
    """The factors c_e(U^e) of the Frobenius determinant on global sections,
    one per place of degree e and piece (w, c), as polynomials in the
    variables named t and q, U^j becoming t^j * q^(j*(w-1)); an exponent
    out of range raises OverflowError before anything is multiplied."""
    out = []
    for e in degrees:
        for p in motive.pieces:
            f = _place_factor(p.charpoly, e, False)
            out.append(SymbolicPolynomial((t, q), {(j, j * (p.weight - 1)): c for j, c in enumerate(f.coeffs) if c}))
    return out


def h0_det(degrees: Iterable[int], motive: ArtinTateMotive, t="t", q="q") -> SymbolicPolynomial:
    """Frobenius determinant on global sections over the listed places, in
    the variables named t and q."""
    return _h0_det(tuple(degrees), motive, t, q)


@functools.cache
def _h0_det(degrees: tuple[int, ...], motive: ArtinTateMotive, t: str, q: str) -> SymbolicPolynomial:
    return math.prod(h0_factors(degrees, motive, t, q), start=SymbolicPolynomial.constant(1))
