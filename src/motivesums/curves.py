"""Function-field curve data: base field size, Weil numerator, marked places.

A curve datum holds q, the numerator P(t) of the curve's zeta function with
P(0) = 1 and even degree, and two lists of marked place degrees (splitting
places S, twisting places T).  Base change to the degree-m extension raises
q to the m-th power, powers the inverse roots of P, and splits each place of
degree d into gcd(d, m) places of degree d / gcd(d, m).

The determinant quotient h0_quotient_factors and the determinant h0_det
depend on the place degrees and the motive, never on q, so each is built
once per key and memoized by value: the key is the degree tuple, the frozen
ArtinTateMotive and, for h0_det, the names of t and q.  Each memo holds one
entry per distinct key and is never evicted; the values are tuples and
immutable polynomials, so a caller cannot change what another reads.
"""
from __future__ import annotations

import dataclasses
import functools
import math
from typing import TYPE_CHECKING, Iterable, Iterator

from .exactalg import IntPolynomial, SymbolicPolynomial, prime_power, root_power_transform

if TYPE_CHECKING:
    from .motives import ArtinTateMotive, GradedPiece


@dataclasses.dataclass(frozen=True)
class CurveDatum:
    q: int
    weil_numerator: IntPolynomial
    s_degrees: tuple[int, ...]
    t_degrees: tuple[int, ...]

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
        if any(d < 1 for d in s + t):
            raise ValueError("place degrees must be positive")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "weil_numerator", p)
        object.__setattr__(self, "s_degrees", s)
        object.__setattr__(self, "t_degrees", t)

    @property
    def genus(self) -> int:
        return self.weil_numerator.degree // 2

    def weil_reciprocal(self) -> IntPolynomial:
        """Monic polynomial whose roots are the inverse roots of the Weil
        numerator: t^deg * P(1/t)."""
        return self.weil_numerator.reversed_coeffs()

    def base_change(self, m: int) -> "CurveDatum":
        """Curve datum over the degree-m constant extension."""
        if m < 1:
            raise ValueError("extension degree must be positive")
        if m == 1:
            return self
        return CurveDatum(
            q=self.q**m,
            weil_numerator=charpoly_of_power(self.weil_numerator, m),
            s_degrees=_split_places(self.s_degrees, m),
            t_degrees=_split_places(self.t_degrees, m),
        )


def _split_places(degrees: tuple[int, ...], m: int) -> tuple[int, ...]:
    out: list[int] = []
    for d in degrees:
        g = math.gcd(d, m)
        out.extend([d // g] * g)
    return tuple(out)


def charpoly_of_power(c: IntPolynomial, e: int) -> IntPolynomial:
    """Given c(u) with c(0) = 1 and inverse roots l_i, return the polynomial
    with constant term 1 whose inverse roots are l_i^e."""
    if e == 1:
        return c
    out = root_power_transform(c.reversed_coeffs(), e).reversed_coeffs()
    if out.coeffs[0] != 1:
        raise ArithmeticError("powered characteristic polynomial lost its normalization")
    return out


def _place_factors(degrees: Iterable[int], motive: ArtinTateMotive) -> Iterator[tuple[int, GradedPiece, IntPolynomial]]:
    """The factors of the Frobenius determinant on global sections over the
    listed places, as (place index, piece, c_e(U^e)) for a place of degree
    e and a piece (w, c), with c_e = charpoly_of_power(c, e) and
    U = t * q^(w-1)."""
    for i, e in enumerate(degrees):
        for p in motive.pieces:
            yield i, p, charpoly_of_power(p.charpoly, e).substitute_power(e)


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
    for i, p, f in _place_factors(degrees, motive):
        if i == 0:
            f = f / p.charpoly
        if f.degree > 0:
            out.append((f, p.weight))
    return tuple(out)


def h0_factors(degrees: Iterable[int], motive: ArtinTateMotive, t="t", q="q") -> list[SymbolicPolynomial]:
    """The factors c_e(U^e) of _place_factors as polynomials in the
    variables named t and q, U^j becoming t^j * q^(j*(w-1)); an exponent
    out of range raises OverflowError before anything is multiplied."""
    return [
        SymbolicPolynomial((t, q), {(j, j * (p.weight - 1)): c for j, c in enumerate(f.coeffs) if c})
        for _, p, f in _place_factors(degrees, motive)
    ]


def h0_det(degrees: Iterable[int], motive: ArtinTateMotive, t="t", q="q") -> SymbolicPolynomial:
    """Frobenius determinant on global sections over the listed places, in
    the variables named t and q."""
    return _h0_det(tuple(degrees), motive, t, q)


@functools.cache
def _h0_det(degrees: tuple[int, ...], motive: ArtinTateMotive, t: str, q: str) -> SymbolicPolynomial:
    return math.prod(h0_factors(degrees, motive, t, q), start=SymbolicPolynomial.constant(1))
