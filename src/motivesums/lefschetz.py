"""Exponential-sum functions with exact cyclotomic bases.

A Lefschetz-type function is a finite sum m -> sum_i n_i * alpha_i^m with
rational coefficients n_i and bases alpha_i lying in some cyclotomic field
extended by rational scalars.  The algebra here keeps everything exact:
a base is an element of Q(zeta_N) held as integer coordinates over the power
basis modulo the N-th cyclotomic polynomial, with one positive common
denominator, so products and sums run in integer arithmetic and equality,
inverses and coordinate-wise integer divisibility are all decidable.
"""
from __future__ import annotations

import dataclasses
import itertools
import math
import operator
from fractions import Fraction
from typing import Iterable, Union

from .exactalg import cyclotomic, dense_divmod, dense_mul, monic_head, power_by_squaring

RationalLike = Union[int, Fraction]


def _poly_ext_gcd(a: tuple[Fraction, ...], b: tuple[Fraction, ...]):
    """Return (g, s) with s*a = g mod b, g the monic gcd."""
    r0, r1 = a, b
    s0, s1 = [Fraction(1)], []
    while r1:
        q, rem = dense_divmod(r0, r1, operator.sub, operator.mul, operator.truediv)
        r0, r1 = r1, rem
        diff = itertools.zip_longest(s0, dense_mul(q, s1, operator.add, operator.mul), fillvalue=0)
        s0, s1 = s1, [x - y for x, y in diff]
    if not r0:
        raise ZeroDivisionError("gcd of zero polynomials")
    lead = r0[-1]
    return [c / lead for c in r0], [c / lead for c in s0]


@dataclasses.dataclass(frozen=True)
class CyclotomicRational:
    """Element num/den of Q(zeta_n): num holds integer coordinates over the
    power basis 1, zeta, ..., zeta^(phi(n)-1), reduced modulo the n-th
    cyclotomic polynomial, and den > 0 is one common denominator with
    gcd(den, *num) == 1.  The pair is unique, so at a common conductor
    equality is tuple equality.  Only inverse leaves the integers, for its
    extended gcd over Q."""

    conductor: int
    num: tuple[int, ...]
    den: int

    def __init__(self, conductor: int, num: Iterable[int], den: int = 1):
        if conductor < 1 or den < 1:
            raise ValueError("conductor and denominator must be positive")
        modulus = cyclotomic(conductor).coeffs
        phi = len(modulus) - 1
        num = list(num)
        if len(num) > phi:
            num = dense_divmod(num, modulus, operator.sub, operator.mul, monic_head)[1]
        g = math.gcd(den, *num)
        if g != 1:
            num = [c // g for c in num]
        object.__setattr__(self, "conductor", conductor)
        object.__setattr__(self, "num", tuple(num) + (0,) * (phi - len(num)))
        object.__setattr__(self, "den", den // g)

    @property
    def coords(self) -> tuple[Fraction, ...]:
        """The power-basis coordinates as Fractions (a read-only view)."""
        return tuple(Fraction(c, self.den) for c in self.num)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_rational(v: RationalLike) -> "CyclotomicRational":
        v = Fraction(v)
        return CyclotomicRational(1, (v.numerator,), v.denominator)

    @staticmethod
    def root_of_unity(n: int, k: int = 1) -> "CyclotomicRational":
        return CyclotomicRational(n, [0] * (k % n) + [1])

    # -- coercion ------------------------------------------------------------

    @staticmethod
    def _coerce(v) -> "CyclotomicRational":
        if isinstance(v, CyclotomicRational):
            return v
        if isinstance(v, (int, Fraction)):
            return CyclotomicRational.from_rational(v)
        raise TypeError(f"cannot coerce {v!r}")

    def promoted(self, target: int) -> "CyclotomicRational":
        if target % self.conductor:
            raise ValueError("target conductor must be a multiple")
        if target == self.conductor:
            return self
        step = target // self.conductor
        out = [0] * ((len(self.num) - 1) * step + 1)
        out[::step] = self.num
        return CyclotomicRational(target, out, self.den)

    def _common(self, other: "CyclotomicRational"):
        n = math.lcm(self.conductor, other.conductor)
        return self.promoted(n), other.promoted(n)

    # -- field operations ------------------------------------------------------

    def __add__(self, other) -> "CyclotomicRational":
        a, b = self._common(self._coerce(other))
        num = [x * b.den + y * a.den for x, y in zip(a.num, b.num)]
        return CyclotomicRational(a.conductor, num, a.den * b.den)

    __radd__ = __add__

    def __neg__(self) -> "CyclotomicRational":
        return CyclotomicRational(self.conductor, [-c for c in self.num], self.den)

    def __sub__(self, other) -> "CyclotomicRational":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "CyclotomicRational":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "CyclotomicRational":
        if isinstance(other, (int, Fraction)):
            other = Fraction(other)
            num = [c * other.numerator for c in self.num]
            return CyclotomicRational(self.conductor, num, self.den * other.denominator)
        a, b = self._common(self._coerce(other))
        return CyclotomicRational(a.conductor, dense_mul(a.num, b.num, operator.add, operator.mul), a.den * b.den)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "CyclotomicRational":
        if n < 0:
            return self.inverse() ** (-n)
        return power_by_squaring(self, n, operator.mul, CyclotomicRational.from_rational(1))

    def inverse(self) -> "CyclotomicRational":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        modulus = cyclotomic(self.conductor).coeffs
        g, s = _poly_ext_gcd([Fraction(c) for c in self.num], [Fraction(c) for c in modulus])
        if len(g) != 1:
            raise ArithmeticError("element is a zero divisor; cyclotomic modulus not coprime")
        # s * num = 1 modulo Phi_n, so (num/den)^-1 = den * s
        s = [c * self.den for c in s]
        den = math.lcm(*(c.denominator for c in s))
        return CyclotomicRational(self.conductor, [int(c * den) for c in s], den)

    def __truediv__(self, other) -> "CyclotomicRational":
        return self * self._coerce(other).inverse()

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = CyclotomicRational.from_rational(other)
        if not isinstance(other, CyclotomicRational):
            return NotImplemented
        a, b = self._common(other)
        return a.num == b.num and a.den == b.den

    def __hash__(self):
        return hash(self.as_rational()) if self.is_rational() else hash((self.conductor, self.num, self.den))

    # -- predicates -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("element is not rational")
        return Fraction(self.num[0], self.den)

    def is_integral(self) -> bool:
        """True when all power-basis coordinates are integers (the power
        basis is an integral basis for cyclotomic fields)."""
        return self.den == 1

    def divided_exactly(self, k: int) -> "CyclotomicRational":
        """Divide by the integer k, asserting coordinate-wise divisibility."""
        if self.den != 1 or any(c % k for c in self.num):
            bad = next(c for c in self.coords if c.denominator != 1 or c.numerator % k)
            raise ArithmeticError(f"coordinate {bad} not divisible by {k}")
        return CyclotomicRational(self.conductor, [c // k for c in self.num])

    def __str__(self) -> str:
        if self.is_rational():
            return str(self.coords[0])
        parts = []
        for i, c in enumerate(self.coords):
            if c == 0:
                continue
            z = "" if i == 0 else (f"z{self.conductor}" if i == 1 else f"z{self.conductor}^{i}")
            parts.append(f"{c}" + (f"*{z}" if z else ""))
        return " + ".join(parts)


ZERO = CyclotomicRational.from_rational(0)
ONE = CyclotomicRational.from_rational(1)


@dataclasses.dataclass(frozen=True)
class LefschetzFunction:
    """Finite formal sum of (coefficient, base) pairs over cyclotomic
    rationals, evaluated as m -> sum coeff * base^m.  Terms with equal bases
    are merged and zero terms dropped."""

    terms: tuple[tuple[Fraction, CyclotomicRational], ...]

    def __init__(self, terms: Iterable[tuple[RationalLike, CyclotomicRational]] = ()):
        pending = [(Fraction(c), b) for c, b in terms]
        pending = [(c, b) for c, b in pending if c != 0 and not b.is_zero()]
        common = math.lcm(*(b.conductor for _, b in pending)) if pending else 1
        merged: dict[tuple[tuple[int, ...], int], tuple[Fraction, CyclotomicRational]] = {}
        for coeff, base in pending:
            promoted = base.promoted(common)
            key = promoted.num, promoted.den
            if key in merged:
                c0, b0 = merged[key]
                merged[key] = (c0 + coeff, b0)
            else:
                merged[key] = (coeff, base)
        object.__setattr__(
            self, "terms", tuple((c, b) for c, b in merged.values() if c != 0)
        )

    # -- constructors ------------------------------------------------------

    @staticmethod
    def constant(v: RationalLike) -> "LefschetzFunction":
        return LefschetzFunction([(Fraction(v), ONE)])

    @staticmethod
    def single(coeff: RationalLike, base) -> "LefschetzFunction":
        return LefschetzFunction([(Fraction(coeff), CyclotomicRational._coerce(base))])

    @staticmethod
    def chi(n: int) -> "LefschetzFunction":
        """The indicator-style function with chi(m) = n when n divides m and
        0 otherwise, realized with the n-th roots of unity as bases."""
        if n < 1:
            raise ValueError("chi index must be positive")
        return LefschetzFunction(
            [(Fraction(1), CyclotomicRational.root_of_unity(n, i)) for i in range(n)]
        )

    # -- ring structure ----------------------------------------------------

    def __add__(self, other: "LefschetzFunction") -> "LefschetzFunction":
        return LefschetzFunction(self.terms + other.terms)

    def __neg__(self) -> "LefschetzFunction":
        return LefschetzFunction([(-c, b) for c, b in self.terms])

    def __sub__(self, other: "LefschetzFunction") -> "LefschetzFunction":
        return self + (-other)

    def __mul__(self, other: "LefschetzFunction") -> "LefschetzFunction":
        return LefschetzFunction(
            [(c1 * c2, b1 * b2) for c1, b1 in self.terms for c2, b2 in other.terms]
        )

    def __pow__(self, n: int) -> "LefschetzFunction":
        if n < 0:
            raise ValueError("negative power")
        return power_by_squaring(self, n, operator.mul, LefschetzFunction.constant(1))

    def compose_scale(self, k: int) -> "LefschetzFunction":
        """The function m -> f(k*m): every base is raised to the k-th power."""
        return LefschetzFunction([(c, b**k) for c, b in self.terms])

    def divided_exactly(self, k: int) -> "LefschetzFunction":
        out = []
        for c, b in self.terms:
            if c.denominator != 1 or c.numerator % k:
                raise ArithmeticError(f"coefficient {c} not divisible by {k}")
            out.append((Fraction(c.numerator // k), b))
        return LefschetzFunction(out)

    def evaluate(self, m: int) -> CyclotomicRational:
        acc = ZERO
        for c, b in self.terms:
            acc = acc + b**m * c
        return acc

    def evaluate_rational(self, m: int) -> Fraction:
        return self.evaluate(m).as_rational()

    def is_integer_valued(self, up_to: int | None = None) -> bool:
        """Pointwise check that f(m) is a rational integer for
        m = 1 .. up_to (default: the number of terms)."""
        bound = up_to if up_to is not None else max(1, len(self.terms))
        for m in range(1, bound + 1):
            v = self.evaluate(m)
            if not v.is_rational() or v.as_rational().denominator != 1:
                return False
        return True

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(f"{c}*({b})^m" for c, b in self.terms)


def f_N_transform(f: LefschetzFunction, n: int) -> LefschetzFunction:
    """The transform sending f to m -> f(lcm(n, m))^gcd(n, m), built by the
    prime-power recursion f_(l^e) = g_(l^(e-1)) + chi(l^e) * h with
    g(m) = f(l*m) and l^e * h = f^(l^e) - g^(l^(e-1)), every division
    exact."""
    if n < 1:
        raise ValueError("transform index must be positive")
    result = f
    remaining = n
    p = 2
    while remaining > 1:
        if remaining % p == 0:
            e = 0
            while remaining % p == 0:
                remaining //= p
                e += 1
            result = _prime_power_transform(result, p, e)
        p += 1 if p == 2 else 2
    return result


def _prime_power_transform(f: LefschetzFunction, ell: int, e: int) -> LefschetzFunction:
    if e == 0:
        return f
    g = f.compose_scale(ell)
    tail = _prime_power_transform(g, ell, e - 1)
    h = (f ** (ell**e) - g ** (ell ** (e - 1))).divided_exactly(ell**e)
    return tail + LefschetzFunction.chi(ell**e) * h


def place_product(f: LefschetzFunction, degrees: Iterable[int]) -> LefschetzFunction:
    """For a multiset of place degrees, the function
    m -> product over places v of f(m * deg w) over the places w above v in
    the degree-m extension; equals the product of the degree transforms."""
    acc = LefschetzFunction.constant(1)
    for d in degrees:
        acc = acc * f_N_transform(f, d)
    return acc
