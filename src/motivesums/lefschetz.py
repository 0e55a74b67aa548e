"""Exponential-sum functions with exact cyclotomic values.

A Lefschetz-type function is a finite sum m -> sum_i n_i * alpha_i^m with
rational coefficients n_i, where each base alpha_i is a root of unity times
a nonzero rational, as a Frobenius weight q^w times a root of unity is.  A
base is held as the pair (r, a) with alpha = r * e^(2 pi i a), r > 0 and
a in [0, 1) both Fractions, so the algebra of functions works on radii and
angles alone, and a base that is not of this form raises ValueError.

Values live in Q(zeta_N), held by CyclotomicRational as integer coordinates
over the power basis modulo the N-th cyclotomic polynomial with one positive
common denominator, so sums and products run in integer arithmetic and
equality, inverses and coordinate-wise integer divisibility are decidable.
Evaluating a function at m puts each term's c * r^m on the root
e^(2 pi i a m) and reduces modulo Phi_N once; an N whose reduction would
take more than REDUCTION_BUDGET steps raises BudgetError before any work,
and so does an inverse whose elimination would.
"""
from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import operator
from fractions import Fraction
from typing import Iterable, Union

from .exactalg import BudgetError, InvariantError, cyclotomic, dense_divmod, dense_mul, exact_quotient, factorize
from .exactalg import monic_head, power_by_squaring, rational_solution, shifted_rows

RationalLike = Union[int, Fraction]

# division steps allowed for one reduction modulo a cyclotomic polynomial,
# and for the elimination of one inverse
REDUCTION_BUDGET = 10**6


@functools.cache
def _check_reduction(n: int) -> None:
    """Raise BudgetError when reducing a length-n slot vector modulo Phi_n,
    (n - phi(n)) * phi(n) division steps, would exceed REDUCTION_BUDGET.

    The cost is n - 1 for a prime n, and at least n / sqrt(2) for a
    composite n, whose least prime factor p <= sqrt(n) gives
    n - phi(n) >= n / p >= sqrt(n), while phi(n) >= sqrt(n / 2).  So an n
    above 2 * REDUCTION_BUDGET is refused without factoring it, and phi(n)
    is found from the factorization below that."""
    if n <= 2 * REDUCTION_BUDGET:
        phi = n
        for p, _ in factorize(n):
            phi -= phi // p
        if (n - phi) * phi <= REDUCTION_BUDGET:
            return
    raise BudgetError(f"index {n}: one reduction modulo Phi_{n} exceeds {REDUCTION_BUDGET} steps")


@functools.cache
def _trace_weights(n: int) -> tuple[Fraction, ...]:
    """Tr(zeta_n^j)/phi(n) for 0 <= j < phi(n), which is mu(d)/phi(d) for
    the order d of zeta_n^j; mu(d) = -[x^(phi(d)-1)] Phi_d, the sum of the
    primitive d-th roots."""
    weights = []
    for j in range(len(cyclotomic(n).coeffs) - 1):
        phi_d = cyclotomic(n // math.gcd(n, j)).coeffs
        weights.append(Fraction(-phi_d[-2], len(phi_d) - 1))
    return tuple(weights)


@dataclasses.dataclass(frozen=True)
class CyclotomicRational:
    """Element num/den of Q(zeta_n): num holds integer coordinates over the
    power basis 1, zeta, ..., zeta^(phi(n)-1), reduced modulo the n-th
    cyclotomic polynomial, and den > 0 is one common denominator with
    gcd(den, *num) == 1.  The pair is unique, so at a common conductor
    equality is tuple equality.  The field operations run in integers:
    inverse is one fraction-free rational_solution, which forms a Fraction
    per coordinate only at its end."""

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
        """This element in Q(zeta_target), for a multiple target of its
        conductor; BudgetError, before Phi_target is built, when a reduction
        modulo it is over budget."""
        if target % self.conductor:
            raise ValueError("target conductor must be a multiple")
        if target == self.conductor:
            return self
        _check_reduction(target)
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
        """1 / self, the s with num * s = den modulo Phi_n: one rational
        solve whose columns are num * zeta^j, j < phi(n), the columns of
        multiplication by num.  Its elimination takes about phi(n)^3
        division steps, whatever num is, so BudgetError is raised before
        any work when that is over REDUCTION_BUDGET."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        n = self.conductor
        if len(self.num) ** 3 > REDUCTION_BUDGET:
            raise BudgetError(f"index {n}: one inverse modulo Phi_{n} exceeds {REDUCTION_BUDGET} steps")
        cols = shifted_rows(self.num, cyclotomic(n).coeffs[:-1])
        rows = zip(*itertools.islice(cols, len(self.num)), [self.den] + [0] * (len(self.num) - 1))
        try:
            s = rational_solution(rows)
        except ValueError as exc:
            raise InvariantError(f"multiplication by {self} is singular modulo Phi_{n}") from exc
        den = math.lcm(*(c.denominator for c in s))
        return CyclotomicRational(n, [int(c * den) for c in s], den)

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
        # the normalized trace Tr(x)/phi(n): promotion leaves it unchanged,
        # and on a rational it is the rational itself
        return hash(sum(map(operator.mul, _trace_weights(self.conductor), self.num)) / self.den)

    # -- predicates -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("element is not rational")
        return Fraction(self.num[0], self.den)

    def divided_exactly(self, k: int) -> "CyclotomicRational":
        """Divide by the integer k, which must leave integer coordinates;
        InexactDivision names the first coordinate numerator that k * den
        does not divide (with den > 1 there is one, as gcd(den, *num) == 1)."""
        return CyclotomicRational(self.conductor, [exact_quotient(c, k * self.den) for c in self.num])

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


@functools.cache
def _unit_angles(n: int) -> dict[tuple[int, ...], Fraction]:
    """Reduced integer coordinates of +-zeta_n^j for 0 <= j < n, each mapped
    to the angle a in [0, 1) with that root equal to e^(2 pi i a); the
    coordinates of zeta^j are the j-th shift of 1 modulo the monic Phi_n."""
    modulus = cyclotomic(n).coeffs
    powers = shifted_rows([1] + [0] * (len(modulus) - 2), modulus[:-1])
    angles: dict[tuple[int, ...], Fraction] = {}
    for j, coords in zip(range(n), powers):
        angle = Fraction(j, n)
        angles[tuple(coords)] = angle
        angles.setdefault(tuple(-c for c in coords), (angle + Fraction(1, 2)) % 1)
    return angles


def _polar(base: CyclotomicRational) -> tuple[Fraction, Fraction]:
    """The key (a, r) of a base r * e^(2 pi i a) with r > 0 rational and
    0 <= a < 1.  The primitive part of the coordinates, up to sign, must be a
    root of unity of the base's conductor."""
    g = math.gcd(*base.num)
    angle = _unit_angles(base.conductor).get(tuple(c // g for c in base.num)) if g else None
    if angle is None:
        raise ValueError(f"base {base} is not a root of unity times a nonzero rational")
    return angle, Fraction(g, base.den)


class LefschetzFunction:
    """Finite formal sum m -> sum c * base^m with rational coefficients c,
    where every base is a root of unity times a nonzero rational.

    A base is held as the key (a, r) with base = r * e^(2 pi i a), r > 0 and
    a in [0, 1), both Fractions: products add angles and multiply radii, and
    evaluate places c * r^m in slot a*N*m mod N of the N-th roots of unity,
    with N the lcm of the angle denominators, reducing modulo Phi_N once.
    Terms are merged on the key, zero terms dropped and the rest kept in one
    canonical order, so equality and hash follow the function.  A zero base is dropped
    as well (its powers vanish for m >= 1); any other base that is not a
    root of unity times a rational raises ValueError."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Iterable[tuple[RationalLike, CyclotomicRational]] = ()):
        pairs = ((Fraction(c), CyclotomicRational._coerce(b)) for c, b in terms)
        self._terms = _merged((_polar(b), c) for c, b in pairs if not b.is_zero())

    @classmethod
    def _from_items(cls, items) -> "LefschetzFunction":
        """The function with the given ((a, r), coefficient) items."""
        f = cls.__new__(cls)
        f._terms = _merged(items)
        return f

    @property
    def terms(self) -> tuple[tuple[Fraction, CyclotomicRational], ...]:
        """The (coefficient, base) pairs in canonical order, each base at
        the conductor of its angle (a read-only view)."""
        return tuple(
            (c, CyclotomicRational.root_of_unity(a.denominator, a.numerator) * r)
            for (a, r), c in self._terms
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, LefschetzFunction):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(self._terms)

    def __repr__(self) -> str:
        return f"LefschetzFunction({list(self.terms)!r})"

    # -- constructors ------------------------------------------------------

    @staticmethod
    def constant(v: RationalLike) -> "LefschetzFunction":
        return LefschetzFunction._from_items([((Fraction(0), Fraction(1)), Fraction(v))])

    @staticmethod
    def single(coeff: RationalLike, base) -> "LefschetzFunction":
        return LefschetzFunction([(coeff, base)])

    @staticmethod
    def chi(n: int) -> "LefschetzFunction":
        """The indicator-style function with chi(m) = n when n divides m and
        0 otherwise, realized with the n-th roots of unity as bases."""
        if n < 1:
            raise ValueError("chi index must be positive")
        _check_reduction(n)
        one = Fraction(1)
        return LefschetzFunction._from_items(((Fraction(j, n), one), one) for j in range(n))

    # -- ring structure ----------------------------------------------------

    def __add__(self, other: "LefschetzFunction") -> "LefschetzFunction":
        return LefschetzFunction._from_items(self._terms + other._terms)

    def __neg__(self) -> "LefschetzFunction":
        return LefschetzFunction._from_items((key, -c) for key, c in self._terms)

    def __sub__(self, other: "LefschetzFunction") -> "LefschetzFunction":
        return self + (-other)

    def __mul__(self, other: "LefschetzFunction") -> "LefschetzFunction":
        items = []
        for (a1, r1), c1 in self._terms:
            for (a2, r2), c2 in other._terms:
                a = a1 + a2
                items.append(((a - 1 if a >= 1 else a, r1 * r2), c1 * c2))
        return LefschetzFunction._from_items(items)

    def __pow__(self, n: int) -> "LefschetzFunction":
        if n < 0:
            raise ValueError("negative power")
        return power_by_squaring(self, n, operator.mul, LefschetzFunction.constant(1))

    def compose_scale(self, k: int) -> "LefschetzFunction":
        """The function m -> f(k*m): every base is raised to the k-th power,
        (a, r) -> (k*a mod 1, r^k)."""
        return LefschetzFunction._from_items(((a * k % 1, r**k), c) for (a, r), c in self._terms)

    def divided_exactly(self, k: int) -> "LefschetzFunction":
        """Divide by the integer k, which must leave integer coefficients;
        InexactDivision otherwise."""
        items = [(key, Fraction(exact_quotient(c.numerator, k * c.denominator))) for key, c in self._terms]
        return LefschetzFunction._from_items(items)

    def _index(self) -> int:
        """N, the lcm of the angle denominators."""
        return math.lcm(*(a.denominator for (a, _), _ in self._terms))

    def evaluate(self, m: int) -> CyclotomicRational:
        """f(m) in Q(zeta_N), N the lcm of the angle denominators: each term
        adds c * r^m to the coordinate of zeta_N^(a*N*m mod N).  Raises
        BudgetError when the reduction modulo Phi_N is over budget."""
        n = self._index()
        _check_reduction(n)
        e = abs(m)
        # (slot, numerator, denominator) of c * r^m, with r > 0; the
        # constructor cancels what the pairs share
        values = []
        for (a, r), c in self._terms:
            p, q = (r.numerator, r.denominator) if m >= 0 else (r.denominator, r.numerator)
            values.append((a.numerator * (n // a.denominator) * m % n, c.numerator * p**e, c.denominator * q**e))
        den = math.lcm(*(d for _, _, d in values))
        slots = [0] * n
        for i, num, d in values:
            slots[i] += num * (den // d)
        return CyclotomicRational(n, slots, den)

    def evaluate_rational(self, m: int) -> Fraction:
        return self.evaluate(m).as_rational()

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        return " + ".join(f"{c}*({b})^m" for c, b in self.terms)


def _merged(items) -> tuple:
    """The ((a, r), coefficient) items with equal keys merged, zero
    coefficients dropped and the rest in canonical order.  The dicts are
    keyed on the integer pairs of a and r, which hash far faster than
    Fractions do."""
    keys: dict[tuple[int, int, int, int], tuple[Fraction, Fraction]] = {}
    coeffs: dict[tuple[int, int, int, int], Fraction] = {}
    for key, c in items:
        a, r = key
        ident = a.numerator, a.denominator, r.numerator, r.denominator
        keys[ident] = key
        coeffs[ident] = coeffs.get(ident, 0) + c
    return tuple((keys[i], coeffs[i]) for i in sorted(coeffs) if coeffs[i])


def f_N_transform(f: LefschetzFunction, n: int) -> LefschetzFunction:
    """The transform sending f to m -> f(lcm(n, m))^gcd(n, m), built by the
    prime-power recursion f_(l^e) = g_(l^(e-1)) + chi(l^e) * h with
    g(m) = f(l*m) and l^e * h = f^(l^e) - g^(l^(e-1)), every division
    exact.  Raises BudgetError, before any work, when the result's values
    would need an over-budget reduction."""
    if n < 1:
        raise ValueError("transform index must be positive")
    _check_reduction(math.lcm(n, f._index()))
    result = f
    for p, e in factorize(n):
        result = _prime_power_transform(result, p, e)
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
    the degree-m extension; equals the product of the degree transforms.
    Raises BudgetError, before any work, when the product's values would
    need an over-budget reduction."""
    degrees = list(degrees)
    if any(d < 1 for d in degrees):
        raise ValueError("place degrees must be positive")
    _check_reduction(math.lcm(f._index(), *degrees))
    return math.prod((f_N_transform(f, d) for d in degrees), start=LefschetzFunction.constant(1))
