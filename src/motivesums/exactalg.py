"""
Exact polynomial arithmetic over the integers.

Univariate polynomials over the integers are dense tuples of coefficients in
ascending exponent order, so 1 - 2x + x^3 is IntPolynomial((1, -2, 0, 1)).
Multivariate polynomials are sparse: a tuple of variable names plus a map from
exponent vectors to nonzero integer coefficients.  All values are immutable
and all operations are pure, so everything here is safe to share across
threads.  The only shared mutable state is the cyclotomic memo table, which
functools.cache guards.
"""
from __future__ import annotations

import dataclasses
import functools
import itertools
import math
from fractions import Fraction
from typing import Iterable, Mapping, Union


class InexactDivision(ArithmeticError):
    """Raised when a division that must be exact leaves a remainder."""


class InvariantError(ArithmeticError):
    """Raised when an invariant of an exact computation fails, such as two
    routes to the same count disagreeing."""


@dataclasses.dataclass(frozen=True)
class IntPolynomial:
    coeffs: tuple[int, ...]

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    # -- basic structure -------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree of the leading term; the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> int:
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def content(self) -> int:
        return math.gcd(*self.coeffs) if self.coeffs else 0

    @staticmethod
    def constant(c: int) -> "IntPolynomial":
        return IntPolynomial((c,))

    # -- ring operations -------------------------------------------------

    def __add__(self, other: Union[int, "IntPolynomial"]) -> "IntPolynomial":
        o = other.coeffs if isinstance(other, IntPolynomial) else (other,)
        return IntPolynomial(a + b for a, b in itertools.zip_longest(self.coeffs, o, fillvalue=0))

    __radd__ = __add__

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial(-c for c in self.coeffs)

    def __sub__(self, other: Union[int, "IntPolynomial"]) -> "IntPolynomial":
        o = other if isinstance(other, IntPolynomial) else IntPolynomial((other,))
        return self + (-o)

    def __rsub__(self, other: int) -> "IntPolynomial":
        return IntPolynomial((other,)) - self

    def __mul__(self, other: Union[int, "IntPolynomial"]) -> "IntPolynomial":
        if isinstance(other, int):
            return IntPolynomial(c * other for c in self.coeffs)
        out = [0] * (len(self.coeffs) + len(other.coeffs))
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPolynomial(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "IntPolynomial":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = IntPolynomial((1,))
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other: "IntPolynomial") -> tuple["IntPolynomial", "IntPolynomial"]:
        """Division with integer-exact steps; raises InexactDivision when a
        leading coefficient fails to divide."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        quo: list[int] = [0] * max(0, self.degree - other.degree + 1)
        rem = list(self.coeffs)
        d = other.degree
        lc = other.coeffs[-1]
        while len(rem) - 1 >= d and any(rem):
            while rem and rem[-1] == 0:
                rem.pop()
            if len(rem) - 1 < d:
                break
            head, r = divmod(rem[-1], lc)
            if r:
                raise InexactDivision(f"{rem[-1]} not divisible by {lc}")
            shift = len(rem) - 1 - d
            quo[shift] = head
            for j, b in enumerate(other.coeffs):
                rem[shift + j] -= head * b
        return IntPolynomial(quo), IntPolynomial(rem)

    def __truediv__(self, other: "IntPolynomial") -> "IntPolynomial":
        q, r = divmod(self, other)
        if not r.is_zero():
            raise InexactDivision(f"{self} is not divisible by {other}")
        return q

    # -- calculus and transforms ------------------------------------------

    def derivative(self) -> "IntPolynomial":
        return IntPolynomial(i * c for i, c in enumerate(self.coeffs) if i)

    def evaluate(self, value):
        """Evaluate at an int, Fraction, or polynomial argument."""
        acc = value * 0
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    def substitute_power(self, d: int) -> "IntPolynomial":
        """Return p(x^d)."""
        if d < 1:
            raise ValueError("power must be positive")
        out = [0] * (len(self.coeffs) * d)
        for i, c in enumerate(self.coeffs):
            out[i * d] = c
        return IntPolynomial(out)

    def reversed_coeffs(self) -> "IntPolynomial":
        """Return x^deg * p(1/x)."""
        return IntPolynomial(tuple(reversed(self.coeffs)))

    def __str__(self) -> str:
        return format_univariate(self.coeffs, "x")


def format_univariate(coeffs, var: str) -> str:
    if not any(coeffs):
        return "0"
    parts = []
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        mag = abs(c)
        if i == 0:
            body = str(mag)
        else:
            vp = var if i == 1 else f"{var}^{i}"
            body = vp if mag == 1 else f"{mag}*{vp}"
        if not parts:
            parts.append(("-" if c < 0 else "") + body)
        else:
            parts.append((" - " if c < 0 else " + ") + body)
    return "".join(parts)


@functools.cache
def cyclotomic(n: int) -> IntPolynomial:
    """The n-th cyclotomic polynomial, by recursive exact division of
    x^n - 1 by the lower cyclotomics."""
    if n < 1:
        raise ValueError("cyclotomic index must be positive")
    poly = IntPolynomial((-1,) + (0,) * (n - 1) + (1,))
    for d in range(1, n):
        if n % d == 0:
            poly = poly / cyclotomic(d)
    return poly


def poly_gcd(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """Greatest common divisor over Z, primitive with positive leading
    coefficient, via the primitive PRS."""
    if a.is_zero():
        return _positive_primitive(b)
    if b.is_zero():
        return _positive_primitive(a)
    ca, cb = a.content(), b.content()
    a = IntPolynomial(c // ca for c in a.coeffs)
    b = IntPolynomial(c // cb for c in b.coeffs)
    while not b.is_zero():
        r = _pseudo_rem(a, b)
        a, b = b, _positive_primitive(r) if not r.is_zero() else IntPolynomial()
    g = _positive_primitive(a)
    return IntPolynomial(c * math.gcd(ca, cb) for c in g.coeffs)


def _positive_primitive(p: IntPolynomial) -> IntPolynomial:
    if p.is_zero():
        return p
    c = p.content()
    if p.leading() < 0:
        c = -c
    return IntPolynomial(x // c for x in p.coeffs)


def _pseudo_rem(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    if a.degree < b.degree:
        return a
    scale = b.leading() ** (a.degree - b.degree + 1)
    _, r = divmod(a * scale, b)
    return r


def resultant(p: IntPolynomial, q: IntPolynomial) -> int:
    """Resultant by the subresultant PRS; equals the Sylvester determinant."""
    if p.is_zero() or q.is_zero():
        raise ValueError("resultant of the zero polynomial is undefined")
    if p.degree == 0:
        return p.coeffs[0] ** q.degree
    if q.degree == 0:
        return q.coeffs[0] ** p.degree
    s = 1
    if p.degree < q.degree:
        if p.degree % 2 and q.degree % 2:
            s = -s
        p, q = q, p
    a = p.content()
    b = q.content()
    t = s * a ** q.degree * b ** p.degree
    A = IntPolynomial(c // a for c in p.coeffs)
    B = IntPolynomial(c // b for c in q.coeffs)
    g = h = 1
    s = 1
    while True:
        delta = A.degree - B.degree
        if A.degree % 2 and B.degree % 2:
            s = -s
        R = _pseudo_rem(A, B)
        A = B
        if R.is_zero():
            if A.degree > 0:
                return 0
            break
        B = IntPolynomial(c // (g * h**delta) for c in R.coeffs)
        g = A.leading()
        if delta > 0:
            num = g**delta
            h = num // h ** (delta - 1) if delta > 1 else num
        if B.degree <= 0:
            # one more step to fold the final constant in
            delta = A.degree - B.degree
            if A.degree % 2 and B.degree % 2:
                s = -s
            res = B.coeffs[0] ** A.degree
            res //= h ** (A.degree - 1) if A.degree > 1 else 1
            return s * t * res


def _bareiss_det(m: list[list[int]]) -> int:
    """Exact integer determinant (fraction-free Gaussian elimination)."""
    n = len(m)
    if n == 0:
        return 1
    m = [row[:] for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def root_power_transform(w: IntPolynomial, m: int) -> IntPolynomial:
    """Monic polynomial whose root multiset is the m-th powers of the roots
    of the monic polynomial w; the degree is preserved.

    Computed as the characteristic polynomial of the m-th power of the
    companion matrix, recovered by exact interpolation of integer
    determinants.
    """
    if m < 1:
        raise ValueError("power must be positive")
    if w.is_zero():
        raise ValueError("zero polynomial has no root multiset")
    if w.leading() == -1:
        w = -w
    if not w.is_monic():
        raise ValueError("polynomial must be monic up to sign")
    d = w.degree
    if d == 0:
        return IntPolynomial((1,))
    if m == 1:
        return w
    comp = [[0] * d for _ in range(d)]
    for i in range(1, d):
        comp[i][i - 1] = 1
    for i in range(d):
        comp[i][d - 1] = -w.coeffs[i]
    mat = _mat_pow(comp, m)
    points = []
    for x0 in range(d + 1):
        shifted = [[(x0 if i == j else 0) - mat[i][j] for j in range(d)] for i in range(d)]
        points.append((x0, _bareiss_det(shifted)))
    poly = _interpolate_integer(points)
    if poly.degree != d or not poly.is_monic():
        raise ArithmeticError("interpolated characteristic polynomial is malformed")
    return poly


def _mat_pow(m: list[list[int]], e: int) -> list[list[int]]:
    n = len(m)
    result = [[int(i == j) for j in range(n)] for i in range(n)]
    base = m
    while e:
        if e & 1:
            result = _mat_mul(result, base)
        base = _mat_mul(base, base)
        e >>= 1
    return result


def _mat_mul(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def _interpolate_integer(points: list[tuple[int, int]]) -> IntPolynomial:
    acc = [Fraction(0)] * len(points)
    for xi, yi in points:
        basis = [Fraction(1)]
        denom = Fraction(1)
        for xj, _ in points:
            if xj == xi:
                continue
            basis = [Fraction(0)] + basis[:]
            low = [-xj * c for c in basis[1:]] + [Fraction(0)]
            basis = [a + b for a, b in zip(basis, low + [Fraction(0)] * (len(basis) - len(low)))]
            denom *= xi - xj
        for k, c in enumerate(basis):
            acc[k] += yi * c / denom
    out = []
    for c in acc:
        if c.denominator != 1:
            raise ArithmeticError("interpolation produced a non-integer coefficient")
        out.append(int(c))
    return IntPolynomial(out)


# ---------------------------------------------------------------------------
# sparse multivariate polynomials
# ---------------------------------------------------------------------------

Scalar = Union[int, "SymbolicPolynomial"]


class SymbolicPolynomial:
    """Sparse polynomial over Z in named variables.

    Variables keep their creation order for printing; equality ignores the
    order and any unused variables.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, vars: tuple[str, ...] = (), terms: Mapping[tuple[int, ...], int] | None = None):
        clean = {e: c for e, c in (terms or {}).items() if c != 0}
        used = [i for i in range(len(vars)) if any(e[i] for e in clean)]
        if len(used) != len(vars):
            vars = tuple(vars[i] for i in used)
            clean = {tuple(e[i] for i in used): c for e, c in clean.items()}
        object.__setattr__(self, "vars", vars)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *a):  # immutable
        raise AttributeError("SymbolicPolynomial is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def constant(c: int) -> "SymbolicPolynomial":
        return SymbolicPolynomial((), {(): c} if c else {})

    @staticmethod
    def variable(name: str) -> "SymbolicPolynomial":
        return SymbolicPolynomial((name,), {(1,): 1})

    @staticmethod
    def from_int_poly(p: IntPolynomial, var: str) -> "SymbolicPolynomial":
        return SymbolicPolynomial((var,), {(i,): c for i, c in enumerate(p.coeffs) if c})

    # -- structure ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.vars

    def constant_value(self) -> int:
        if self.vars:
            raise ValueError("polynomial is not constant")
        return self.terms.get((), 0)

    def content(self) -> int:
        return math.gcd(*self.terms.values()) if self.terms else 0

    def _canonical(self) -> dict:
        return {
            frozenset((v, e) for v, e in zip(self.vars, exps) if e): c
            for exps, c in self.terms.items()
        }

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = SymbolicPolynomial.constant(other)
        if not isinstance(other, SymbolicPolynomial):
            return NotImplemented
        return self._canonical() == other._canonical()

    def __hash__(self):
        return hash(frozenset((k, c) for k, c in self._canonical().items()))

    # -- arithmetic ----------------------------------------------------------

    def _aligned(self, other: "SymbolicPolynomial"):
        if self.vars == other.vars:
            return self.vars, self.terms, other.terms
        names = self.vars + tuple(v for v in other.vars if v not in self.vars)
        idx = {v: i for i, v in enumerate(names)}

        def remap(p: "SymbolicPolynomial"):
            pos = [idx[v] for v in p.vars]
            out = {}
            for exps, c in p.terms.items():
                key = [0] * len(names)
                for p_i, e in zip(pos, exps):
                    key[p_i] = e
                out[tuple(key)] = c
            return out

        return names, remap(self), remap(other)

    @staticmethod
    def _coerce(v) -> "SymbolicPolynomial":
        if isinstance(v, SymbolicPolynomial):
            return v
        if isinstance(v, int):
            return SymbolicPolynomial.constant(v)
        raise TypeError(f"cannot coerce {v!r} to SymbolicPolynomial")

    def __add__(self, other) -> "SymbolicPolynomial":
        other = self._coerce(other)
        names, a, b = self._aligned(other)
        out = dict(a)
        for e, c in b.items():
            out[e] = out.get(e, 0) + c
        return SymbolicPolynomial(names, out)

    __radd__ = __add__

    def __neg__(self) -> "SymbolicPolynomial":
        return SymbolicPolynomial(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "SymbolicPolynomial":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "SymbolicPolynomial":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "SymbolicPolynomial":
        if isinstance(other, int):
            return SymbolicPolynomial(self.vars, {e: c * other for e, c in self.terms.items()})
        other = self._coerce(other)
        names, a, b = self._aligned(other)
        out: dict = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                key = tuple(x + y for x, y in zip(ea, eb))
                out[key] = out.get(key, 0) + ca * cb
        return SymbolicPolynomial(names, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "SymbolicPolynomial":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = SymbolicPolynomial.constant(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- substitution and evaluation -----------------------------------------

    def substitute(self, mapping: Mapping[str, Scalar]) -> "SymbolicPolynomial":
        """Ring homomorphism sending named variables to integers or
        polynomials; unmentioned variables stay put."""
        cache: dict[tuple[str, int], SymbolicPolynomial] = {}

        def power(v: str, e: int) -> SymbolicPolynomial:
            key = (v, e)
            if key not in cache:
                base = mapping.get(v)
                base = SymbolicPolynomial.variable(v) if base is None else self._coerce(base)
                cache[key] = base**e
            return cache[key]

        acc = SymbolicPolynomial.constant(0)
        for exps, c in self.terms.items():
            term = SymbolicPolynomial.constant(c)
            for v, e in zip(self.vars, exps):
                if e:
                    term = term * power(v, e)
            acc = acc + term
        return acc

    def scale_exponents(self, factor: int, names: Iterable[str] | None = None) -> "SymbolicPolynomial":
        """Replace each listed variable v by v^factor (all variables when
        names is None)."""
        which = set(self.vars if names is None else names)
        mask = [factor if v in which else 1 for v in self.vars]
        return SymbolicPolynomial(
            self.vars, {tuple(e * m for e, m in zip(exps, mask)): c for exps, c in self.terms.items()}
        )

    def evaluate(self, assignment: Mapping[str, Union[int, Fraction]]) -> Fraction:
        missing = [v for v in self.vars if v not in assignment]
        if missing:
            raise KeyError(f"missing assignment for variables {missing}")
        total = Fraction(0)
        for exps, c in self.terms.items():
            val = Fraction(c)
            for v, e in zip(self.vars, exps):
                if e:
                    val *= Fraction(assignment[v]) ** e
            total += val
        return total

    def derivative(self, var: str) -> "SymbolicPolynomial":
        if var not in self.vars:
            return SymbolicPolynomial.constant(0)
        i = self.vars.index(var)
        out = {}
        for exps, c in self.terms.items():
            if exps[i]:
                key = exps[:i] + (exps[i] - 1,) + exps[i + 1:]
                out[key] = out.get(key, 0) + c * exps[i]
        return SymbolicPolynomial(self.vars, out)

    # -- division ----------------------------------------------------------

    def degree_in(self, var: str) -> int:
        if var not in self.vars or not self.terms:
            return 0 if self.terms else -1
        i = self.vars.index(var)
        return max(e[i] for e in self.terms)

    def coefficient_in(self, var: str, power: int) -> "SymbolicPolynomial":
        if var not in self.vars:
            return self if power == 0 else SymbolicPolynomial.constant(0)
        i = self.vars.index(var)
        names = self.vars[:i] + self.vars[i + 1:]
        out = {}
        for exps, c in self.terms.items():
            if exps[i] == power:
                out[exps[:i] + exps[i + 1:]] = c
        return SymbolicPolynomial(names, out)

    def divrem(self, divisor: "SymbolicPolynomial", var: str) -> tuple["SymbolicPolynomial", "SymbolicPolynomial"]:
        """Long division in one variable, done row by row.

        Both polynomials are grouped into rows by their degree in var, over
        one aligned variable order: this polynomial's variables, then the
        divisor's new ones.  Each head row of the remainder is divided by the
        divisor's leading coefficient in var, which must be a constant or a
        single signed monomial, and that quotient row times the divisor's
        lower rows is subtracted in place from the rows below.  Every
        monomial and integer division must be exact; otherwise
        InexactDivision is raised.

        The quotient lists its variables in order of first use, walking its
        rows from the highest power of var down, with each row's coefficient
        variables (in the aligned order) before var itself.  The remainder
        keeps the aligned order.
        """
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        names, num, den = self._aligned(divisor)
        if var not in names:
            names += (var,)
            num = {e + (0,): c for e, c in num.items()}
            den = {e + (0,): c for e, c in den.items()}
        k = names.index(var)
        others = names[:k] + names[k + 1:]
        rows = _rows_by_degree(num, k)
        drows = _rows_by_degree(den, k)
        ddeg = max(drows)
        if len(drows[ddeg]) != 1:
            raise InexactDivision("leading coefficient of divisor is not a monomial")
        ((lexp, lc),) = drows.pop(ddeg).items()
        lower = list(drows.items())
        quo_rows = []
        for rdeg in range(max(rows, default=-1), ddeg - 1, -1):
            head = rows.pop(rdeg, None)
            if not head:
                continue
            qrow = {}
            for exps, c in head.items():
                key = tuple([e - f for e, f in zip(exps, lexp)])
                if any(e < 0 for e in key):
                    raise InexactDivision("monomial does not divide a dividend term")
                q, r = divmod(c, lc)
                if r:
                    raise InexactDivision(f"{c} not divisible by {lc}")
                qrow[key] = q
            shift = rdeg - ddeg
            quo_rows.append((shift, qrow))
            for d, drow in lower:
                target = rows.setdefault(shift + d, {})
                for qe, qc in qrow.items():
                    for de, dc in drow.items():
                        key = tuple([e + f for e, f in zip(qe, de)])
                        v = target.get(key, 0) - qc * dc
                        if v:
                            target[key] = v
                        else:
                            del target[key]
        rem = {e[:k] + (d,) + e[k:]: c for d, row in rows.items() for e, c in row.items()}

        # Printing follows this order, and printed certificates must stay
        # byte-identical from one version to the next.
        order: list[str] = []
        for shift, qrow in quo_rows:
            order += [v for i, v in enumerate(others) if v not in order and any(e[i] for e in qrow)]
            if shift and var not in order:
                order.append(var)
        src = [len(others) if v == var else others.index(v) for v in order]
        quo = {}
        for shift, qrow in quo_rows:
            for exps, c in qrow.items():
                full = exps + (shift,)
                quo[tuple([full[i] for i in src])] = c
        return SymbolicPolynomial(tuple(order), quo), SymbolicPolynomial(names, rem)

    def exact_div(self, divisor: "SymbolicPolynomial", var: str) -> "SymbolicPolynomial":
        q, r = self.divrem(divisor, var)
        if not r.is_zero():
            raise InexactDivision(f"inexact division in {var}: remainder {r}")
        return q

    def map_coefficients(self, fn) -> "SymbolicPolynomial":
        return SymbolicPolynomial(self.vars, {e: fn(c) for e, c in self.terms.items()})

    # -- printing ------------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        keys = sorted(self.terms, key=lambda e: (sum(e), e))
        parts = []
        for exps in keys:
            c = self.terms[exps]
            mag = abs(c)
            factors = []
            for v, e in zip(self.vars, exps):
                if e == 1:
                    factors.append(v)
                elif e > 1:
                    factors.append(f"{v}^{e}")
            if not factors:
                body = str(mag)
            else:
                body = "*".join(factors)
                if mag != 1:
                    body = f"{mag}*{body}"
            if not parts:
                parts.append(("-" if c < 0 else "") + body)
            else:
                parts.append((" - " if c < 0 else " + ") + body)
        return "".join(parts)

    def __repr__(self) -> str:
        return f"SymbolicPolynomial('{self}')"


def _rows_by_degree(terms: Mapping[tuple[int, ...], int], k: int) -> dict[int, dict]:
    """Group terms by their k-th exponent, dropping that exponent from the keys."""
    rows: dict[int, dict] = {}
    for exps, c in terms.items():
        rows.setdefault(exps[k], {})[exps[:k] + exps[k + 1:]] = c
    return rows


def to_int_poly(p: SymbolicPolynomial, var: str) -> IntPolynomial:
    if p.vars not in ((), (var,)):
        raise ValueError(f"polynomial is not univariate in {var}")
    if not p.vars:
        return IntPolynomial((p.constant_value(),))
    d = p.degree_in(var)
    return IntPolynomial(tuple(p.terms.get((i,), 0) for i in range(d + 1)))
