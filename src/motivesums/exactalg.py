"""
Exact polynomial arithmetic.

Univariate polynomials are dense lists of coefficients in ascending exponent
order, so 1 - 2x + x^3 is IntPolynomial((1, -2, 0, 1)).  One long-division
kernel (dense_divmod) and one product routine (dense_mul) serve every dense
univariate caller in the package: they take the coefficient ring's operations
as arguments, so the same loops run over the integers (with exactness
checks), the rationals and finite fields.  One step, shifted_rows, does every
multiplication by y modulo a monic polynomial.  root_power_transform, the step
behind base change of a Weil numerator, works through power sums and
Newton's identities in integer arithmetic only.  exact_quotient is the one
exact integer division of the package, and rational_solution its one
linear solve: fraction-free Gauss-Jordan elimination over the integers
(Bareiss 1968), which forms a Fraction only for each unknown at the end.

Multivariate polynomials are sparse: a tuple of variable names plus a map from
packed monomials to nonzero integer coefficients.  A packed monomial is one
integer holding a fixed-width bit field per variable name, so multiplying two
monomials is one integer addition, and polynomials over different variables
combine without realigning their exponent vectors.

All values are immutable and all operations are pure, so everything here is
safe to share across threads.  There are two kinds of shared mutable state:
the memo tables (cyclotomic polynomials, guard-bit masks), which
functools.cache guards, and the append-only registry that gives each
variable name its bit field the first time the name is seen, whose
registration is a single atomic dict.setdefault.
"""
from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import operator
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union


class InexactDivision(ArithmeticError):
    """Raised when a division that must be exact leaves a remainder."""


class InvariantError(ArithmeticError):
    """Raised when an invariant of an exact computation fails, such as two
    routes to the same count disagreeing."""


class BudgetError(RuntimeError):
    """Raised before a computation that would exceed its work budget: an
    enumeration with too many trial divisions (use the closed counting
    formulas instead), a reduction modulo a cyclotomic polynomial of too
    large an index, or a certificate whose products could grow past its
    term budget."""


# ---------------------------------------------------------------------------
# dense univariate kernels over any coefficient ring
# ---------------------------------------------------------------------------


def dense_divmod(f, g, sub, mul, div) -> tuple[list, list]:
    """Quotient and remainder of the coefficient sequence f by g, both in
    ascending exponent order with g's last coefficient nonzero.

    The ring enters through sub, mul and div; div(a, lc) must return the
    quotient coefficient c with c * lc == a, or raise when there is none.
    Each step drops the remainder's head term rather than subtracting
    c * lc from it, since by construction the difference is zero.  Zero
    coefficients are the falsy ones, the integer 0 stands for zero in the
    quotient, and the remainder carries no trailing zeros.
    """
    rem = list(f)
    while rem and not rem[-1]:
        rem.pop()
    dg = len(g) - 1
    lc, low = g[-1], g[:-1]
    quo = [0] * max(0, len(rem) - dg)
    while len(rem) > dg:
        head = div(rem.pop(), lc)
        shift = len(rem) - dg
        quo[shift] = head
        rem[shift:] = map(sub, rem[shift:], map(mul, itertools.repeat(head), low))
        while rem and not rem[-1]:
            rem.pop()
    return quo, rem


def dense_mul(f, g, add, mul) -> list:
    """Product of two coefficient sequences in ascending exponent order, with
    the ring given by add and mul.  Falsy (zero) coefficients of f are
    skipped and the integer 0 starts every output coefficient."""
    if not f or not g:
        return []
    n = len(g)
    out = [0] * (len(f) + n - 1)
    for i, a in enumerate(f):
        if a:
            out[i : i + n] = map(add, out[i : i + n], map(mul, itertools.repeat(a), g))
    return out


def shifted_rows(row, low):
    """Yield row, y*row, y^2*row, ..., each reduced modulo the monic
    polynomial y^d + low(y): low holds c_0 .. c_(d-1) and row holds d
    coefficients, both in ascending exponent order.  The coefficients may
    lie in any ring whose elements take - and * with each other and with
    the integer 0, such as the integers or the Fractions; the modulus being
    monic, no step divides.  Every row is a new list.

    >>> list(itertools.islice(shifted_rows([1, 0], [1, 0]), 5))  # y^i mod y^2 + 1
    [[1, 0], [0, 1], [-1, 0], [0, -1], [1, 0]]
    """
    row = list(row)
    while True:
        yield row
        top = row[-1]
        row = [0, *row[:-1]]
        if top:
            row = [a - top * c for a, c in zip(row, low)]


def power_by_squaring(base, n: int, mul, one):
    """base to the power n >= 0 by square-and-multiply, without the last,
    unused squaring; callers check the sign of n."""
    result = one
    while n:
        if n & 1:
            result = mul(result, base)
        n >>= 1
        if n:
            base = mul(base, base)
    return result


def exact_quotient(a: int, b: int) -> int:
    """a / b for integers that b divides; else InexactDivision names both."""
    q, r = divmod(a, b)
    if r:
        raise InexactDivision(f"{a} not divisible by {b}")
    return q


def monic_head(a, lc):
    """dense_divmod's quotient coefficient for a monic divisor, whose lc is 1."""
    return a


# Miller-Rabin over the prime bases 2..41: a witness proves composite at any
# size, and passing every base proves prime below MR_BOUND (Sorenson &
# Webster, Math. Comp. 86 (2017)); above it _is_prime raises ValueError.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_BOUND = 3_317_044_064_679_887_385_961_981


def _iroot(q: int, k: int) -> int:
    """The integer k-th root of q >= 1, by Newton's method from above."""
    x = 1 << -(-q.bit_length() // k)
    while True:
        y = ((k - 1) * x + q // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _is_prime(r: int) -> bool:
    if r < 2 or any(r % b == 0 for b in _MR_BASES):
        return r in _MR_BASES
    s = ((r - 1) & (1 - r)).bit_length() - 1  # r - 1 = d * 2^s with d odd
    d = (r - 1) >> s
    if not all(pow(b, d, r) == 1 or any(pow(b, d << i, r) == r - 1 for i in range(s)) for b in _MR_BASES):
        return False
    if r >= MR_BOUND:
        raise ValueError(f"cannot decide whether {r} is prime: the test stops at {MR_BOUND}")
    return True


def factorize(n: int) -> list[tuple[int, int]]:
    """The prime factorization of n >= 1 by trial division, as (p, e) pairs
    in ascending order of p."""
    if n < 1:
        raise ValueError("argument must be positive")
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def prime_power(q: int) -> tuple[int, int]:
    """The prime p and exponent k with q = p^k; ValueError when q is not a
    prime power.  The largest k with q a perfect k-th power is found by
    integer roots, and its root is tested by deterministic Miller-Rabin, which
    raises ValueError for a probable prime root of MR_BOUND or more."""
    for k in range(max(q, 1).bit_length() - 1, 0, -1):
        r = _iroot(q, k)
        if r**k == q:
            if _is_prime(r):
                return r, k
            break
    raise ValueError(f"{q} is not a prime power")


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
        return IntPolynomial(dense_mul(self.coeffs, other.coeffs, operator.add, operator.mul))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "IntPolynomial":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        return power_by_squaring(self, n, operator.mul, IntPolynomial((1,)))

    def __divmod__(self, other: "IntPolynomial") -> tuple["IntPolynomial", "IntPolynomial"]:
        """Division with integer-exact steps; raises InexactDivision when a
        leading coefficient fails to divide."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        quo, rem = dense_divmod(self.coeffs, other.coeffs, operator.sub, operator.mul, exact_quotient)
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
        exps = [i for i, c in enumerate(self.coeffs) if c]
        return _format_terms(("x",), [self.coeffs[i] for i in exps], [exps])


def _format_terms(names: Sequence[str], coeffs: Sequence[int], columns: Sequence[Sequence[int]]) -> str:
    """Terms from their coefficients and the exponent columns of names, in the
    given order, printed as in "2 - x + 3*x^2*y"."""
    # each term's factors, each written with a leading "*"
    factors = []
    for v, col in zip(names, columns):
        powers = {e: f"*{v}" if e == 1 else f"*{v}^{e}" for e in set(col)}
        powers[0] = ""
        factors.append(map(powers.__getitem__, col))
    bodies = map("".join, zip(*factors)) if factors else itertools.repeat("")
    return _signed_sum(
        (c, body[1:] if abs(c) == 1 and body else f"{abs(c)}{body}") for c, body in zip(coeffs, bodies)
    )


def _signed_sum(terms: Iterable[tuple[int, str]]) -> str:
    """Join (coefficient, body) pairs, each body showing the coefficient's
    magnitude, as "a - b + c" with a bare leading sign; "0" when empty."""
    text = "".join((" - " if c < 0 else " + ") + body for c, body in terms)
    if not text:
        return "0"
    return ("-" if text[1] == "-" else "") + text[3:]


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


def remainder_sequence(a, b):
    """Euclid's algorithm over Q on coefficient sequences in ascending order,
    b without trailing zeros: yields (quotient, divisor, remainder) of each
    dense_divmod step until a remainder is zero, so the last divisor is a
    gcd.  Coefficients stay ints while each division by a leading
    coefficient is exact, and become Fractions after that."""
    while b:
        quo, rem = dense_divmod(a, b, operator.sub, operator.mul, _rational_div)
        yield quo, b, rem
        a, b = b, rem


def _rational_div(a, lc):
    if type(a) is int and type(lc) is int and not a % lc:
        return a // lc
    return Fraction(a, lc)


def poly_gcd(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """Greatest common divisor over Z with positive leading coefficient: the
    last nonzero remainder of the primitive pseudo-remainder sequence,
    multiplied by the gcd of the contents.  When one argument is zero, the
    other's primitive part.  Every step stays in the integers: f times
    lc(g)^(deg f - deg g + 1) divides by g in exact steps, and each
    remainder is divided by its content, signed so that its leading
    coefficient is positive."""
    f, g = (a.coeffs, b.coeffs) if len(a.coeffs) >= len(b.coeffs) else (b.coeffs, a.coeffs)
    if not f:
        return IntPolynomial()
    scale = math.gcd(a.content(), b.content()) if g else 1
    f, g = _primitive(f), _primitive(g)
    while g:
        power = g[-1] ** (len(f) - len(g) + 1)
        f, g = g, _primitive(dense_divmod([c * power for c in f], g, operator.sub, operator.mul, exact_quotient)[1])
    return IntPolynomial(c * scale for c in f)


def _primitive(coeffs: Sequence[int]) -> list[int]:
    """The coefficients divided by their content, the leading one positive."""
    if not coeffs:
        return []
    unit = math.gcd(*coeffs) if coeffs[-1] > 0 else -math.gcd(*coeffs)
    return [c // unit for c in coeffs]


def resultant(p: IntPolynomial, q: IntPolynomial) -> int:
    """The resultant (the Sylvester determinant), in integers only.

    Res(c, q) = c^(deg q) for a constant c.  Otherwise, with d = deg p,
    e = deg q and lc the leading coefficient of p, the substitution
    y -> y/lc makes p monic: p~(y) = lc^(d-1) * p(y/lc) and
    q~(y) = lc^e * q(y/lc) are integer polynomials, and the roots of p~ are
    lc times those of p.  So Res(p~, q~), the product of q~ over the roots
    of p~, is lc^(e(d-1)) * Res(p, q).  It is the determinant of
    multiplication by r = q~ mod p~ on Z[y]/(p~), taken by Bareiss
    elimination (Math. Comp. 22 (1968)), and the last step divides it
    exactly by lc^(e(d-1))."""
    if p.is_zero() or q.is_zero():
        raise ValueError("resultant of the zero polynomial is undefined")
    d, e, lc = p.degree, q.degree, p.leading()
    if not d:
        return lc**e
    low = [c * lc ** (d - 1 - i) for i, c in enumerate(p.coeffs[:-1])]
    scaled = [c * lc ** (e - j) for j, c in enumerate(q.coeffs)]
    row = dense_divmod(scaled, low + [1], operator.sub, operator.mul, monic_head)[1]
    if not row:
        return 0
    # the rows are y^i * r mod p~ for i = 0 .. d-1
    rows = list(itertools.islice(shifted_rows(row + [0] * (d - len(row)), low), d))
    return exact_quotient(_bareiss_det(rows), lc ** (e * (d - 1)))


def _bareiss_det(rows: list[list[int]]) -> int:
    """Determinant of a square integer matrix, given as a list of rows that
    this consumes, by fraction-free elimination: every division is exact."""
    n, sign, prev = len(rows), 1, 1
    for k in range(n - 1):
        if not rows[k][k]:
            swap = next((i for i in range(k + 1, n) if rows[i][k]), None)
            if swap is None:
                return 0
            rows[k], rows[swap] = rows[swap], rows[k]
            sign = -sign
        pivot, head = rows[k][k], rows[k][k + 1 :]
        for i in range(k + 1, n):
            a = rows[i][k]
            rows[i][k + 1 :] = [(x * pivot - a * y) // prev for x, y in zip(rows[i][k + 1 :], head)]
        prev = pivot
    return sign * rows[-1][-1]


def rational_solution(rows: Iterable[Sequence]) -> list[Fraction] | None:
    """The unique rational solution of an augmented linear system.  Each
    row a_1 .. a_k, b stands for a_1*x_1 + ... + a_k*x_k = b, with integer
    or rational entries, and there is at least one row.  Returns None when
    no x satisfies every row; raises ValueError when the k columns are
    linearly dependent, whether or not the system is consistent.

    The elimination is fraction-free Gauss-Jordan over the integers
    (Bareiss, "Sylvester's identity and multistep integer-preserving
    Gaussian elimination", Math. Comp. 22 (1968)).  Each row is scaled by
    the lcm of its denominators.  A step with pivot p replaces every other
    row's entries a by (p*a - f*b) / p_prev, f being the row's entry in the
    pivot column, b the pivot row's entry and p_prev the previous pivot.
    By Sylvester's identity each such entry is a minor of the scaled
    matrix, so every division is exact; exact_quotient checks it.  After
    the last step each pivot row reads p_last * x_i = its last entry, which
    gives one Fraction per unknown, and a further row is consistent when
    its last entry is 0.  The pivots are the first nonzero entries, as in
    elimination over the Fractions, so both find the same answer, None or
    ValueError.
    """
    mat = []
    for row in rows:
        den = math.lcm(*(v.denominator for v in row))
        mat.append([v.numerator * (den // v.denominator) for v in row])
    k = len(mat[0]) - 1
    prev = 1
    for col in range(k):
        piv = next((r for r in range(col, len(mat)) if mat[r][col]), None)
        if piv is None:
            raise ValueError("linearly dependent columns: no unique solution")
        mat[col], mat[piv] = mat[piv], mat[col]
        head = mat[col][col:]
        p = head[0]
        # the entries left of col are no longer read: the pivot rows' are
        # p on the diagonal and 0 elsewhere, the further rows' are all 0
        for r, row in enumerate(mat):
            if r != col:
                f = row[col]
                row[col:] = [exact_quotient(p * a - f * b, prev) for a, b in zip(row[col:], head)]
        prev = p
    if any(row[k] for row in mat[k:]):
        return None
    return [Fraction(row[k], prev) for row in mat[:k]]


def root_power_transform(w: IntPolynomial, m: int) -> IntPolynomial:
    """Monic polynomial whose root multiset is the m-th powers of the roots
    of w, which must be monic up to sign; the degree is preserved.

    Newton's identities turn the coefficients of w into the power sums
    p_1 .. p_(md) of its roots.  The power sums of the m-th powers are
    P_k = p_(mk), and Newton's identities run backwards turn P_1 .. P_d into
    the coefficients.  Everything is integer arithmetic; the backward step
    divides by k through exact_quotient.
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
    # a[i] is the coefficient of x^(d-i), so a[0] == 1
    a = w.coeffs[::-1]
    # p[k] is the k-th power sum of the roots
    p = [d]
    for k in range(1, m * d + 1):
        s = sum(a[i] * p[k - i] for i in range(1, min(k, d + 1)))
        p.append(-s - k * a[k] if k <= d else -s)
    b = [1]
    for k in range(1, d + 1):
        b.append(exact_quotient(-sum(p[m * i] * b[k - i] for i in range(1, k + 1)), k))
    return IntPolynomial(b[::-1])


# ---------------------------------------------------------------------------
# sparse multivariate polynomials
# ---------------------------------------------------------------------------

Scalar = Union[int, "SymbolicPolynomial"]

# A monomial is one integer.  Every variable name owns a _W-bit field, fixed
# the first time the name is seen and never reused, so monomials over any
# variables share one layout and the product of two monomials is their sum.
# The top bit of each field is a guard: exponents stay below _LIMIT, and a sum
# that reaches the guard raises OverflowError before it can carry into the
# next field.
_W = 16
_FIELD = (1 << _W) - 1
_LIMIT = 1 << (_W - 1)
_SHIFTS: dict[str, int] = {}
_SLOTS = itertools.count()


def _shift(name: str) -> int:
    """Bit offset of the name's field, registering the name on first use.

    setdefault is atomic, so threads racing on one new name agree on its
    field; the loser's slot number is simply never used."""
    s = _SHIFTS.get(name)
    if s is None:
        s = _SHIFTS.setdefault(name, _W * next(_SLOTS))
    return s


@functools.cache
def _guard_bits(fields: int) -> int:
    return ((1 << (_W * fields)) - 1) // _FIELD << (_W - 1)


def check_degree(d: int) -> None:
    """Raise OverflowError when the exponent d does not fit a packed
    monomial's field, so a caller can refuse a size before any work."""
    if d >= _LIMIT:
        raise OverflowError(f"an exponent reached 2^{_W - 1}")


def _check_exponents(used: int) -> None:
    """Raise OverflowError when a field of used, the OR of some keys, reached
    its guard bit."""
    if used & _guard_bits(-(-used.bit_length() // _W)):
        raise OverflowError(f"an exponent reached 2^{_W - 1}")


def _or_all(keys: Iterable[int]) -> int:
    return functools.reduce(operator.or_, keys, 0)


def _selection_product(m: int, mapped) -> tuple[tuple[int, int], ...]:
    """The terms of the product of the images' powers that the packed mapped
    exponents m select, for SymbolicPolynomial.substitute."""
    coeff, mono, acc = 1, 0, None
    for s, image, single in mapped:
        if k := m >> s & _FIELD:
            if single is None:
                acc = image**k if acc is None else acc * image**k
            else:
                ic, im, top = single
                check_degree(k * top)
                coeff *= ic**k
                mono += k * im
                _check_exponents(mono)
    if not coeff:
        return ()
    if acc is None:
        return ((mono, coeff),)
    return tuple((acc * SymbolicPolynomial._exact((), {mono: coeff}))._packed.items())


class SymbolicPolynomial:
    """Sparse polynomial over Z in named variables.

    Terms are stored as {packed monomial: coefficient}.  vars lists the
    variables that occur, in creation order, for printing; equality ignores
    that order.
    """

    __slots__ = ("vars", "_packed")

    def __init__(self, vars: tuple[str, ...] = (), terms: Mapping[tuple[int, ...], int] | None = None):
        vars = tuple(vars)
        if len(set(vars)) != len(vars):
            raise ValueError(f"repeated variable name in {vars}")
        shifts = [_shift(v) for v in vars]
        packed = {}
        for exps, c in (terms or {}).items():
            if c:
                if min(exps, default=0) < 0:
                    raise ValueError(f"negative exponent in {exps}")
                check_degree(max(exps, default=0))
                packed[sum(e << s for e, s in zip(exps, shifts, strict=True))] = c
        self._init(vars, packed)

    def _init(self, names: tuple[str, ...], packed: dict[int, int]) -> None:
        """Take a zero-free packed dict whose variables lie in names; keep the
        names that occur, in names' order."""
        used = _or_all(packed)
        _check_exponents(used)
        object.__setattr__(self, "vars", tuple(v for v in names if used >> _SHIFTS[v] & _FIELD))
        object.__setattr__(self, "_packed", packed)

    @classmethod
    def _new(cls, names: tuple[str, ...], packed: dict[int, int]) -> "SymbolicPolynomial":
        p = object.__new__(cls)
        p._init(names, packed)
        return p

    @classmethod
    def _exact(cls, vars: tuple[str, ...], packed: dict[int, int]) -> "SymbolicPolynomial":
        """Wrap a zero-free packed dict in exactly the variables vars, with
        exponents already known to be in range."""
        p = object.__new__(cls)
        object.__setattr__(p, "vars", vars)
        object.__setattr__(p, "_packed", packed)
        return p

    def __setattr__(self, *a):  # immutable
        raise AttributeError("SymbolicPolynomial is immutable")

    @property
    def terms(self) -> dict[tuple[int, ...], int]:
        """The terms keyed by exponent tuples in the order of vars."""
        shifts = [_SHIFTS[v] for v in self.vars]
        return {tuple([e >> s & _FIELD for s in shifts]): c for e, c in self._packed.items()}

    # -- constructors ------------------------------------------------------

    @staticmethod
    def constant(c: int) -> "SymbolicPolynomial":
        return SymbolicPolynomial._exact((), {0: c} if c else {})

    @staticmethod
    def variable(name: str) -> "SymbolicPolynomial":
        return SymbolicPolynomial._exact((name,), {1 << _shift(name): 1})

    @staticmethod
    def from_int_poly(p: IntPolynomial, var: str) -> "SymbolicPolynomial":
        check_degree(p.degree)
        s = _shift(var)
        return SymbolicPolynomial._new((var,), {i << s: c for i, c in enumerate(p.coeffs) if c})

    # -- structure ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._packed

    def constant_value(self) -> int:
        if self.vars:
            raise ValueError("polynomial is not constant")
        return self._packed.get(0, 0)

    def content(self) -> int:
        return math.gcd(*self._packed.values()) if self._packed else 0

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self._packed == ({0: other} if other else {})
        if not isinstance(other, SymbolicPolynomial):
            return NotImplemented
        return self._packed == other._packed

    def __hash__(self):
        return hash(frozenset(self._packed.items()))

    # -- arithmetic ----------------------------------------------------------

    @staticmethod
    def _coerce(v) -> "SymbolicPolynomial":
        if isinstance(v, SymbolicPolynomial):
            return v
        if isinstance(v, int):
            return SymbolicPolynomial.constant(v)
        raise TypeError(f"cannot coerce {v!r} to SymbolicPolynomial")

    def _merged(self, other: "SymbolicPolynomial") -> tuple[str, ...]:
        """This polynomial's variables, then the other's new ones."""
        if self.vars == other.vars:
            return self.vars
        return self.vars + tuple(v for v in other.vars if v not in self.vars)

    def _plus(self, other: "SymbolicPolynomial", sign: int) -> "SymbolicPolynomial":
        out = dict(self._packed)
        cancelled = False
        for e, c in other._packed.items():
            c = out.get(e, 0) + sign * c
            if c:
                out[e] = c
            else:
                del out[e]
                cancelled = True
        names = self._merged(other)
        return self._new(names, out) if cancelled else self._exact(names, out)

    def __add__(self, other) -> "SymbolicPolynomial":
        return self._plus(self._coerce(other), 1)

    __radd__ = __add__

    def __neg__(self) -> "SymbolicPolynomial":
        return self._exact(self.vars, {e: -c for e, c in self._packed.items()})

    def __sub__(self, other) -> "SymbolicPolynomial":
        return self._plus(self._coerce(other), -1)

    def __rsub__(self, other) -> "SymbolicPolynomial":
        return self._coerce(other)._plus(self, -1)

    def __mul__(self, other) -> "SymbolicPolynomial":
        if isinstance(other, int):
            if not other:
                return SymbolicPolynomial.constant(0)
            return self._exact(self.vars, {e: c * other for e, c in self._packed.items()})
        other = self._coerce(other)
        out: dict = {}
        get = out.get
        b = list(other._packed.items())
        for ea, ca in self._packed.items():
            for eb, cb in b:
                key = ea + eb
                out[key] = get(key, 0) + ca * cb
        return self._new(self._merged(other), {e: c for e, c in out.items() if c})

    __rmul__ = __mul__

    @staticmethod
    def sum_of_products(pairs: Iterable[tuple["SymbolicPolynomial", "SymbolicPolynomial"]]) -> "SymbolicPolynomial":
        """The sum of a * b over the pairs (a, b), multiplied into one
        accumulator without forming each product; the variables are listed
        in order of first appearance over the pairs' merged variables."""
        out: dict[int, int] = {}
        get = out.get
        names: tuple[str, ...] = ()
        for a, b in pairs:
            names += tuple(v for v in a._merged(b) if v not in names)
            terms = list(b._packed.items())
            for ea, ca in a._packed.items():
                for eb, cb in terms:
                    key = ea + eb
                    out[key] = get(key, 0) + ca * cb
        return SymbolicPolynomial._new(names, {e: c for e, c in out.items() if c})

    def __pow__(self, n: int) -> "SymbolicPolynomial":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        return power_by_squaring(self, n, operator.mul, SymbolicPolynomial.constant(1))

    # -- substitution and evaluation -----------------------------------------

    def substitute(self, mapping: Mapping[str, Scalar]) -> "SymbolicPolynomial":
        """Ring homomorphism sending named variables to integers or
        polynomials; unmentioned variables stay put.

        Each term's mapped exponents select a product of powers of the images,
        computed once per distinct selection; the term's unmapped part stays
        packed and shifts that product into one accumulator.  An image of at
        most one term, c*m with m a packed monomial (an integer has m = 0),
        enters its k-th power by exponent arithmetic as c^k and k*m: each field
        of k*m is checked against the guard before it is added, and the running
        monomial's guard bits after, so no sum carries into the next field.
        Images of two or more terms are multiplied out.  The result lists its
        variables by first appearance over the terms, each term giving the
        variables of its factors in the order of this polynomial's variables.
        """
        images = {v: self._coerce(mapping[v]) for v in self.vars if mapping.get(v) is not None}
        # (shift, image, (c, m, largest exponent in m) when the image is c*m)
        mapped = []
        for v, image in images.items():
            single = None
            if len(image._packed) <= 1:
                m, c = next(iter(image._packed.items()), (0, 0))
                single = c, m, max((m >> _SHIFTS[w] & _FIELD for w in image.vars), default=0)
            mapped.append((_SHIFTS[v], image, single))
        mask = sum(_FIELD << s for s, _, _ in mapped)
        products: dict[int, tuple[tuple[int, int], ...]] = {}
        out: dict[int, int] = {}
        get = out.get
        for e, c in self._packed.items():
            m = e & mask
            product = products.get(m)
            if product is None:
                product = products[m] = _selection_product(m, mapped)
            rest = e - m
            for k, pc in product:
                key = k + rest
                out[key] = get(key, 0) + c * pc
        # the variables that each variable's factor brings into a term, met
        # over the terms whose product is not zero
        brings = [(_SHIFTS[v], images[v].vars if v in images else (v,)) for v in self.vars]
        candidates = {w for _, names in brings for w in names}
        order: list[str] = []
        for e in self._packed:
            if len(order) == len(candidates):
                break
            if products[e & mask]:
                for s, names in brings:
                    if e >> s & _FIELD:
                        order += [w for w in names if w not in order]
        return self._new(tuple(order), {e: c for e, c in out.items() if c})

    def scale_exponents(self, factor: int, names: Iterable[str] | None = None) -> "SymbolicPolynomial":
        """Replace each listed variable v by v^factor (all variables when
        names is None)."""
        if factor < 1:
            raise ValueError("scale factor must be positive")
        which = set(self.vars if names is None else names)
        mask = 0
        for v in self.vars:
            if v in which:
                s = _SHIFTS[v]
                check_degree(max(e >> s & _FIELD for e in self._packed) * factor)
                mask |= _FIELD << s
        return self._exact(self.vars, {e + (e & mask) * (factor - 1): c for e, c in self._packed.items()})

    def evaluate(self, assignment: Mapping[str, Union[int, Fraction]]) -> Fraction:
        """Value at the assigned integers or rationals."""
        return Fraction(sum(self.evaluate_except((), assignment).values()))

    def evaluate_except(
        self, keep: Sequence[str], assignment: Mapping[str, Union[int, Fraction]]
    ) -> dict[tuple[int, ...], Union[int, Fraction]]:
        """This polynomial as one in the variables keep, every other variable
        at its assigned integer or rational value: {exponents of keep:
        coefficient}, in one pass over the terms.  Each assigned variable's
        powers are computed once per exponent that occurs, and the
        coefficients stay integers unless an assigned value is not one."""
        missing = [v for v in self.vars if v not in keep and v not in assignment]
        if missing:
            raise KeyError(f"missing assignment for variables {missing}")
        kept = [_SHIFTS[v] if v in self.vars else None for v in keep]
        mask = sum(_FIELD << s for s in kept if s is not None)
        tables = []
        for v in self.vars:
            if v not in keep:
                s, x = _SHIFTS[v], assignment[v]
                x = x if isinstance(x, int) else Fraction(x)
                tables.append((s, {k: x**k for k in {e >> s & _FIELD for e in self._packed}}))
        groups: dict[int, Union[int, Fraction]] = {}
        get = groups.get
        for e, c in self._packed.items():
            for s, powers in tables:
                if k := e >> s & _FIELD:
                    c *= powers[k]
            key = e & mask
            groups[key] = get(key, 0) + c
        return {tuple([0 if s is None else e >> s & _FIELD for s in kept]): c for e, c in groups.items()}

    def derivative(self, var: str) -> "SymbolicPolynomial":
        if var not in self.vars:
            return SymbolicPolynomial.constant(0)
        s = _SHIFTS[var]
        one = 1 << s
        out = {}
        for e, c in self._packed.items():
            k = e >> s & _FIELD
            if k:
                out[e - one] = c * k
        return self._new(self.vars, out)

    # -- division ----------------------------------------------------------

    def degree_in(self, var: str) -> int:
        if var not in self.vars or not self._packed:
            return 0 if self._packed else -1
        s = _SHIFTS[var]
        return max(e >> s & _FIELD for e in self._packed)

    def coefficient_in(self, var: str, power: int) -> "SymbolicPolynomial":
        if var not in self.vars:
            return self if power == 0 else SymbolicPolynomial.constant(0)
        s = _SHIFTS[var]
        field = _FIELD << s
        want = power << s
        out = {e - want: c for e, c in self._packed.items() if e & field == want}
        return self._new(tuple(v for v in self.vars if v != var), out)

    def divrem(self, divisor: "SymbolicPolynomial", var: str) -> tuple["SymbolicPolynomial", "SymbolicPolynomial"]:
        """Long division in one variable, done row by row.

        Both polynomials are grouped into rows by their degree in var.  Each
        head row of the remainder is divided by the divisor's leading
        coefficient in var, which must be a constant or a single signed
        monomial, and that quotient row times the divisor's lower rows is
        subtracted in place from the rows below.  Every monomial and integer
        division must be exact; otherwise InexactDivision is raised.

        The quotient lists its variables in order of first use, walking its
        rows from the highest power of var down, with each row's coefficient
        variables (this polynomial's variables, then the divisor's new ones)
        before var itself.  The remainder keeps that aligned order.
        """
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        names = self._merged(divisor)
        if var not in names:
            names += (var,)
        s = _shift(var)
        rows = _rows_by_degree(self._packed, s)
        drows = _rows_by_degree(divisor._packed, s)
        ddeg = max(drows)
        if len(drows[ddeg]) != 1:
            raise InexactDivision("leading coefficient of divisor is not a monomial")
        ((lexp, lc),) = drows.pop(ddeg).items()
        lower = [(d, list(row.items())) for d, row in drows.items()]
        # With the guard bits of lexp's fields set on e, e - lexp borrows
        # within a field exactly where that field of e is below lexp's.
        lguards = _or_all(1 << (i + _W - 1) for i in range(0, lexp.bit_length(), _W) if lexp >> i & _FIELD)
        quo_rows = []
        for rdeg in range(max(rows, default=-1), ddeg - 1, -1):
            head = rows.pop(rdeg, None)
            if not head:
                continue
            # a product below may have reached a guard bit, but never carries
            _check_exponents(_or_all(head))
            qrow = {}
            for e, c in head.items():
                if lexp:
                    e = (e | lguards) - lexp
                    if e & lguards != lguards:
                        raise InexactDivision("monomial does not divide a dividend term")
                    e ^= lguards
                qrow[e] = exact_quotient(c, lc)
            shift = rdeg - ddeg
            quo_rows.append((shift, qrow))
            for d, drow in lower:
                target = rows.setdefault(shift + d, {})
                get = target.get
                for qe, qc in qrow.items():
                    for de, dc in drow:
                        key = qe + de
                        v = get(key, 0) - qc * dc
                        if v:
                            target[key] = v
                        else:
                            del target[key]
        rem = {e + (d << s): c for d, row in rows.items() for e, c in row.items()}

        # Printing follows this order, and printed certificates must stay
        # byte-identical from one version to the next.
        others = [(v, _SHIFTS[v]) for v in names if v != var]
        order: list[str] = []
        quo = {}
        for shift, qrow in quo_rows:
            used = _or_all(qrow)
            order += [v for v, vs in others if v not in order and used >> vs & _FIELD]
            if shift and var not in order:
                order.append(var)
            base = shift << s
            for e, c in qrow.items():
                quo[e + base] = c
        return self._exact(tuple(order), quo), self._new(names, rem)

    def exact_div(self, divisor: "SymbolicPolynomial", var: str) -> "SymbolicPolynomial":
        q, r = self.divrem(divisor, var)
        if not r.is_zero():
            raise InexactDivision(f"inexact division in {var}: remainder {r}")
        return q

    def map_coefficients(self, fn) -> "SymbolicPolynomial":
        return self._new(self.vars, {e: v for e, c in self._packed.items() if (v := fn(c))})

    # -- printing ------------------------------------------------------------

    def sorted_columns(self, graded: bool) -> tuple[list[int], list[list[int]]]:
        """The coefficients and, for each variable of vars, its exponent in
        each term, with the terms in ascending order of their exponents in
        vars order, taken by total degree first when graded.

        One integer key orders the terms: the exponents as bit fields just
        wide enough for each column, the first variable of vars highest,
        under the total degree when graded."""
        coeffs = list(self._packed.values())
        if not self.vars:  # a constant has at most one term
            return coeffs, []
        monos = list(self._packed)
        columns = [[m >> _SHIFTS[v] & _FIELD for m in monos] for v in self.vars]
        keys, width = columns[0], 0
        for col in columns[1:]:
            w = max(col, default=0).bit_length()
            keys = [k << w | e for k, e in zip(keys, col)]
            width += w
        if graded:
            width += max(columns[0], default=0).bit_length()
            keys = [d << width | k for d, k in zip(map(sum, zip(*columns)), keys)]
        order = sorted(range(len(monos)), key=keys.__getitem__)
        return [coeffs[i] for i in order], [[col[i] for i in order] for col in columns]

    def __str__(self) -> str:
        return _format_terms(self.vars, *self.sorted_columns(graded=True))

    def __repr__(self) -> str:
        return f"SymbolicPolynomial('{self}')"


def _rows_by_degree(packed: Mapping[int, int], shift: int) -> dict[int, dict]:
    """Group packed terms by the field at shift, clearing that field in the keys."""
    rows: dict[int, dict] = {}
    for e, c in packed.items():
        d = e >> shift & _FIELD
        rows.setdefault(d, {})[e - (d << shift)] = c
    return rows


def to_int_poly(p: SymbolicPolynomial, var: str) -> IntPolynomial:
    if p.vars not in ((), (var,)):
        raise ValueError(f"polynomial is not univariate in {var}")
    if not p.vars:
        return IntPolynomial((p.constant_value(),))
    s = _SHIFTS[var]
    return IntPolynomial(tuple(p._packed.get(i << s, 0) for i in range(p.degree_in(var) + 1)))
