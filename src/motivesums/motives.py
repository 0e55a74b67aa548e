"""Weight-graded Frobenius data attached to split reductive groups.

A graded piece carries a weight d and a characteristic polynomial c_d(u) in Z[u]
with c_d(0) = 1 whose inverse roots are roots of unity.  A group's data is the
multiset of pieces coming from its invariant-degree exponents; products add
piece-wise and restriction of scalars rescales the Frobenius variable.

A motive is a memo key throughout the package, so ArtinTateMotive computes
its hash once, at construction, from its merged and sorted pieces: equal
motives hash equal however they were built.  motive_of memoizes the motive
of a group description on a key that tags every value with its type, so
True, 2.0 and "2" never find the entry of 2; a description that raises is
never stored.  The memo holds one entry per distinct description and is
never evicted; its values are frozen motives.
"""
from __future__ import annotations

import dataclasses
import functools

from .curves import h0_det, h0_factors
from .exactalg import IntPolynomial, SymbolicPolynomial


@dataclasses.dataclass(frozen=True)
class GradedPiece:
    """One weight-graded Frobenius factor: weight and characteristic
    polynomial of Frobenius acting on that graded slot, as an IntPolynomial
    in the Frobenius variable u with constant term 1."""

    weight: int
    charpoly: IntPolynomial

    def __post_init__(self):
        if self.weight < 1:
            raise ValueError("weight must be at least 1")
        if self.charpoly.is_zero() or self.charpoly.coeffs[0] != 1:
            raise ValueError("characteristic polynomial must have constant term 1")

    def merged_with(self, other: "GradedPiece") -> "GradedPiece":
        if other.weight != self.weight:
            raise ValueError("can only merge pieces of equal weight")
        return GradedPiece(self.weight, self.charpoly * other.charpoly)


@dataclasses.dataclass(frozen=True)
class ArtinTateMotive:
    """Finite multiset of graded pieces, stored merged by weight and sorted."""

    pieces: tuple[GradedPiece, ...]
    _hash: int = dataclasses.field(init=False, repr=False, compare=False)

    def __init__(self, pieces):
        merged: dict[int, GradedPiece] = {}
        for p in pieces:
            merged[p.weight] = merged[p.weight].merged_with(p) if p.weight in merged else p
        object.__setattr__(
            self, "pieces", tuple(merged[w] for w in sorted(merged))
        )
        object.__setattr__(self, "_hash", hash(self.pieces))

    def __hash__(self) -> int:
        return self._hash

    def direct_sum(self, other: "ArtinTateMotive") -> "ArtinTateMotive":
        return ArtinTateMotive(self.pieces + other.pieces)

    def induce(self, d: int) -> "ArtinTateMotive":
        """Restriction of scalars along a degree-d extension: each
        characteristic polynomial c(u) becomes c(u^d); weights are kept."""
        if d < 1:
            raise ValueError("induction degree must be positive")
        return ArtinTateMotive(
            GradedPiece(p.weight, p.charpoly.substitute_power(d)) for p in self.pieces
        )

    def quotient_trivial(self) -> "ArtinTateMotive":
        """Remove one trivial Frobenius eigenvalue in weight 1, dividing the
        weight-1 characteristic polynomial by 1 - u exactly."""
        out = []
        seen = False
        for p in self.pieces:
            if p.weight == 1:
                seen = True
                quotient = p.charpoly / IntPolynomial((1, -1))
                if not quotient.is_zero() and quotient != IntPolynomial((1,)):
                    out.append(GradedPiece(1, quotient))
            else:
                out.append(p)
        if not seen:
            raise ValueError("no weight-1 piece to divide the trivial factor from")
        return ArtinTateMotive(out)

    def frobenius_det(self) -> SymbolicPolynomial:
        """Graded Frobenius determinant: the product over pieces of
        c_d(t * q^(d-1)) as a polynomial in t and q, which is the global
        sections determinant over one place of degree 1."""
        return h0_det((1,), self)

    def frobenius_det_factors(self) -> list[SymbolicPolynomial]:
        """Per-piece factors of frobenius_det, in weight order."""
        return h0_factors((1,), self)


def parse_group_spec(spec: dict) -> dict:
    """Check that spec is an already-parsed group description, a dict with
    one key; anything else, a JSON string included, raises ValueError.

    Recognized shapes: {"GL": n}, {"SL": n}, {"U": n}, {"Sp": 2n},
    {"SO": 2n+1}, {"Res": [d, inner]}, {"Product": [inner, ...]}.
    """
    if not isinstance(spec, dict) or len(spec) != 1:
        raise ValueError("group description must be a single-key object")
    return spec


ONE_MINUS_U = IntPolynomial((1, -1))
ONE_PLUS_U = IntPolynomial((1, 1))


def motive_of(spec: dict) -> ArtinTateMotive:
    """Weight-graded Frobenius data of a group given by a nested description.

    >>> [p.weight for p in motive_of({"Sp": 4}).pieces]
    [2, 4]
    >>> [(p.weight, p.charpoly.coeffs) for p in motive_of({"Res": [2, {"U": 1}]}).pieces]
    [(1, (1, 0, 1))]
    """
    return _motive_of(_tagged(spec))


def _tagged(value):
    """A group description as nested (type, value) pairs, dicts and lists as
    tuples of their tagged items; ValueError for a value that cannot be part
    of a key."""
    kind = type(value)
    if kind is int or kind is str:
        return kind, value
    if isinstance(value, dict):
        return dict, tuple([(_tagged(k), _tagged(v)) for k, v in value.items()])
    if isinstance(value, list):
        return list, tuple([_tagged(v) for v in value])
    try:
        hash(value)
    except TypeError:
        raise ValueError(f"group descriptions hold JSON values, not {value!r}") from None
    return kind, value


def _untagged(key):
    kind, value = key
    if kind is dict:
        return {_untagged(k): _untagged(v) for k, v in value}
    if kind is list:
        return [_untagged(v) for v in value]
    return value


@functools.cache
def _motive_of(key) -> ArtinTateMotive:
    """motive_of of the tagged description key; a nested group recurses on
    its own tagged key."""
    spec = parse_group_spec(_untagged(key))
    (kind, arg), = spec.items()
    ((_, (_, inner_keys)),) = key[1]
    if kind == "GL":
        n = _positive_int(arg, "GL rank")
        return ArtinTateMotive(GradedPiece(d, ONE_MINUS_U) for d in range(1, n + 1))
    if kind == "SL":
        n = _positive_int(arg, "SL rank")
        return ArtinTateMotive(GradedPiece(d, ONE_MINUS_U) for d in range(2, n + 1))
    if kind == "U":
        n = _positive_int(arg, "unitary rank")
        return ArtinTateMotive(
            GradedPiece(d, ONE_MINUS_U if d % 2 == 0 else ONE_PLUS_U)
            for d in range(1, n + 1)
        )
    if kind == "Sp":
        n = _positive_int(arg, "symplectic size")
        if n % 2:
            raise ValueError("symplectic size must be even")
        return ArtinTateMotive(GradedPiece(d, ONE_MINUS_U) for d in range(2, n + 1, 2))
    if kind == "SO":
        n = _positive_int(arg, "orthogonal size")
        if n % 2 == 0:
            raise ValueError("only odd orthogonal sizes are supported")
        return ArtinTateMotive(GradedPiece(d, ONE_MINUS_U) for d in range(2, n, 2))
    if kind == "Res":
        if not isinstance(arg, list) or len(arg) != 2:
            raise ValueError("scalar restriction takes [degree, group]")
        return _motive_of(inner_keys[1]).induce(_positive_int(arg[0], "restriction degree"))
    if kind == "Product":
        if not isinstance(arg, list) or not arg:
            raise ValueError("product takes a nonempty list of groups")
        acc = _motive_of(inner_keys[0])
        for inner in inner_keys[1:]:
            acc = acc.direct_sum(_motive_of(inner))
        return acc
    raise ValueError(f"unknown group kind {kind!r}")


def _positive_int(v, label: str) -> int:
    if not isinstance(v, int) or isinstance(v, bool) or v < 1:
        raise ValueError(f"{label} must be a positive integer, got {v!r}")
    return v
