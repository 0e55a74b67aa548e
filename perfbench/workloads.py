"""Seeded inputs and exact-checked operations for the benchmark workloads.

An op is one exact identity checked, as one `motivesums verify` label is: it
computes a value through the library, recomputes or re-derives it through a
second route that does not share that code path, and compares the two.  Every
op returns whether the routes agree and a canonical text of its exact result,
which the runner folds into the output digest.

The library receives only the generated inputs.  Each workload is a fixed
composition of op slots, each with a fixed field, so that the cost of a pass
barely depends on the seed; the seed draws the free parameters -- curve
traces and integer check points -- and the order.
"""
from __future__ import annotations

import dataclasses
import itertools
import math
import random
from fractions import Fraction
from typing import Callable

# Fields the census and curve generators draw from: q -> (p, k).
FIELDS = {
    2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 7: (7, 1), 8: (2, 3), 9: (3, 2),
    11: (11, 1), 13: (13, 1), 16: (2, 4), 17: (17, 1), 19: (19, 1), 23: (23, 1),
    25: (5, 2), 27: (3, 3),
}
CURVE_QS = tuple(q for q in FIELDS if q <= 16)

# A census is kept when it enumerates at most this many polynomials
# (q^(n-1) for SL_n, q^n for Sp_2n and for self-reciprocal degree 2n).
CENSUS_ENUMERATION_CAP = 300
# Censuses this light run twice per pass, which brings a pass to over 100 ops.
CENSUS_TWICE_CAP = 10


@dataclasses.dataclass
class Op:
    label: str
    run: Callable[[], tuple[bool, str]]


@dataclasses.dataclass
class Lib:
    """The motivesums modules, imported afresh by each set-up."""

    classsums: object
    classtypes: object
    curves: object
    lefschetz: object
    lseries: object
    motives: object
    oracle: object


# ---------------------------------------------------------------------------
# independent evaluation of printed polynomials
# ---------------------------------------------------------------------------


def parse_poly(text: str) -> list[tuple[dict, int]]:
    """Terms of a polynomial in the package's printed form
    ("3 - x + 2*x^2*a1"), as (powers, coefficient) pairs."""
    if text == "0":
        return []
    out = []
    for token in text.replace(" - ", " + -").split(" + "):
        sign = -1 if token.startswith("-") else 1
        factors = token.lstrip("-").split("*")
        coeff = 1
        if factors[0].isdigit():
            coeff = int(factors.pop(0))
        powers = {}
        for f in factors:
            name, _, exp = f.partition("^")
            powers[name] = int(exp) if exp else 1
        out.append((powers, sign * coeff))
    return out


def canonical(terms: list[tuple[dict, int]]) -> str:
    """Order-independent text of parsed terms, for the output digest."""
    return repr(sorted((tuple(sorted(p.items())), c) for p, c in terms))


def evaluate_terms(terms, point: dict):
    total = 0
    for powers, coeff in terms:
        value = coeff
        for name, e in powers.items():
            value *= point[name] ** e
        total += value
    return total


def _moebius(n: int) -> int:
    result, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    return -result if n > 1 else result


def _block_product(total_n: int, total_d: int, x: int, alphas) -> int:
    """prod over a of (1 + a + ... + a^(D-1)) * prod_j (1 - a^D x^(jD))."""
    acc = 1
    for a in alphas:
        acc *= sum(a**j for j in range(total_d))
        for j in range(1, total_n // total_d):
            acc *= 1 - a**total_d * x ** (j * total_d)
    return acc


def _density_numerator(n: int, d: int, x: int) -> int:
    return sum(_moebius(e) * (x ** (d // e) - 1) for e in range(1, d + 1) if d % e == 0)


def _integer_points(rng: random.Random, r: int, count: int) -> list[dict]:
    points = []
    for _ in range(count):
        point = {"x": rng.randint(2, 9)}
        point.update({f"a{i + 1}": rng.choice((-3, -2, -1, 2, 3, 4)) for i in range(r)})
        points.append(point)
    return points


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------


def certificate_builds(excluded: list[dict]) -> list[tuple]:
    """Every kept certificate build, as (family, params) pairs."""
    skip = {(e["family"], tuple(e["params"])) for e in excluded}
    builds = []
    for n in range(1, 7):
        for n_prime, d_prime in ((1, 1), (3, 1), (5, 5)):
            if n_prime % d_prime or math.gcd(d_prime, n) != 1:
                continue
            for r in range(3):
                builds.append(("sl_script_p", (n, r, n_prime, d_prime)))
    for n in (2, 3):
        for parity in ("odd", "even"):
            for r in range(4):
                builds.append(("sp_certificate", (n, parity, r)))
    for l in (2, 3, 5, 7):
        for r in range(4):
            builds.append(("sl_prime_certificate", (l, r)))
    return [b for b in builds if b not in skip]


def _hasse_a(rng: random.Random, q: int) -> int:
    bound = math.isqrt(4 * q)
    return rng.randint(-bound, bound)


def _split_curve(lib: Lib, q: int, a: int | None):
    weil = [1] if a is None else [1, -a, q]
    return lib.curves.CurveDatum(q, weil, (1, 1), ())


def certificates_ops(lib: Lib, rng: random.Random, excluded: list[dict]) -> list[Op]:
    builds = certificate_builds(excluded)
    rng.shuffle(builds)
    ops: list[Op] = []
    for family, params in builds:
        r = params[2] if family == "sp_certificate" else params[1]
        points = _integer_points(rng, r, 2)
        if family == "sl_script_p":
            n, _, n_prime, d_prime = params
            spec, m = {"SL": n}, 1
            qs = [q for q in CURVE_QS if math.gcd(n, q - 1) == 1]
            evaluated = (n_prime, d_prime) == (1, 1) and n > 1
            check = _sl_script_check
        elif family == "sp_certificate":
            n, parity, _ = params
            spec, m = {"Sp": 2 * n}, 1
            qs = [q for q in CURVE_QS if (q % 2 == 0) == (parity == "even")]
            evaluated = True
            check = _sp_check
        else:
            spec, m = {"SL": params[0]}, 2
            qs = list(CURVE_QS)
            evaluated = True
            check = _sl_prime_check
        evaluations = []
        if evaluated and r in (0, 2):
            # the smallest and the largest admissible field; a seeded field
            # would make the evaluation cost of a pass depend on the seed
            for q in (qs[0], qs[-1]):
                evaluations.append((q, _hasse_a(rng, q) if r == 2 else None))
        box = {"uses": len(evaluations)}
        ops.append(_build_op(lib, family, params, points, check, box))
        for q, a in evaluations:
            ops.append(_evaluation_op(lib, box, spec, q, a, m))
    return ops


def _build_op(lib, family, params, points, check, box) -> Op:
    def run():
        cert = getattr(lib.classsums, family)(*params)
        if box["uses"]:
            box["cert"] = cert
        return check(lib, params, cert, points)

    return Op(f"{family}{params} points={points}", run)


def _sl_script_check(lib, params, cert, points):
    """(x^n - 1) * cert == sum over d | n of h(n'n, d'd) * M_d, at each point."""
    n, r, n_prime, d_prime = params
    terms = parse_poly(str(cert.polynomial))
    names = [f"a{i + 1}" for i in range(r)]
    ok = True
    for point in points:
        x, alphas = point["x"], [point[v] for v in names]
        rhs = sum(
            _block_product(n_prime * n, d_prime * d, x, alphas) * _density_numerator(n, d, x)
            for d in range(1, n + 1)
            if n % d == 0
        )
        ok = ok and (x**n - 1) * evaluate_terms(terms, point) == rhs
    return ok, canonical(terms)


def _sl_prime_check(lib, params, cert, points):
    """The nonsplit form is h_inert + (h_split - h_inert) / (1 + ... + x^(l-1))
    and the split form is h_inert + l times that quotient, at each point."""
    l, r = params
    forms = {name: parse_poly(str(p)) for name, p in cert.closed_forms}
    generic = parse_poly(str(cert.polynomial))
    names = [f"a{i + 1}" for i in range(r)]
    ok = canonical(generic) == canonical(forms["nonsplit"])
    for point in points:
        x, alphas = point["x"], [point[v] for v in names]
        h_split = _block_product(l, 1, x, alphas)
        h_inert = _block_product(l, l, x, alphas)
        quo = evaluate_terms(generic, point) - h_inert
        ok = ok and sum(x**j for j in range(l)) * quo == h_split - h_inert
        ok = ok and evaluate_terms(forms["split"], point) == l * quo + h_inert
    return ok, canonical(generic) + canonical(forms["split"])


def _sp_check(lib, params, cert, points):
    """cert == sum over table rows of count(x) * det(1, x) / det(x, x) *
    prod_i det(a_i, x), at each point."""
    n, parity, r = params
    terms = parse_poly(str(cert.polynomial))
    rows = [
        (row.count, parse_poly(str(row.det)))
        for row in lib.classtypes.table_goldens()[(n, parity)]
    ]
    names = [f"a{i + 1}" for i in range(r)]
    ok = True
    for point in points:
        x = point["x"]
        direct = Fraction(0)
        for count, det in rows:
            value = Fraction(count(x)) * Fraction(
                evaluate_terms(det, {"t": 1, "q": x}), evaluate_terms(det, {"t": x, "q": x})
            )
            for v in names:
                value *= evaluate_terms(det, {"t": point[v], "q": x})
            direct += value
        ok = ok and evaluate_terms(terms, point) == direct
    return ok, canonical(terms)


def _evaluation_op(lib, box, spec, q, a, m) -> Op:
    def run():
        cert = box["cert"]
        box["uses"] -= 1
        if not box["uses"]:
            del box["cert"]
        curve = _split_curve(lib, q, a)
        value = lib.classsums.evaluate_certificate(cert, curve, m)
        expected = lib.classsums.class_sum(spec, curve.base_change(m))
        return value == expected, str(value)

    return Op(f"evaluate {spec} q={q} a={a} m={m}", run)


# ---------------------------------------------------------------------------
# census
# ---------------------------------------------------------------------------


def census_slots() -> list[tuple]:
    """Every kept (kind, n, q) census, with its enumeration size."""
    slots = []
    for q in FIELDS:
        for n in range(2, 7):
            slots.append(("sl", n, q, q ** (n - 1)))
        for n in (2, 3):
            slots.append(("sp", n, q, q**n))
        for two_n in (2, 4, 6, 8):
            slots.append(("self_reciprocal", two_n, q, q ** (two_n // 2)))
    return [s for s in slots if s[3] <= CENSUS_ENUMERATION_CAP]


def census_ops(lib: Lib, rng: random.Random) -> list[Op]:
    slots = census_slots()
    chosen = slots + [s for s in slots if s[3] <= CENSUS_TWICE_CAP]
    rng.shuffle(chosen)
    return [_census_op(lib, kind, n, q) for kind, n, q, _ in chosen]


def _census_op(lib, kind, n, q) -> Op:
    p, k = FIELDS[q]
    oracle, classtypes = lib.oracle, lib.classtypes

    def run():
        field = oracle.FiniteField(p, k)
        if kind == "sl":
            census = oracle.sl_census(n, field)
            ok = sum(census.values()) == q ** (n - 1)
            if math.gcd(n, q - 1) == 1:
                ok = ok and all(
                    census[classtypes.SLType([(d, n // d)])] == classtypes.count_sl(n, d, q)
                    for d in range(1, n + 1)
                    if n % d == 0
                )
            return ok, repr(sorted((t.label(), c) for t, c in census.items()))
        if kind == "sp":
            census = oracle.sp_census(n, field)
            parity = "even" if q % 2 == 0 else "odd"
            ok = all(
                census[row.sp_type] == row.count(q)
                for row in classtypes.table_goldens()[(n, parity)]
            )
            return ok, repr(sorted((t.label(), c) for t, c in census.items()))
        count = oracle.self_reciprocal_irreducible_census(field, n)
        return count == classtypes.s_count(n, q), str(count)

    return Op(f"census {kind} n={n} q={q}", run)


# ---------------------------------------------------------------------------
# lvalues
# ---------------------------------------------------------------------------

ALL_GROUPS = (
    [{"SL": n} for n in range(2, 7)]
    + [{"Sp": 4}, {"Sp": 6}, {"GL": 2}, {"GL": 3}, {"U": 2}, {"U": 3}]
    + [{"Res": [2, {"U": 2}]}, {"Res": [2, {"GL": 2}]}, {"Res": [3, {"SL": 2}]}]
)
CLASS_SUM_GROUPS = [{"SL": n} for n in range(2, 7)] + [{"Sp": 4}, {"Sp": 6}]
# The base-change law applies to split groups and extension degrees coprime
# to every place degree; the slots below stay inside that range.
SPLIT_GROUPS = [{"SL": 2}, {"SL": 3}, {"SL": 4}, {"Sp": 4}, {"GL": 2}, {"GL": 3}]
PLACE_SHAPES = [
    ((1, 1), (1,)), ((1,), (1,)), ((1, 2), (1,)), ((1,), (2,)), ((2,), (1,)),
    ((1, 1), (2,)), ((1, 3), (1,)), ((3,), (1,)), ((1, 1, 1), (1,)), ((1,), (1, 1)),
    ((2, 3), (1,)),
]
MULTIPLICITY_GROUPS = [({"SL": n}, n) for n in (2, 3, 4, 5)] + [({"Sp": 4}, 2), ({"Sp": 6}, 2)]
TRANSFORM_INDICES = (1, 2, 3, 4, 6)
PLACE_DEGREES = ((1, 1), (2,), (2, 3), (1, 2))


def lvalues_ops(lib: Lib, rng: random.Random) -> list[Op]:
    # Fields and transform constants are dealt to the slots in a fixed
    # rotation, so the cost of a pass does not depend on the seed, which
    # draws the traces of the genus-1 curves and the order.
    fields = itertools.cycle(CURVE_QS)
    ops: list[Op] = []
    for spec in ALL_GROUPS:
        for _ in range(2):
            ops.append(_trivial_l_value_op(lib, spec, next(fields)))
    for spec in CLASS_SUM_GROUPS:
        for _ in range(3):
            ops.append(_unit_class_sum_op(lib, spec, next(fields)))
    for spec in SPLIT_GROUPS:
        for s, t in PLACE_SHAPES:
            for genus in (0, 1):
                q = next(fields)
                a = _hasse_a(rng, q) if genus else None
                # m = 1 and the least extension degree coprime to the places;
                # a seeded m would make the pass cost depend on the seed.
                m = next(m for m in range(2, 6) if all(math.gcd(m, d) == 1 for d in s + t))
                ops.append(_base_change_op(lib, spec, q, a, s, t, [1, m]))
    for spec, center in MULTIPLICITY_GROUPS:
        for _ in range(2):
            ops.append(_multiplicity_op(lib, spec, center, next(fields)))
    for spec, center in (({"SL": 2}, 2), ({"Sp": 4}, 2)):
        for q in (2, 4, 7):
            ops.append(_fit_op(lib, spec, center, q))
    constants = itertools.cycle((2, 3, 4, 5))
    for shape in ("chi2", "chi3", "constant", "single"):
        for n in TRANSFORM_INDICES:
            ops.append(_transform_op(lib, shape, next(constants), n))
        for degrees in PLACE_DEGREES:
            ops.append(_place_product_op(lib, shape, next(constants), degrees))
    rng.shuffle(ops)
    return ops


def _trivial_l_value_op(lib, spec, q) -> Op:
    def run():
        curve = lib.curves.CurveDatum(q, [1], (1,), (1,))
        value = lib.lseries.l_value(lib.motives.motive_of(spec), curve)
        return value == 1, str(value)

    return Op(f"l_value {spec} q={q}", run)


def _unit_class_sum_op(lib, spec, q) -> Op:
    def run():
        value = lib.classsums.class_sum(spec, _split_curve(lib, q, None))
        return value == 1, str(value)

    return Op(f"class_sum {spec} q={q}", run)


def _base_change_op(lib, spec, q, a, s, t, ms) -> Op:
    lseries = lib.lseries
    arity = 0 if a is None else 2

    def run():
        weil = [1] if a is None else [1, -a, q]
        curve = lib.curves.CurveDatum(q, weil, s, t)
        motive = lib.motives.motive_of(spec)
        z = lseries.z_polynomial(motive, curve, symbolic_j=arity)
        names = lseries.j_variable_names(arity)
        ok, values = True, []
        for m in ms:
            changed = curve.base_change(m)
            value = lseries.l_value(motive, changed)
            ok = ok and value == lseries.evaluate_with_weil_roots(z, changed, q**m, names)
            values.append(str(value))
        return ok, canonical(parse_poly(str(z))) + repr(values)

    return Op(f"base_change {spec} q={q} a={a} s={s} t={t} m={ms}", run)


def _multiplicity_op(lib, spec, center, q) -> Op:
    def run():
        curve = lib.curves.CurveDatum(q, [1], (1,), (1,))
        fixed = lib.lseries.multiplicity_sum(spec, curve)
        full = lib.lseries.multiplicity_sum(spec, curve, fixed_chi=False)
        ok = fixed == 1 and full == math.gcd(center, q - 1) * (q - 1)
        return ok, f"{fixed} {full}"

    return Op(f"multiplicity {spec} q={q}", run)


def _fit_op(lib, spec, center, q) -> Op:
    lseries, lefschetz = lib.lseries, lib.lefschetz

    def run():
        curve = lib.curves.CurveDatum(q, [1], (1,), (1,))
        values = [
            lseries.multiplicity_sum(spec, curve.base_change(m), fixed_chi=False)
            for m in range(1, 9)
        ]
        bases = [
            lefschetz.CyclotomicRational.root_of_unity(k, j) * q**i
            for k in range(1, center + 1)
            for j in range(k)
            if math.gcd(j, k) == 1 or k == 1
            for i in range(3)
        ]
        fitted = lseries.lefschetz_fit(values, bases)
        ok = fitted is not None and all(
            fitted.evaluate_rational(m) == values[m - 1] for m in range(1, 9)
        )
        return ok, repr([str(v) for v in values])

    return Op(f"multiplicity_fit {spec} q={q}", run)


def _base_function(lib, shape: str, c: int):
    lf = lib.lefschetz.LefschetzFunction
    if shape == "chi2":
        return lf.chi(2)
    if shape == "chi3":
        return lf.chi(3)
    if shape == "constant":
        return lf.constant(c)
    return lf.single(1, c)


def _transform_op(lib, shape, c, n) -> Op:
    def run():
        f = _base_function(lib, shape, c)
        g = lib.lefschetz.f_N_transform(f, n)
        ok, values = True, []
        for m in range(1, 3 * n + 1):
            value = g.evaluate(m)
            ok = ok and value == f.evaluate(math.lcm(n, m)) ** math.gcd(n, m)
            values.append(str(value))
        return ok, repr(values)

    return Op(f"f_N_transform {shape}({c}) N={n}", run)


def _place_product_op(lib, shape, c, degrees) -> Op:
    lefschetz = lib.lefschetz

    def run():
        f = _base_function(lib, shape, c)
        h = lefschetz.place_product(f, degrees)
        ok, values = True, []
        for m in range(1, 9):
            split = lib.curves.CurveDatum(2, [1], (1,), degrees).base_change(m).t_degrees
            expected = lefschetz.CyclotomicRational.from_rational(1)
            for d in split:
                expected = expected * f.evaluate(m * d)
            value = h.evaluate(m)
            ok = ok and value == expected
            values.append(str(value))
        return ok, repr(values)

    return Op(f"place_product {shape}({c}) degrees={list(degrees)}", run)


BUILDERS = {
    "certificates": lambda lib, rng, design: certificates_ops(lib, rng, design["excluded_builds"]),
    "census": lambda lib, rng, design: census_ops(lib, rng),
    "lvalues": lambda lib, rng, design: lvalues_ops(lib, rng),
}
