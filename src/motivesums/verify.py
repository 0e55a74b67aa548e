"""End-to-end verification battery shared by the CLI and the test suite.

Each check function runs one family of exact identities and returns a list
of (label, passed) pairs.  Suites group the checks: "tables" covers the
finite-field censuses against the counting formulas, "identities" covers
the symbolic certificates and L-function laws, "all" runs everything.
"""
from __future__ import annotations

import math

from .classsums import (
    CertificateError,
    class_sum,
    evaluate_certificate,
    sl_prime_certificate,
    sl_script_p,
    sp_certificate,
)
from .classtypes import SLType, count_sl, s_count, table_goldens
from .curves import CurveDatum
from .lefschetz import CyclotomicRational, LefschetzFunction, f_N_transform, place_product
from .lseries import (
    NotPolynomial,
    evaluate_with_weil_roots,
    j_variable_names,
    l_value,
    lefschetz_fit,
    multiplicity_sum,
    z_polynomial,
)
from .motives import motive_of
from .oracle import (
    FiniteField,
    self_reciprocal_irreducible_census,
    sl_census,
    sp_census,
)

CheckResult = list[tuple[str, bool]]


def _projective_line(q: int, s=(1,), t=(1,)) -> CurveDatum:
    return CurveDatum(q=q, weil_numerator=[1], s_degrees=s, t_degrees=t)


def _elliptic(q: int, a: int, s=(1,), t=(1,)) -> CurveDatum:
    return CurveDatum(q=q, weil_numerator=[1, -a, q], s_degrees=s, t_degrees=t)


def check_trivial_l_values() -> CheckResult:
    """L-value 1 on the projective line with one splitting and one twisting
    place, across a spread of group descriptions."""
    specs = [{"SL": n} for n in range(2, 6)]
    specs += [{"Sp": 4}, {"Sp": 6}, {"GL": 3}, {"Res": [2, {"U": 2}]}]
    out = []
    for q in (2, 3):
        curve = _projective_line(q)
        for spec in specs:
            label = f"trivial-l-value q={q} {_spec_label(spec)}"
            out.append((label, l_value(motive_of(spec), curve) == 1))
    return out


def check_unit_class_sums() -> CheckResult:
    """Class sums over the projective line with two splitting places equal 1."""
    out = []
    for q in (2, 3, 4, 5, 7, 8, 9):
        curve = _projective_line(q, s=(1, 1), t=())
        for spec in [{"SL": n} for n in range(2, 7)] + [{"Sp": 4}, {"Sp": 6}]:
            label = f"unit-class-sum q={q} {_spec_label(spec)}"
            out.append((label, class_sum(spec, curve) == 1))
    return out


def check_table_census() -> CheckResult:
    """Brute-force symplectic censuses reproduce every tabulated count."""
    out = []
    for n, qs in ((2, (2, 3, 4, 5, 7)), (3, (2, 3, 4))):
        for q in qs:
            census = sp_census(n, FiniteField.of_order(q))
            parity = "even" if q % 2 == 0 else "odd"
            for row in table_goldens()[(n, parity)]:
                label = f"table-census Sp_{2 * n} q={q} {row.label}"
                out.append((label, census[row.sp_type] == row.count(q)))
    return out


def check_counting_formulas() -> CheckResult:
    """Closed-form counts match exhaustive enumeration."""
    out = []
    for q in (2, 3, 4, 5):
        field = FiniteField.of_order(q)
        for two_n in (2, 4, 6, 8):
            label = f"self-reciprocal-count q={q} deg={two_n}"
            out.append(
                (label, self_reciprocal_irreducible_census(field, two_n) == s_count(two_n, q))
            )
    for q in (2, 3, 4, 5, 7, 8):
        field = FiniteField.of_order(q)
        for n in range(1, 6):
            if math.gcd(n, q - 1) != 1:
                continue
            census = sl_census(n, field)
            ok = all(
                census[SLType([(d, n // d)])] == count_sl(n, d, q)
                for d in range(1, n + 1)
                if n % d == 0
            )
            out.append((f"single-block-count q={q} n={n}", ok))
    return out


def check_sl_prime_certificates() -> CheckResult:
    """Prime-degree certificates build cleanly and match direct class sums."""
    out = []
    certs: dict[tuple[int, int], object] = {}
    for l in (2, 3, 5):
        for r in range(4):
            label = f"sl-prime-certificate l={l} r={r}"
            try:
                certs[(l, r)] = sl_prime_certificate(l, r)
                out.append((label, True))
            except CertificateError:
                out.append((label, False))
    curves = [("p1-q2", _projective_line(2, s=(1, 1), t=()), 0),
              ("p1-q3", _projective_line(3, s=(1, 1), t=()), 0)]
    curves += [(f"elliptic-a{a}", _elliptic(2, a, s=(1, 1), t=()), 2) for a in (-1, 0, 1)]
    for l in (2, 3, 5):
        for name, curve, r in curves:
            if (l, r) not in certs:
                continue
            ok = all(
                evaluate_certificate(certs[(l, r)], curve, m)
                == class_sum({"SL": l}, curve.base_change(m))
                for m in (1, 2, 3)
            )
            out.append((f"sl-prime-evaluation l={l} {name}", ok))
    return out


def check_sl_integrality() -> CheckResult:
    """Block-sum certificates clear to integer polynomials and evaluate to
    class sums in the coprime regime."""
    out = []
    certs: dict[tuple[int, int], object] = {}
    for n in range(1, 9):
        for n_prime, d_prime in ((1, 1), (3, 1), (5, 5)):
            if n_prime % d_prime or math.gcd(d_prime, n) != 1:
                continue
            for r in range(3):
                label = f"sl-integrality n={n} scale=({n_prime},{d_prime}) r={r}"
                try:
                    cert = sl_script_p(n, r, n_prime, d_prime)
                    if (n_prime, d_prime) == (1, 1):
                        certs[(n, r)] = cert
                    out.append((label, True))
                except CertificateError:
                    out.append((label, False))
    for q in (2, 4, 8):
        for n in range(2, 7):
            if math.gcd(n, q - 1) != 1:
                continue
            for name, curve, r in (
                ("p1", _projective_line(q, s=(1, 1), t=()), 0),
                ("elliptic", _elliptic(q, 1, s=(1, 1), t=()), 2),
            ):
                ok = evaluate_certificate(certs[(n, r)], curve) == class_sum(
                    {"SL": n}, curve
                )
                out.append((f"sl-integrality-evaluation n={n} q={q} {name}", ok))
    return out


def check_sp_certificates() -> CheckResult:
    """Symplectic certificates pass every divisibility condition and match
    direct class sums for both field-size parities."""
    out = []
    certs: dict[tuple[int, str], object] = {}
    for n in (2, 3):
        for parity in ("odd", "even"):
            for r in range(4):
                label = f"sp-certificate Sp_{2 * n} {parity} r={r}"
                try:
                    cert = sp_certificate(n, parity, r)
                    if r == 0:
                        certs[(n, parity)] = cert
                    out.append((label, True))
                except CertificateError:
                    out.append((label, False))
    for n in (2, 3):
        for parity, qs in (("odd", (3, 5, 7, 9)), ("even", (2, 4, 8))):
            if (n, parity) not in certs:
                continue
            ok = all(
                evaluate_certificate(certs[(n, parity)], _projective_line(q, s=(1, 1), t=()))
                == class_sum({"Sp": 2 * n}, _projective_line(q, s=(1, 1), t=()))
                for q in qs
            )
            out.append((f"sp-evaluation Sp_{2 * n} {parity}", ok))
    return out


def check_base_change_polynomial() -> CheckResult:
    """The L-value over every constant extension comes from one integer
    polynomial via x -> q^m and powered section eigenvalues."""
    out = []
    data = [
        ("p1", _projective_line(3, s=(1, 1), t=(1,)), 0),
        ("elliptic", _elliptic(2, 1, s=(1, 1), t=(1,)), 2),
    ]
    for spec in ({"SL": 2}, {"SL": 3}, {"Sp": 4}):
        motive = motive_of(spec)
        for name, curve, arity in data:
            label = f"base-change {_spec_label(spec)} {name}"
            try:
                z = z_polynomial(motive, curve, symbolic_j=arity)
            except NotPolynomial:
                out.append((label, False))
                continue
            names = j_variable_names(arity)
            ok = all(
                l_value(motive, curve.base_change(m))
                == evaluate_with_weil_roots(z, curve.base_change(m), curve.q**m, names)
                for m in (1, 2, 3, 4)
            )
            out.append((label, ok))
    return out


def check_lefschetz_transforms() -> CheckResult:
    """Transforms of exponential-sum functions match their pointwise
    definitions, with place products expanded through base change."""
    samples = [
        ("chi2", LefschetzFunction.chi(2)),
        ("chi3", LefschetzFunction.chi(3)),
        ("const2", LefschetzFunction.constant(2)),
        ("base3", LefschetzFunction.single(1, 3)),
    ]
    out = []
    for fname, f in samples:
        for n in (1, 2, 3, 4, 6, 12):
            g = f_N_transform(f, n)
            ok = all(
                g.evaluate(m) == f.evaluate(math.lcm(n, m)) ** math.gcd(n, m)
                for m in range(1, 5 * n + 1)
            )
            out.append((f"transform-pointwise {fname} N={n}", ok))
    for fname, f in samples:
        for degrees in ((1, 1), (2,), (2, 3)):
            h = place_product(f, degrees)
            ok = True
            for m in range(1, 13):
                split = CurveDatum(2, [1], (1,), degrees).base_change(m).t_degrees
                expected = CyclotomicRational.from_rational(1)
                for d in split:
                    expected = expected * f.evaluate(m * d)
                ok = ok and h.evaluate(m) == expected
            out.append((f"place-product {fname} degrees={list(degrees)}", ok))
    return out


def check_multiplicity_counts() -> CheckResult:
    """Twisted multiplicity sums on the projective line hit their closed
    forms and the all-character sequence is an exact exponential sum."""
    out = []
    for q in (2, 3, 4, 5):
        curve = _projective_line(q)
        for spec, center in [({"SL": n}, n) for n in (2, 3, 4, 5)] + [
            ({"Sp": 4}, 2),
            ({"Sp": 6}, 2),
        ]:
            fixed = multiplicity_sum(spec, curve) == 1
            full = multiplicity_sum(spec, curve, fixed_chi=False) == math.gcd(
                center, q - 1
            ) * (q - 1)
            out.append((f"multiplicity q={q} {_spec_label(spec)}", fixed and full))
    for q in (2, 3, 4, 5):
        curve = _projective_line(q)
        for spec, center in (({"SL": 2}, 2), ({"Sp": 4}, 2)):
            values = [
                multiplicity_sum(spec, curve.base_change(m), fixed_chi=False)
                for m in range(1, 9)
            ]
            bases = [
                CyclotomicRational.root_of_unity(k, j) * q**i
                for k in range(1, center + 1)
                for j in range(k)
                if math.gcd(j, k) == 1 or k == 1
                for i in range(3)
            ]
            fitted = lefschetz_fit(values, bases)
            ok = fitted is not None and all(
                fitted.evaluate_rational(m) == values[m - 1] for m in range(1, 9)
            )
            out.append((f"multiplicity-fit q={q} {_spec_label(spec)}", ok))
    return out


def _spec_label(spec: dict) -> str:
    (kind, arg), = spec.items()
    return f"{kind}_{arg}" if isinstance(arg, int) else f"{kind}"


CHECKS = {
    "trivial-l-values": check_trivial_l_values,
    "unit-class-sums": check_unit_class_sums,
    "table-census": check_table_census,
    "counting-formulas": check_counting_formulas,
    "sl-prime-certificates": check_sl_prime_certificates,
    "sl-integrality": check_sl_integrality,
    "sp-certificates": check_sp_certificates,
    "base-change-polynomial": check_base_change_polynomial,
    "lefschetz-transforms": check_lefschetz_transforms,
    "multiplicity-counts": check_multiplicity_counts,
}

SUITES = {
    "all": tuple(CHECKS),
    "tables": ("table-census", "counting-formulas"),
    "identities": tuple(k for k in CHECKS if k not in ("table-census", "counting-formulas")),
}


def run_suite(name: str) -> CheckResult:
    """Run every check in the named suite and return all (label, passed)
    pairs in order."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    out: CheckResult = []
    for key in SUITES[name]:
        out.extend(CHECKS[key]())
    return out
