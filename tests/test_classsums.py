"""Tests for class sums and the symbolic integrality certificates."""
import dataclasses
import hashlib
import io
import json
import math
import re
import time
from fractions import Fraction

import pytest

from motivesums import classsums as cs
from motivesums import curves
from motivesums.classsums import (
    CertificateError,
    SymbolicCertificate,
    class_sum,
    derivative_witness,
    evaluate_certificate,
    h_polynomial,
    m_numerator,
    sl_prime_certificate,
    sl_script_p,
    sp_certificate,
)
from motivesums.classtypes import (
    count_sl,
    count_sp,
    enumerate_sl_types,
    enumerate_sp_types,
    sl_centralizer_motive,
    sp_centralizer_motive,
    table_goldens,
)
from motivesums.cli import write_certificate
from motivesums.curves import CurveDatum
from motivesums.exactalg import BudgetError, IntPolynomial, SymbolicPolynomial
from motivesums.lseries import l_value
from motivesums.motives import motive_of


def projective_line(q):
    return CurveDatum(q=q, weil_numerator=[1], s_degrees=(1, 1), t_degrees=())


def elliptic(q, a):
    return CurveDatum(q=q, weil_numerator=[1, -a, q], s_degrees=(1, 1), t_degrees=())


# ---------------------------------------------------------------------------
# class sums
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_sl_class_sum_is_one(n, q):
    assert class_sum({"SL": n}, projective_line(q)) == 1


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
@pytest.mark.parametrize("size", [4, 6])
def test_sp_class_sum_is_one(size, q):
    assert class_sum({"Sp": size}, projective_line(q)) == 1


def test_verify_sum_identity():
    assert class_sum({"SL": 4}, projective_line(3)) == 1
    assert class_sum({"Sp": 6}, projective_line(2)) == 1
    assert class_sum({"SL": 2}, projective_line(9)) == 1


def test_determinant_vanishes_at_one_exactly_for_the_types_class_sum_skips():
    # class_sum sums only single-block SL types and Sp types without
    # general-linear blocks; every other type's determinant vanishes at t = 1
    cases = [(sl_centralizer_motive(t), len(t.pairs) > 1) for n in range(1, 7) for t in enumerate_sl_types(n)]
    cases += [
        (sp_centralizer_motive(t), bool(t.gl_pairs))
        for n in (1, 2, 3)
        for q_even in (False, True)
        for t in enumerate_sp_types(n, q_even=q_even)
    ]
    skipped = [skip for _, skip in cases]
    assert [m.frobenius_det().substitute({"t": 1}).is_zero() for m, _ in cases] == skipped
    assert any(skipped) and not all(skipped)


def test_class_sum_preconditions():
    with pytest.raises(ValueError):
        class_sum({"SL": 2}, CurveDatum(q=3, weil_numerator=[1], s_degrees=(1,), t_degrees=()))
    with pytest.raises(ValueError):
        class_sum({"SL": 2}, CurveDatum(q=3, weil_numerator=[1], s_degrees=(1, 1), t_degrees=(1,)))
    with pytest.raises(ValueError):
        class_sum({"GL": 2}, projective_line(3))


@pytest.mark.parametrize("spec", [{"SL": n} for n in range(1, 7)] + [{"Sp": 4}, {"Sp": 6}], ids=str)
def test_class_sum_is_the_fraction_sum_of_its_l_values(spec):
    # one numerator over one denominator against a Fraction per type
    ((kind, size),) = spec.items()
    curve_data = (projective_line(4), projective_line(9), elliptic(5, 2), elliptic(8, -3), elliptic(7, 0).base_change(2))
    for curve in curve_data:
        q = curve.q
        expected = sum(
            (count_sl(size, t.pairs[0][0], q) if kind == "SL" else count_sp(t, q)) * l_value(motive, curve)
            for t, motive in cs._summed_types(kind, size, q % 2 == 0)
        )
        value = class_sum(spec, curve)
        assert type(value) is Fraction and value == expected


def test_sp_table_rows_reproduce_class_sum():
    # direct sum of tabulated count times L-value, without enumeration
    for key, qs in (((2, "odd"), (3, 5)), ((3, "even"), (2, 4))):
        n, _ = key
        for q in qs:
            curve = projective_line(q)
            total = sum(
                row.count(q)
                * l_value(_motive_from_det(row), curve)
                for row in table_goldens()[key]
            )
            assert total == 1, (key, q)


def _motive_from_det(row):
    from motivesums.classtypes import sp_centralizer_motive

    return sp_centralizer_motive(row.sp_type)


# ---------------------------------------------------------------------------
# prime-degree certificates
# ---------------------------------------------------------------------------


def test_sl_prime_rank_zero_forms():
    cert = sl_prime_certificate(2, 0)
    assert cert.polynomial == 1
    assert dict(cert.closed_forms)["split"] == 1


def test_sl_prime_degree_two_single_variable():
    # (1 - a x) - (1 + a) = -a (1 + x)
    cert = sl_prime_certificate(2, 1)
    a = SymbolicPolynomial.variable("a1")
    assert dict(cert.closed_forms)["split"] == 1 - a
    assert dict(cert.closed_forms)["nonsplit"] == 1


@pytest.mark.parametrize("l", [2, 3, 5])
@pytest.mark.parametrize("r", [0, 1, 2, 3])
def test_sl_prime_division_exact(l, r):
    cert = sl_prime_certificate(l, r)
    assert all(c.passed for c in cert.checks)


def test_sl_prime_primitive_root_agreement():
    # the two block products agree modulo the degree-3 cyclotomic factor
    h1 = h_polynomial(3, 1, ("a1",))
    h3 = h_polynomial(3, 3, ("a1",))
    phi = SymbolicPolynomial.from_int_poly(IntPolynomial((1, 1, 1)), "x")
    _, rem = (h1 - h3).divrem(phi, "x")
    assert rem.is_zero()


def test_sl_prime_rejects_composite():
    with pytest.raises(ValueError):
        sl_prime_certificate(4, 1)


@pytest.mark.parametrize(
    "build",
    [
        lambda: sl_prime_certificate(10**9 + 7, 1),  # a prime
        lambda: sl_script_p(10**9, 1),
        lambda: sl_script_p(2, 1, n_prime=5 * 10**8),
    ],
    ids=["sl-prime", "sl-script-p", "sl-script-p-scaled"],
)
def test_oversized_certificates_are_refused_before_any_work(build):
    # the degree in x reaches the exponent limit; without the early check the
    # primality test, divisor list or dense coefficient list is O(size)
    start = time.perf_counter()
    with pytest.raises(OverflowError, match="exponent reached"):
        build()
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("l", [2, 3, 5])
@pytest.mark.parametrize("curve_key", ["p1-3", "ell-1", "ell0", "ell1"])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_sl_prime_matches_class_sum(l, curve_key, m):
    curve = {"p1-3": projective_line(3)}.get(curve_key) or elliptic(
        2, int(curve_key.replace("ell", ""))
    )
    r = 0 if curve_key == "p1-3" else 2
    cert = sl_prime_certificate(l, r)
    lhs = class_sum({"SL": l}, curve.base_change(m))
    assert lhs == evaluate_certificate(cert, curve, m)


# ---------------------------------------------------------------------------
# general SL integrality certificates
# ---------------------------------------------------------------------------


def test_m_numerators_sum_telescopes():
    # the density numerators over d | n add up to x^n - 1
    for n in (2, 3, 4, 6):
        acc = IntPolynomial()
        for d in (x for x in range(1, n + 1) if n % x == 0):
            acc = acc + m_numerator(n, d)
        expected = [0] * (n + 1)
        expected[0], expected[-1] = -1, 1
        assert acc == IntPolynomial(expected), n


def test_sl_script_p_trivial():
    assert sl_script_p(2, 0).polynomial == 1
    assert sl_script_p(5, 0).polynomial == 1


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("params", [(1, 1), (3, 1)])
def test_sl_script_p_clears(n, params):
    n_prime, d_prime = params
    cert = sl_script_p(n, 1, n_prime, d_prime)
    assert all(c.passed for c in cert.checks)


def test_sl_script_p_precondition():
    with pytest.raises(ValueError):
        sl_script_p(5, 1, n_prime=5, d_prime=5)  # d_prime not coprime to n
    with pytest.raises(ValueError):
        sl_script_p(2, 1, n_prime=3, d_prime=2)  # d_prime does not divide n_prime


def test_sl_script_p_symmetric_in_roots():
    cert = sl_script_p(3, 2)
    swapped = cert.polynomial.substitute(
        {"a1": SymbolicPolynomial.variable("a2"), "a2": SymbolicPolynomial.variable("a1")}
    )
    assert swapped == cert.polynomial


@pytest.mark.parametrize("m", [1, 2, 3])
def test_sl_script_p_matches_class_sum(m):
    for n, curve, r in ((2, projective_line(2), 0), (3, elliptic(2, 1), 2), (4, elliptic(4, 1), 2)):
        q = curve.q**m
        if math.gcd(n, q - 1) != 1:
            continue
        cert = sl_script_p(n, r)
        assert class_sum({"SL": n}, curve.base_change(m)) == evaluate_certificate(cert, curve, m)


def test_block_product_scaling_identity():
    # H at scaled sizes equals H at (x^m, a^m) times the geometric factors
    names = ("a1", "a2")
    x = SymbolicPolynomial.variable("x")
    for n, d, m in ((2, 1, 2), (4, 2, 3), (3, 3, 2)):
        lhs = h_polynomial(m * n, m * d, names)
        sub = {"x": x**m}
        for name in names:
            sub[name] = SymbolicPolynomial.variable(name) ** m
        rhs = h_polynomial(n, d, names).substitute(sub)
        for name in names:
            a = SymbolicPolynomial.variable(name)
            geo = SymbolicPolynomial.constant(0)
            for j in range(m):
                geo = geo + a**j
            rhs = rhs * geo
        assert lhs == rhs, (n, d, m)


def test_block_product_at_fourth_root():
    # reduction of H(4, 2) modulo 1 + x^2 gives the lcm-collapsed product
    names = ("a1", "a2")
    lhs = h_polynomial(4, 2, names)
    rhs = SymbolicPolynomial.constant(1)
    for name in names:
        a = SymbolicPolynomial.variable(name)
        rhs = rhs * (1 + a + a**2 + a**3)
    phi = SymbolicPolynomial.from_int_poly(IntPolynomial((1, 0, 1)), "x")
    _, rem = (lhs - rhs).divrem(phi, "x")
    assert rem.is_zero()


# ---------------------------------------------------------------------------
# symplectic certificates
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("parity", ["odd", "even"])
@pytest.mark.parametrize("n", [2, 3])
def test_sp_certificate_passes_all_conditions(n, parity):
    cert = sp_certificate(n, parity, 2)
    assert all(c.passed for c in cert.checks)
    labels = {c.label for c in cert.checks}
    assert "even-coefficient-congruence" in labels
    assert "fourth-root-vanishing" in labels
    assert "integral-clearance" in labels
    if n == 3:
        assert "triple-coefficient-congruence" in labels
        assert "sixth-root-vanishing" in labels


@pytest.mark.parametrize("parity", ["odd", "even"])
@pytest.mark.parametrize("n", [2, 3])
def test_sp_certificate_rank_zero_is_one(n, parity):
    assert sp_certificate(n, parity, 0).polynomial == 1


def test_sp_certificate_witness_values():
    cert = sp_certificate(3, "even", 1)
    by_label = {c.label: c for c in cert.checks}
    assert by_label["ratio-value-at-minus-one-t1"].witness == "1/6"
    assert by_label["ratio-curvature-at-minus-one-t7"].witness == "1/2"


def test_sp_certificate_symmetric_in_roots():
    cert = sp_certificate(2, "odd", 2)
    swapped = cert.polynomial.substitute(
        {"a1": SymbolicPolynomial.variable("a2"), "a2": SymbolicPolynomial.variable("a1")}
    )
    assert swapped == cert.polynomial


@pytest.mark.parametrize("q", [3, 5, 7, 9])
@pytest.mark.parametrize("n", [2, 3])
def test_sp_certificate_matches_class_sum_odd(n, q):
    cert = sp_certificate(n, "odd", 0)
    assert evaluate_certificate(cert, projective_line(q)) == class_sum(
        {"Sp": 2 * n}, projective_line(q)
    )


@pytest.mark.parametrize("q", [2, 4, 8])
@pytest.mark.parametrize("n", [2, 3])
def test_sp_certificate_matches_class_sum_even(n, q):
    cert = sp_certificate(n, "even", 0)
    assert evaluate_certificate(cert, projective_line(q)) == class_sum(
        {"Sp": 2 * n}, projective_line(q)
    )


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("n", [2, 3])
def test_sp_certificate_base_change_elliptic(n, m):
    for curve in (elliptic(2, 1), elliptic(3, 0)):
        q = curve.q**m
        cert = sp_certificate(n, "odd" if q % 2 else "even", 2)
        lhs = class_sum({"Sp": 2 * n}, curve.base_change(m))
        assert lhs == evaluate_certificate(cert, curve, m)


def test_sp_certificate_input_validation():
    with pytest.raises(ValueError):
        sp_certificate(4, "odd", 1)
    with pytest.raises(ValueError):
        sp_certificate(2, "mixed", 1)


def test_tampered_ratio_fails_loudly(monkeypatch):
    import motivesums.classsums as cs

    # fill the memoized table steps first, so a cache that ignored the
    # tampered ratio would let it through
    sp_certificate(2, "odd", 1)
    broken = cs._golden_sp_ratios()
    broken[(2, "odd")]["t2"] = (IntPolynomial((2,)), broken[(2, "odd")]["t2"][1])
    monkeypatch.setattr(cs, "_golden_sp_ratios", lambda: broken)
    with pytest.raises(CertificateError):
        sp_certificate(2, "odd", 1)


# every memo that an Sp certificate build reads
_SP_MEMOS = (
    cs._golden_pairs,
    cs._count_polynomial,
    cs._det_at_one_and_x,
    cs._transcription,
    cs._cleared_multiplier,
    cs._det_jet,
    cs._det_product,
    cs._det_product_jet,
    cs._rational_derivatives_at,
    cs._ratio_witnesses,
    cs._freshman_congruences,
    cs._freshman_products,
    cs.derivative_witness,
)


@pytest.mark.parametrize("parity", ["odd", "even"])
@pytest.mark.parametrize("n", [2, 3])
def test_sp_certificate_is_the_same_with_cold_and_warm_caches(n, parity):
    for r in range(4):
        for memo in _SP_MEMOS:
            memo.cache_clear()
        cold = sp_certificate(n, parity, r)
        warm = sp_certificate(n, parity, r)
        assert warm.checks == cold.checks
        assert str(warm.polynomial) == str(cold.polynomial)


def test_every_sp_memo_is_cleared_by_the_cold_and_warm_test():
    # the module's own memos; _summed_types serves class_sum only
    memos = {name for name, f in vars(cs).items() if hasattr(f, "cache_clear") and f.__module__ == cs.__name__}
    assert memos - {"_summed_types"} == {memo.__name__ for memo in _SP_MEMOS}


def test_golden_ratios_are_new_dicts_on_every_call():
    first = cs._golden_sp_ratios()
    first[(2, "odd")]["t2"] = None
    del first[(3, "even")]
    assert cs._golden_sp_ratios()[(2, "odd")]["t2"] == (IntPolynomial((1,)), cs._OP * cs._OP)
    assert (3, "even") in cs._golden_sp_ratios()


def _tampered_tables(key, label, **changes):
    """table_goldens with the named row of one table changed."""
    tables = dict(table_goldens())
    tables[key] = tuple(dataclasses.replace(row, **changes) if row.label == label else row for row in tables[key])
    return lambda: tables


def test_tampered_count_fails_loudly_after_warm_caches(monkeypatch):
    # every memo warm first, so a memo keyed by the table instead of the
    # count's values would let the tampered count through
    for r in range(3):
        sp_certificate(2, "odd", r)
    monkeypatch.setattr(cs, "table_goldens", _tampered_tables((2, "odd"), "t3", count=lambda v: Fraction(v - 3)))
    with pytest.raises(CertificateError, match="count-ratio-transcription-t3"):
        sp_certificate(2, "odd", 2)


def test_tampered_determinant_fails_loudly_after_warm_caches(monkeypatch):
    for r in range(3):
        sp_certificate(3, "even", r)
    (row,) = [row for row in table_goldens()[(3, "even")] if row.label == "t8"]
    extra = 1 - SymbolicPolynomial.variable("t") * SymbolicPolynomial.variable("q") ** 3
    monkeypatch.setattr(cs, "table_goldens", _tampered_tables((3, "even"), "t8", det=row.det * extra))
    with pytest.raises(CertificateError, match="count-ratio-transcription-t8"):
        sp_certificate(3, "even", 2)


def test_a_total_without_its_zero_at_minus_one_fails_with_the_totals_value(monkeypatch):
    # 6 more in every cleared multiplier keeps the congruences but adds
    # 6 * h(-1) per row to the total's value at x = -1, which the check reads
    # off the clearance remainder and must report as it is
    real = cs._cleared_multiplier
    monkeypatch.setattr(cs, "_cleared_multiplier", lambda *args: real(*args) + 6)
    rows = table_goldens()[(2, "odd")]
    value = 6 * sum((cs._det_product_jet(row.det, ("a1",), 0)[0] for row in rows), start=SymbolicPolynomial.constant(0))
    assert not value.is_zero()
    with pytest.raises(CertificateError, match=re.escape(f"minus-one-vanishing-order-0 ({value})")):
        sp_certificate(2, "odd", 1)


def test_certificates_over_the_term_budget_are_refused_before_any_work():
    start = time.perf_counter()
    for build in (
        lambda: sl_prime_certificate(7, 5),
        lambda: sl_script_p(6, 5),
        lambda: sp_certificate(3, "odd", 7),
        lambda: sl_script_p(2, 10**9),
    ):
        with pytest.raises(BudgetError):
            build()
    assert time.perf_counter() - start < 1


# ---------------------------------------------------------------------------
# derivative witnesses and serialization
# ---------------------------------------------------------------------------


def test_derivative_witness_single_variable():
    w = derivative_witness(("a1",), 3)
    a = SymbolicPolynomial.variable("a1")
    assert w.A == (1 + a) ** 3
    assert w.B == a * (1 + a) ** 2
    assert w.C == a**2 * (1 + a)
    assert w.D.is_zero()


def test_derivative_witness_two_variables_symmetric():
    w = derivative_witness(("a1", "a2"), 2)
    swap = {"a1": SymbolicPolynomial.variable("a2"), "a2": SymbolicPolynomial.variable("a1")}
    for p in (w.A, w.B, w.C, w.D):
        assert p.substitute(swap) == p


def as_json_dict(cert: SymbolicCertificate) -> dict:
    """The certificate's JSON object, built whole: the reference for the
    streamed cli.write_certificate."""

    def poly_dict(p: SymbolicPolynomial) -> dict:
        return {
            "text": str(p),
            "terms": [
                {"coefficient": c, "powers": dict(zip(p.vars, exps))}
                for exps, c in sorted(p.terms.items())
            ],
        }

    return {
        "group": cert.group,
        "j_arity": cert.j_arity,
        "regime": cert.regime,
        "polynomial": poly_dict(cert.polynomial),
        "closed_forms": {name: poly_dict(p) for name, p in cert.closed_forms},
        "checks": [dataclasses.asdict(c) for c in cert.checks],
    }


def test_certificate_json_shape():
    cert = sl_prime_certificate(3, 1)
    data = as_json_dict(cert)
    assert data["group"] == {"SL": 3}
    assert data["j_arity"] == 1
    assert {"split", "nonsplit"} <= set(data["closed_forms"])
    assert all(c["passed"] for c in data["checks"])
    assert all("coefficient" in t for t in data["polynomial"]["terms"])


def _odd_certificate() -> SymbolicCertificate:
    """A certificate with the shapes no build gives: a zero and a constant
    closed form, variables out of their registration order, no checks and
    text that JSON must escape."""
    a, b = SymbolicPolynomial.variable("a1"), SymbolicPolynomial.variable("a2")
    return SymbolicCertificate(
        group={"Sp": 4, "note": [1, {"x": None}]},
        j_arity=2,
        polynomial=(b - 2**70 * a) ** 2 + b * a**3,
        checks=(),
        closed_forms=(("zero", SymbolicPolynomial.constant(0)), ("one", SymbolicPolynomial.constant(-1))),
        regime='a "quoted"\nregime \u00e9',
    )


@pytest.mark.parametrize(
    "build",
    [
        lambda: sl_prime_certificate(3, 2),
        lambda: sl_prime_certificate(2, 0),
        lambda: sl_script_p(1, 0),
        lambda: sl_script_p(2, 1, 3, 1),
        lambda: sp_certificate(2, "even", 1),
        _odd_certificate,
    ],
    ids=["sl-prime-3-2", "sl-prime-2-0", "sl-general-1-0", "sl-general-2-1-scaled", "sp-4-even-1", "odd-shapes"],
)
def test_streamed_certificate_json_matches_the_whole_object(build):
    cert = build()
    out = io.StringIO()
    write_certificate(cert, out)
    assert out.getvalue() == json.dumps(as_json_dict(cert), indent=2)


def _clear_class_sum_memos():
    cs._summed_types.cache_clear()
    curves._h0_det.cache_clear()
    curves._h0_quotient_factors.cache_clear()


# Weil numerators of genus 0, 1 and 2 over each field size
_WEIL = {2: ([1], [1, 1, 2], [1, 1, 1, 2, 4]), 3: ([1], [1, -2, 3], [1, 1, 1, 3, 9])}


def test_class_sums_and_evaluations_are_the_same_with_cold_and_warm_memos():
    # every value computed with cleared memos, then twice more with the
    # memos filling up and full; SL and Sp sizes and both parities of q
    # share the memos, so a key that dropped one of them would differ
    specs = [{"SL": n} for n in range(2, 7)] + [{"Sp": 4}, {"Sp": 6}]
    jobs = []
    for q, weils in _WEIL.items():
        parity = "even" if q % 2 == 0 else "odd"
        for weil in weils:
            r = len(weil) - 1
            base = CurveDatum(q, weil, (1, 1))
            for spec in specs:
                ((kind, size),) = spec.items()
                cert = None
                if r < 4:  # certificates evaluate over genus 0 and 1
                    cert = sl_script_p(size, r) if kind == "SL" else sp_certificate(size // 2, parity, r)
                for m in (1, 2, 3):
                    curve = base.base_change(m)
                    jobs.append(lambda spec=spec, curve=curve: class_sum(spec, curve))
                    if cert is not None:
                        jobs.append(lambda cert=cert, base=base, m=m: evaluate_certificate(cert, base, m))

    def cold(job):
        _clear_class_sum_memos()
        return job()

    runs = [[cold(job) for job in jobs], [job() for job in jobs], [job() for job in jobs]]
    assert runs[1:] == [runs[0]] * 2


# Printed certificate polynomials, pinned as the quotient of the step-by-step
# long division printed them.  The printed form depends on the quotient's
# variable order, which the row-wise division must keep.
_SL_3_2 = (
    "1 + a2^2*x + a1*a2*x + a1^2*x + a1*a2*x^2 + a1*a2^2*x + a1^2*a2*x"
    " + a1^2*a2^2*x - a1*a2^2*x^3 - a1^2*a2*x^3 - a1^2*a2^2*x^3 + a1^2*a2^2*x^4"
)
_SP_2_ODD_2 = (
    "1 - 2*a2*x + a2^2 - 2*a1*x + 3*a1*a2 + a1^2 - 2*a2^2*x - 5*a1*a2*x"
    " + 3*a1*a2^2 - 2*a1^2*x + 3*a1^2*a2 + 2*a2^2*x^2 + 6*a1*a2*x^2"
    " - 7*a1*a2^2*x + 2*a1^2*x^2 - 7*a1^2*a2*x + a1^2*a2^2 - 2*a1*a2*x^3"
    " + 6*a1*a2^2*x^2 + 6*a1^2*a2*x^2 - 5*a1^2*a2^2*x + 2*a1*a2*x^4"
    " - 4*a1*a2^2*x^3 - 4*a1^2*a2*x^3 + 7*a1^2*a2^2*x^2 + 2*a1*a2^2*x^4"
    " + 2*a1^2*a2*x^4 - 4*a1^2*a2^2*x^3 - 2*a1*a2^2*x^5 - 2*a1^2*a2*x^5"
    " + 2*a1^2*a2^2*x^4 - 2*a1^2*a2^2*x^5 + 2*a1^2*a2^2*x^6"
)
_SL_PRIME_3_2_SPLIT = (
    "1 - 2*a2 - 2*a1 - 2*a2^2 - 2*a1*a2 - 2*a1^2 + 3*a2^2*x + 3*a1*a2*x"
    " - 2*a1*a2^2 + 3*a1^2*x - 2*a1^2*a2 + 3*a1*a2*x^2 + 3*a1*a2^2*x"
    " + 3*a1^2*a2*x - 2*a1^2*a2^2 + 3*a1^2*a2^2*x - 3*a1*a2^2*x^3"
    " - 3*a1^2*a2*x^3 - 3*a1^2*a2^2*x^3 + 3*a1^2*a2^2*x^4"
)


def test_certificate_printing_is_stable():
    assert str(sl_script_p(3, 2).polynomial) == _SL_3_2
    assert str(sp_certificate(2, "odd", 2).polynomial) == _SP_2_ODD_2
    forms = {name: str(p) for name, p in sl_prime_certificate(3, 2).closed_forms}
    assert forms == {"split": _SL_PRIME_3_2_SPLIT, "nonsplit": _SL_3_2}
    large = sl_script_p(4, 2, 3, 1).polynomial
    assert large.vars == ("a1", "a2", "x") and len(large.terms) == 8813
    digest = hashlib.sha256(str(large).encode()).hexdigest()
    assert digest == "ab22a4370456e582ba3f1a37cdd4fe9c9cfbd91a6b3b504f41d9449005b63943"
