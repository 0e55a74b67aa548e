"""Command-line front door: every computation as a batch command.

Inputs whose first non-space character is "{", "[", '"', "-" or a digit
are parsed as inline JSON; anything else is treated as a path to a JSON
file.  All output is exact: rationals print as
"a/b" (denominator omitted when 1) and polynomials print in ascending
exponent order with explicit "*" and "^".

Exit codes: 0 success, 1 certificate or verification failure, 2 malformed
input, 3 work budget exceeded (a census with too many trial divisions, a
cyclotomic reduction of too large an index, or a certificate whose
products could pass its term budget).
"""
from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import sys
from typing import Sequence, TextIO

from .classsums import (
    CertificateError,
    SymbolicCertificate,
    class_sum,
    sl_prime_certificate,
    sl_script_p,
    sp_certificate,
)
from .curves import CurveDatum
from .exactalg import SymbolicPolynomial, _format_terms
from .lefschetz import LefschetzFunction, f_N_transform, place_product
from .lseries import l_value
from .motives import motive_of
from .oracle import BudgetError, FiniteField, sl_census, sp_census
from .verify import run_suite


_INLINE_JSON_START = tuple('{["-0123456789')


def _load_json(source: str):
    if source.lstrip().startswith(_INLINE_JSON_START):
        return json.loads(source)
    try:
        with open(source, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise _InputError(f"cannot read {source}: {exc}") from exc


class _InputError(Exception):
    pass


def _parse_group(text: str) -> dict:
    kind, _, rank = text.partition(":")
    if kind not in ("SL", "Sp", "GL") or not rank.isdigit():
        raise _InputError(f"group must look like SL:n or Sp:2n, got {text!r}")
    return {kind: int(rank)}


def _curve_from(source: str, q_override: int | None = None) -> CurveDatum:
    data = _load_json(source)
    if not isinstance(data, dict):
        raise _InputError("curve description must be a JSON object")
    if q_override is not None:
        data = dict(data, q=q_override)
    for key in ("q", "weil_numerator", "s_degrees"):
        if key not in data:
            raise _InputError(f"curve description is missing {key!r}")
    _integer(data["q"], "q")
    for key in ("weil_numerator", "s_degrees", "t_degrees"):
        values = data.get(key, [])
        if not isinstance(values, list):
            raise _InputError(f"{key} must be a list of integers, got {values!r}")
        for value in values:
            _integer(value, key)
    return CurveDatum(data["q"], data["weil_numerator"], data["s_degrees"], data.get("t_degrees", ()))


def _integer(value, name: str) -> None:
    """JSON integers only: strings, floats and booleans are malformed input."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise _InputError(f"{name} must be an integer, got {value!r}")


def _parse_base_function(text: str) -> LefschetzFunction:
    kind, _, arg = text.partition(":")
    if not arg.lstrip("-").isdigit():
        raise _InputError(f"function must look like chi:N, const:C, or base:B, got {text!r}")
    value = int(arg)
    if kind == "chi":
        return LefschetzFunction.chi(value)
    if kind == "const":
        return LefschetzFunction.constant(value)
    if kind == "base":
        return LefschetzFunction.single(1, value)
    raise _InputError(f"unknown function kind {kind!r}")


def _parse_degrees(text: str) -> list[int]:
    items = [d.strip() for d in text.split(",")]
    if not all(d.isdecimal() and int(d) > 0 for d in items):
        raise _InputError(f"--degrees must list positive place degrees, e.g. 2,3, got {text!r}")
    return [int(d) for d in items]


def write_certificate(cert: SymbolicCertificate, out: TextIO) -> None:
    """Write the certificate as one JSON object: its group, arity, regime,
    polynomial, closed forms and checks, in the bytes that
    json.dumps(..., indent=2) gives for that object.  A polynomial is its
    text and its terms, ordered by their exponents in the order of its
    variables, and the terms are written a batch at a time."""
    # the nonsplit closed form is the certificate polynomial itself, so
    # each distinct polynomial is decoded, sorted and printed once
    parts: dict[int, tuple] = {}

    def write_polynomial(p: SymbolicPolynomial, indent: str) -> None:
        if id(p) not in parts:
            coeffs, columns = p.sorted_columns(graded=False)
            parts[id(p)] = (_graded_text(p.vars, coeffs, columns), p.vars, coeffs, columns)
        _write_polynomial(out, *parts[id(p)], indent)

    out.write(f'{{\n  "group": {_indented(cert.group, "  ")},\n')
    out.write(f'  "j_arity": {json.dumps(cert.j_arity)},\n  "regime": {json.dumps(cert.regime)},\n')
    out.write('  "polynomial": ')
    write_polynomial(cert.polynomial, "  ")
    out.write(',\n  "closed_forms": {')
    for i, (name, p) in enumerate(cert.closed_forms):
        out.write(f'{"," if i else ""}\n    {json.dumps(name)}: ')
        write_polynomial(p, "    ")
    out.write("\n  }" if cert.closed_forms else "}")
    checks = [dataclasses.asdict(c) for c in cert.checks]
    out.write(f',\n  "checks": {_indented(checks, "  ")}\n}}')


def _graded_text(names: Sequence[str], coeffs: list[int], columns: list[list[int]]) -> str:
    """str() of the polynomial whose terms are given in the order of their
    exponents in names: the graded order that str() prints is that order,
    stably sorted by total degree."""
    order = sorted(range(len(coeffs)), key=list(map(sum, zip(*columns))).__getitem__) if columns else range(len(coeffs))
    return _format_terms(names, [coeffs[i] for i in order], [[col[i] for i in order] for col in columns])


def _indented(value, indent: str) -> str:
    """json.dumps(value, indent=2) for a value that opens at the given
    indent; a newline in the text is always structural, as json.dumps
    escapes the ones inside strings."""
    return json.dumps(value, indent=2).replace("\n", "\n" + indent)


def _write_polynomial(
    out: TextIO, text: str, names: Sequence[str], coeffs: list[int], columns: list[list[int]], indent: str
) -> None:
    """One polynomial object of write_certificate, opening at the given
    indent, from its text and its sorted terms; each variable's line of a
    term is formatted once per distinct exponent."""
    out.write(f'{{\n{indent}  "text": {json.dumps(text)},\n{indent}  "terms": ')
    if not coeffs:
        out.write(f"[]\n{indent}}}")
        return
    if columns:
        lines = []
        for v, col in zip(names, columns):
            line = {e: f"{indent}        {json.dumps(v)}: {e}" for e in set(col)}
            lines.append(map(line.__getitem__, col))
        powers = (f"{{\n{body}\n{indent}      }}" for body in map(",\n".join, zip(*lines)))
    else:
        powers = itertools.repeat("{}")
    terms = (
        f'{indent}    {{\n{indent}      "coefficient": {c},\n{indent}      "powers": {power}\n{indent}    }}'
        for c, power in zip(coeffs, powers)
    )
    out.write("[\n" + next(terms))
    rest = (",\n" + term for term in terms)
    while chunk := "".join(itertools.islice(rest, 512)):
        out.write(chunk)
    out.write(f"\n{indent}  ]\n{indent}}}")


# -- subcommand handlers -----------------------------------------------------


def _cmd_motive(args) -> int:
    motive = motive_of(_load_json(args.groupspec))
    factors = motive.frobenius_det_factors()
    print("".join(f"({f})" for f in factors) if factors else "1")
    return 0


def _cmd_lfun(args) -> int:
    curve = _curve_from(args.curve)
    motive = motive_of(_load_json(args.groupspec))
    print(l_value(motive, curve))
    return 0


def _cmd_class_sum(args) -> int:
    curve = _curve_from(args.curve, args.q).base_change(args.base_change)
    print(class_sum(_parse_group(args.group), curve))
    return 0


def _cmd_certificate(args) -> int:
    params = _load_json(args.params)
    if not isinstance(params, dict):
        raise _InputError("--params must be a JSON object")
    for key in ("l", "n", "r", "n_prime", "d_prime"):
        if key in params:
            _integer(params[key], key)
    try:
        if args.family == "sl-prime":
            cert = sl_prime_certificate(params["l"], params.get("r", 0))
        elif args.family == "sl-general":
            cert = sl_script_p(
                params["n"],
                params.get("r", 0),
                params.get("n_prime", 1),
                params.get("d_prime", 1),
            )
        else:
            cert = sp_certificate(params["n"], params["parity"], params.get("r", 0))
    except KeyError as exc:
        raise _InputError(f"--params is missing {exc}") from exc
    write_certificate(cert, sys.stdout)
    print()
    return 0


def _cmd_census(args) -> int:
    spec = _parse_group(args.group)
    field = FiniteField.of_order(args.q)
    (kind, rank), = spec.items()
    if kind == "SL":
        census = sl_census(rank, field)
    elif kind == "Sp":
        if rank % 2:
            raise _InputError("symplectic size must be even")
        census = sp_census(rank // 2, field)
    else:
        raise _InputError("census supports SL:n and Sp:2n only")
    print("type,count")
    for shape, count in census.items():
        # general-linear blocks are census-internal; the tabulated universe
        # for Sp is the unitary/central one
        if kind == "Sp" and shape.gl_pairs:
            continue
        print(f"{shape.label()},{count}")
    return 0


def _cmd_lefschetz(args) -> int:
    if args.m_max < 1:
        raise _InputError(f"--m-max must be positive, got {args.m_max}")
    if args.op == "chi":
        fn = LefschetzFunction.chi(args.n)
    elif args.op == "fN":
        fn = f_N_transform(_parse_base_function(args.f), args.n)
    else:
        fn = place_product(_parse_base_function(args.f), _parse_degrees(args.degrees))
    print("m,value")
    for m in range(1, args.m_max + 1):
        print(f"{m},{fn.evaluate(m)}")
    return 0


def _cmd_verify(args) -> int:
    results = run_suite(args.suite)
    failures = 0
    for label, passed in results:
        print(f"{label}: {'PASS' if passed else 'FAIL'}")
        failures += not passed
    print(f"{len(results) - failures} passed, {failures} failed")
    return 1 if failures else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="motivesums",
        description="Exact class sums, L-values, and verification certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("motive", help="print the graded Frobenius determinant")
    p.add_argument("groupspec", help="group description (JSON file or inline)")
    p.set_defaults(handler=_cmd_motive)

    p = sub.add_parser("lfun", help="print an exact L-value")
    p.add_argument("curve", help="curve datum (JSON file or inline)")
    p.add_argument("groupspec", help="group description (JSON file or inline)")
    p.set_defaults(handler=_cmd_lfun)

    p = sub.add_parser("class-sum", help="sum of L-values over semisimple types")
    p.add_argument("curve", help="curve datum (JSON file or inline)")
    p.add_argument("--group", required=True, help="SL:n or Sp:2n")
    p.add_argument("--base-change", type=int, default=1, metavar="M")
    p.add_argument("--q", type=int, default=None, help="override the base field size")
    p.set_defaults(handler=_cmd_class_sum)

    p = sub.add_parser("certificate", help="build and print a verified certificate")
    p.add_argument("--family", required=True, choices=("sl-prime", "sl-general", "sp"))
    p.add_argument("--params", required=True, help="family parameters (JSON)")
    p.set_defaults(handler=_cmd_certificate)

    p = sub.add_parser("census", help="exhaustive finite-field class census (CSV)")
    p.add_argument("--group", required=True, help="SL:n or Sp:2n")
    p.add_argument("--q", required=True, type=int)
    p.set_defaults(handler=_cmd_census)

    p = sub.add_parser("lefschetz", help="exponential-sum transforms (CSV of values)")
    p.add_argument("--op", required=True, choices=("chi", "fN", "place-product"))
    p.add_argument("--n", type=int, default=1, help="index for chi and fN")
    p.add_argument("--f", default="chi:2", help="base function: chi:N, const:C, or base:B")
    p.add_argument("--degrees", default="", help="place degrees for place-product, e.g. 2,3")
    p.add_argument("--m-max", type=int, default=8)
    p.set_defaults(handler=_cmd_lefschetz)

    p = sub.add_parser("verify", help="run the verification battery")
    p.add_argument("--suite", default="all", choices=("all", "tables", "identities"))
    p.set_defaults(handler=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    # exact output may run past CPython's 4,300-digit limit on printing an int
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    # an OverflowError is an exponent past the polynomial core's range
    except (json.JSONDecodeError, _InputError, ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except CertificateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
