"""Tests for the command-line interface."""
import contextlib
import hashlib
import io
import json
import re
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motivesums.cli import main

P1_TWO_POINTS = '{"q": 3, "weil_numerator": [1], "s_degrees": [1, 1], "t_degrees": []}'
P1_MARKED = '{"q": 3, "weil_numerator": [1], "s_degrees": [1], "t_degrees": [1]}'


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_motive_factored_output(capsys):
    code, out = run_cli(capsys, "motive", '{"Sp":4}')
    assert code == 0
    assert out == "(1 - t*q)(1 - t*q^3)\n"


def test_motive_trivial_group(capsys):
    code, out = run_cli(capsys, "motive", '{"SL":1}')
    assert code == 0
    assert out == "1\n"


def test_lfun_prints_exact_rational(capsys):
    code, out = run_cli(capsys, "lfun", P1_MARKED, '{"Sp":4}')
    assert code == 0
    assert out == "1\n"
    code, out = run_cli(
        capsys, "lfun", '{"q": 3, "weil_numerator": [1], "s_degrees": [1]}', '{"SL":2}'
    )
    assert code == 0
    assert out == "-1/8\n"


def test_class_sum_is_one(capsys):
    code, out = run_cli(capsys, "class-sum", P1_TWO_POINTS, "--group", "SL:4")
    assert code == 0
    assert out == "1\n"


def test_class_sum_q_override_and_base_change(capsys):
    code, out = run_cli(
        capsys, "class-sum", P1_TWO_POINTS, "--group", "Sp:4", "--q", "5", "--base-change", "2"
    )
    assert code == 0
    assert out == "1\n"


def test_census_sp4_matches_table_at_q3(capsys):
    code, out = run_cli(capsys, "census", "--group", "Sp:4", "--q", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "type,count"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 6
    assert sorted(int(count) for _, count in rows) == [0, 1, 1, 2, 2, 2]


def test_census_sl2(capsys):
    code, out = run_cli(capsys, "census", "--group", "SL:2", "--q", "3")
    assert code == 0
    rows = dict(line.split(",") for line in out.strip().splitlines()[1:])
    assert rows == {"1x1+1x1": "0", "2x1": "2", "1x2": "1"}


def test_census_over_prime_square_field(capsys):
    code, out = run_cli(capsys, "census", "--group", "SL:2", "--q", "289")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert sum(int(count) for _, count in rows) == 289


@pytest.mark.parametrize(
    "q, message", [("0", "at most 2^16"), ("6", "not a prime power"), ("65537", "at most 2^16")]
)
def test_census_bad_field_size_exits_2(q, message):
    # a subprocess with a timeout, so that a factor search that never ends fails
    proc = subprocess.run(
        [sys.executable, "-m", "motivesums.cli", "census", "--group", "SL:2", "--q", q],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1 and message in proc.stderr


def test_certificate_json_round_trips(capsys):
    code, out = run_cli(
        capsys, "certificate", "--family", "sl-prime", "--params", '{"l":3,"r":0}'
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["group"] == {"SL": 3}
    assert all(check["passed"] for check in payload["checks"])
    assert set(payload["closed_forms"]) == {"split", "nonsplit"}


def test_lefschetz_chi_values(capsys):
    code, out = run_cli(capsys, "lefschetz", "--op", "chi", "--n", "3", "--m-max", "6")
    assert code == 0
    assert out.splitlines() == ["m,value", "1,0", "2,0", "3,3", "4,0", "5,0", "6,3"]


def test_lefschetz_place_product(capsys):
    code, out = run_cli(
        capsys,
        "lefschetz", "--op", "place-product", "--f", "chi:2", "--degrees", "2,3",
        "--m-max", "2",
    )
    assert code == 0
    assert out.splitlines() == ["m,value", "1,0", "2,8"]


def test_verify_tables_suite():
    # through the package's __main__, as `python -m motivesums` from a checkout
    proc = subprocess.run(
        [sys.executable, "-m", "motivesums", "verify", "--suite", "tables"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0 and proc.stderr == ""
    lines = proc.stdout.strip().splitlines()
    assert all(line.endswith(": PASS") for line in lines[:-1])
    assert lines[-1].endswith("passed, 0 failed")
    # the stdout is deterministic: labels, verdicts and their order are pinned
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == VERIFY_TABLES_DIGEST


VERIFY_TABLES_DIGEST = "a01b083d6a03acf10eb533aa123ebd42f54d49d650a1ad3cf1b3f5b59ead3252"


def test_exact_output_past_the_integer_string_limit():
    # CPython refuses to print an int of more than 4,300 digits unless the
    # limit is lifted; the CLI's output is exact, so it lifts it
    curve = '{"q": 65536, "weil_numerator": [1], "s_degrees": [1, 1], "t_degrees": [1]}'
    runs = [
        ["lfun", curve, '{"SL": 45}'],
        ["lefschetz", "--op", "fN", "--f", "base:1000", "--n", "1", "--m-max", "1500"],
    ]
    lfun, lefschetz = (
        subprocess.run([sys.executable, "-m", "motivesums", *argv], capture_output=True, text=True, timeout=120)
        for argv in runs
    )
    assert (lfun.returncode, lfun.stderr) == (0, "")
    # one exact rational, a/b with the denominator omitted when it is 1
    (value,) = lfun.stdout.splitlines()
    assert re.fullmatch(r"-?[0-9]{4301,}(/[0-9]+)?", value)
    assert (lefschetz.returncode, lefschetz.stderr) == (0, "")
    lines = lefschetz.stdout.splitlines()
    assert len(lines) == 1501
    assert re.fullmatch(r"1500,-?[0-9]{4301,}(/[0-9]+)?", lines[-1])


def test_malformed_json_exits_2(capsys):
    assert main(["motive", '{"Sp":4']) == 2
    assert main(["lfun", "no-such-file.json", '{"SL":2}']) == 2
    assert main(["class-sum", P1_TWO_POINTS, "--group", "Sp4"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["class-sum", '{"q": "3", "weil_numerator": [1], "s_degrees": [1, 1]}', "--group", "SL:2"],
            "q must be an integer",
        ),
        (
            ["certificate", "--family", "sl-general", "--params", '{"n": 2, "r": "1"}'],
            "r must be an integer",
        ),
        (
            ["certificate", "--family", "sl-general", "--params", '{"n": 2, "d_prime": 0}'],
            "scales must be positive",
        ),
        (["class-sum", P1_TWO_POINTS, "--group", "SL:2", "--base-change", "0"], "must be positive"),
        (["class-sum", P1_TWO_POINTS, "--group", "SL:2", "--base-change", "-2"], "must be positive"),
        (["lefschetz", "--op", "fN", "--f", "chi:0"], "chi index must be positive"),
        (["lefschetz", "--op", "chi", "--n", "0"], "chi index must be positive"),
        (["lefschetz", "--op", "chi", "--m-max", "-1"], "--m-max must be positive"),
        (["motive", '{"SL": 100000}'], "exponent reached"),
        (["lfun", '{"q": 6, "weil_numerator": [1], "s_degrees": [1]}', '{"SL": 2}'], "not a prime power"),
        (["lfun", '{"q": 2, "weil_numerator": [1, 0, 3], "s_degrees": [1]}', '{"SL": 2}'], "functional equation"),
        (["lfun", f'{{"q": {2**89 - 1}, "weil_numerator": [1], "s_degrees": [1]}}', '{"SL": 2}'], "stops at"),
        # inline JSON that is not an object is parsed, not opened as a file
        (["motive", '[{"SL": 2}]'], "group description must be a single-key object"),
        (["motive", " [1, 2]"], "group description must be a single-key object"),
        (["lfun", "7", '{"SL": 2}'], "curve description must be a JSON object"),
        (["lfun", "-1", '{"SL": 2}'], "curve description must be a JSON object"),
        # a group description is decoded once: a JSON string is not an object
        (["motive", '"{\\"Sp\\": 4}"'], "group description must be a single-key object"),
        (["motive", '{"Res": [2, "{\\"GL\\": 1}"]}'], "group description must be a single-key object"),
        (["motive", '"SL"'], "group description must be a single-key object"),
        # certificate sizes are checked before any work
        (["certificate", "--family", "sl-prime", "--params", '{"l": 1000000007}'], "exponent reached"),
        (["certificate", "--family", "sl-general", "--params", '{"n": 1000000000, "r": 1}'], "exponent reached"),
        # every item of --degrees must be a positive integer
        (["lefschetz", "--op", "place-product", "--degrees", "2,,3"], "--degrees"),
        (["lefschetz", "--op", "place-product", "--degrees", "2,"], "--degrees"),
        (["lefschetz", "--op", "place-product", "--degrees", ""], "--degrees"),
        (["lefschetz", "--op", "place-product", "--degrees", "0"], "--degrees"),
        (["lefschetz", "--op", "place-product", "--degrees", "2,-1"], "--degrees"),
        (["lefschetz", "--op", "place-product", "--degrees", "x"], "--degrees"),
        (["lefschetz", "--op", "place-product", "--degrees", "2.0"], "--degrees"),
    ],
)
def test_bad_numbers_exit_2_with_one_line(capsys, argv, message):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and message in captured.err


def test_budget_exceeded_exits_3(capsys):
    assert main(["census", "--group", "Sp:18", "--q", "9"]) == 3
    capsys.readouterr()


def test_census_over_its_trial_division_budget_exits_3_at_once(capsys):
    # 59,049 polynomials of degree 6, each trial-divided by up to
    # 9 + 36 + 240 irreducibles: 16.8 million divisions, about 280 s of work
    start = time.perf_counter()
    assert main(["census", "--group", "SL:6", "--q", "9"]) == 3
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1 and "trial divisions" in captured.err
    assert elapsed < 1


def test_certificate_over_its_term_budget_exits_3(capsys):
    # bounded by 7^6 * (6*21 + 1) = 14.9 million terms; without the budget
    # r = 5 already ran for a minute and took 3.8 GB
    start = time.perf_counter()
    assert main(["certificate", "--family", "sl-prime", "--params", '{"l": 7, "r": 6}']) == 3
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1 and "terms" in captured.err
    assert elapsed < 1


@pytest.mark.parametrize("degree, code", [(1446, 0), (8676, 3)])
def test_lefschetz_index_budget(capsys, degree, code):
    # one reduction modulo Phi_N costs (N - phi(N)) * phi(N) steps:
    # 463,680 for N = 1446, and 16.7 million for N = 8676, over the 10^6 budget
    argv = ["lefschetz", "--op", "place-product", "--f", "const:5", "--degrees", str(degree), "--m-max", "5"]
    start = time.perf_counter()
    assert main(argv) == code
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    if code == 0:
        assert captured.out.splitlines()[0] == "m,value" and len(captured.out.splitlines()) == 6
    else:
        # refused before any work (it ran for about a minute without the budget)
        assert captured.out == "" and captured.err.count("\n") == 1 and "Phi_8676" in captured.err
        assert elapsed < 5


def test_deterministic_output(capsys):
    first = run_cli(capsys, "census", "--group", "Sp:6", "--q", "2")
    second = run_cli(capsys, "census", "--group", "Sp:6", "--q", "2")
    assert first == second


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "motivesums.cli", "motive", '{"Sp":4}'],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "(1 - t*q)(1 - t*q^3)\n"


# -- fuzzing: any input, well formed or not, ends in an exit code and at most
# one line on stderr, never in a traceback

json_scalars = st.one_of(
    st.integers(-2, 6), st.booleans(), st.none(), st.sampled_from([1.5, -0.0, 2.0]), st.text(max_size=3)
)
group_kinds = st.sampled_from(["GL", "SL", "U", "Sp", "SO", "Res", "Product", "XX"])
group_specs = st.recursive(
    st.one_of(
        st.builds(lambda kind, n: {kind: n}, st.sampled_from(["GL", "SL", "U", "Sp", "SO"]), st.integers(1, 5)),
        st.builds(lambda kind, arg: {kind: arg}, group_kinds, json_scalars),
    ),
    lambda inner: st.one_of(
        st.builds(lambda d, g: {"Res": [d, g]}, st.integers(-1, 3), inner),
        st.builds(lambda gs: {"Product": gs}, st.lists(inner, max_size=3)),
        st.lists(inner, max_size=2),
        st.dictionaries(group_kinds, inner, max_size=2),
    ),
    max_leaves=4,
)
curve_data = st.one_of(
    # genus 0 or 1 over a prime power q, which pass validation
    st.builds(
        lambda q, trace, genus1, s, t: {
            "q": q, "weil_numerator": [1, trace, q] if genus1 else [1], "s_degrees": s, "t_degrees": t
        },
        st.sampled_from([2, 3, 4, 5, 7, 8, 9]),
        st.integers(-4, 4),
        st.booleans(),
        st.lists(st.integers(1, 3), min_size=1, max_size=3),
        st.lists(st.integers(1, 3), max_size=2),
    ),
    st.fixed_dictionaries(
        {},
        optional={
            "q": st.one_of(st.integers(-1, 10), json_scalars),
            "weil_numerator": st.one_of(st.lists(st.integers(-4, 9), max_size=5), json_scalars),
            "s_degrees": st.one_of(st.lists(st.integers(-1, 3), max_size=3), json_scalars),
            "t_degrees": st.one_of(st.lists(st.integers(-1, 3), max_size=3), json_scalars),
        },
    ),
)
# inline JSON: a value, or text that starts like an object and may not parse
json_text = lambda values: st.one_of(values.map(json.dumps), st.text(max_size=12).map(lambda t: "{" + t))
# malformed arguments are joined from short tokens, so that no index is large
function_args = st.one_of(
    st.builds("{}:{}".format, st.sampled_from(["chi", "const", "base"]), st.integers(-3, 6)),
    st.builds(
        "{}{}{}".format,
        st.sampled_from(["chi", "const", "base", "", "x", "Chi"]),
        st.sampled_from([":", "", "::"]),
        st.sampled_from(["", "-", "3", "-2", "0", "1.5", "--4", "+2", " 2", "x"]),
    ),
)
degree_args = st.one_of(
    st.lists(st.integers(1, 4), min_size=1, max_size=3),
    st.lists(st.sampled_from(["1", "2", "0", "-1", "", " 2", "x", "2.0"]), max_size=3),
).map(lambda ds: ",".join(map(str, ds)))
argvs = st.one_of(
    st.builds(
        lambda op, f, n, degrees, m_max: ["lefschetz", "--op", op, f"--f={f}", "--n", str(n),
                                          f"--degrees={degrees}", "--m-max", str(m_max)],
        st.sampled_from(["chi", "fN", "place-product"]),
        function_args,
        st.integers(-2, 12),
        degree_args,
        st.integers(-1, 12),
    ),
    st.builds(lambda g: ["motive", g], json_text(group_specs)),
    st.builds(lambda c, g: ["lfun", c, g], json_text(curve_data), json_text(group_specs)),
)


@given(argvs)
@settings(max_examples=150, deadline=None)
def test_fuzzed_input_exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    assert err.getvalue().count("\n") <= 1 and "Traceback" not in err.getvalue()
    assert (code == 0) == (err.getvalue() == "")
