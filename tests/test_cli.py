"""Tests for the command-line interface."""
import json
import subprocess
import sys

import pytest

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
