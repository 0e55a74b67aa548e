"""Checks over the package source as a whole."""
import ast
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "motivesums").glob("*.py"))


def test_no_assert_statements():
    # python -O strips assert, so invariants must raise named exceptions
    assert SOURCES
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_only_standard_library_imports():
    # the package stays pure standard library; relative imports are its own modules
    assert SOURCES
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [
                f"{path.name}:{node.lineno} {name}"
                for name in names
                if name.split(".")[0] not in sys.stdlib_module_names and name != "__future__"
            ]
    assert found == []


def test_sources_parse_as_python_3_10():
    # pyproject.toml declares requires-python >= 3.10
    assert SOURCES
    for path in SOURCES:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def _python_3_10() -> bool:
    try:
        probe = subprocess.run(
            ["python3.10", "-c", "import sys; print(sys.version_info[:2])"], capture_output=True, text=True
        )
    except OSError:
        return False
    return probe.stdout.strip() == "(3, 10)"


@pytest.mark.skipif(not _python_3_10(), reason="python3.10 is missing or is not Python 3.10")
def test_cli_runs_under_python_3_10():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    runs = [
        ["lefschetz", "--op", "fN", "--f", "chi:2", "--n", "6"],
        ["lfun", '{"q": 2, "weil_numerator": [1, -1, 2], "s_degrees": [1], "t_degrees": [1]}', '{"SL": 2}'],
    ]
    for args in runs:
        mine = subprocess.run([sys.executable, "-m", "motivesums", *args], capture_output=True, text=True, env=env)
        py310 = subprocess.run(["python3.10", "-m", "motivesums", *args], capture_output=True, text=True, env=env)
        assert (py310.returncode, py310.stderr) == (0, "")
        assert py310.stdout == mine.stdout
