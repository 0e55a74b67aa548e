"""Checks over the package source as a whole."""
import ast
import pathlib

SOURCES = sorted((pathlib.Path(__file__).resolve().parents[1] / "src" / "motivesums").glob("*.py"))


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
