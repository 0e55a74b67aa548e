"""Checks over the package source as a whole."""
import ast
import pathlib
import sys

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
