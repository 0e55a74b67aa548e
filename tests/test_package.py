"""Checks over the package source as a whole."""
import ast
import doctest
import importlib
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


def test_docstring_examples_hold():
    # doctest.testmod over every module; a failing example fails the test
    assert SOURCES
    modules = {path.name: "motivesums" + ("" if path.stem == "__init__" else "." + path.stem) for path in SOURCES}
    results = {name: doctest.testmod(importlib.import_module(module)) for name, module in modules.items()}
    assert {name: r.failed for name, r in results.items()} == {path.name: 0 for path in SOURCES}
    assert sum(r.attempted for r in results.values()) > 0


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


def _definitions_without_callers() -> list[str]:
    """Module-level functions and classes, and the methods of those classes,
    that are not dunders and whose name occurs nowhere in src/ outside their
    own definition, as a Name or an attribute."""
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES]
    definitions = []  # (label, name, tree index, first line, last line)
    for i, tree in enumerate(trees):
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            definitions.append((node.name, node.name, i, node.lineno, node.end_lineno))
            if isinstance(node, ast.ClassDef):
                definitions += [
                    (f"{node.name}.{item.name}", item.name, i, item.lineno, item.end_lineno)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)
                ]
    references: dict[str, list[tuple[int, int]]] = {}
    for i, tree in enumerate(trees):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                references.setdefault(node.id, []).append((i, node.lineno))
            elif isinstance(node, ast.Attribute):
                references.setdefault(node.attr, []).append((i, node.lineno))
    return sorted(
        label
        for label, name, i, first, last in definitions
        if not (name.startswith("__") and name.endswith("__"))
        and not any(j != i or not first <= line <= last for j, line in references.get(name, []))
    )


def test_every_public_name_has_a_caller_in_src():
    # one routine per job, and no API that only a test calls.  These stay
    # only because the benchmark's traced run wraps them (tests also call
    # frobenius_det); the change to the benchmark that stops wrapping them
    # empties this list.
    benchmark_wrapped = [
        "ArtinTateMotive.frobenius_det",
        "FiniteField.poly_mul",
        "SymbolicPolynomial.coefficient_in",
        "SymbolicPolynomial.exact_div",
        "SymbolicPolynomial.map_coefficients",
        "SymbolicPolynomial.scale_exponents",
        "irreducible_monics",
    ]
    assert _definitions_without_callers() == benchmark_wrapped


def test_benchmark_tracer_resolves_every_wrapped_name():
    # perfbench/layers.py wraps package names given as strings; a name that no
    # longer resolves turns its group's per-layer metrics into null.  The
    # subprocess imports the package from src/ afresh and writes no bytecode.
    code = "\n".join([
        "import importlib, sys",
        f"sys.path[:0] = [{str(ROOT / 'src')!r}, {str(ROOT / 'perfbench')!r}]",
        "import layers",
        "package = importlib.import_module('motivesums')",
        "for name in layers.MODULES:",
        "    importlib.import_module('motivesums.' + name)",
        "tracer = layers.Tracer()",
        "tracer.install(package)",
        "print(package.__file__)",
        "print(tracer.missing())",
        "print(sorted(name for name, value in tracer.metrics().items() if value is None))",
    ])
    run = subprocess.run([sys.executable, "-B", "-c", code], capture_output=True, text=True, cwd=ROOT)
    assert (run.returncode, run.stderr) == (0, "")
    assert run.stdout.splitlines() == [str(ROOT / "src" / "motivesums" / "__init__.py"), "[]", "[]"]
