"""Run the mutation suite of tests/mutants.json.

Each mutant replaces one text, which occurs exactly once in a module under
src/, with another.  For each mutant this copies src/, tests/ and
pyproject.toml into a fresh temporary directory, applies the mutant there,
and runs only the mutant's named tests, stopping at the first failure.  The
mutant is killed when one of them fails.  First, every named test runs
once on an unmutated copy and must pass, so that no kill comes from the
copy itself.  A Markdown table of the outcomes and the seconds per run
goes to stdout, progress to stderr.  The exit code is 1 when the unmutated
copy fails, a mutant survives, does not apply, errs or times out, or the
whole run passes its cap.

    python tests/run_mutants.py
"""
import json
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
# seconds: one mutant's tests, and the whole run (a runaway cap; the suite
# takes a few minutes)
MUTANT_CAP = 300
TOTAL_CAP = 1800


def run(mutant: dict | None, tests: list[str], cap: float) -> str:
    """Apply the mutant, if any, to a fresh copy and run the tests there:
    failed, passed, error or timeout."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = pathlib.Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", "*.egg-info", ".hypothesis")
        shutil.copytree(ROOT / "src", copy / "src", ignore=ignore)
        shutil.copytree(ROOT / "tests", copy / "tests", ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", copy)
        if mutant:
            module = copy / mutant["module"]
            text = module.read_text(encoding="utf-8")
            if text.count(mutant["old"]) != 1:
                return "error: the old text does not occur exactly once"
            module.write_text(text.replace(mutant["old"], mutant["new"]), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0"]
        try:
            done = subprocess.run(argv + tests, cwd=copy, env=env, capture_output=True, text=True, timeout=cap)
        except subprocess.TimeoutExpired:
            return "timeout"
    # pytest exits 1 when a test failed and 0 when all passed
    return {0: "passed", 1: "failed"}.get(done.returncode, f"error: pytest exit code {done.returncode}")


def main() -> int:
    mutants = json.loads((ROOT / "tests" / "mutants.json").read_text(encoding="utf-8"))
    print("### Mutation suite (`tests/mutants.json`)")
    print("| mutant | module | outcome | seconds |")
    print("| --- | --- | --- | --- |")
    start = time.perf_counter()
    runs = [(None, sorted({t for m in mutants for t in m["tests"]}))] + [(m, m["tests"]) for m in mutants]
    bad = 0
    for mutant, tests in runs:
        name, module = (mutant["name"], mutant["module"]) if mutant else ("(unmutated)", "src/")
        left = TOTAL_CAP - (time.perf_counter() - start)
        began = time.perf_counter()
        outcome = run(mutant, tests, min(MUTANT_CAP, left)) if left > 0 else "not run: the whole run passed its cap"
        seconds = time.perf_counter() - began
        if mutant:
            outcome = {"failed": "killed", "passed": "survived"}.get(outcome, outcome)
        bad += outcome not in ("killed", "passed")
        print(f"| `{name}` | `{module}` | {outcome} | {seconds:.1f} |", flush=True)
        print(f"{name}: {outcome} in {seconds:.1f} s", file=sys.stderr, flush=True)
    print(f"\n{len(mutants)} mutants; {bad} runs not as expected; {time.perf_counter() - start:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
