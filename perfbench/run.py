"""Benchmark for motivesums: exact-checked batch work, one workload per process.

    python3 perfbench/run.py --workload certificates --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from its `src/`.
The load is a closed loop with one client: a single thread issues op after
op, each starting when the previous one has returned.  A pass runs the
workload's seeded op list once on a freshly imported package; the run
repeats set-up and pass while another pass should end no later than half
a pass after `--seconds`.

With `--trace 0` the run prints every end-to-end metric of BENCHMARK.json;
with `--trace 1` it runs an untraced pass, a pass with the layer wrappers of
layers.py installed and another untraced pass, and prints every per-layer
metric, writing the spans to `.perfbench_out/`.  The last line of stdout is the result
object; the lines before it are a readable table and a `# detail` record.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True
ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
# Read no bytecode cache either, so every set-up compiles the package from
# source, as a fresh checkout does.
sys.pycache_prefix = str(OUT / "no-bytecode")

import layers  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
LIB_MODULES = ("classsums", "classtypes", "curves", "lefschetz", "lseries", "motives", "oracle")


def load_json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def setup(workload: str, seed: int, design: dict):
    """Import motivesums afresh, generate the inputs and build the package's
    one-time tables; returns (seconds, package, ops)."""
    for name in [m for m in sys.modules if m == "motivesums" or m.startswith("motivesums.")]:
        del sys.modules[name]
    start = time.perf_counter()
    package = importlib.import_module("motivesums")
    lib = workloads.Lib(**{m: importlib.import_module(f"motivesums.{m}") for m in LIB_MODULES})
    ops = workloads.BUILDERS[workload](lib, random.Random(seed), design)
    lib.classtypes.table_goldens()
    elapsed = time.perf_counter() - start
    if Path(package.__file__).resolve().parent != SRC / "motivesums":
        raise SystemExit(f"motivesums was imported from {package.__file__}, not from {SRC}")
    return elapsed, package, ops


def run_pass(ops, tracer=None) -> dict:
    latencies, failures = [], []
    digest = hashlib.sha256()
    start = time.perf_counter()
    for op_id, op in enumerate(ops):
        if tracer:
            tracer.begin_op(op_id, op.label)
        t0 = time.perf_counter()
        try:
            ok, text = op.run()
        except Exception as exc:  # any exception fails the op; the run goes on
            ok, text = False, f"{type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter() - t0)
        if tracer:
            tracer.end_op()
        if not ok:
            failures.append(op.label)
        digest.update(text.encode() + b"\n")
    return {
        "wall": time.perf_counter() - start,
        "latencies": latencies,
        "failures": failures,
        "digest": digest.hexdigest(),
    }


def machine_record() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    src_lines = sum(
        len(p.read_text().splitlines()) for p in sorted((SRC / "motivesums").glob("*.py"))
    )
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "src_lines": src_lines,
    }


def main(argv=None) -> int:
    bench = load_json(ROOT / "BENCHMARK.json")
    design = load_json(Path(__file__).resolve().parent / "design.json")
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, default=design["default_seed"])
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "motivesums" / "__init__.py").is_file():
        print(f"no motivesums sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    setup_times = []

    def fresh_setup():
        elapsed, package, ops = setup(args.workload, args.seed, design)
        setup_times.append(elapsed)
        return package, ops

    for _ in range(SETUP_REPEATS):
        package, ops = fresh_setup()
    input_digest = hashlib.sha256("\n".join(op.label for op in ops).encode()).hexdigest()

    passes = []
    tracer = None
    if args.trace:
        # untraced, traced, untraced: comparing the traced pass with the mean
        # of its neighbours cancels a steady drift in the machine's speed
        passes.append(run_pass(ops))
        package, ops = fresh_setup()
        tracer = layers.Tracer()
        tracer.install(package)
        try:
            traced = run_pass(ops, tracer)
        finally:
            tracer.uninstall()
        passes.append(traced)
        package, ops = fresh_setup()
        passes.append(run_pass(ops))
    else:
        deadline = time.perf_counter() + args.seconds
        while True:
            passes.append(run_pass(ops))
            # Start another pass only if it should end less than half a
            # pass after the deadline, so a run overruns by little.
            typical = statistics.median(p["wall"] for p in passes)
            if time.perf_counter() + typical / 2 >= deadline:
                break
            # A fresh set-up per pass spreads the set-up samples over the
            # run, so that a slow spell of the machine does not hit them all,
            # and starts every pass from a newly imported package.
            package, ops = fresh_setup()

    latencies = [t for p in passes for t in p["latencies"]]
    failures = [label for p in passes for label in p["failures"]]
    digests = sorted({p["digest"] for p in passes})
    attempted = len(latencies)
    walls = [p["wall"] for p in passes]

    if args.trace:
        spec = bench["per_layer"]
        values = tracer.metrics()
        values["trace.wall_s"] = traced["wall"]
        values["trace.overhead_s"] = traced["wall"] - (passes[0]["wall"] + passes[2]["wall"]) / 2
        OUT.mkdir(exist_ok=True)
        values["trace.spans"] = tracer.write_spans(
            OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        )
    else:
        spec = bench["end_to_end"]
        values = {
            "wall_s": statistics.median(walls),
            "op_p50_ms": statistics.median(latencies) * 1e3,
            "op_p90_ms": statistics.quantiles(latencies, n=10, method="inclusive")[8] * 1e3,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    unknown = [m["name"] for m in spec if m["name"] not in values]
    if unknown:
        raise SystemExit(f"metrics listed in BENCHMARK.json but not measured: {unknown}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(passes),
        "ops_per_pass": len(ops),
        "op_samples": attempted,
        "pass_walls_s": walls,
        "setup_times_s": setup_times,
        "fail_rate": len(failures) / attempted,
        "failures": sorted(set(failures))[:20],
        "input_digest": input_digest,
        "output_digest": digests[0] if len(digests) == 1 else digests,
        "missing_wrapped_names": tracer.missing() if tracer else [],
        "machine": machine_record(),
    }
    for name, m in metrics.items():
        value = "missing" if m["value"] is None else f"{m['value']:.6g}"
        print(f"{name:42s} {value:>14s} {m['unit']}")
    print(f"{'fail_rate':42s} {detail['fail_rate']:>14.6g} ratio ({len(failures)}/{attempted} ops)")
    print(f"{'op_samples':42s} {attempted:>14d} count ({len(passes)} passes)")
    print("# detail " + json.dumps(detail))
    result = {
        "correct": not failures and len(digests) == 1,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
