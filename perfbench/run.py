#!/usr/bin/env python3
"""Benchmark of the balancedcover solver: one workload per run, closed loop.

    python3 perfbench/run.py --workload {solve,sweep,exact} --seed N --seconds S --trace {0,1}

Run from the repository root.  The program is imported from ``src/``.
After set-up, the run repeats whole rounds of the workload's operations,
one at a time, until ``--seconds`` have passed; then it checks every
output against computations made apart from the program and prints one
JSON line: ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` the calls into the program are traced and the metrics are
the per-layer ones, also written with every span to
``.perfbench_out/trace-<workload>-<seed>.json``.  See README.md.
"""

import os
import sys

# one BLAS/OpenMP thread, so a shared machine measures the program and not the scheduler
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 5
# what a fresh interpreter pays before the first command: the program and numpy
IMPORT_PROGRAM = "import sys; sys.path.insert(0, sys.argv[1]); import balancedcover.cli"


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["solve", "sweep", "exact"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def _timed(op):
    """Run one operation: (result, seconds).  A crash inside the program fails
    the operation, not the run."""
    t = time.perf_counter()
    try:
        res = op.run()
    except Exception as err:
        traceback.print_exc(file=sys.stderr)
        res = err
    return res, time.perf_counter() - t


def _rounds(workload, seconds, tracer=None):
    """Whole rounds until ``seconds`` have passed: (results, latencies, rounds, elapsed)."""
    results, latencies, rounds = [], [], 0
    start = time.perf_counter()
    while True:
        for op in workload.round_ops(rounds):
            if tracer:
                tracer.op = len(results)
            res, latency = _timed(op)
            latencies.append(latency)
            results.append((op, res))
        rounds += 1
        if time.perf_counter() - start >= seconds:
            return results, latencies, rounds, time.perf_counter() - start


def main(argv=None) -> int:
    args = _parse_args(argv)
    src = ROOT / "src"
    if not (src / "balancedcover" / "__init__.py").is_file():
        print(f"perfbench: no program source under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix=f"{args.workload}-") as tmp:
        workload = workloads.WORKLOADS[args.workload](args.seed % (1 << 64), Path(tmp))
        imports, prep = [], []
        for _ in range(SETUP_REPEATS):
            t = time.perf_counter()
            subprocess.run([sys.executable, "-c", IMPORT_PROGRAM, str(src)], check=True)
            imports.append(time.perf_counter() - t)
            t = time.perf_counter()
            workload.prepare()
            workload.warm_up()
            prep.append(time.perf_counter() - t)
        setup_s = statistics.median(imports) + statistics.median(prep)

        if args.trace:
            import spans

            tracer = spans.Tracer()
            tracer.install()
            try:
                results, latencies, rounds, elapsed = _rounds(workload, args.seconds, tracer)
            finally:
                tracer.uninstall()
        else:
            results, latencies, rounds, elapsed = _rounds(workload, args.seconds)
        # before the checks import scipy
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        report = workload.check(results)

    for line in report.failures[:20]:
        print(f"failed: {line}", file=sys.stderr)
    for line in report.problems[:20]:
        print(f"WRONG: {line}", file=sys.stderr)

    if args.trace:
        metrics = spans.layer_metrics(tracer.spans, rounds, tracer.overhead_s / rounds)
        tracer.write(OUT_DIR / f"trace-{args.workload}-{args.seed}.json", metrics)
        units = {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
        out = {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}
    else:
        out = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "ops_per_s": {"value": len(results) / elapsed, "unit": "ops/s"},
            "op_p50_ms": {"value": 1000.0 * statistics.median(latencies), "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "quality_ratio": {"value": report.quality_ratio, "unit": "ratio"},
        }
    print(json.dumps({
        "correct": not report.problems,
        "attempted": len(results),
        "failed": report.failed,
        "metrics": out,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
