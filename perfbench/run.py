"""Benchmark of the whole compiler, one workload and seed per call.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload paper-grid --seed 1 \\
        --seconds 30 --trace 0

Workloads (see README.md): ``paper-grid``, ``wide96``, ``serve-mix``.
The program under test always runs in a fresh process started here.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics (from a traced run) with
``--trace 1``.  A traced run also writes its spans to
``perfbench/out/`` and prints where the time goes on standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import spans as spans_mod  # noqa: E402
import verdicts  # noqa: E402
from report import (  # noqa: E402
    END_TO_END_UNITS, PER_LAYER_UNITS, SETUP_LAUNCHES, BenchError,
    latency_figures, program_env, write_trace,
)
from workloads import WORKLOADS  # noqa: E402

#: A run's program must end within this many seconds.
PROGRAM_TIMEOUT = 170.0


def launch_program(args, root: str, out_dir: str, *extra: str):
    """Start :mod:`program` once; its launch time and its record."""
    record_path = os.path.join(
        out_dir, f"record-{args.workload}-{args.seed}-{os.getpid()}.json"
    )
    command = [
        sys.executable, os.path.join(HERE, "program.py"),
        "--workload", args.workload,
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--out", record_path, *extra,
    ]
    launched = time.monotonic()
    process = subprocess.Popen(command, cwd=root, env=program_env(root))
    try:
        code = process.wait(timeout=PROGRAM_TIMEOUT)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
    if code != 0:
        raise BenchError(f"program exited with {code}")
    try:
        with open(record_path) as handle:
            return launched, json.load(handle)
    finally:
        if os.path.exists(record_path):
            os.remove(record_path)


def run_compile_workload(args, root: str, out_dir: str) -> dict:
    """``paper-grid`` / ``wide96``: start :mod:`program`, check its
    outputs."""
    def cold_setups(count: int) -> list:
        return [
            record["ready_monotonic"] - launched
            for launched, record in (
                launch_program(args, root, out_dir, "--setup-only")
                for _ in range(count if not args.trace else 0)
            )
        ]

    # The set-up-only launches go half before and half after the
    # measured one, so that setup_s samples the machine over the whole
    # run, as the other timings do.
    setups = cold_setups((SETUP_LAUNCHES - 1) // 2)
    launched, document = launch_program(args, root, out_dir)
    setups.append(document["ready_monotonic"] - launched)
    setups += cold_setups(SETUP_LAUNCHES // 2)

    records = document["records"]
    outcomes = []
    for record in records:
        outcome = {"op": record["op"]}
        if "error" in record:
            outcome["error"] = record["error"]
        else:
            outcome["text"] = record["qasm"] or json.dumps(record["gates"])
            outcome["output"] = verdicts.from_record(record)
        outcomes.append(outcome)
    verdict = verdicts.judge(args.workload, outcomes, args.seed)
    result = {
        "attempted": len(records),
        "failed": verdict["failed"],
        "problems": verdict["problems"],
    }
    if args.trace:
        spans = document["spans"]
        layers = spans_mod.layer_metrics(
            spans, document["counters"], document["gauges"]
        )
        layers.update({
            "batch.cache_hit_ratio": 0.0,
            "serve.service_s": 0.0,
            "serve.roundtrip_overhead_ms": 0.0,
            "obs.trace_overhead_frac": spans_mod.overhead_fraction(
                document["overhead_pairs"]
            ),
        })
        result["metrics"] = layers
        write_trace(args, out_dir, spans, layers)
        return result
    latencies = [r["latency_s"] for r in records]
    result["metrics"] = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(records) / document["wall_s"],
        **latency_figures(latencies),
        "cpu_s": document["cpu_s"],
        "opt_cost": verdict["opt_cost"],
        "opt_gates": verdict["opt_gates"],
        "opt_depth": verdict["opt_depth"],
        "peak_rss_mb": document["peak_rss_mb"],
    }
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("run.py: no compiler source (src/repro) in the current "
              "directory; run from the root of a checkout", file=sys.stderr)
        return 2
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    sys.path.insert(0, os.path.join(root, "src"))
    try:
        if args.workload == "serve-mix":
            import serve_mix

            result = serve_mix.run(args, root, out_dir)
        else:
            result = run_compile_workload(args, root, out_dir)
    except BenchError as error:
        print(f"run.py: {error}", file=sys.stderr)
        return 1
    for problem in result["problems"][:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    metrics = result["metrics"]
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
