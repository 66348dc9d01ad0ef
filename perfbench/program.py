"""The compiler process of the ``paper-grid`` and ``wide96`` workloads.

``run.py`` starts this file in a fresh interpreter and times it from
launch.  It imports the compiler and builds the sources (set-up), then
issues each planned operation as one serial ``compile_many(workers=1)``
call without a cache and emits the result's QASM.  It writes a JSON
record of the run (outputs, latencies, CPU, peak RSS and, when traced,
spans and counters) for ``run.py`` to check::

    PYTHONPATH=src python3 perfbench/program.py --workload wide96 \\
        --seconds 30 --trace 0 --out perfbench/out/record.json

With ``--setup-only`` it stops once set up and records only when that
was, so that ``run.py`` can time several cold set-ups per run.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

#: Every this many operations of a traced run, the same compile also
#: runs untraced (alternating which goes first) to price the tracing.
OVERHEAD_EVERY = 4


def build_sources(plan, recorder):
    """Source circuits by ``(family, name)``; the Table 3 functions go
    through the classical front-end (ESOP synthesis)."""
    from repro.benchlib import revlib, single_target, table7

    sources = {}
    with recorder.span("frontend.synth"):
        for op in plan:
            key = (op["family"], op["name"])
            if key in sources:
                continue
            if op["family"] == "table3":
                sources[key] = single_target.build_benchmark(
                    op["name"], op["qubits"]
                )
            elif op["family"] == "revlib":
                sources[key] = revlib.build_benchmark(op["name"])
            else:
                sources[key] = table7.build_benchmark(op["name"])
    return sources


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    traced = bool(args.trace)

    from repro.batch import CompileJob, compile_many
    from repro.obs import MetricsRegistry

    from spans import Recorder
    from workloads import compile_plan, device, emits_qasm, rounds

    recorder = Recorder()
    plan = compile_plan(
        args.workload, rounds(args.workload, args.seconds, traced)
    )
    sources = build_sources(plan, recorder)
    devices = {op["device"]: device(op["device"]) for op in plan}
    ready = time.monotonic()
    if args.setup_only:
        with open(args.out, "w") as handle:
            json.dump({"ready_monotonic": ready}, handle)
        return 0

    metrics = MetricsRegistry()
    records = []
    pairs = []
    cpu_start = time.process_time()
    wall_start = time.perf_counter()
    for index, op in enumerate(plan):
        options = {"verify": op["verify"], "route": op["route"]}
        job = CompileJob.make(
            sources[(op["family"], op["name"])], devices[op["device"]],
            dict(options, trace=traced), label=op["id"],
        )
        with recorder.span("op", id=op["id"], route=op["route"]):
            started = time.perf_counter()
            with recorder.span("batch.compile_many") as call:
                report = compile_many([job], workers=1)
            entry = report[0]
            qasm = None
            if entry.ok and emits_qasm(op):
                with recorder.span("io.emit"):
                    qasm = entry.result.qasm
            latency = time.perf_counter() - started
        if traced:
            recorder.graft(entry.result.trace if entry.ok else None, call)
            if index % OVERHEAD_EVERY == 0:
                plain = CompileJob.make(job.circuit, job.device, options)
                timed = {}
                first_plain = index % (2 * OVERHEAD_EVERY) == 0
                for kind in (("plain", "traced") if first_plain
                             else ("traced", "plain")):
                    begin = time.perf_counter()
                    compile_many([plain if kind == "plain" else job],
                                 workers=1)
                    timed[kind] = time.perf_counter() - begin
                pairs.append([timed["plain"], timed["traced"]])
        metrics.merge(report.metrics)
        record = {"op": op, "latency_s": latency}
        if entry.ok:
            result = entry.result
            if qasm is None:
                record["num_qubits"] = result.optimized.num_qubits
                record["gates"] = [
                    [gate.name, list(gate.qubits), list(gate.params)]
                    for gate in result.optimized
                ]
            record.update(
                qasm=qasm,
                placement={str(k): v for k, v in result.placement.items()},
                output_permutation={
                    str(k): v for k, v in result.output_permutation.items()
                },
                reported={
                    "unoptimized_cost": result.unoptimized_metrics.cost,
                    "optimized_cost": result.optimized_metrics.cost,
                    "optimized_t": result.optimized_metrics.t_count,
                    "optimized_gates": result.optimized_metrics.gate_volume,
                },
                verification=(
                    result.verification.method
                    if result.verification is not None else None
                ),
            )
        else:
            record["error"] = entry.error.exception_type
        records.append(record)
    wall = time.perf_counter() - wall_start
    cpu = time.process_time() - cpu_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    snapshot = metrics.snapshot()
    document = {
        "ready_monotonic": ready,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": peak_rss_mb,
        "records": records,
        "counters": snapshot.get("counters", {}),
        "gauges": snapshot.get("gauges", {}),
        "overhead_pairs": pairs,
        "spans": recorder.spans if traced else [],
    }
    with open(args.out, "w") as handle:
        json.dump(document, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
