"""Metric names, units and the shared pieces of a run's report."""

from __future__ import annotations

import json
import math
import os
import sys

import numpy as np

import spans as spans_mod


END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "cpu_s": "s",
    "opt_cost": "qcost",
    "opt_gates": "gates",
    "opt_depth": "layers",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "frontend.synth_s": "s",
    "backend.place_s": "s",
    "backend.lower_s": "s",
    "backend.route_s": "s",
    "backend.rebase_s": "s",
    "backend.swaps": "count",
    "backend.mapped_gates": "gates",
    "analysis.contracts_s": "s",
    "optimize.s": "s",
    "optimize.rounds": "count",
    "optimize.gates_removed": "gates",
    "verify.ctr_s": "s",
    "verify.sabre_s": "s",
    "verify.prescreen_proofs": "count",
    "verify.qmdd_checks": "count",
    "qmdd.peak_nodes": "nodes",
    "qmdd.op_cache_hit_ratio": "ratio",
    "qmdd.gc_sweeps": "count",
    "batch.engine_s": "s",
    "batch.cache_get_s": "s",
    "batch.cache_put_s": "s",
    "batch.cache_hit_ratio": "ratio",
    "batch.serialize_s": "s",
    "io.parse_s": "s",
    "io.emit_s": "s",
    "serve.service_s": "s",
    "serve.roundtrip_overhead_ms": "ms",
    "obs.trace_overhead_frac": "ratio",
}


#: Cold set-ups timed per untraced run, each in a fresh process;
#: ``setup_s`` is their median.  Single launches read 0.28-0.57 s on a
#: 2-vCPU VM, too wide a spread for one launch per run.
SETUP_LAUNCHES = 7


def program_env(root: str) -> dict:
    """Environment of a program process: the checkout's sources on the
    path and a fixed string-hash seed.  Outputs do not depend on the
    hash seed (README.md), but peak RSS moved by up to 5% with it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


class BenchError(Exception):
    """The run could not be made; no result is printed."""


def hd_quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the ``p`` quantile: a weighted mean of
    all order statistics, with weights from the Beta(p(n+1), (1-p)(n+1))
    distribution over the ranks.  It averages the samples near the
    quantile instead of picking one or two, so a run of 122 compiles,
    each timed once on a noisy machine, still gives a steady figure."""
    data = np.sort(np.asarray(values, dtype=float))
    n = len(data)
    if n == 1:
        return float(data[0])
    a, b = p * (n + 1), (1 - p) * (n + 1)
    grid = np.linspace(0.0, 1.0, 20001)[1:-1]
    log_pdf = ((a - 1) * np.log(grid) + (b - 1) * np.log1p(-grid)
               + math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b))
    cdf = np.concatenate([[0.0], np.cumsum(np.exp(log_pdf))])
    cdf /= cdf[-1]
    edges = np.interp(np.arange(n + 1) / n,
                      np.linspace(0.0, 1.0, len(cdf)), cdf)
    return float(np.dot(np.diff(edges), data))


def latency_figures(latencies_s) -> dict:
    """Median and 90th percentile latency in ms (Harrell-Davis)."""
    ms = [1e3 * x for x in latencies_s]
    return {"op_p50_ms": hd_quantile(ms, 0.5),
            "op_p90_ms": hd_quantile(ms, 0.9)}


def write_trace(args, out_dir: str, spans, layers) -> None:
    """Write the spans and print the self-time table (stderr)."""
    rows = spans_mod.where_time_goes(spans)
    path = os.path.join(
        out_dir, f"trace-{args.workload}-seed{args.seed}.json"
    )
    with open(path, "w") as handle:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "where_time_goes": rows, "layers": layers,
                   "spans": spans}, handle)
    print(spans_mod.render_table(args.workload, rows), file=sys.stderr)
    print(f"spans written to {os.path.relpath(path)}", file=sys.stderr)
