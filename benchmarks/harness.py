"""Shared computation for the benchmark suite.

The Table 3/4 and Table 5/6 benches consume the same compilation grid, so
the grid is computed once per pytest session and cached here.  Every
entry mirrors one cell of the paper's tables: the unoptimized and
optimized (T-count / gates / cost) triples for one benchmark on one
device, or ``None`` for the paper's N/A cells.

Grids are compiled through the batch engine (:mod:`repro.batch`):

* ``REPRO_BENCH_WORKERS=N`` fans the grid across N worker processes
  (default 1 — serial in-process compilation).
* A content-addressed result cache is shared by all suites, so cells
  repeated across tables compile once.  ``REPRO_BENCH_CACHE_DIR=path``
  adds a persistent on-disk tier (e.g. ``.repro_cache``) that makes the
  *next* run start warm.
* Every suite's wall-clock, per-cell triples, and cache hit rates are
  recorded and merged into ``BENCH_runtime.json`` at session end (see
  :func:`write_runtime_json`), giving future PRs a perf trajectory.
"""

from __future__ import annotations

import json
import os
import platform
import time
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from repro.batch import CompilationCache, CompileJob, compile_many
from repro.compiler import CompilationResult
from repro.core.cost import CircuitMetrics
from repro.benchlib import revlib, single_target, table7
from repro.devices import PAPER_DEVICES, PROPOSED96, SIMULATOR

#: Set REPRO_BENCH_VERIFY=1 to formally verify every compiled benchmark
#: (QMDD / sampled); adds minutes to the run but mirrors the paper's
#: "all outputs were confirmed" claim end to end.
VERIFY = os.environ.get("REPRO_BENCH_VERIFY", "0") == "1"

#: Worker processes for grid compilation (1 = serial, no pool).
WORKERS = int(os.environ.get("REPRO_BENCH_WORKERS", "1") or "1")

#: Optional persistent cache directory; empty disables the disk tier.
CACHE_DIR = os.environ.get("REPRO_BENCH_CACHE_DIR", "")

#: One shared content-addressed cache for every suite in the session —
#: grid cells repeated across tables (3 vs 4, 5 vs 6) compile once.
CACHE = CompilationCache(max_entries=2048, directory=CACHE_DIR or None)

#: Per-suite runtime records, dumped by :func:`write_runtime_json`.
RUNTIME: Dict[str, Dict] = {}

#: Default output path of the machine-readable perf record (repo root).
RUNTIME_JSON_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_runtime.json",
)

Cell = Optional[Tuple[CircuitMetrics, CircuitMetrics, float]]


def _options() -> Dict:
    return {"verify": "auto" if VERIFY else False}


def _run_grid(
    suite: str, jobs: List[CompileJob], cells: List[Tuple[str, str]]
) -> Dict[str, Dict[str, CompilationResult]]:
    """Compile ``jobs`` as one batch; return name -> device -> result.

    ``cells`` pairs each job with its (benchmark, device) coordinates.
    N/A cells (NotSynthesizableError) come back as missing entries; any
    other per-job failure is re-raised — a broken compiler should fail
    the bench loudly, not silently drop cells.
    """
    started = time.perf_counter()
    report = compile_many(jobs, workers=WORKERS, cache=CACHE)
    grid: Dict[str, Dict[str, CompilationResult]] = {}
    benchmarks: Dict[str, Dict[str, Dict]] = {}
    not_available = 0
    for entry, (name, device_name) in zip(report, cells):
        row = grid.setdefault(name, {})
        record = benchmarks.setdefault(name, {})
        if entry.ok:
            result = entry.result
            row[device_name] = result
            record[device_name] = {
                "seconds": round(result.synthesis_seconds, 6),
                "from_cache": entry.from_cache,
                "unoptimized": _triple(result.unoptimized_metrics),
                "optimized": _triple(result.optimized_metrics),
            }
        elif entry.error.not_synthesizable:
            not_available += 1
            record[device_name] = None
        else:
            entry.unwrap()  # re-raises with the job label attached
    RUNTIME[suite] = {
        "wall_seconds": round(time.perf_counter() - started, 4),
        "workers": report.workers,
        "cells": len(jobs),
        "compiled": sum(1 for entry in report if entry.ok),
        "not_available": not_available,
        "cache_hits": report.cache_hits,
        # Per-run cache delta (schema 2): hits/misses/hit_rate are what
        # THIS suite did, not the session's cumulative counters; the
        # session totals live under its "lifetime" sub-key.
        "cache": report.cache_stats,
        "metrics": report.metrics,
        "sum_synthesis_seconds": round(
            sum(e.result.synthesis_seconds for e in report.successes()), 4
        ),
        "benchmarks": benchmarks,
    }
    return grid


def _triple(metrics: CircuitMetrics) -> List[float]:
    return [metrics.t_count, metrics.gate_volume, metrics.cost]


def _cell(result: Optional[CompilationResult]) -> Cell:
    if result is None:
        return None
    return (
        result.unoptimized_metrics,
        result.optimized_metrics,
        result.synthesis_seconds,
    )


@lru_cache(maxsize=1)
def table3_grid():
    """name -> {device name -> Cell}, plus the simulator reference."""
    jobs: List[CompileJob] = []
    cells: List[Tuple[str, str]] = []
    options = _options()
    for name, qubits in single_target.PAPER_STG_BENCHMARKS:
        circuit = single_target.build_benchmark(name, qubits)
        for device in (SIMULATOR, *PAPER_DEVICES):
            jobs.append(CompileJob.make(circuit, device, options))
            cells.append((name, device.name))
    results = _run_grid("table3", jobs, cells)
    return {
        name: {
            device: _cell(results.get(name, {}).get(device))
            for device in ("simulator", *(d.name for d in PAPER_DEVICES))
        }
        for name, _ in single_target.PAPER_STG_BENCHMARKS
    }


@lru_cache(maxsize=1)
def table5_grid():
    jobs: List[CompileJob] = []
    cells: List[Tuple[str, str]] = []
    options = _options()
    for name, _, _ in revlib.PAPER_REVLIB_BENCHMARKS:
        circuit = revlib.build_benchmark(name)
        for device in PAPER_DEVICES:
            jobs.append(CompileJob.make(circuit, device, options))
            cells.append((name, device.name))
    results = _run_grid("table5", jobs, cells)
    return {
        name: {
            device.name: _cell(results.get(name, {}).get(device.name))
            for device in PAPER_DEVICES
        }
        for name, _, _ in revlib.PAPER_REVLIB_BENCHMARKS
    }


@lru_cache(maxsize=1)
def table8_results():
    """name -> full CompilationResult on the proposed 96-qubit machine."""
    jobs: List[CompileJob] = []
    cells: List[Tuple[str, str]] = []
    options = {"verify": "sampled" if VERIFY else False}
    for name in table7.PAPER_96Q_BENCHMARKS:
        circuit = table7.build_benchmark(name)
        jobs.append(CompileJob.make(circuit, PROPOSED96, options))
        cells.append((name, PROPOSED96.name))
    results = _run_grid("table8", jobs, cells)
    return {
        name: results[name][PROPOSED96.name]
        for name in table7.PAPER_96Q_BENCHMARKS
    }


def write_runtime_json(path: Optional[str] = None) -> Optional[str]:
    """Merge the session's suites into the perf record; returns the path
    (None if no suite ran).  Called automatically at pytest session end
    (see conftest).

    Suites recorded by earlier sessions stay; a suite this session ran
    replaces its old record.  The top-level fields describe this session.
    """
    if not RUNTIME:
        return None
    path = path or RUNTIME_JSON_PATH
    suites: Dict[str, Dict] = {}
    try:
        with open(path) as handle:
            previous = json.load(handle).get("suites")
        if isinstance(previous, dict):
            suites.update(previous)
    except (OSError, ValueError, AttributeError):
        pass  # no readable record yet: start a fresh one
    suites.update(RUNTIME)
    # Schema 3: adds the "verify" suite (bench_verify.py) — per-cell
    # two-sided vs miter wall times, peak unique-table nodes, and the
    # overall speedup; its shape differs from the compile-grid suites
    # (no batch-engine cache/metrics keys).  Schema 2 made per-suite
    # "cache" a per-run delta (session totals under "lifetime") and
    # added per-suite "metrics"; the top-level "cache" stays the
    # session-lifetime view.
    document = {
        "schema": 3,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "python": platform.python_version(),
        "workers": WORKERS,
        "verify": VERIFY,
        "cache": CACHE.stats(),
        "suites": suites,
    }
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
    return path


def percent_decrease(cell: Cell) -> Optional[float]:
    """The Tables 4/6/8 metric for one grid cell."""
    if cell is None:
        return None
    unopt, opt, _ = cell
    return unopt.percent_decrease_to(opt)


def format_cell(cell: Cell) -> str:
    if cell is None:
        return "N/A"
    unopt, opt, _ = cell
    return f"{unopt}  {opt}"
