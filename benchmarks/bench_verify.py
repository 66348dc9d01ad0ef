"""Verification fast path: miter vs two-sided equivalence (Section 4).

The paper verifies every compiled specification by building both QMDDs
and comparing canonical root pointers.  This bench times that reference
``two_sided`` strategy against the ``miter`` fast path (inverse-first
telescoping product over a fused <=2-wire block stream) on mapped
Table 3 circuits, asserting:

* both strategies return the same verdict on every cell, and
* the miter is no slower overall (``REPRO_BENCH_VERIFY_MIN_SPEEDUP``
  raises the bar; the recorded speedup on the full grid is ~3.5x), and
* the miter's peak unique-table footprint is smaller.

A third leg times the verification facade, ``verify_equivalent`` with
``method="qmdd"``, which runs the miter on the wires the two circuits
touch, against the full-width miter: same verdicts, and no slower.

A fourth leg compiles the same cells under ``route="sabre"`` as well and
verifies both routes through the facade: same verdicts, and the sabre
outputs, which are shorter but end on a permuted layout, verify no
slower in total than the CTR ones (the miter tracks routing SWAPs as a
wire relabelling instead of carrying the permutation in its product).

Each leg runs in a *fresh* manager (no pool, no warm caches) so the
comparison isolates the strategy itself.  Results land in the
``verify`` suite of ``BENCH_runtime.json`` (schema 3).
"""

from __future__ import annotations

import os
import time
from functools import lru_cache
from typing import Any, Dict, List, Tuple

from harness import RUNTIME
from repro import compile_circuit
from repro.benchlib import single_target
from repro.core.exceptions import ReproError
from repro.devices import PAPER_DEVICES
from repro.qmdd import QMDDManager, check_equivalence
from repro.reporting import Table
from repro.verify import verify_equivalent

#: Mapped Table 3 cells exercised by the bench: medium-depth circuits on
#: the wide (14-16 qubit) devices, where verification cost is visible
#: but a CI smoke run stays in seconds.  All widths are <= 24.
CELLS = (
    ("000f", 5, "ibmqx3"),
    ("001f", 6, "ibmqx3"),
    ("0117", 6, "ibmqx5"),
    ("033f", 5, "ibmqx5"),
    ("00ff", 5, "ibmq_16"),
    ("0356", 5, "ibmq_16"),
)

#: The bench fails if overall miter speedup drops below this (default:
#: the miter must simply not be slower; the acceptance run on the full
#: Table 3 grid measures ~3.5x).
MIN_SPEEDUP = float(os.environ.get("REPRO_BENCH_VERIFY_MIN_SPEEDUP", "1.0"))

_DEVICES = {device.name: device for device in PAPER_DEVICES}


def _timed_check(original, mapped, width: int, strategy: str):
    """One equivalence check in a fresh manager; returns
    (seconds, result, peak unique-table nodes)."""
    manager = QMDDManager(width)
    started = time.perf_counter()
    result = check_equivalence(
        original, mapped, num_qubits=width, manager=manager,
        strategy=strategy,
    )
    seconds = time.perf_counter() - started
    return seconds, result, manager.stats()["peak_unique_nodes"]


@lru_cache(maxsize=2)
def compiled_cells(route: str = "ctr") -> Tuple[List[Tuple[str, Any, Any]], int]:
    """``([(cell, source, compiled result), ...], N/A count)`` for
    ``CELLS``, compiled once under ``route`` without verification."""
    cells = []
    skipped = 0
    for name, qubits, device_name in CELLS:
        circuit = single_target.build_benchmark(name, qubits)
        try:
            compiled = compile_circuit(
                circuit, _DEVICES[device_name], verify=False, route=route
            )
        except ReproError:
            skipped += 1  # N/A cell on this device (no spare qubit)
            continue
        cells.append((f"{name}@{device_name}", circuit, compiled))
    return cells, skipped


@lru_cache(maxsize=1)
def verify_grid() -> List[Dict]:
    """Compile each cell and time both strategies; records the ``verify``
    suite into the shared RUNTIME ledger (dumped to BENCH_runtime.json)."""
    started = time.perf_counter()
    records: List[Dict] = []
    cells, skipped = compiled_cells()
    for cell, circuit, compiled in cells:
        mapped = compiled.optimized
        width = mapped.num_qubits
        two_seconds, two_result, two_peak = _timed_check(
            circuit, mapped, width, "two_sided"
        )
        miter_seconds, miter_result, miter_peak = _timed_check(
            circuit, mapped, width, "miter"
        )
        records.append({
            "cell": cell,
            "width": width,
            "two_sided": {
                "seconds": round(two_seconds, 6),
                "equivalent": bool(two_result.equivalent),
                "peak_unique_nodes": two_peak,
            },
            "miter": {
                "seconds": round(miter_seconds, 6),
                "equivalent": bool(miter_result.equivalent),
                "peak_unique_nodes": miter_peak,
            },
            "speedup": round(two_seconds / max(miter_seconds, 1e-9), 3),
        })
    two_total = sum(r["two_sided"]["seconds"] for r in records)
    miter_total = sum(r["miter"]["seconds"] for r in records)
    RUNTIME["verify"] = {
        "wall_seconds": round(time.perf_counter() - started, 4),
        "cells": len(records),
        "not_available": skipped,
        "two_sided_seconds": round(two_total, 4),
        "miter_seconds": round(miter_total, 4),
        "speedup": round(two_total / max(miter_total, 1e-9), 3),
        "peak_unique_nodes": {
            "two_sided": max(
                (r["two_sided"]["peak_unique_nodes"] for r in records),
                default=0,
            ),
            "miter": max(
                (r["miter"]["peak_unique_nodes"] for r in records),
                default=0,
            ),
        },
        "benchmarks": {r["cell"]: r for r in records},
    }
    return records


@lru_cache(maxsize=1)
def facade_grid() -> List[Dict]:
    """Time the facade (compacted miter, fresh manager) against the
    full-width miter on the same cells; adds ``facade`` to the suite."""
    verify_grid()
    records: List[Dict] = []
    for cell, circuit, compiled in compiled_cells()[0]:
        mapped = compiled.optimized
        # Best of two interleaved runs per leg: single-cell times on a
        # shared CI machine swing by more than the gap being checked.
        full_seconds = facade_seconds = float("inf")
        for _ in range(2):
            seconds, full_result, _ = _timed_check(
                circuit, mapped, mapped.num_qubits, "miter"
            )
            full_seconds = min(full_seconds, seconds)
            started = time.perf_counter()
            report = verify_equivalent(
                circuit, mapped, method="qmdd", pool=False
            )
            facade_seconds = min(
                facade_seconds, time.perf_counter() - started
            )
        records.append({
            "cell": cell,
            "width": mapped.num_qubits,
            "wires": len(mapped.used_qubits),
            "full_miter_seconds": round(full_seconds, 6),
            "full_miter_equivalent": bool(full_result.equivalent),
            "facade_seconds": round(facade_seconds, 6),
            "facade_equivalent": report.equivalent,
            "facade_method": report.method,
        })
    full_total = sum(r["full_miter_seconds"] for r in records)
    facade_total = sum(r["facade_seconds"] for r in records)
    RUNTIME["verify"]["facade"] = {
        "full_miter_seconds": round(full_total, 4),
        "facade_seconds": round(facade_total, 4),
        "speedup": round(full_total / max(facade_total, 1e-9), 3),
        "benchmarks": {r["cell"]: r for r in records},
    }
    return records


@lru_cache(maxsize=1)
def route_grid() -> List[Dict]:
    """Verify every cell under both routes through the facade (fresh
    managers); adds ``ctr_seconds`` and ``sabre_seconds`` to the suite."""
    verify_grid()
    sabre = {cell: compiled for cell, _, compiled in compiled_cells("sabre")[0]}
    records: List[Dict] = []
    for cell, _, ctr in compiled_cells("ctr")[0]:
        if cell not in sabre:
            continue
        record: Dict[str, Any] = {"cell": cell}
        for route, compiled in (("ctr", ctr), ("sabre", sabre[cell])):
            source = compiled.original.remapped(
                compiled.placement, num_qubits=compiled.device.num_qubits
            )
            started = time.perf_counter()
            report = verify_equivalent(
                source, compiled.optimized, method="qmdd", pool=False,
                output_permutation=compiled.output_permutation,
            )
            record[route] = {
                "gates": len(compiled.optimized),
                "seconds": round(time.perf_counter() - started, 6),
                "equivalent": report.equivalent,
                "method": report.method,
            }
        records.append(record)
    suite = RUNTIME["verify"]
    for route in ("ctr", "sabre"):
        suite[f"{route}_seconds"] = round(
            sum(r[route]["seconds"] for r in records), 4
        )
    suite["routes"] = {r["cell"]: r for r in records}
    return records


def test_print_verify_comparison():
    records = verify_grid()
    table = Table(
        "Verification strategies — two-sided vs miter (fresh managers)",
        ["cell", "width", "two-sided s", "miter s", "speedup",
         "peak nodes (2s)", "peak nodes (miter)"],
    )
    for r in records:
        table.add_row(
            r["cell"], r["width"],
            f"{r['two_sided']['seconds']:.4f}",
            f"{r['miter']['seconds']:.4f}",
            f"{r['speedup']:.2f}x",
            r["two_sided"]["peak_unique_nodes"],
            r["miter"]["peak_unique_nodes"],
        )
    suite = RUNTIME["verify"]
    table.add_row(
        "TOTAL", "-",
        f"{suite['two_sided_seconds']:.4f}",
        f"{suite['miter_seconds']:.4f}",
        f"{suite['speedup']:.2f}x", "-", "-",
    )
    table.print()
    assert records, "every bench cell was N/A — grid misconfigured"


def test_verdicts_agree():
    """Both strategies must call every compiled cell equivalent — the
    miter is a fast path, not a different oracle."""
    for r in verify_grid():
        assert r["two_sided"]["equivalent"], r["cell"]
        assert r["miter"]["equivalent"], r["cell"]


def test_miter_is_not_slower():
    """Overall miter wall time beats two-sided by MIN_SPEEDUP (>= 1.0:
    never slower; the acceptance measurement on the full grid is ~3.5x)."""
    verify_grid()
    suite = RUNTIME["verify"]
    assert suite["speedup"] >= MIN_SPEEDUP, (
        f"miter speedup {suite['speedup']}x below the "
        f"{MIN_SPEEDUP}x bar: {suite}"
    )


def test_miter_peak_footprint_is_smaller():
    """The telescoping product plus GC-able single-root build must not
    grow the unique table past the two-sided build's footprint."""
    verify_grid()
    peaks = RUNTIME["verify"]["peak_unique_nodes"]
    assert peaks["miter"] < peaks["two_sided"], peaks


def test_facade_verdicts_agree_with_full_width_miter():
    """Compaction changes the register the miter runs on, never the
    verdict or the method the facade reports."""
    records = facade_grid()
    assert records, "every bench cell was N/A — grid misconfigured"
    for r in records:
        assert r["facade_method"] == "qmdd", r["cell"]
        assert r["facade_equivalent"] == r["full_miter_equivalent"], r["cell"]
        assert r["facade_equivalent"], r["cell"]


def test_facade_is_not_slower_than_full_width_miter():
    facade_grid()
    facade = RUNTIME["verify"]["facade"]
    assert facade["speedup"] >= 1.0, facade


def test_routes_verify_alike_and_sabre_no_slower():
    """Both routes' outputs verify equivalent by the same method, and
    the sabre outputs take no longer in total than the CTR ones."""
    records = route_grid()
    assert records, "every bench cell was N/A — grid misconfigured"
    for r in records:
        assert r["ctr"]["equivalent"] and r["sabre"]["equivalent"], r
        assert r["ctr"]["method"] == r["sabre"]["method"] == "qmdd", r
    suite = RUNTIME["verify"]
    assert suite["sabre_seconds"] <= suite["ctr_seconds"], suite["routes"]
