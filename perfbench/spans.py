"""Spans of a traced run, kept in memory and written out at the end.

The benchmark opens a span around each call it makes into a layer of
the compiler (``frontend.synth``, ``batch.compile_many``, ``io.emit``,
...) and grafts the compiler's own span tree (``compile`` > ``map`` >
``map.route`` ...) under the call that produced it.  A span's *self
time* is its duration minus the time its children cover; in this
serial code children never overlap, so that is the duration minus the
children's durations.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional


class Recorder:
    """A flat list of spans ``{id, parent, name, start, dur, attrs}``
    with times in seconds from the recorder's creation."""

    def __init__(self) -> None:
        self.spans: List[Dict] = []
        self._origin = time.perf_counter()
        self._stack: List[int] = []

    def _add(self, name: str, start: float, dur: float, attrs: Dict,
             parent: Optional[int]) -> int:
        self.spans.append({
            "id": len(self.spans), "parent": parent, "name": name,
            "start": round(start, 9), "dur": round(dur, 9), "attrs": attrs,
        })
        return len(self.spans) - 1

    def record(self, name: str, started: float, dur: float,
               **attrs) -> Dict:
        """Add a finished top-level span; ``started`` is a
        ``time.perf_counter`` reading."""
        index = self._add(name, started - self._origin, dur, attrs, None)
        return self.spans[index]

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[Dict]:
        """Time the body; the yielded dict is the span, whose ``attrs``
        the body may extend."""
        parent = self._stack[-1] if self._stack else None
        start = time.perf_counter() - self._origin
        index = self._add(name, start, 0.0, attrs, parent)
        self._stack.append(index)
        try:
            yield self.spans[index]
        finally:
            self._stack.pop()
            end = time.perf_counter() - self._origin
            self.spans[index]["dur"] = round(end - start, 9)

    def graft(self, summary: Optional[Dict], parent: Dict) -> None:
        """Attach a compiler trace summary (``CompilationResult.trace``)
        under ``parent``, its starts shifted to the parent's start."""
        if not summary:
            return

        def walk(node: Dict, parent_id: int) -> None:
            index = self._add(
                node["name"], parent["start"] + node.get("start", 0.0),
                node.get("duration", 0.0), dict(node.get("attrs", {})),
                parent_id,
            )
            for child in node.get("children", ()):
                walk(child, index)

        for root in summary.get("spans", ()):
            walk(root, parent["id"])


def self_times(spans: List[Dict]) -> List[float]:
    """Per span: its duration minus its children's durations."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] += span["dur"]
    return [max(0.0, s["dur"] - c) for s, c in zip(spans, covered)]


def where_time_goes(spans: List[Dict]) -> List[Dict]:
    """Self time summed per span name, largest first."""
    totals: Dict[str, List[float]] = {}
    for span, own in zip(spans, self_times(spans)):
        entry = totals.setdefault(span["name"], [0, 0.0])
        entry[0] += 1
        entry[1] += own
    grand = sum(total for _, total in totals.values()) or 1.0
    rows = [
        {"span": name, "count": count, "self_s": round(total, 6),
         "share": round(total / grand, 4)}
        for name, (count, total) in totals.items()
    ]
    rows.sort(key=lambda row: -row["self_s"])
    return rows


def render_table(title: str, rows: List[Dict], limit: int = 16) -> str:
    lines = [f"where the time goes: {title}",
             f"  {'span':<28}{'count':>8}{'self s':>12}{'share':>8}"]
    for row in rows[:limit]:
        lines.append(
            f"  {row['span']:<28}{row['count']:>8}{row['self_s']:>12.3f}"
            f"{100 * row['share']:>7.1f}%"
        )
    return "\n".join(lines)


def _total(spans: List[Dict], *names: str) -> float:
    return sum(s["dur"] for s in spans if s["name"] in names)


def _attr_sum(spans: List[Dict], name: str, attr: str) -> float:
    return sum(s["attrs"].get(attr, 0) for s in spans if s["name"] == name)


def _route_of(spans: List[Dict]) -> List[Optional[str]]:
    """For every span, the ``route`` attr of its nearest ancestor (or
    itself) that carries one."""
    routes: List[Optional[str]] = []
    for span in spans:
        route = span["attrs"].get("route")
        if route is None and span["parent"] is not None:
            route = routes[span["parent"]]
        routes.append(route)
    return routes


def layer_metrics(spans: List[Dict], counters: Dict, gauges: Dict) -> Dict:
    """Per-layer figures from the span list and the compiler's metric
    counters; layers a workload does not reach read 0."""
    routes = _route_of(spans)
    verify = {"ctr": 0.0, "sabre": 0.0}
    for span, route in zip(spans, routes):
        if span["name"] == "verify" and route in verify:
            verify[route] += span["dur"]
    engine = 0.0
    for span in spans:
        if span["name"] == "batch.compile_many":
            engine += span["dur"]
        elif span["name"] == "compile" and span["parent"] is not None \
                and spans[span["parent"]]["name"] == "batch.compile_many":
            engine -= span["dur"]
    mapped = _attr_sum(spans, "map", "gates_out")
    final = _attr_sum(spans, "compile", "gates_out")
    hits = sum(counters.get(f"qmdd.{k}_hits", 0)
               for k in ("mul", "add", "gate", "apply"))
    misses = sum(counters.get(f"qmdd.{k}_misses", 0)
                 for k in ("mul", "add", "gate", "apply"))
    return {
        "frontend.synth_s": _total(spans, "frontend.synth"),
        "backend.place_s": _total(spans, "placement", "map.place"),
        "backend.lower_s": _total(spans, "map.lower", "map.expand"),
        "backend.route_s": _total(spans, "map.route"),
        "backend.rebase_s": _total(spans, "map.rebase"),
        "backend.swaps": _attr_sum(spans, "map.route", "swaps"),
        "backend.mapped_gates": mapped,
        "analysis.contracts_s": sum(
            s["dur"] for s in spans if s["name"].startswith("analyze.")
        ),
        "optimize.s": _total(spans, "optimize"),
        "optimize.rounds": _attr_sum(spans, "optimize", "rounds"),
        "optimize.gates_removed": mapped - final,
        "verify.ctr_s": verify["ctr"],
        "verify.sabre_s": verify["sabre"],
        "verify.prescreen_proofs": counters.get("verify.prescreen.proofs", 0),
        "verify.qmdd_checks": counters.get("verify.qmdd_checks", 0),
        "qmdd.peak_nodes": gauges.get("qmdd.peak_unique_nodes", 0),
        "qmdd.op_cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "qmdd.gc_sweeps": counters.get("qmdd.gc_sweeps", 0),
        "batch.engine_s": max(0.0, engine),
        "batch.cache_get_s": _total(spans, "batch.cache_get"),
        "batch.cache_put_s": _total(spans, "batch.cache_put"),
        "batch.serialize_s": _total(spans, "batch.serialize"),
        "io.parse_s": _total(spans, "io.parse"),
        "io.emit_s": _total(spans, "io.emit"),
    }


def overhead_fraction(pairs: List[List[float]]) -> float:
    """Tracing overhead from ``[untraced_s, traced_s]`` pairs of the same
    compile: the geometric mean of traced/untraced, minus one.  Pairs
    alternate which side runs first, so the speed-up the second run of
    a pair gets from warm caches cancels in the mean."""
    ratios = [t / u for u, t in pairs if u > 0 and t > 0]
    if not ratios:
        return 0.0
    return math.exp(sum(math.log(r) for r in ratios) / len(ratios)) - 1.0


def median_ms(values: List[float]) -> float:
    return 1e3 * statistics.median(values) if values else 0.0
