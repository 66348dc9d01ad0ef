"""Transport-agnostic core of the compile service (``repro serve``).

:class:`CompileService` is the long-lived, threaded heart of the
daemon: it owns the process's warm state — one thread-safe
:class:`~repro.batch.cache.CompilationCache`, the per-worker-thread
QMDD :class:`~repro.qmdd.pool.ManagerPool`\\ s, and the device registry
with its lazily-built distance tables — and executes compile requests
on a bounded pool of worker threads, in front of the same
:func:`~repro.compiler.compile_circuit` pipeline the CLI and batch
engine use.  Requests are admitted through a bounded queue: when every
worker is busy and the queue is full, :meth:`compile_request` raises
:class:`QueueFullError` immediately (the HTTP layer turns that into a
429) instead of letting latency pile up invisibly.

The service is deliberately transport-free so tests can drive it
in-process; :mod:`repro.serve.server` adds the JSON-over-HTTP skin.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from ..batch.cache import CompilationCache
from ..batch.engine import CompileJob, default_worker_count
from ..batch.serialize import result_to_payload
from ..compiler import WIRE_OPTIONS
from ..core.circuit import QuantumCircuit
from ..core.exceptions import ParseError, ReproError
from ..io import parse_qasm, parse_qc, parse_real
from ..obs import Snapshot, get_metrics

__all__ = [
    "CompileService",
    "QueueFullError",
    "RequestError",
    "ServeConfig",
]


class QueueFullError(ReproError):
    """The admission queue is full (or the service is draining): the
    request was rejected *without* being queued.  HTTP layer: 429."""


class RequestError(ReproError):
    """The request payload is malformed (bad JSON shape, unknown
    format/device/option, bad option value, unparsable circuit).  HTTP
    layer: 400."""


#: Circuit text parsers by wire-format name.
_PARSERS: Dict[str, Callable[..., QuantumCircuit]] = {
    "qasm": parse_qasm,
    "qc": parse_qc,
    "real": parse_real,
}

@dataclass(frozen=True)
class ServeConfig:
    """Knobs of one service instance (CLI flags map 1:1)."""

    #: Concurrent compile worker threads; ``None`` picks
    #: :func:`~repro.batch.engine.default_worker_count`.
    workers: Optional[int] = None
    #: Requests allowed to *wait* beyond the busy workers before the
    #: service answers 429.  0 means "reject unless a worker is free".
    queue_depth: int = 16
    #: Persistent cache directory (``None`` = memory-only cache).
    cache_dir: Optional[str] = None
    #: Memory-tier LRU capacity of the shared cache.
    max_memory_entries: int = 512
    #: Disk-tier entry budget (``None`` = unbounded).
    max_disk_entries: Optional[int] = None
    #: Honor the ``test_delay_seconds`` request field (tests and the CI
    #: smoke only — lets a request hold a worker deterministically).
    allow_test_delay: bool = False

    def resolved_workers(self) -> int:
        workers = self.workers if self.workers is not None else default_worker_count()
        if workers < 1:
            raise ReproError(f"workers must be >= 1, got {workers}")
        return workers


class CompileService:
    """Threaded compile executor over one process-lifetime warm state.

    Every request shares the same :class:`CompilationCache` (thread-safe
    memory LRU + disk tier), and each worker thread keeps its own warm
    QMDD manager pool — so a second identical request wave is served
    almost entirely from cache, and even cold compiles reuse hot gate
    and identity diagrams.
    """

    def __init__(self, config: Optional[ServeConfig] = None) -> None:
        self.config = config or ServeConfig()
        self.workers = self.config.resolved_workers()
        if self.config.queue_depth < 0:
            raise ReproError(
                f"queue_depth must be >= 0, got {self.config.queue_depth}"
            )
        self.cache = CompilationCache(
            max_entries=self.config.max_memory_entries,
            directory=self.config.cache_dir,
            max_disk_entries=self.config.max_disk_entries,
        )
        self.started = time.time()
        self._executor = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-serve"
        )
        #: One slot per worker plus one per queue position; held for a
        #: request's whole queued+running lifetime.
        self._slots = threading.BoundedSemaphore(
            self.workers + self.config.queue_depth
        )
        self._draining = threading.Event()
        self._lock = threading.Lock()
        self._requests_total = 0
        self._rejected_total = 0
        self._errors_total = 0
        self._compiled_total = 0
        self._cache_hits_total = 0
        self._in_flight = 0
        #: Scrape state for :meth:`metrics_scrape` delta honesty.  The
        #: registry is process-global, so baseline it at construction:
        #: the first scrape covers this service's lifetime, not whatever
        #: the process did before it existed.
        self._scrape_lock = threading.Lock()
        self._metrics_before: Optional[Snapshot] = get_metrics().snapshot()
        self._cache_before: Optional[Dict[str, Any]] = None
        self._scrapes = 0

    # -- request path ------------------------------------------------------

    def compile_request(
        self, payload: Any, profile: bool = False
    ) -> Dict[str, Any]:
        """Admit, execute, and serialize one compile request (blocking).

        Raises :class:`QueueFullError` when no admission slot is free,
        :class:`RequestError` on malformed payloads, and lets pipeline
        errors (synthesis, verification) propagate for the transport
        layer to map onto status codes.
        """
        registry = get_metrics()
        with self._lock:
            self._requests_total += 1
        registry.inc("serve.requests")
        if self._draining.is_set() or not self._slots.acquire(blocking=False):
            with self._lock:
                self._rejected_total += 1
            registry.inc("serve.rejected")
            raise QueueFullError(
                "compile queue is full"
                if not self._draining.is_set()
                else "service is draining"
            )
        try:
            try:
                future = self._executor.submit(self._run, payload, profile)
            except RuntimeError:
                # Executor shut down between the drain check and here.
                with self._lock:
                    self._rejected_total += 1
                registry.inc("serve.rejected")
                raise QueueFullError("service is draining")
            # In flight: admitted and handed to the executor, queued or
            # running, until its answer is back.
            with self._lock:
                self._in_flight += 1
            try:
                return future.result()
            finally:
                with self._lock:
                    self._in_flight -= 1
        finally:
            self._slots.release()

    def _run(self, payload: Any, profile: bool) -> Dict[str, Any]:
        """Worker-thread body: parse, consult the cache, compile."""
        registry = get_metrics()
        try:
            job = self._parse_job(payload, profile)
            if self.config.allow_test_delay and isinstance(payload, dict):
                delay = payload.get("test_delay_seconds")
                if delay:
                    time.sleep(min(float(delay), 10.0))
            started = time.perf_counter()
            key = job.cache_key()
            result = self.cache.get(key)
            from_cache = result is not None
            if result is None:
                result = job.run()
                self.cache.put(key, result)
                with self._lock:
                    self._compiled_total += 1
                registry.inc("serve.compiles")
            else:
                with self._lock:
                    self._cache_hits_total += 1
                registry.inc("serve.cache_hits")
            response: Dict[str, Any] = {
                "ok": True,
                "from_cache": from_cache,
                "cache_key": key,
                "seconds": round(time.perf_counter() - started, 6),
                "result": result_to_payload(result),
            }
            if profile and not (result.trace and result.trace.get("spans")):
                # Same honesty as `repro compile --profile` on a warm
                # hit: never fabricate spans for an unprofiled compile.
                response["profile_note"] = (
                    "no trace recorded (cached result from an "
                    "unprofiled compile)"
                )
            return response
        except BaseException:
            with self._lock:
                self._errors_total += 1
            registry.inc("serve.errors")
            raise

    def _parse_job(self, payload: Any, profile: bool) -> CompileJob:
        """Validate the request body into a :class:`CompileJob`; with
        ``profile`` the job traces (``trace`` is not part of the key)."""
        if not isinstance(payload, dict):
            raise RequestError("request body must be a JSON object")
        source = payload.get("circuit")
        if not isinstance(source, str) or not source.strip():
            raise RequestError("'circuit' must be non-empty circuit text")
        fmt = payload.get("format", "qasm")
        parser = _PARSERS.get(fmt) if isinstance(fmt, str) else None
        if parser is None:
            raise RequestError(
                f"unknown circuit format {fmt!r} "
                f"(expected one of {sorted(_PARSERS)})"
            )
        device = payload.get("device")
        if not isinstance(device, str) or not device:
            raise RequestError("'device' must name a synthesis target")
        name = payload.get("name", "")
        if not isinstance(name, str):
            raise RequestError("'name' must be a string")
        options = payload.get("options") or {}
        if not isinstance(options, dict):
            raise RequestError("'options' must be a JSON object")
        refused = set(options) - WIRE_OPTIONS
        if refused:
            raise RequestError(
                "option(s) not accepted over the wire: "
                + ", ".join(sorted(refused))
            )
        if profile:
            options = dict(options, trace=True)
        try:
            circuit = parser(source, name=name or "request")
        except ParseError as error:
            raise RequestError(f"circuit does not parse: {error}") from error
        try:
            return CompileJob.make(circuit, device, options, label=name)
        except ReproError as error:
            raise RequestError(str(error)) from error

    # -- introspection endpoints -------------------------------------------

    def healthz(self) -> Dict[str, Any]:
        """Cheap liveness document (no disk I/O, no glob)."""
        with self._lock:
            in_flight = self._in_flight
            requests = self._requests_total
        return {
            "status": "draining" if self._draining.is_set() else "ok",
            "uptime_seconds": round(time.time() - self.started, 3),
            "workers": self.workers,
            "queue_depth": self.config.queue_depth,
            "in_flight": in_flight,
            "requests_total": requests,
            "cache_memory_entries": len(self.cache),
        }

    def server_stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "uptime_seconds": round(time.time() - self.started, 3),
                "workers": self.workers,
                "queue_depth": self.config.queue_depth,
                "in_flight": self._in_flight,
                "requests_total": self._requests_total,
                "rejected_total": self._rejected_total,
                "errors_total": self._errors_total,
                "compiled_total": self._compiled_total,
                "cache_hits_total": self._cache_hits_total,
            }

    def metrics_scrape(self) -> Dict[str, Any]:
        """One ``/metrics`` document: the merged process registry plus
        the shared cache's counters, each reported two ways — lifetime
        totals *and* an honest per-scrape delta (what moved since the
        previous scrape, with the delta hit rate recomputed over the
        delta's own lookups, never diluted by history)."""
        registry = get_metrics()
        with self._scrape_lock:
            metrics_delta = registry.since(self._metrics_before)
            metrics_lifetime = registry.snapshot()
            cache_lifetime = self.cache.stats()
            cache_delta = CompilationCache.stats_delta(
                self._cache_before, cache_lifetime
            )
            self._metrics_before = metrics_lifetime
            self._cache_before = cache_lifetime
            self._scrapes += 1
            scrape_index = self._scrapes
        cache_delta["lifetime"] = cache_lifetime
        return {
            "scrape": scrape_index,
            "metrics": {"lifetime": metrics_lifetime, "delta": metrics_delta},
            "cache": cache_delta,
            "server": self.server_stats(),
        }

    # -- lifecycle ---------------------------------------------------------

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    def drain(self) -> None:
        """Stop admitting work and block until every in-flight and
        queued request has completed.  Idempotent."""
        self._draining.set()
        self._executor.shutdown(wait=True)

    def close(self) -> None:
        self.drain()
