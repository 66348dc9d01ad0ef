"""Process-parallel batch compilation with deterministic result order.

:func:`compile_many` fans a list of ``(circuit, device, options)`` jobs
across a :class:`concurrent.futures.ProcessPoolExecutor`:

* **Deterministic ordering** — results come back in job-submission
  order regardless of which worker finished first.
* **Chunked dispatch** — jobs are shipped in contiguous chunks to
  amortize pickling overhead; chunk size adapts to the job count.
* **Serial fallback** — ``workers=1`` runs fully in-process (no pool,
  no pickling), as do individual jobs that cannot be pickled (e.g. a
  device annotated with a lambda cost function).
* **Per-job error capture** — a failing cell produces a structured
  :class:`JobError` in its slot; it never crashes the pool or masks the
  other cells.
* **Content-addressed caching** — pass a
  :class:`~repro.batch.cache.CompilationCache` and repeated cells are
  served without compiling (see :mod:`repro.batch.cache` for the key).

Fault tolerance (the batch is a long-running production surface, so a
single sick job must never lose the rest):

* **Per-job wall-clock timeouts** — ``timeout=seconds`` arms a
  ``SIGALRM``-based guard around each job *inside the worker*, so a
  runaway compilation raises
  :class:`~repro.core.exceptions.JobTimeoutError` instead of stalling
  the batch.  A coordinator-side backstop reclaims the pool when a
  worker is hard-hung (stuck in a signal-proof state) and requeues the
  unstarted jobs.
* **Bounded retry with backoff** — transient failures (timeouts, worker
  crashes, :class:`~repro.core.exceptions.TransientJobError`) are
  retried up to ``retries`` times with exponential backoff; genuine
  compile errors are recorded immediately, never retried.
* **Broken-pool recovery** — a dying worker (``BrokenProcessPool``)
  used to abort the whole batch; now the pool is rebuilt, surviving
  jobs are requeued, and after ``max_pool_restarts`` rebuilds the
  engine degrades gracefully to serial in-process execution so the
  batch always completes with per-job outcomes.
* **Interrupt flush** — Ctrl-C during a batch fills the unfinished
  slots with ``KeyboardInterrupt`` job errors and returns the partial
  report (``BatchReport.interrupted``) instead of losing completed work.
* **Deterministic fault injection** — the ``REPRO_FAULT_INJECT``
  environment hook (:mod:`repro.batch.faults`) kills, hangs or flakes
  workers on demand so every recovery path above is itself tested.

The coordinating process owns the cache; worker processes only ever
compile.  Fresh results are cached on the way back, so a second call
with the same jobs is pure cache hits.
"""

from __future__ import annotations

import os
import pickle
import signal
import threading
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    List,
    Optional,
    Tuple,
    Union,
)

from ..compiler import CompilationResult, CompileOptions, compile_circuit

if TYPE_CHECKING:
    from ..analysis.diagnostics import Diagnostic
from ..core.circuit import QuantumCircuit
from ..core.exceptions import JobTimeoutError, ReproError
from ..devices.device import Device, get_device
from ..obs import MetricsRegistry, get_metrics
from . import faults
from .cache import CompilationCache, job_cache_key

#: Exception type names the engine treats as transient (retryable).
TRANSIENT_ERROR_TYPES = frozenset(
    {
        "JobTimeoutError",
        "WorkerCrashError",
        "TransientJobError",
        "FaultInjectedError",
        "BrokenProcessPool",
        "OSError",
    }
)


@dataclass(frozen=True)
class CompileJob:
    """One cell of a compilation grid: a circuit bound for a device."""

    circuit: QuantumCircuit
    device: Device
    options: Tuple[Tuple[str, object], ...] = ()
    label: str = ""

    @classmethod
    def make(
        cls,
        circuit: QuantumCircuit,
        device: Union[Device, str],
        options: Optional[Dict] = None,
        label: str = "",
    ) -> "CompileJob":
        """Normalize user input into a job: resolve the device name,
        validate ``options`` through
        :class:`~repro.compiler.CompileOptions` and keep the keys given,
        with their values normalised."""
        if isinstance(device, str):
            device = get_device(device)
        given = options or {}
        normalized = CompileOptions.of(given)
        if not label:
            label = f"{circuit.name or 'circuit'}@{device.name}"
        return cls(
            circuit=circuit,
            device=device,
            options=tuple((name, getattr(normalized, name)) for name in sorted(given)),
            label=label,
        )

    @property
    def option_dict(self) -> Dict:
        return dict(self.options)

    def cache_key(self) -> Optional[str]:
        """Content address of this job (``None`` if uncacheable)."""
        return job_cache_key(self.circuit, self.device, self.option_dict)

    def run(self) -> CompilationResult:
        """Execute this job in the current process."""
        return compile_circuit(self.circuit, self.device, **self.option_dict)


@dataclass(frozen=True)
class JobError:
    """Structured capture of one failed cell."""

    exception_type: str
    message: str
    traceback_text: str = ""

    @classmethod
    def from_exception(cls, error: BaseException) -> "JobError":
        return cls(
            exception_type=type(error).__name__,
            message=str(error),
            traceback_text=traceback.format_exc(),
        )

    @property
    def not_synthesizable(self) -> bool:
        """True for the paper's N/A cells (circuit wider than the device
        or otherwise not mappable) as opposed to genuine failures."""
        return self.exception_type == "NotSynthesizableError"

    @property
    def transient(self) -> bool:
        """True when this failure class is retryable (timeout, worker
        crash, injected flakiness) rather than a deterministic error."""
        return self.exception_type in TRANSIENT_ERROR_TYPES

    @property
    def timed_out(self) -> bool:
        return self.exception_type == "JobTimeoutError"

    def __str__(self) -> str:
        return f"{self.exception_type}: {self.message}"


@dataclass
class JobResult:
    """Outcome of one job, in submission order within the batch."""

    index: int
    job: CompileJob
    result: Optional[CompilationResult] = None
    error: Optional[JobError] = None
    from_cache: bool = False
    seconds: float = 0.0
    #: Execution attempts consumed (1 = first try succeeded or failed
    #: non-transiently; >1 = the job was retried).
    attempts: int = 1
    #: True when the final outcome was a wall-clock timeout.
    timed_out: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def retried(self) -> bool:
        return self.attempts > 1

    def unwrap(self) -> CompilationResult:
        """The result, raising a ``ReproError`` if the job failed."""
        if self.error is not None:
            raise ReproError(
                f"job {self.job.label!r} failed: {self.error}"
            )
        return self.result


@dataclass
class BatchReport:
    """Everything one :func:`compile_many` invocation produced."""

    results: List[JobResult]
    workers: int
    wall_seconds: float
    #: *This run's* cache contribution: counter keys (hits, misses,
    #: stores, ...) are deltas over the batch, ``hit_rate`` is computed
    #: over those deltas, and the cache's cumulative counters ride along
    #: under ``"lifetime"``.  Earlier versions reported the raw lifetime
    #: counters here, which made a warm run on a long-lived cache look
    #: like a 0% hit rate.
    cache_stats: Optional[Dict] = None
    #: Merged metrics snapshot (``{"counters": ..., "gauges": ...}``)
    #: across every job in the batch — including worker-process deltas
    #: shipped back with each result (QMDD table stats, optimizer
    #: rounds, timeout-degrade tallies).
    metrics: Dict = field(default_factory=dict)
    serial_fallbacks: int = 0
    chunk_size: int = 0
    #: Total retry executions across the batch (0 = no transient faults).
    retry_count: int = 0
    #: Jobs whose final outcome was a wall-clock timeout.
    timeout_count: int = 0
    #: Times a broken worker pool was rebuilt mid-batch.
    pool_restarts: int = 0
    #: True when pool recovery was exhausted and the remaining jobs ran
    #: serially in the coordinating process.
    degraded_serial: bool = False
    #: True when the batch was interrupted (Ctrl-C); completed slots are
    #: real results, unfinished slots carry ``KeyboardInterrupt`` errors.
    interrupted: bool = False
    #: Jobs that ran with a requested timeout the platform could not
    #: enforce (no ``SIGALRM``, or serial execution off the main
    #: thread) — they degraded to unbounded execution with a
    #: ``REPRO712`` warning instead of failing with ``ValueError``.
    timeout_unenforced: int = 0
    extra: Dict = field(default_factory=dict)

    def __iter__(self):
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    def __getitem__(self, index: int) -> JobResult:
        return self.results[index]

    @property
    def ok(self) -> bool:
        return all(entry.ok for entry in self.results)

    def successes(self) -> List[JobResult]:
        return [entry for entry in self.results if entry.ok]

    def errors(self) -> List[JobResult]:
        return [entry for entry in self.results if not entry.ok]

    def timeouts(self) -> List[JobResult]:
        return [entry for entry in self.results if entry.timed_out]

    def retried(self) -> List[JobResult]:
        return [entry for entry in self.results if entry.retried]

    @property
    def cache_hits(self) -> int:
        return sum(1 for entry in self.results if entry.from_cache)

    def diagnostics(self) -> List[Tuple[str, "Diagnostic"]]:
        """All stage-contract findings across the batch, as
        ``(job label, diagnostic)`` pairs in submission order."""
        found: List[Tuple[str, "Diagnostic"]] = []
        for entry in self.results:
            if entry.result is None:
                continue
            for diagnostic in entry.result.diagnostics:
                found.append((entry.job.label, diagnostic))
        return found

    def health(self) -> "DiagnosticReport":
        """Batch-execution health findings (timeouts, retries, crashes,
        degradation) as located diagnostics — see
        :func:`repro.analysis.batch_health.batch_health_report`."""
        from ..analysis.batch_health import batch_health_report

        return batch_health_report(self)

    def summary(self) -> str:
        parts = [
            f"{len(self.results)} jobs",
            f"{len(self.errors())} failed",
            f"{self.cache_hits} cached",
            f"workers={self.workers}",
            f"{self.wall_seconds:.2f}s",
        ]
        flagged = self.diagnostics()
        if flagged:
            parts.insert(2, f"{len(flagged)} diagnostics")
        if self.retry_count:
            parts.append(f"{self.retry_count} retries")
        if self.timeout_count:
            parts.append(f"{self.timeout_count} timeouts")
        if self.timeout_unenforced:
            parts.append(
                f"{self.timeout_unenforced} timeout(s) unenforced"
            )
        if self.pool_restarts:
            parts.append(f"{self.pool_restarts} pool restarts")
        if self.degraded_serial:
            parts.append("degraded to serial")
        if self.interrupted:
            parts.append("INTERRUPTED")
        return ", ".join(parts)


if TYPE_CHECKING:
    from ..analysis.diagnostics import DiagnosticReport


JobLike = Union[
    CompileJob,
    Tuple[QuantumCircuit, Union[Device, str]],
    Tuple[QuantumCircuit, Union[Device, str], Dict],
]


def _normalize(jobs: Iterable[JobLike]) -> List[CompileJob]:
    normalized: List[CompileJob] = []
    for job in jobs:
        if isinstance(job, CompileJob):
            normalized.append(job)
        elif isinstance(job, tuple) and len(job) in (2, 3):
            options = job[2] if len(job) == 3 else None
            normalized.append(CompileJob.make(job[0], job[1], options))
        else:
            raise ReproError(
                "jobs must be CompileJob or (circuit, device[, options]) "
                f"tuples, got {type(job).__name__}"
            )
    return normalized


@contextmanager
def _alarm_guard(timeout: Optional[float], label: str):
    """Raise :class:`JobTimeoutError` if the body runs past ``timeout``.

    Uses ``SIGALRM`` (POSIX, main thread only) — exact wall-clock
    enforcement measured where the job actually runs, immune to pool
    queueing delays.  Where the alarm cannot be armed (Windows, a
    coordinator running serial jobs on a non-main thread, or a platform
    whose ``signal.signal`` refuses the handler), the guard **degrades
    to no-timeout and accounts for it**: the ``batch.timeout_unenforced``
    metric is incremented, which surfaces as
    :attr:`BatchReport.timeout_unenforced` and a ``REPRO712`` warning
    diagnostic in :meth:`BatchReport.health` — never a raised
    ``ValueError`` killing the job.  The coordinator's hard-hang
    backstop still applies either way.
    """
    if timeout is None or timeout <= 0:
        yield
        return
    armed = False
    previous = None
    if (
        hasattr(signal, "SIGALRM")
        and hasattr(signal, "setitimer")
        and threading.current_thread() is threading.main_thread()
    ):
        def _on_alarm(signum, frame):
            raise JobTimeoutError(
                f"job {label!r} exceeded {timeout:g}s wall-clock timeout"
            )

        try:
            previous = signal.signal(signal.SIGALRM, _on_alarm)
            signal.setitimer(signal.ITIMER_REAL, timeout)
            armed = True
        except (ValueError, OSError, AttributeError):
            # signal.signal raced a thread check / platform refused the
            # itimer: restore what we can and fall through to degraded.
            if previous is not None:
                try:
                    signal.signal(signal.SIGALRM, previous)
                except (ValueError, OSError):
                    pass
    if not armed:
        get_metrics().inc("batch.timeout_unenforced")
        yield
        return
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _execute_packed(packed: bytes) -> List[Tuple[int, str, bytes, Dict]]:
    """Worker entry point: run a pickled chunk of (index, job) pairs.

    Every outcome — success or failure — is pickled *individually* so a
    single unpicklable result cannot poison the whole chunk.  The
    per-job timeout is enforced here, in the worker, via the alarm
    guard.

    Each outcome carries the worker's **metrics delta** for that job — a
    before/after snapshot difference of the worker-process registry
    (QMDD table stats, optimizer rounds, timeout-degrade tallies, ...).
    The coordinator merges these into :attr:`BatchReport.metrics`;
    without the shipping step every worker-side counter dies with its
    process and the batch reports zeros.
    """
    timeout, entries = pickle.loads(packed)
    registry = get_metrics()
    out: List[Tuple[int, str, bytes, Dict]] = []
    for index, job in entries:
        before = registry.snapshot()
        try:
            with _alarm_guard(timeout, job.label):
                faults.fire("worker", job.label)
                result = job.run()
            payload = ("ok", pickle.dumps(result))
        except BaseException as error:  # captured, never crashes the pool
            payload = ("error", pickle.dumps(JobError.from_exception(error)))
        delta = MetricsRegistry.delta(before, registry.snapshot())
        out.append((index, payload[0], payload[1], delta))
    return out


def default_worker_count() -> int:
    """Worker count when the caller asks for ``workers=None``: the CPU
    count, capped at 8 (compilation is CPU-bound; more buys nothing)."""
    return min(os.cpu_count() or 1, 8)


@dataclass
class _Pending:
    """Coordinator-side state of one not-yet-recorded job."""

    index: int
    job: CompileJob
    key: Optional[str]
    #: Transient failures consumed so far (retry budget accounting).
    failures: int = 0


class _Batch:
    """One :func:`compile_many` invocation's mutable coordinator state."""

    def __init__(
        self,
        job_list: List[CompileJob],
        cache: Optional[CompilationCache],
        timeout: Optional[float],
        retries: int,
        retry_backoff: float,
    ):
        self.job_list = job_list
        self.cache = cache
        self.timeout = timeout
        self.retries = retries
        self.retry_backoff = retry_backoff
        self.results: List[Optional[JobResult]] = [None] * len(job_list)
        self.retry_count = 0
        self.timeout_count = 0
        self.pool_restarts = 0
        self.degraded_serial = False
        self.interrupted = False
        #: Merged per-job metrics deltas (worker snapshots shipped back
        #: with each result, serial deltas captured in-process).
        self.metrics = MetricsRegistry()

    # -- recording ---------------------------------------------------------

    def record_ok(
        self,
        entry: _Pending,
        result: CompilationResult,
        seconds: float,
        metrics_delta: Optional[Dict] = None,
    ) -> None:
        self.metrics.merge(metrics_delta)
        if self.cache is not None:
            self.cache.put(entry.key, result)
        self.results[entry.index] = JobResult(
            index=entry.index,
            job=entry.job,
            result=result,
            seconds=seconds,
            attempts=entry.failures + 1,
        )

    def record_error(
        self,
        entry: _Pending,
        error: JobError,
        metrics_delta: Optional[Dict] = None,
    ) -> None:
        self.metrics.merge(metrics_delta)
        timed_out = error.timed_out
        if timed_out:
            self.timeout_count += 1
        # `failures` already counts the final failed attempt (charged by
        # should_retry before landing here); the floor covers the rare
        # dispatch-side failures recorded without a retry decision.
        self.results[entry.index] = JobResult(
            index=entry.index,
            job=entry.job,
            error=error,
            attempts=max(1, entry.failures),
            timed_out=timed_out,
        )

    def should_retry(self, entry: _Pending, error: JobError) -> bool:
        """Consume one transient failure; True when the job has retry
        budget left and the failure class is retryable."""
        entry.failures += 1
        if error.transient and entry.failures <= self.retries:
            self.retry_count += 1
            return True
        return False

    def backoff(self, entry: _Pending) -> None:
        if self.retry_backoff > 0:
            time.sleep(self.retry_backoff * (2 ** min(entry.failures - 1, 6)))

    # -- serial execution --------------------------------------------------

    def run_serial(self, entries: List[_Pending]) -> None:
        """Execute ``entries`` in-process, honoring timeout and retries.

        ``KeyboardInterrupt`` propagates to :func:`compile_many`'s
        interrupt handler; everything else is captured per job.
        """
        registry = get_metrics()
        for entry in entries:
            while True:
                started = time.perf_counter()
                before = registry.snapshot()
                try:
                    with _alarm_guard(self.timeout, entry.job.label):
                        faults.fire("serial", entry.job.label)
                        result = entry.job.run()
                except KeyboardInterrupt:
                    raise
                except BaseException as error:
                    delta = MetricsRegistry.delta(before, registry.snapshot())
                    captured = JobError.from_exception(error)
                    if self.should_retry(entry, captured):
                        self.metrics.merge(delta)
                        self.backoff(entry)
                        continue
                    self.record_error(entry, captured, delta)
                else:
                    self.record_ok(
                        entry,
                        result,
                        time.perf_counter() - started,
                        MetricsRegistry.delta(before, registry.snapshot()),
                    )
                break


def compile_many(
    jobs: Iterable[JobLike],
    workers: Optional[int] = 1,
    cache: Optional[CompilationCache] = None,
    chunk_size: Optional[int] = None,
    timeout: Optional[float] = None,
    retries: int = 1,
    retry_backoff: float = 0.05,
    max_pool_restarts: int = 2,
) -> BatchReport:
    """Compile every job, optionally in parallel, with per-job errors.

    ``workers=1`` (the default) is fully serial and allocation-free;
    ``workers=None`` picks :func:`default_worker_count`.  Results are
    returned in submission order.  With a ``cache``, previously-compiled
    cells are served without compiling and fresh results are stored back.

    ``timeout`` bounds each job's wall-clock seconds (``None`` = no
    bound; forces chunk size 1 so one slow job cannot hide others'
    deadlines).  Transient failures are retried up to ``retries`` times
    with exponential ``retry_backoff``.  A broken worker pool is rebuilt
    up to ``max_pool_restarts`` times before the engine degrades to
    serial execution; the batch always returns a complete report.
    """
    started = time.perf_counter()
    job_list = _normalize(jobs)
    if workers is None:
        workers = default_worker_count()
    if workers < 1:
        raise ReproError(f"workers must be >= 1, got {workers}")
    if timeout is not None and timeout <= 0:
        raise ReproError(f"timeout must be positive, got {timeout}")
    if retries < 0:
        raise ReproError(f"retries must be >= 0, got {retries}")

    state = _Batch(job_list, cache, timeout, retries, retry_backoff)
    cache_before = cache.stats() if cache is not None else None
    pending: List[_Pending] = []
    for index, job in enumerate(job_list):
        key = job.cache_key() if cache is not None else None
        cached = cache.get(key) if cache is not None else None
        if cached is not None:
            state.results[index] = JobResult(
                index=index, job=job, result=cached, from_cache=True
            )
        else:
            pending.append(_Pending(index=index, job=job, key=key))

    serial_fallbacks = 0
    parallel: List[_Pending] = []
    serial: List[_Pending] = []
    if workers > 1 and len(pending) > 1:
        for entry in pending:
            if _picklable(entry.job):
                parallel.append(entry)
            else:
                serial.append(entry)
                serial_fallbacks += 1
    else:
        serial = pending

    used_chunk = 0
    try:
        if parallel:
            used_chunk = _pick_chunk_size(
                chunk_size, len(parallel), workers, timeout
            )
            leftovers = _run_pool_rounds(
                state, parallel, workers, used_chunk, max_pool_restarts
            )
            if leftovers:
                state.degraded_serial = True
                serial = serial + leftovers
        state.run_serial(serial)
    except KeyboardInterrupt:
        state.interrupted = True
        interrupt_error = JobError(
            exception_type="KeyboardInterrupt",
            message="batch interrupted before this job completed",
        )
        for index, job in enumerate(job_list):
            if state.results[index] is None:
                state.results[index] = JobResult(
                    index=index, job=job, error=interrupt_error
                )

    if any(entry is None for entry in state.results):
        raise ReproError("internal error: batch left unfilled job slots")
    cache_stats = None
    if cache is not None:
        lifetime = cache.stats()
        cache_stats = CompilationCache.stats_delta(cache_before, lifetime)
        cache_stats["lifetime"] = lifetime
        for name in CompilationCache.COUNTER_KEYS:
            state.metrics.inc(f"cache.{name}", cache_stats.get(name, 0))
    return BatchReport(
        results=state.results,
        workers=workers,
        wall_seconds=time.perf_counter() - started,
        cache_stats=cache_stats,
        metrics=state.metrics.snapshot(),
        serial_fallbacks=serial_fallbacks,
        chunk_size=used_chunk,
        retry_count=state.retry_count,
        timeout_count=state.timeout_count,
        pool_restarts=state.pool_restarts,
        degraded_serial=state.degraded_serial,
        interrupted=state.interrupted,
        timeout_unenforced=int(
            state.metrics.counter("batch.timeout_unenforced")
        ),
    )


def _pick_chunk_size(
    chunk_size: Optional[int],
    job_count: int,
    workers: int,
    timeout: Optional[float],
) -> int:
    """Adaptive chunking, except under a timeout where chunks must be
    single jobs (a chunk's deadline is only meaningful per job)."""
    if timeout is not None:
        return 1
    return chunk_size or max(1, job_count // (workers * 4) or 1)


def _run_pool_rounds(
    state: _Batch,
    entries: List[_Pending],
    workers: int,
    chunk_size: int,
    max_pool_restarts: int,
) -> List[_Pending]:
    """Drive pool execution rounds until every entry is recorded or
    deferred.  Returns entries that must finish serially (pool recovery
    exhausted, or a job suspected of repeatedly killing workers)."""
    queue: List[_Pending] = list(entries)
    leftovers: List[_Pending] = []
    while queue:
        if state.pool_restarts > max_pool_restarts:
            leftovers.extend(queue)
            return leftovers
        round_entries, queue = queue, []
        requeue, deferred = _run_one_pool(
            state, round_entries, workers, chunk_size
        )
        leftovers.extend(deferred)
        if requeue:
            # All requeued entries just consumed a transient failure;
            # back off once per round, scaled to the worst offender.
            state.backoff(max(requeue, key=lambda e: e.failures))
            queue = requeue
    return leftovers


def _run_one_pool(
    state: _Batch,
    entries: List[_Pending],
    workers: int,
    chunk_size: int,
) -> Tuple[List[_Pending], List[_Pending]]:
    """Execute ``entries`` on one pool instance.

    Returns ``(requeue, deferred)``: jobs to retry on a fresh pool and
    jobs that must not return to a pool (crash budget exhausted — they
    finish serially so a poison job cannot keep killing workers while
    innocents starve).
    """
    by_index = {entry.index: entry for entry in entries}
    chunks = [
        entries[i : i + chunk_size]
        for i in range(0, len(entries), chunk_size)
    ]
    requeue: List[_Pending] = []
    deferred: List[_Pending] = []
    broken = False
    pool = ProcessPoolExecutor(max_workers=workers)
    try:
        future_map = {}
        for position, chunk in enumerate(chunks):
            packed = pickle.dumps(
                (state.timeout, [(e.index, e.job) for e in chunk])
            )
            try:
                future_map[pool.submit(_execute_packed, packed)] = chunk
            except BrokenProcessPool:
                # A fast killer murdered its worker while we were still
                # submitting.  Everything not yet handed to the pool
                # never started, so it requeues blame-free; the chunks
                # already in flight are charged by the drain below.
                broken = True
                for unsent in chunks[position:]:
                    requeue.extend(unsent)
                break
        outstanding = set(future_map)
        while outstanding:
            budget = None
            if state.timeout is not None:
                # Worker-side alarms fire at `timeout`; give them
                # headroom before declaring the pool hard-hung.
                budget = state.timeout + max(1.0, state.timeout)
            done, _ = wait(
                outstanding, timeout=budget, return_when=FIRST_COMPLETED
            )
            if not done:
                # No worker made progress past every alarm deadline:
                # hard hang.  Reclaim the pool; unstarted jobs requeue
                # blame-free, running jobs are charged a timeout.
                _reclaim_hung_pool(
                    state, pool, outstanding, future_map, requeue
                )
                state.pool_restarts += 1
                return requeue, deferred
            for future in done:
                outstanding.discard(future)
                chunk = future_map.pop(future)
                try:
                    chunk_out = future.result()
                except BrokenProcessPool:
                    broken = True
                    _charge_crash(state, chunk, requeue, deferred)
                except KeyboardInterrupt:
                    raise
                except BaseException as error:
                    # Dispatch-side failure (e.g. result unpicklable at
                    # the chunk level): deterministic, record as-is.
                    captured = JobError.from_exception(error)
                    for entry in chunk:
                        state.record_error(entry, captured)
                else:
                    for index, status, payload, metrics_delta in chunk_out:
                        entry = by_index[index]
                        if status == "ok":
                            result = pickle.loads(payload)
                            state.record_ok(
                                entry,
                                result,
                                result.synthesis_seconds,
                                metrics_delta,
                            )
                            continue
                        captured = pickle.loads(payload)
                        if state.should_retry(entry, captured):
                            state.metrics.merge(metrics_delta)
                            requeue.append(entry)
                        else:
                            state.record_error(entry, captured, metrics_delta)
            if broken:
                # The pool poisons every remaining future once a worker
                # dies; drain them as crash victims and rebuild.
                for future in outstanding:
                    chunk = future_map.pop(future)
                    if future.cancel():
                        requeue.extend(chunk)  # never started: blame-free
                        continue
                    try:
                        chunk_out = future.result(timeout=5.0)
                    except Exception:
                        _charge_crash(state, chunk, requeue, deferred)
                        continue
                    # Raced to completion before the pool broke.
                    for index, status, payload, metrics_delta in chunk_out:
                        entry = by_index[index]
                        if status == "ok":
                            result = pickle.loads(payload)
                            state.record_ok(
                                entry,
                                result,
                                result.synthesis_seconds,
                                metrics_delta,
                            )
                        else:
                            captured = pickle.loads(payload)
                            if state.should_retry(entry, captured):
                                state.metrics.merge(metrics_delta)
                                requeue.append(entry)
                            else:
                                state.record_error(
                                    entry, captured, metrics_delta
                                )
                outstanding.clear()
                state.pool_restarts += 1
        return requeue, deferred
    finally:
        pool.shutdown(wait=False, cancel_futures=True)


def _charge_crash(
    state: _Batch,
    chunk: List[_Pending],
    requeue: List[_Pending],
    deferred: List[_Pending],
) -> None:
    """A chunk was in flight when its worker died: charge each job one
    transient failure.  Within budget → retry on a fresh pool; beyond →
    defer to serial execution (the job may be the killer; rerunning it
    in a pool would just murder another worker)."""
    crash = JobError(
        exception_type="WorkerCrashError",
        message="worker process died while this job was in flight",
    )
    for entry in chunk:
        if state.should_retry(entry, crash):
            requeue.append(entry)
        else:
            deferred.append(entry)


def _reclaim_hung_pool(
    state: _Batch,
    pool: ProcessPoolExecutor,
    outstanding,
    future_map,
    requeue: List[_Pending],
) -> None:
    """Forcefully recover from a hard-hung pool (workers stuck where
    even ``SIGALRM`` cannot reach).  Cancellable futures requeue
    blame-free; the rest are charged a timeout."""
    timeout_error = JobError(
        exception_type="JobTimeoutError",
        message=(
            "worker hard-hung past the job timeout; "
            "pool reclaimed by the coordinator"
        ),
    )
    for future in list(outstanding):
        chunk = future_map.pop(future)
        if future.cancel():
            requeue.extend(chunk)
            continue
        for entry in chunk:
            if state.should_retry(entry, timeout_error):
                requeue.append(entry)
            else:
                state.record_error(entry, timeout_error)
    outstanding.clear()
    # Terminate the stuck worker processes so shutdown cannot block.
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.terminate()
        except Exception:
            pass
    pool.shutdown(wait=False, cancel_futures=True)


def _picklable(job: CompileJob) -> bool:
    try:
        pickle.dumps(job)
        return True
    except Exception:
        return False
