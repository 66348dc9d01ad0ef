"""Content-addressed compilation cache (in-memory LRU + optional disk).

A cache key addresses one compilation *cell* by content, not identity:

* the :data:`~repro.compiler.COMPILER_EPOCH`, bumped whenever the
  compiler's outputs change, so a persistent store never serves an
  older compiler's result;
* the circuit **fingerprint** (SHA-256 over width and the exact gate
  cascade, :meth:`~repro.core.circuit.QuantumCircuit.fingerprint`);
* the **device identity** (name, width, gate set, directed coupling
  edges, and the device's annotated cost function);
* every ``keyed`` field of :class:`~repro.compiler.CompileOptions` —
  every option except ``trace`` — in its normalised form, with the
  cost-function override by content identity.  Equal compiles share
  a key: ``verify=True`` and ``"auto"`` do, so do ``placement=None``
  and ``"identity"``.

Two grid cells with the same key provably run the identical compilation,
so the second one is served from cache — the paper's Tables 3 vs 4 and
5 vs 6 reuse the same compilations, as do repeated benchmark runs.

Jobs whose cost function carries an opaque ``custom`` callable have no
stable content identity and are **never cached** (``cache_key`` returns
``None``); they always compile fresh.

Tiers: an in-memory LRU (default 512 entries) backed by an optional
on-disk JSON store (default directory ``.repro_cache/``).  Disk entries
are sharded two-level (``ab/abcdef....json``) and survive processes, so
a second benchmark run starts warm.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import threading
import time
from collections import OrderedDict
from typing import Any, Dict, Mapping, Optional

from ..compiler import (
    COMPILER_EPOCH,
    KEYED_OPTIONS,
    CompilationResult,
    CompileOptions,
)
from ..core.circuit import QuantumCircuit
from ..core.cost import CostFunction
from ..devices.device import Device
from .serialize import result_from_payload, result_to_payload

#: Default on-disk store location, relative to the working directory.
DEFAULT_CACHE_DIR = ".repro_cache"

#: Age beyond which an orphaned ``*.tmp.<pid>`` file is removed even if
#: its pid appears alive (pid reuse makes liveness alone unreliable).
STALE_TEMP_SECONDS = 3600.0


def _pid_alive(pid: int) -> bool:
    """Best-effort liveness probe; unknown/forbidden pids read as alive
    so the sweep stays conservative."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except (PermissionError, OverflowError, OSError):
        return True
    return True


def cost_function_identity(cost_function: Optional[CostFunction]) -> Optional[str]:
    """A stable string identity for ``cost_function``.

    Returns ``None`` when the function has no content identity (an opaque
    ``custom`` callable) — such jobs must not be cached.
    """
    if cost_function is None:
        return "default"
    if cost_function.custom is not None:
        return None
    weights = ";".join(
        f"{name}={weight!r}"
        for name, weight in sorted(cost_function.extra_weights.items())
    )
    return f"{cost_function.name}|{cost_function.base_weight!r}|{weights}"


def device_identity(device: Device) -> Optional[str]:
    """Device part of the cache key: name, width, library, coupling
    edges, cost function."""
    cost_id = cost_function_identity(device.cost_function)
    if cost_id is None:
        return None
    return "{}|{}|{}|{}|{}".format(
        device.name, device.num_qubits, ",".join(device.gate_set),
        device.coupling_map.identity, cost_id,
    )


def job_cache_key(
    circuit: QuantumCircuit, device: Device, options: Mapping[str, Any]
) -> Optional[str]:
    """Content-address one compilation, or ``None`` if uncacheable.

    ``options`` are :func:`repro.compiler.compile_circuit`'s keyword
    arguments; the key hashes their :class:`~repro.compiler.CompileOptions`.
    """
    opts = CompileOptions.of(options)
    dev_id = device_identity(device)
    cost_id = cost_function_identity(opts.cost_function)
    if dev_id is None or cost_id is None:
        return None
    parts = [f"epoch={COMPILER_EPOCH}", circuit.fingerprint(), dev_id]
    for name in KEYED_OPTIONS:
        value = cost_id if name == "cost_function" else getattr(opts, name)
        parts.append(f"{name}={value!r}")
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


class CompilationCache:
    """Two-tier (memory LRU + optional disk) store of compilation results.

    Thread-/process-safety model: the cache is **thread-safe** — an
    :class:`~threading.RLock` guards the memory ``OrderedDict`` and
    every counter, so a threaded coordinator (``repro serve``) can share
    one warm cache across concurrent requests without losing entries or
    corrupting the LRU order.  Disk I/O happens *outside* the lock
    (reads and writes never serialize each other); disk writes go
    through a temp-file rename so concurrent writers — threads or whole
    processes sharing one directory — at worst recompute.
    """

    #: Disk stores between amortized eviction sweeps (when
    #: ``max_disk_entries`` is set).  Over-budget detection does not
    #: wait for this: the observed on-disk count is extrapolated per
    #: write and a sweep triggers as soon as it crosses the cap.
    _EVICT_EVERY = 32

    def __init__(
        self,
        max_entries: int = 512,
        directory: Optional[str] = None,
        max_disk_entries: Optional[int] = None,
    ):
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        if max_disk_entries is not None and max_disk_entries < 1:
            raise ValueError("max_disk_entries must be positive")
        self.max_entries = max_entries
        self.directory = directory
        self.max_disk_entries = max_disk_entries
        self._memory: "OrderedDict[str, CompilationResult]" = OrderedDict()
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.memory_hits = 0
        self.disk_hits = 0
        self.stores = 0
        self.disk_writes = 0
        self.disk_evictions = 0
        #: On-disk entry count at the last observation (glob), plus the
        #: writes this instance has made since — the estimate that
        #: triggers an eviction sweep the moment the cap is crossed.
        self._disk_observed = 0
        self._writes_since_observe = 0
        self.temp_files_swept = self._sweep_stale_temps()
        if self.max_disk_entries is not None:
            self._evict_disk()

    # -- lookup ------------------------------------------------------------

    def get(self, key: Optional[str]) -> Optional[CompilationResult]:
        """Cached result for ``key``, or ``None`` (miss / uncacheable)."""
        if key is None:
            return None
        with self._lock:
            result = self._memory.get(key)
            if result is not None:
                self._memory.move_to_end(key)
                self.hits += 1
                self.memory_hits += 1
                return result
        result = self._disk_get(key)  # I/O outside the lock
        with self._lock:
            if result is not None:
                self.hits += 1
                self.disk_hits += 1
                self._memory_put(key, result)
                return result
            self.misses += 1
            return None

    def put(self, key: Optional[str], result: CompilationResult) -> None:
        """Store ``result`` under ``key`` in every tier (no-op if ``key``
        is ``None``).

        ``trace`` is not part of the key, so a traced result is stored
        as a copy without its spans: a later hit answers a request that
        may not have asked for them.  The caller's object is unchanged.
        """
        if key is None:
            return
        if result.trace is not None:
            from dataclasses import replace

            result = replace(result, trace=None)
        with self._lock:
            self.stores += 1
            self._memory_put(key, result)
        self._disk_put(key, result)

    def __contains__(self, key: Optional[str]) -> bool:
        """True iff :meth:`get` would return a result for ``key``.

        Membership agrees with *readability*: a disk path whose payload
        is truncated, corrupt, or from an incompatible schema version is
        not a member, exactly as :meth:`get` would treat it as a miss.
        (An earlier version answered ``os.path.exists``, which said
        ``True`` for entries ``get`` could never return.)  Probing does
        not touch the hit/miss counters or the LRU order.
        """
        if key is None:
            return False
        with self._lock:
            if key in self._memory:
                return True
        return self._disk_get(key) is not None

    def __len__(self) -> int:
        with self._lock:
            return len(self._memory)

    # -- memory tier -------------------------------------------------------

    def _memory_put(self, key: str, result: CompilationResult) -> None:
        with self._lock:
            self._memory[key] = result
            self._memory.move_to_end(key)
            while len(self._memory) > self.max_entries:
                self._memory.popitem(last=False)

    # -- disk tier ---------------------------------------------------------

    def _sweep_stale_temps(self) -> int:
        """Remove orphaned ``<key>.json.tmp.<pid>`` files left behind by
        a process that crashed mid-write (the ``os.replace`` in
        :meth:`_disk_put` never ran).

        A temp file is stale when its writer pid is dead, or when it is
        older than :data:`STALE_TEMP_SECONDS` (pid reuse guard).  The
        sweep is concurrency-safe: a racing writer's fresh temp file has
        a live pid and recent mtime so it is left alone, and racing
        sweepers tolerate files vanishing underneath them.
        """
        if not self.directory or not os.path.isdir(self.directory):
            return 0
        removed = 0
        own_pid = os.getpid()
        now = time.time()
        pattern = os.path.join(glob.escape(self.directory), "*", "*.tmp.*")
        for path in glob.glob(pattern):
            suffix = path.rsplit(".tmp.", 1)[-1]
            try:
                pid = int(suffix)
            except ValueError:
                pid = None
            try:
                age = now - os.stat(path).st_mtime
            except OSError:
                continue  # vanished under a concurrent sweeper
            stale = age > STALE_TEMP_SECONDS or (
                pid is not None and pid != own_pid and not _pid_alive(pid)
            )
            if not stale:
                continue
            try:
                os.remove(path)
                removed += 1
            except OSError:
                pass  # already reclaimed by a concurrent sweeper
        return removed

    def _path(self, key: str) -> str:
        directory = self.directory or ""
        return os.path.join(directory, key[:2], f"{key}.json")

    def _disk_get(self, key: str) -> Optional[CompilationResult]:
        if not self.directory:
            return None
        path = self._path(key)
        try:
            with open(path) as handle:
                payload = json.load(handle)
            return result_from_payload(payload)
        except (OSError, ValueError, KeyError):
            return None

    def _disk_put(self, key: str, result: CompilationResult) -> None:
        if not self.directory:
            return
        path = self._path(key)
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            temp = f"{path}.tmp.{os.getpid()}"
            with open(temp, "w") as handle:
                json.dump(result_to_payload(result), handle)
            os.replace(temp, path)
        except OSError:
            return  # a full/read-only disk degrades to memory-only caching
        with self._lock:
            self.disk_writes += 1
            self._writes_since_observe += 1
            if self.max_disk_entries is None:
                return
            # Extrapolate the on-disk count from the last observation
            # plus our own writes since (overwrites of an existing key
            # overcount, which merely refreshes the observation early).
            # Sweep the moment the estimate crosses the cap — the old
            # ``disk_writes % _EVICT_EVERY`` amortization was
            # per-process, so N concurrent writers sharing a directory
            # could overshoot the budget by ~N×_EVICT_EVERY before any
            # of them swept.  The periodic sweep is kept to re-observe
            # what *other* writers have been adding.
            over_budget = (
                self._disk_observed + self._writes_since_observe
                > self.max_disk_entries
            )
            if over_budget or self._writes_since_observe >= self._EVICT_EVERY:
                self._evict_disk()

    def _disk_paths(self) -> list:
        if not self.directory or not os.path.isdir(self.directory):
            return []
        pattern = os.path.join(glob.escape(self.directory), "*", "*.json")
        return glob.glob(pattern)

    def _evict_disk(self) -> None:
        """Trim the disk tier to ``max_disk_entries``, oldest-mtime
        first, from the *observed* on-disk count (a fresh glob, so
        entries written by concurrent threads, caches, or processes
        sharing the directory are seen and counted against the budget).
        Runs at open, whenever the extrapolated count crosses the cap,
        and every :data:`_EVICT_EVERY` stores as a staleness backstop.
        """
        with self._lock:
            paths = self._disk_paths()
            excess = len(paths) - (self.max_disk_entries or 0)
            removed = 0
            if excess > 0:
                def mtime(path):
                    try:
                        return os.stat(path).st_mtime
                    except OSError:
                        return 0.0
                for path in sorted(paths, key=mtime)[:excess]:
                    try:
                        os.remove(path)
                        removed += 1
                        self.disk_evictions += 1
                    except OSError:
                        pass  # concurrent eviction/read; tier stays usable
            self._disk_observed = len(paths) - removed
            self._writes_since_observe = 0

    # -- reporting ---------------------------------------------------------

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when no lookups)."""
        with self._lock:
            total = self.hits + self.misses
            return self.hits / total if total else 0.0

    #: The monotonically-accumulating keys of :meth:`stats` — the ones
    #: :meth:`stats_delta` subtracts.  Everything else is a level or a
    #: configuration flag and passes through from the later snapshot.
    COUNTER_KEYS = (
        "hits",
        "misses",
        "memory_hits",
        "disk_hits",
        "stores",
        "disk_writes",
        "disk_evictions",
    )

    def stats(self) -> Dict[str, object]:
        """Lifetime counters snapshot for logs and ``BENCH_runtime.json``.

        ``disk_enabled`` reports the *configured* state (a directory was
        given), independent of whether the lazily-created directory
        exists yet; ``disk_opened`` reports whether it actually exists
        on disk right now.  For a single batch's share of these
        counters, use :meth:`stats_delta` (what
        :attr:`repro.batch.BatchReport.cache_stats` reports).

        The snapshot is taken under the cache lock, so concurrent
        threads always see a consistent set of counters (hits + misses
        equals the lookups made so far, never a torn intermediate).
        """
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "memory_hits": self.memory_hits,
                "disk_hits": self.disk_hits,
                "stores": self.stores,
                "hit_rate": round(self.hit_rate, 4),
                "memory_entries": len(self._memory),
                "disk_enabled": bool(self.directory),
                "disk_opened": bool(
                    self.directory and os.path.isdir(self.directory)
                ),
                "disk_entries": len(self._disk_paths()),
                "disk_writes": self.disk_writes,
                "disk_evictions": self.disk_evictions,
                "temp_files_swept": self.temp_files_swept,
                "orphans_swept": self.temp_files_swept,
            }

    def to_dict(self) -> Dict[str, object]:
        """Alias of :meth:`stats` (the JSON-facing name)."""
        return self.stats()

    @classmethod
    def stats_delta(
        cls, before: Optional[Dict], after: Dict
    ) -> Dict[str, object]:
        """What one run contributed: counter keys are subtracted
        (``after - before``), levels and flags pass through from
        ``after``, and ``hit_rate`` is recomputed over the delta — so a
        warm second batch honestly reports its own 100% hit rate instead
        of averaging against history."""
        delta = dict(after)
        if before:
            for key in cls.COUNTER_KEYS:
                delta[key] = after.get(key, 0) - before.get(key, 0)
        lookups = delta.get("hits", 0) + delta.get("misses", 0)
        delta["hit_rate"] = (
            round(delta.get("hits", 0) / lookups, 4) if lookups else 0.0
        )
        return delta
