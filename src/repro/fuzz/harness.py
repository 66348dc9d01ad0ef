"""The differential fuzzing harness: generate → compile → QMDD oracle.

The paper's tool is *self-verifying* — every compilation closes with a
QMDD equivalence check (Section 5).  The harness weaponizes that oracle:
seeded random circuits (:mod:`repro.fuzz.generators`) are compiled
across a grid of coupling topologies (linear chain, T-shape, Tokyo-style
lattice) under varying cost functions and lowering modes, with
``verify=False`` so the harness owns the verdict; each output is then
checked against its source with :func:`repro.verify.verify_equivalent`
(canonical QMDD, falling back to seeded sampling for wide cases).

Any oracle mismatch or unexpected compile crash is a **finding**: it is
shrunk to a minimal failing cascade (:mod:`repro.fuzz.shrink`) and can
be saved to the replayable regression corpus (:mod:`repro.fuzz.corpus`).

Compilation runs through :func:`repro.batch.compile_many`, so the
harness inherits the batch engine's fault tolerance — a pathological
generated case that hangs the compiler is timed out and reported, never
allowed to stall the campaign.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..backend.mapper import MCX_MODES, ROUTE_STRATEGIES
from ..batch.engine import CompileJob, compile_many
from ..compiler import CompilationResult
from ..core.circuit import QuantumCircuit
from ..core.cost import TRANSMON_COST, CostFunction
from ..devices.builders import grid_device, linear_device
from ..devices.coupling import CouplingMap
from ..devices.device import Device
from ..obs import MetricsRegistry, get_metrics
from ..verify.equivalence import verify_equivalent
from .generators import generate_case
from .shrink import ShrinkResult, shrink_case

__all__ = [
    "FUZZ_DEVICES",
    "COST_VARIANTS",
    "FuzzConfig",
    "FuzzFinding",
    "FuzzReport",
    "build_fuzz_device",
    "oracle_check",
    "run_fuzz",
]


def _t_device(name: str = "t5") -> Device:
    """A 5-qubit T-shaped topology: a 4-qubit spine with one branch.

    ::

        0 -> 1 -> 2 -> 3
             |
             v
             4
    """
    return Device(
        name=name,
        coupling_map=CouplingMap(
            5, {0: [1], 1: [2, 4], 2: [3]}, name=name
        ),
    )


def _tokyo_device(name: str = "tokyo20") -> Device:
    """A Tokyo-style 20-qubit lattice: a 4x5 grid plus the diagonal
    couplings that distinguish the IBM Q20 Tokyo family from a plain
    grid."""
    base = grid_device(4, 5)
    diagonals = [
        (1, 7), (2, 6), (3, 9), (4, 8),
        (5, 11), (6, 10), (7, 13), (8, 12),
        (11, 17), (12, 16), (13, 19), (14, 18),
    ]
    couplings: Dict[int, List[int]] = {}
    for control, target in base.coupling_map.directed_edges:
        couplings.setdefault(control, []).append(target)
    for control, target in diagonals:
        couplings.setdefault(control, []).append(target)
    return Device(
        name=name, coupling_map=CouplingMap(20, couplings, name=name)
    )


#: The fuzzing device grid: name -> zero-argument builder.  Kept as
#: builders (not instances) so corpus entries can name their device and
#: replay resolves it fresh.
FUZZ_DEVICES: Dict[str, Callable[[], Device]] = {
    "linear5": lambda: linear_device(5),
    "t5": _t_device,
    "tokyo20": _tokyo_device,
}

#: Cost-function variants swept by the harness: name -> CostFunction
#: (None = the device's own default).  All are content-addressable so
#: fuzz jobs stay cacheable.
COST_VARIANTS: Dict[str, Optional[CostFunction]] = {
    "default": None,
    "cnot-heavy": TRANSMON_COST.with_weights(CNOT=1.0),
    "volume": CostFunction(name="gate-volume", base_weight=1.0),
}

_PLACEMENTS = ("identity", "greedy")

#: Failure classes the harness does NOT report: expected rejections and
#: batch-engine fault handling (reported separately via BatchReport).
_EXPECTED_JOB_ERRORS = frozenset(
    {
        "NotSynthesizableError",
        "JobTimeoutError",
        "KeyboardInterrupt",
    }
)


def build_fuzz_device(name: str) -> Device:
    """Resolve a fuzz-grid device by name, falling back to the global
    device registry (so a corpus entry can also target e.g. ibmqx4)."""
    builder = FUZZ_DEVICES.get(name)
    if builder is not None:
        return builder()
    from ..devices.device import get_device

    return get_device(name)


@dataclass
class FuzzConfig:
    """Bounds and knobs for one fuzz campaign."""

    seed: int = 2019
    iterations: int = 50
    budget_seconds: Optional[float] = None
    max_qubits: int = 5
    max_gates: int = 12
    devices: Optional[List[str]] = None
    workers: int = 1
    #: Per-job wall-clock bound, forwarded to the batch engine.
    timeout: Optional[float] = 30.0
    oracle_samples: int = 32
    qmdd_width_limit: int = 24
    #: Pin the routing axis to one strategy ("ctr"/"sabre"); ``None``
    #: (the default) lets every case draw its router like any other
    #: option axis, so the differential oracle covers both.
    route: Optional[str] = None
    shrink_seconds: float = 20.0
    batch_size: int = 8


@dataclass
class FuzzFinding:
    """One confirmed failure: a circuit the compiler got wrong."""

    kind: str  # "miscompile" (oracle mismatch) or "crash"
    label: str
    case_seed: int
    device: str
    options: Dict[str, str]
    detail: str
    circuit: QuantumCircuit
    shrunk: Optional[ShrinkResult] = None

    @property
    def minimal_circuit(self) -> QuantumCircuit:
        return self.shrunk.circuit if self.shrunk is not None else self.circuit

    def describe(self) -> str:
        gates = len(self.minimal_circuit)
        shrunk = (
            f", shrunk {self.shrunk.original_gates}->{gates} gates"
            if self.shrunk is not None
            else ""
        )
        return (
            f"{self.kind} on {self.device} "
            f"[{', '.join(f'{k}={v}' for k, v in sorted(self.options.items()))}]"
            f": {self.detail}{shrunk}"
        )

    def diagnostic(self):
        """This finding as a located ``REPRO710`` diagnostic, for tools
        that aggregate fuzz results with the static-analysis catalog."""
        from ..analysis.diagnostics import Diagnostic

        return Diagnostic.make(
            "REPRO710",
            f"{self.kind} on {self.device}: {self.detail} "
            f"(case seed {self.case_seed}, "
            f"{len(self.minimal_circuit)}-gate reproducer)",
            stage="fuzz",
            hint="replay the corpus entry and bisect the offending pass",
        )


@dataclass
class FuzzReport:
    """Everything one :func:`run_fuzz` campaign produced."""

    config: FuzzConfig
    cases_run: int = 0
    compiles: int = 0
    oracle_checks: int = 0
    expected_rejections: int = 0
    timeouts: int = 0
    findings: List[FuzzFinding] = field(default_factory=list)
    wall_seconds: float = 0.0
    interrupted: bool = False
    #: Wall seconds per campaign phase (generate / compile / oracle /
    #: shrink), in execution order.
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    #: Merged metrics snapshot: batch-engine deltas (including what pool
    #: workers shipped back) plus the harness's own oracle/shrink work.
    metrics: Dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.findings

    def timing_line(self) -> str:
        """The per-phase wall-time budget as one readable line."""
        if not self.phase_seconds:
            return ""
        return ", ".join(
            f"{name} {seconds:.2f}s"
            for name, seconds in self.phase_seconds.items()
        )

    def summary(self) -> str:
        parts = [
            f"{self.cases_run} cases",
            f"{self.compiles} compiles",
            f"{self.oracle_checks} oracle checks",
            f"{len(self.findings)} findings",
            f"{self.wall_seconds:.1f}s",
        ]
        if self.expected_rejections:
            parts.insert(3, f"{self.expected_rejections} expected rejections")
        if self.timeouts:
            parts.insert(3, f"{self.timeouts} timeouts")
        if self.interrupted:
            parts.append("INTERRUPTED")
        return ", ".join(parts)


def _case_options(
    rng: random.Random, route: Optional[str] = None
) -> Dict[str, str]:
    """Draw one option vector (as corpus-storable names)."""
    return {
        "cost": rng.choice(sorted(COST_VARIANTS)),
        "mcx_mode": rng.choice(MCX_MODES),
        "placement": rng.choice(_PLACEMENTS),
        "route": route if route is not None else rng.choice(ROUTE_STRATEGIES),
    }


def resolve_options(named: Dict[str, str]) -> Dict:
    """Expand a corpus-storable option vector into compile options.

    Corpus entries predating an axis replay with its default (e.g.
    ``route="ctr"``), so old findings keep reproducing bit-identically.
    """
    options: Dict = {
        "verify": False,
        "mcx_mode": named.get("mcx_mode", "barenco"),
        "placement": named.get("placement", "identity"),
        "route": named.get("route", "ctr"),
    }
    cost = COST_VARIANTS.get(named.get("cost", "default"))
    if cost is not None:
        options["cost_function"] = cost
    return options


def oracle_check(
    result: CompilationResult,
    samples: int = 32,
    seed: int = 2019,
    qmdd_width_limit: int = 24,
    strategy: str = "miter",
):
    """The differential oracle: does the optimized output implement the
    source?  QMDD when narrow enough, seeded sampling beyond — the same
    decision the compiler's own closing verification makes, but under
    the harness's control so a NO is a finding, not an exception."""
    source = result.original.remapped(
        result.placement, num_qubits=result.device.num_qubits
    )
    phase_free = not result.device.supports_gate("CNOT")
    return verify_equivalent(
        source,
        result.optimized,
        method="auto",
        up_to_global_phase=phase_free,
        qmdd_width_limit=qmdd_width_limit,
        samples=samples,
        seed=seed,
        strategy=strategy,
        output_permutation=result.output_permutation,
    )


def _still_miscompiles(
    device: Device, named_options: Dict[str, str], config: FuzzConfig
) -> Callable[[QuantumCircuit], bool]:
    """Failure predicate for the shrinker: recompile and re-ask the
    oracle.  A candidate that fails to compile at all does not count —
    that would shrink toward a different bug."""
    options = resolve_options(named_options)

    def predicate(candidate: QuantumCircuit) -> bool:
        if not len(candidate):
            return False
        try:
            job = CompileJob.make(candidate, device, options)
            result = job.run()
        except Exception:
            return False
        report = oracle_check(
            result,
            samples=config.oracle_samples,
            seed=config.seed,
            qmdd_width_limit=config.qmdd_width_limit,
        )
        return not report.equivalent

    return predicate


def _still_crashes(
    device: Device,
    named_options: Dict[str, str],
    exception_type: str,
) -> Callable[[QuantumCircuit], bool]:
    """Failure predicate for crash findings: same exception class."""
    options = resolve_options(named_options)

    def predicate(candidate: QuantumCircuit) -> bool:
        if not len(candidate):
            return False
        try:
            CompileJob.make(candidate, device, options).run()
        except Exception as error:
            return type(error).__name__ == exception_type
        return False

    return predicate


def run_fuzz(
    config: Optional[FuzzConfig] = None,
    on_event: Optional[Callable[[str], None]] = None,
    shrink: bool = True,
    **overrides,
) -> FuzzReport:
    """Run one differential fuzzing campaign.

    ``config`` (or keyword overrides of :class:`FuzzConfig` fields)
    bounds the campaign by ``iterations`` and optionally
    ``budget_seconds`` — whichever is hit first.  ``on_event`` receives
    human-readable progress lines.  Ctrl-C stops the campaign cleanly:
    findings gathered so far are kept and ``report.interrupted`` is set.
    """
    if config is None:
        config = FuzzConfig(**overrides)
    elif overrides:
        raise TypeError("pass either config or keyword overrides, not both")
    emit = on_event or (lambda message: None)
    report = FuzzReport(config=config)
    started = time.perf_counter()
    master = random.Random(config.seed)
    device_names = list(config.devices or sorted(FUZZ_DEVICES))
    devices = {name: build_fuzz_device(name) for name in device_names}
    registry = MetricsRegistry()

    def charge(phase: str, since: float) -> None:
        report.phase_seconds[phase] = (
            report.phase_seconds.get(phase, 0.0)
            + (time.perf_counter() - since)
        )

    def out_of_budget() -> bool:
        if report.cases_run >= config.iterations:
            return True
        if config.budget_seconds is not None:
            return time.perf_counter() - started > config.budget_seconds
        return False

    try:
        while not out_of_budget():
            batch: List[Dict] = []
            generate_started = time.perf_counter()
            while len(batch) < config.batch_size and not out_of_budget():
                case_seed = master.randrange(2**32)
                circuit = generate_case(
                    case_seed,
                    max_qubits=config.max_qubits,
                    max_gates=config.max_gates,
                )
                eligible = [
                    name for name, device in devices.items()
                    if device.num_qubits >= circuit.num_qubits
                ]
                if not eligible:
                    continue
                named = _case_options(master, route=config.route)
                device_name = master.choice(sorted(eligible))
                batch.append({
                    "case_seed": case_seed,
                    "circuit": circuit,
                    "device_name": device_name,
                    "named_options": named,
                })
                report.cases_run += 1
            charge("generate", generate_started)
            if not batch:
                break
            jobs = [
                CompileJob.make(
                    case["circuit"],
                    devices[case["device_name"]],
                    resolve_options(case["named_options"]),
                    label=f"{case['circuit'].name}@{case['device_name']}",
                )
                for case in batch
            ]
            compile_started = time.perf_counter()
            batch_report = compile_many(
                jobs,
                workers=config.workers,
                timeout=config.timeout,
            )
            charge("compile", compile_started)
            registry.merge(batch_report.metrics)
            report.compiles += len(batch_report)
            if batch_report.interrupted:
                report.interrupted = True
            for case, entry in zip(batch, batch_report):
                # Oracle checks and shrinking run in this process; their
                # verify/qmdd counters land in the process-global
                # registry, so capture them as a delta.
                local_before = get_metrics().snapshot()
                oracle_started = time.perf_counter()
                finding = _judge(case, entry, config, report, emit)
                charge("oracle", oracle_started)
                if finding is not None:
                    if shrink:
                        shrink_started = time.perf_counter()
                        _shrink_finding(
                            finding, devices[case["device_name"]], config
                        )
                        charge("shrink", shrink_started)
                    report.findings.append(finding)
                    emit(f"FINDING {finding.describe()}")
                registry.merge(
                    MetricsRegistry.delta(
                        local_before, get_metrics().snapshot()
                    )
                )
            if report.interrupted:
                break
    except KeyboardInterrupt:
        report.interrupted = True
    report.wall_seconds = time.perf_counter() - started
    report.metrics = registry.snapshot()
    emit(f"fuzz done: {report.summary()}")
    return report


def _judge(
    case: Dict,
    entry,
    config: FuzzConfig,
    report: FuzzReport,
    emit: Callable[[str], None],
) -> Optional[FuzzFinding]:
    """Classify one compiled cell: finding, expected rejection, or pass."""
    if entry.error is not None:
        if entry.error.timed_out:
            report.timeouts += 1
            return None
        if entry.error.exception_type in _EXPECTED_JOB_ERRORS:
            report.expected_rejections += 1
            return None
        return FuzzFinding(
            kind="crash",
            label=entry.job.label,
            case_seed=case["case_seed"],
            device=case["device_name"],
            options=case["named_options"],
            detail=str(entry.error),
            circuit=case["circuit"],
        )
    verdict = oracle_check(
        entry.result,
        samples=config.oracle_samples,
        seed=config.seed,
        qmdd_width_limit=config.qmdd_width_limit,
    )
    report.oracle_checks += 1
    if verdict.equivalent:
        return None
    return FuzzFinding(
        kind="miscompile",
        label=entry.job.label,
        case_seed=case["case_seed"],
        device=case["device_name"],
        options=case["named_options"],
        detail=(
            f"oracle mismatch (method={verdict.method} {verdict.detail})"
        ),
        circuit=case["circuit"],
    )


def _shrink_finding(
    finding: FuzzFinding, device: Device, config: FuzzConfig
) -> None:
    """Attach a shrunk minimal circuit to ``finding`` (best effort)."""
    if finding.kind == "miscompile":
        predicate = _still_miscompiles(device, finding.options, config)
    else:
        exception_type = finding.detail.split(":", 1)[0]
        predicate = _still_crashes(device, finding.options, exception_type)
    if not predicate(finding.circuit):
        return  # not deterministically reproducible; keep the original
    finding.shrunk = shrink_case(
        finding.circuit,
        predicate,
        max_seconds=config.shrink_seconds,
    )
