"""End-to-end compiler facade (the paper's Fig. 2 flow).

:func:`compile_circuit` runs the whole tool on an already-quantum input:
map to the device, optimize under its cost function, formally verify,
and report the paper's metric triples.  :func:`compile_classical_function`
adds the classical front-end: truth table -> minimized ESOP -> reversible
cascade -> the same back-end.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Dict, Mapping, Optional, Tuple, Union

from .analysis.contracts import StageContracts
from .analysis.diagnostics import DiagnosticReport
from .core.circuit import QuantumCircuit
from .core.cost import CircuitMetrics, CostFunction
from .devices.device import Device, get_device
from .backend.mapper import MCX_MODES, ROUTE_STRATEGIES, map_circuit_outcome
from .backend.placement import PLACEMENT_STRATEGIES, choose_placement
from .obs import NULL_TRACER, Tracer, get_metrics
from .optimize.local import LocalOptimizer
from .verify.equivalence import (
    VERIFY_METHODS,
    VerificationReport,
    require_equivalent,
)
from .frontend.truth_table import TruthTable
from .frontend.cascade import synthesize_truth_table
from .core.exceptions import ReproError, SynthesisError


@dataclass
class CompilationResult:
    """Everything one compiler invocation produced."""

    original: QuantumCircuit
    device: Device
    unoptimized: QuantumCircuit
    optimized: QuantumCircuit
    unoptimized_metrics: CircuitMetrics
    optimized_metrics: CircuitMetrics
    verification: Optional[VerificationReport]
    synthesis_seconds: float
    placement: Dict[int, int] = field(default_factory=dict)
    #: Final wire permutation ``{input wire -> output wire}`` left by
    #: dynamic-layout routing (``route="sabre"``): the state that
    #: entered physical wire ``v`` leaves :attr:`optimized` on wire
    #: ``output_permutation[v]``.  Empty for the CTR route (which swaps
    #: everything back) and under ``restore_layout=True``.  Verification
    #: already accounts for it; consumers reading output wires must
    #: apply it.
    output_permutation: Dict[int, int] = field(default_factory=dict)
    #: Routing strategy that produced the mapping (``"ctr"``/``"sabre"``).
    route: str = "ctr"
    #: Stage-contract findings recorded during this compile (empty when
    #: everything conformed or analysis was disabled).
    diagnostics: DiagnosticReport = field(default_factory=DiagnosticReport)
    #: Per-stage trace summary (see :mod:`repro.obs.trace`), present when
    #: the compile ran with ``trace=True`` or an explicit tracer.  A
    #: JSON-safe nested-span document; render with
    #: :func:`repro.obs.stage_rows` or export with
    #: :func:`repro.obs.write_chrome_trace`.
    trace: Optional[Dict] = None
    #: Dataflow facts of this compile (JSON-safe), present only when the
    #: caller asserted ``known_zero`` wires: the physical fact set, what
    #: constant propagation deleted/demoted, and the exit basis facts of
    #: the final circuit.  ``None`` on the default path — no analysis
    #: runs without facts.
    dataflow: Optional[Dict] = None

    @property
    def percent_cost_decrease(self) -> float:
        """The paper's Tables 4/6/8 quantity."""
        return self.unoptimized_metrics.percent_decrease_to(self.optimized_metrics)

    @property
    def qasm(self) -> str:
        """The final technology-dependent circuit as OpenQASM 2.0 — the
        tool's output artifact (Fig. 2)."""
        from .io.qasm import to_qasm

        return to_qasm(self.optimized)

    def row(self) -> str:
        """A paper-style table cell: unopt and opt ``T/gates/cost``."""
        return f"{self.unoptimized_metrics}  {self.optimized_metrics}"

    def __str__(self) -> str:
        verified = (
            "unverified"
            if self.verification is None
            else f"verified[{self.verification.method}]"
        )
        extra = f", {self.diagnostics.summary()}" if self.diagnostics else ""
        return (
            f"<compiled {self.original.name or 'circuit'} -> {self.device.name}: "
            f"unopt {self.unoptimized_metrics}, opt {self.optimized_metrics}, "
            f"{verified}, {self.synthesis_seconds * 1e3:.1f} ms{extra}>"
        )


COMPILER_EPOCH = 1
"""Version of the compiler's outputs.  Every cache key carries it, so a
persistent ``.repro_cache/`` never serves an older compiler's result:
bump it with any change to what a compile returns."""
COMPILER_EPOCH_DIGEST = (
    "590dbcab9e0e3c93b42c2caa988003980a72da8456169523bcec7a87951afac8"
)
"""SHA-256 over the golden Table 3 cells at this epoch, recomputed by
``tests/batch/test_compiler_epoch.py``."""


def _option(default: Any, normalize: Callable[[Any], Any], expected: str,
            *, keyed: bool = True, wire: bool = True) -> Any:
    """A :class:`CompileOptions` field.  ``normalize`` returns a value's
    canonical form and raises ``TypeError``/``ValueError`` unless it is
    ``expected``; ``keyed`` fields change the output (the cache key
    covers them) and ``wire`` fields may be set by a ``repro serve``
    request."""
    return field(default=default, metadata=dict(
        normalize=normalize, expected=expected, keyed=keyed, wire=wire))


def _require(ok: bool, value: Any) -> Any:
    if not ok:
        raise ValueError(value)
    return value


def _flag(default: bool, **flags: bool) -> Any:
    return _option(default, lambda v: _require(type(v) is bool, v), "true or false", **flags)


def _choice(choices: Tuple[str, ...], default: str) -> Any:
    return _option(default, lambda v: _require(v in choices, v), "one of " + ", ".join(choices))


def _verify(value: Any) -> Union[bool, str]:
    if isinstance(value, bool):
        return "auto" if value else False
    return _require(value in VERIFY_METHODS, value)


def _placement(value: Any) -> Union[str, Tuple[Tuple[int, int], ...]]:
    if value is None or isinstance(value, str):
        value = value or "identity"
        return _require(value in PLACEMENT_STRATEGIES, value)
    pairs = tuple(sorted(dict(value).items()))
    return _require(all(type(q) is int for pair in pairs for q in pair), pairs)


def _wires(value: Any) -> Tuple[int, ...]:
    wires = tuple(sorted(set(value or ())))
    ints = all(type(q) is int for q in wires)
    return _require(ints and not isinstance(value, str), wires)


@dataclass(frozen=True)
class CompileOptions:
    """Every option of one compile, validated and normalised once.

    The fields are the only list of compile options: they are
    :func:`compile_circuit`'s keywords, what
    :meth:`~repro.batch.CompileJob.make` accepts, what the cache key
    hashes (``keyed``) and what ``repro serve`` accepts (``wire``).  A
    bad value raises :class:`~repro.core.exceptions.ReproError` at
    construction.  Equal compiles get equal options: ``verify=True`` is
    ``"auto"``, ``placement=None`` is ``"identity"``, a placement dict
    and ``known_zero`` become sorted tuples.
    """

    optimize: bool = _flag(True)
    """Run the local optimizer under the device cost function."""
    verify: Union[bool, str] = _option(
        "auto", _verify, "true, false or one of " + ", ".join(VERIFY_METHODS))
    """False, or the verification method: ``"auto"`` (also spelled
    True: QMDD when narrow enough, sparse sampling beyond), ``"qmdd"``,
    ``"dense"`` or ``"sampled"``.  Failure raises
    :class:`~repro.core.exceptions.VerificationError` — a mapped output
    never leaves the compiler unless it provably matches its source."""
    placement: Union[str, Tuple[Tuple[int, int], ...]] = _option(
        "identity", _placement, "a strategy name or {logical: physical}")
    """A strategy name — ``"identity"`` (the paper's), ``"greedy"`` or
    ``"refined"``, see :mod:`repro.backend.placement` — or an explicit
    logical→physical dict."""
    cost_function: Optional[CostFunction] = _option(
        None, lambda v: _require(v is None or isinstance(v, CostFunction), v),
        "a CostFunction", wire=False)
    """Override of the device's cost function.  Not accepted over the
    wire: an opaque callable has no JSON identity."""
    verify_samples: int = _option(
        32, lambda v: _require(type(v) is int and v > 0, v), "a positive integer")
    """Basis inputs tried by sampled verification."""
    mcx_mode: str = _choice(MCX_MODES, "barenco")
    """Generalized-Toffoli lowering: the paper's ``"barenco"`` dirty
    V-chain, or Margolus gates on the ladder (``"relative_phase"``,
    about two-thirds the T-count)."""
    analyze: bool = _flag(True)
    """Run the static stage contracts (:mod:`repro.analysis.contracts`)
    after each stage — coupling legality and gate-set conformance after
    mapping and optimization, ancilla restoration after lowering, and
    the optimizer's cost monotonicity — and record the findings on
    :attr:`CompilationResult.diagnostics`."""
    strict: bool = _flag(False)
    """Raise :class:`~repro.core.exceptions.ContractViolation` at the
    first stage with an error-severity contract finding, before
    verification runs."""
    trace: bool = _flag(False, keyed=False, wire=False)
    """Record nested per-stage spans (placement, lowering, routing,
    each optimizer round with its cost delta, verification) on
    :attr:`CompilationResult.trace`.  Its disabled cost is a few no-op
    calls.  Over the wire it is ``?profile=1``."""
    known_zero: Tuple[int, ...] = _option((), _wires, "a list of wire indices")
    """Logical wires asserted to start in |0⟩.  Translated through the
    placement, the facts let the optimizer's constant propagation
    delete gates that are inert on that subspace, and verification
    then checks equivalence on the same subspace."""
    route: str = _choice(ROUTE_STRATEGIES, "ctr")
    """CNOT legalization: the paper's ``"ctr"`` (every distant CNOT
    swaps there and back) or ``"sabre"`` (dynamic layout, about half
    the SWAPs; the output wires end permuted, as recorded on
    :attr:`CompilationResult.output_permutation`)."""
    restore_layout: bool = _flag(False)
    """With ``route="sabre"``, append the device-legal uncompute SWAP
    tail so the wires keep their identity."""

    def __post_init__(self) -> None:
        for option in fields(self):
            value = getattr(self, option.name)
            try:
                value = option.metadata["normalize"](value)
            except (TypeError, ValueError):
                raise ReproError(
                    f"compile option {option.name}={value!r}: expected "
                    f"{option.metadata['expected']}") from None
            object.__setattr__(self, option.name, value)

    @classmethod
    def of(cls, options: Mapping[str, Any]) -> "CompileOptions":
        """Build from keyword options, rejecting unknown names."""
        unknown = set(options) - OPTION_NAMES
        if unknown:
            raise ReproError(f"unknown compile option(s): {', '.join(sorted(unknown))}")
        return cls(**options)


OPTION_NAMES = frozenset(f.name for f in fields(CompileOptions))
KEYED_OPTIONS = tuple(f.name for f in fields(CompileOptions) if f.metadata["keyed"])
"""Options that change the output, in field order: the cache key."""
WIRE_OPTIONS = frozenset(f.name for f in fields(CompileOptions) if f.metadata["wire"])
"""Options a ``repro serve`` request may set."""


def compile_circuit(
    circuit: QuantumCircuit,
    device: Union[Device, str],
    *,
    tracer: Optional[Tracer] = None,
    **options: Any,
) -> CompilationResult:
    """Compile a technology-independent circuit for ``device``.

    ``options`` are the fields of :class:`CompileOptions` (documented
    there).  An explicit ``tracer`` records spans like ``trace=True``.
    """
    opts = CompileOptions.of(options)
    if isinstance(device, str):
        device = get_device(device)
    cost = opts.cost_function or device.cost_function
    contracts = (
        StageContracts(device=device, strict=opts.strict)
        if opts.analyze or opts.strict
        else None
    )
    if tracer is None and opts.trace:
        tracer = Tracer()
    t = tracer if tracer is not None else NULL_TRACER

    start = time.perf_counter()
    with t.span(
        "compile",
        circuit=circuit.name or "circuit",
        device=device.name,
        gates_in=len(circuit),
    ) as root:
        with t.span("placement"):
            placement = (
                dict(opts.placement) if isinstance(opts.placement, tuple)
                else choose_placement(circuit, device, opts.placement))
        # Input facts arrive on logical wires; everything downstream of
        # placement (optimizer, verifier) sees physical indices.
        physical_zero = frozenset(
            placement[q]
            for q in opts.known_zero
            if 0 <= q < circuit.num_qubits and q in placement
        )
        if contracts is not None:
            with t.span("analyze.input"):
                contracts.check("input", circuit)
        with t.span("map") as map_span:
            mapping = map_circuit_outcome(
                circuit,
                device,
                placement,
                mcx_mode=opts.mcx_mode,
                contracts=contracts,
                tracer=tracer,
                route=opts.route,
                restore_layout=opts.restore_layout,
            )
            unoptimized = mapping.unoptimized
            output_permutation = mapping.output_permutation
            map_span.set(gates_out=len(unoptimized))
        if contracts is not None:
            with t.span("analyze.mapped"):
                contracts.check("mapped", unoptimized, device=device)
        dataflow_stats = None
        if opts.optimize:
            optimizer = LocalOptimizer(
                cost,
                device.coupling_map,
                gate_set=device.gate_set,
                tracer=tracer,
                known_zero=physical_zero,
            )
            with t.span("optimize") as opt_span:
                optimized = optimizer.run(unoptimized)
                opt_report = getattr(optimizer, "last_report", None)
                dataflow_stats = getattr(optimizer, "last_dataflow", None)
                if opt_report is not None:
                    opt_span.set(
                        rounds=opt_report.rounds,
                        cost_before=opt_report.initial_cost,
                        cost_after=opt_report.final_cost,
                        stopped=opt_report.stopped,
                    )
        else:
            optimized = unoptimized
        elapsed = time.perf_counter() - start

        with t.span("metrics"):
            unoptimized_metrics = CircuitMetrics.of(unoptimized, cost)
            optimized_metrics = CircuitMetrics.of(optimized, cost)
        if contracts is not None:
            with t.span("analyze.optimized"):
                contracts.check("optimized", optimized, device=device)
                if opts.optimize:
                    contracts.check_cost(
                        "optimized",
                        unoptimized_metrics.cost,
                        optimized_metrics.cost,
                    )

        report: Optional[VerificationReport] = None
        if opts.verify:
            with t.span("verify") as verify_span:
                source = circuit.remapped(
                    placement, num_qubits=device.num_qubits
                )
                # Rebased technology targets (no native CNOT, e.g.
                # trapped-ion) equal their sources only up to a global
                # phase per entangler.
                phase_free = not device.supports_gate("CNOT")
                report = require_equivalent(
                    source, optimized, method=opts.verify,
                    samples=opts.verify_samples,
                    up_to_global_phase=phase_free,
                    known_zero=physical_zero,
                    output_permutation=output_permutation,
                )
                verify_span.set(
                    method=report.method, equivalent=report.equivalent
                )
        root.set(gates_out=len(optimized))

    dataflow_payload: Optional[Dict] = None
    if physical_zero:
        if dataflow_stats is not None:
            # The optimizer's propagation sweep already walked the final
            # circuit; reuse its exit facts instead of re-analyzing.
            exit_facts = dict(dataflow_stats.exit_facts)
        else:  # optimize=False: one explicit analysis pass
            from .analysis.dataflow_analyzers import dataflow_summary

            exit_facts = {
                wire: value
                for wire, value in dataflow_summary(
                    optimized, assume_zero=physical_zero
                )["exit_facts"].items()
                if value in ("zero", "one")
            }
        dataflow_payload = {
            "known_zero": sorted(physical_zero),
            "constant_propagation": (
                dataflow_stats.to_payload()
                if dataflow_stats is not None else None
            ),
            "exit_facts": exit_facts,
        }

    metrics = get_metrics()
    metrics.inc("compile.calls")
    metrics.inc("compile.seconds", elapsed)
    return CompilationResult(
        original=circuit,
        device=device,
        unoptimized=unoptimized,
        optimized=optimized,
        unoptimized_metrics=unoptimized_metrics,
        optimized_metrics=optimized_metrics,
        verification=report,
        synthesis_seconds=elapsed,
        placement=placement,
        output_permutation=output_permutation,
        route=opts.route,
        diagnostics=(
            contracts.report if contracts is not None else DiagnosticReport()
        ),
        trace=tracer.to_summary() if tracer is not None else None,
        dataflow=dataflow_payload,
    )


def compile_classical_function(
    function: Union[TruthTable, str],
    device: Union[Device, str],
    num_inputs: Optional[int] = None,
    effort: str = "fprm",
    **kwargs,
) -> CompilationResult:
    """Full Fig. 2 flow for a classical switching function.

    ``function`` is a :class:`TruthTable` or a hex truth-table string (in
    which case ``num_inputs`` is required).  The front-end produces the
    reversible cascade; the back-end maps it to ``device``.
    """
    if isinstance(function, str):
        if num_inputs is None:
            raise SynthesisError("num_inputs required with a hex function name")
        table = TruthTable.from_hex(function, num_inputs)
        name = f"#{function}"
    else:
        table = function
        name = kwargs.pop("name", "classical")
    cascade = synthesize_truth_table(table, effort=effort, name=name)
    return compile_circuit(cascade, device, **kwargs)
