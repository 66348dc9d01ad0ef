"""The technology-mapping back-end pipeline (Section 4 of the paper).

Given a technology-independent circuit and a target :class:`Device`, the
mapper applies, in order, the procedures enumerated in Section 4:

1. *Placement* — logical qubits are assigned to physical qubits
   (identity placement by default; the paper lists smarter placement as
   future work).
2. *Generalized-Toffoli lowering* — every MCX becomes a Toffoli cascade
   (Barenco), borrowing dirty ancillas from idle device qubits chosen
   nearest the gate's target to keep later rerouting cheap.
3. *Gate-library expansion* — Toffoli / CZ / SWAP become one- and
   two-qubit transmon-library gates (Nielsen & Chuang networks).
4. *CNOT legalization* — with ``route="ctr"`` (the paper's procedure)
   each CNOT is orientation-reversed (Fig. 6) and/or rerouted with CTR
   (Figs. 3-5) so it satisfies the device's coupling map; with
   ``route="sabre"`` the dynamic-layout router
   (:mod:`repro.backend.router`) legalizes the whole stream with a
   moving layout and reports the final output permutation instead of
   swapping back.

The result is the *unoptimized mapping* of the paper's tables; the local
optimizer (:mod:`repro.optimize`) then produces the optimized mapping.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..core.circuit import QuantumCircuit
from ..core.exceptions import NotSynthesizableError, SynthesisError
from ..devices.device import Device
from .ctr import cnot_with_ctr, route_cost_in_swaps
from .mcx import mcx_to_toffoli
from .toffoli import expand_non_native

#: Routing strategies accepted by ``map_circuit(route=...)``.
ROUTE_STRATEGIES = ("ctr", "sabre")
#: Generalized-Toffoli lowerings accepted by ``mcx_mode=...``.
MCX_MODES = ("barenco", "relative_phase")


def identity_placement(circuit: QuantumCircuit, device: Device) -> Dict[int, int]:
    """Logical qubit *i* goes to physical qubit *i*.

    Raises :class:`NotSynthesizableError` when the circuit needs more
    qubits than the device has — the paper's ``N/A`` table entries.
    """
    if circuit.num_qubits > device.num_qubits:
        raise NotSynthesizableError(
            f"{circuit.name or 'circuit'} uses {circuit.num_qubits} qubits "
            f"but {device.name} has only {device.num_qubits}"
        )
    return {q: q for q in range(circuit.num_qubits)}


def lower_mcx_for_device(
    circuit: QuantumCircuit, device: Device, mcx_mode: str = "barenco"
) -> QuantumCircuit:
    """Lower every generalized Toffoli to a Toffoli cascade, borrowing
    dirty ancillas from idle device qubits nearest the gate's target.

    ``mcx_mode="barenco"`` uses the pure-Toffoli dirty V-chain (the
    paper's procedure); ``"relative_phase"`` substitutes Margolus gates
    for the compute/uncompute ladder pairs — still an *exact* MCX, at
    roughly two-thirds the T-count (see
    :mod:`repro.backend.relative_phase`).
    """
    if mcx_mode == "barenco":
        lower = mcx_to_toffoli
    elif mcx_mode == "relative_phase":
        from .relative_phase import mcx_relative_phase

        lower = mcx_relative_phase
    else:
        raise SynthesisError(f"unknown mcx_mode {mcx_mode!r}")
    lowered = QuantumCircuit(device.num_qubits, name=circuit.name)
    for index, gate in enumerate(circuit):
        if gate.name != "MCX":
            lowered.append(gate)
            continue
        busy = set(gate.qubits)
        # Only qubits the coupling graph actually connects to the target
        # can serve as dirty ancillas: a borrowed qubit in another
        # component can never be routed into the V-chain, and offering
        # it to the decomposition used to surface later as a confusing
        # "no SWAP path" routing error instead of a located diagnosis.
        reach: Dict[int, int] = {}
        for q in range(device.num_qubits):
            if q in busy:
                continue
            distance = device.coupling_map.distance(q, gate.target)
            if distance is not None:
                reach[q] = distance
        free = sorted(reach, key=lambda q: (reach[q], q))
        if len(gate.controls) >= 3 and not free:
            raise NotSynthesizableError(
                f"MCX with {len(gate.controls)} controls needs a dirty "
                f"ancilla, but no free qubit of {device.name} is "
                f"connected to target q{gate.target}",
                code="REPRO302",
                gate_index=index,
            )
        lowered.extend(lower(gate.controls, gate.target, free))
    return lowered


def expand_to_library(circuit: QuantumCircuit) -> QuantumCircuit:
    """Expand Toffoli/CZ/SWAP gates into the transmon gate library."""
    expanded = QuantumCircuit(circuit.num_qubits, name=circuit.name)
    for gate in circuit:
        expanded.extend(expand_non_native(gate))
    return expanded


def legalize_cnots(circuit: QuantumCircuit, device: Device) -> QuantumCircuit:
    """Make every CNOT conform to the device coupling map via orientation
    reversal and CTR rerouting.  Single-qubit gates pass through."""
    coupling_map = device.coupling_map
    legal = QuantumCircuit(device.num_qubits, name=circuit.name)
    for gate in circuit:
        if gate.name == "CNOT":
            control, target = gate.qubits
            legal.extend(cnot_with_ctr(control, target, coupling_map))
        elif gate.num_qubits > 1:
            raise SynthesisError(
                f"unexpected multi-qubit gate {gate} after library expansion"
            )
        else:
            legal.append(gate)
    return legal


def map_circuit_outcome(
    circuit: QuantumCircuit,
    device: Device,
    placement: Optional[Dict[int, int]] = None,
    mcx_mode: str = "barenco",
    contracts: Optional[Any] = None,
    tracer: Optional[Any] = None,
    route: str = "ctr",
    restore_layout: bool = False,
) -> "MappingOutcome":
    """Run the full Section 4 mapping pipeline; returns a
    :class:`MappingOutcome` carrying the unoptimized technology-dependent
    circuit on ``device.num_qubits`` wires plus its routing metadata.

    ``route`` selects CNOT legalization: ``"ctr"`` (the paper's
    Connectivity-Tree Reroute, every CNOT restores the layout) or
    ``"sabre"`` (the dynamic-layout router of
    :mod:`repro.backend.router`, which reports the final output
    permutation on :attr:`MappingOutcome.output_permutation` instead of
    swapping back).  With ``restore_layout=True`` the sabre path appends
    the device-legal uncompute SWAP tail, trading gates for wire
    identity; the reported permutation is then empty again.

    ``contracts`` is an optional
    :class:`repro.analysis.contracts.StageContracts` recorder; when
    given, the post-lowering stage contract (Barenco dirty-ancilla
    restoration) runs on the lowered cascade with the placed circuit's
    wires marked active.

    ``tracer`` is an optional :class:`repro.obs.Tracer`; when given,
    each mapping sub-stage (place, lower, expand, route, rebase) records
    a span with its output gate count; the ``map.route`` span also
    carries the strategy and the number of SWAPs it inserted.
    """
    if tracer is None:
        from ..obs import NULL_TRACER

        tracer = NULL_TRACER

    if route not in ROUTE_STRATEGIES:
        raise SynthesisError(
            f"unknown route strategy {route!r} "
            f"(expected one of {', '.join(ROUTE_STRATEGIES)})"
        )
    if placement is None:
        placement = identity_placement(circuit, device)
    _validate_placement(placement, circuit, device)
    with tracer.span("map.place"):
        placed = circuit.remapped(placement, num_qubits=device.num_qubits)
    with tracer.span("map.lower", mcx_mode=mcx_mode) as span:
        lowered = lower_mcx_for_device(placed, device, mcx_mode=mcx_mode)
        span.set(gates=len(lowered))
    if contracts is not None:
        with tracer.span("analyze.lowered"):
            contracts.check(
                "lowered", lowered, active_qubits=placed.used_qubits
            )
    with tracer.span("map.expand") as span:
        expanded = expand_to_library(lowered)
        span.set(gates=len(expanded))
    output_permutation: Dict[int, int] = {}
    with tracer.span("map.route", route=route) as span:
        if route == "sabre":
            from .router import route_sabre, routed_restore_gates

            routing = route_sabre(expanded, device.coupling_map)
            legal = routing.circuit
            swap_count = routing.swap_count
            output_permutation = routing.output_permutation
            if restore_layout and output_permutation:
                tail = routed_restore_gates(
                    output_permutation, device.coupling_map
                )
                legal = QuantumCircuit._trusted(
                    legal.num_qubits,
                    list(legal.gates) + tail,
                    name=legal.name,
                )
                swap_count += sum(1 for g in tail if g.name == "CNOT") // 3
                output_permutation = {}
        else:
            legal = legalize_cnots(expanded, device)
            swap_count = sum(
                2 * route_cost_in_swaps(
                    gate.qubits[0], gate.qubits[1], device.coupling_map
                )
                for gate in expanded
                if gate.name == "CNOT"
            )
        span.set(gates=len(legal), swaps=swap_count)
    if not device.supports_gate("CNOT"):
        # Non-transmon technology target (e.g. trapped-ion): rebase the
        # mapped 1q+CNOT circuit into the device's native library.
        from .rebase import rebase_to_ion

        with tracer.span("map.rebase") as span:
            legal = rebase_to_ion(legal)
            span.set(gates=len(legal))
    if os.environ.get("REPRO_FAULT_INJECT"):
        from ..batch import faults

        if faults.fire("mapper", circuit.name or ""):
            legal = _inject_miscompile(legal)
    return MappingOutcome(
        device=device,
        original=circuit,
        placement=placement,
        unoptimized=legal,
        output_permutation=output_permutation,
        route=route,
        swap_count=swap_count,
    )


def map_circuit(
    circuit: QuantumCircuit,
    device: Device,
    placement: Optional[Dict[int, int]] = None,
    mcx_mode: str = "barenco",
    contracts: Optional[Any] = None,
    tracer: Optional[Any] = None,
    route: str = "ctr",
    restore_layout: bool = False,
) -> QuantumCircuit:
    """Like :func:`map_circuit_outcome`, returning just the circuit.

    With ``route="sabre"`` and ``restore_layout=False`` the returned
    circuit's wires end *permuted* (see
    :attr:`MappingOutcome.output_permutation`); callers that need the
    permutation — notably for verification — should use
    :func:`map_circuit_outcome`.
    """
    return map_circuit_outcome(
        circuit,
        device,
        placement,
        mcx_mode=mcx_mode,
        contracts=contracts,
        tracer=tracer,
        route=route,
        restore_layout=restore_layout,
    ).unoptimized


def _inject_miscompile(circuit: QuantumCircuit) -> QuantumCircuit:
    """Deterministically corrupt a mapped circuit by dropping its last
    entangling gate (falling back to the last gate of any arity).

    Only reachable through the ``miscompile`` action of the
    ``REPRO_FAULT_INJECT`` hook (:mod:`repro.batch.faults`): the seeded
    mapper bug that proves the differential fuzz harness's QMDD oracle
    actually catches miscompiles and that the shrinker can reduce them.
    """
    victim = None
    for index in range(len(circuit) - 1, -1, -1):
        if circuit[index].num_qubits >= 2:
            victim = index
            break
    if victim is None and len(circuit):
        victim = len(circuit) - 1
    if victim is None:
        return circuit
    gates = list(circuit.gates)
    del gates[victim]
    return QuantumCircuit._trusted(
        circuit.num_qubits, gates, name=circuit.name
    )


def _validate_placement(
    placement: Dict[int, int], circuit: QuantumCircuit, device: Device
) -> None:
    physical = list(placement.values())
    if len(set(physical)) != len(physical):
        raise SynthesisError("placement maps two logical qubits to one physical qubit")
    for logical in circuit.used_qubits:
        target = placement.get(logical, logical)
        if not (0 <= target < device.num_qubits):
            raise NotSynthesizableError(
                f"logical qubit {logical} placed on q{target}, outside "
                f"{device.name} (0..{device.num_qubits - 1})"
            )


def check_conformance(circuit: QuantumCircuit, device: Device) -> List[str]:
    """Return a list of violations of the device's constraints (empty when
    the circuit is executable as-is).  Used by tests and the compiler's
    own self-check after mapping."""
    violations: List[str] = []
    for index, gate in enumerate(circuit):
        if not device.supports_gate(gate.name):
            violations.append(f"gate {index}: {gate} not in {device.name} library")
        elif gate.name == "CNOT":
            control, target = gate.qubits
            if not device.coupling_map.allows(control, target):
                violations.append(
                    f"gate {index}: CNOT(q{control}, q{target}) violates "
                    f"{device.name} coupling map"
                )
        elif gate.name == "RXX":
            a, b = gate.qubits
            if not device.coupling_map.coupled(a, b):
                violations.append(
                    f"gate {index}: RXX(q{a}, q{b}) violates "
                    f"{device.name} coupling map"
                )
    return violations


@dataclass
class MappingOutcome:
    """Everything the compiler records about one mapping run."""

    device: Device
    original: QuantumCircuit
    placement: Dict[int, int]
    unoptimized: QuantumCircuit
    #: Final wire permutation ``{input wire -> output wire}`` left by
    #: dynamic-layout routing (identity entries omitted; always empty
    #: for ``route="ctr"`` or ``restore_layout=True``).
    output_permutation: Dict[int, int] = field(default_factory=dict)
    #: Routing strategy that produced :attr:`unoptimized`.
    route: str = "ctr"
    #: SWAPs the router inserted (CTR counts both directions of every
    #: reroute; each SWAP expands to 3 CNOTs plus orientation fixes).
    swap_count: int = 0
