"""Phase-run merging: collapse runs of diagonal gates on each qubit.

Part of the paper's optimization item 6 (rewriting by logically identical
circuit identities): any sequence of T/S/Z/S†/T† acting on the same qubit
— even when interleaved with gates they commute through, such as the
*controls* of CNOTs — multiplies to a single Z-rotation by a multiple of
π/4 and is re-emitted as at most two library gates (usually one or zero).

Examples: ``T T -> S``, ``S S -> Z``, ``T S T -> Z``, ``T T† -> (nothing)``,
``Z S -> S†`` (exactly, including phase: diag(1,-1)·diag(1,i) = diag(1,-i)).
All merges are phase-exact, so they preserve equivalence in the strict
(not merely global-phase) sense that QMDD verification checks.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ..core.circuit import QuantumCircuit
from ..core.gates import Gate
from .phase import emit_phase, gate_exponent, is_phase_gate


def merge_phase_runs(gates: Sequence[Gate], gate_set=None) -> List[Gate]:
    """One merging sweep.

    Phase gates (including RZ rotations) are withheld in per-qubit
    accumulators and flushed (as a minimal gate sequence) just before the
    first gate that does not commute with a Z-rotation on that qubit, or
    at the end of the cascade.  CNOT/Toffoli/MCX *controls* and other
    diagonal gates do not flush, so phases merge across them.  Runs that
    sum to a multiple of pi/4 re-emit as library gates; other angles
    emit one RZ.
    """
    kept: List[Gate] = []
    # qubit -> accumulated exponent (units of pi/4), in the order the
    # qubits became pending.
    pending: dict = {}

    def flush(qubit: int) -> None:
        exponent = pending.pop(qubit, 0.0)
        kept.extend(emit_phase(exponent, qubit, gate_set))

    for gate in gates:
        if is_phase_gate(gate):
            qubit = gate.qubits[0]
            pending[qubit] = (pending.get(qubit, 0.0) + gate_exponent(gate)) % 8.0
            continue
        due = [
            qubit for qubit in gate.qubits
            if qubit in pending and not _z_commutes_through(gate, qubit)
        ]
        if len(due) > 1:
            # Flush in the order the qubits became pending.
            due = [qubit for qubit in pending if qubit in due]
        for qubit in due:
            flush(qubit)
        kept.append(gate)
    for qubit in sorted(pending):
        flush(qubit)
    return kept


def _z_commutes_through(gate: Gate, qubit: int) -> bool:
    """True if a Z-rotation on ``qubit`` commutes with ``gate``."""
    if gate.is_diagonal:
        return True
    if gate.name in ("CNOT", "TOFFOLI", "MCX") and qubit in gate.controls:
        return True
    return False


def merge_phases(circuit: QuantumCircuit, gate_set=None) -> QuantumCircuit:
    """Merge phase runs to fixpoint; returns a new circuit.

    ``gate_set`` restricts the emitted gates (see
    :func:`repro.optimize.phase.emit_phase`)."""
    gates, _ = merge_to_fixpoint(list(circuit), gate_set)
    return QuantumCircuit._trusted(circuit.num_qubits, gates, name=circuit.name)


def merge_to_fixpoint(
    gates: List[Gate], gate_set=None
) -> Tuple[List[Gate], bool]:
    """:func:`merge_phases` on a gate list; also reports whether the list
    changed (the fixpoint loop ran more than one sweep)."""
    sweeps = 0
    while True:
        merged = merge_phase_runs(gates, gate_set)
        sweeps += 1
        if merged == gates:
            return merged, sweeps > 1
        gates = merged
