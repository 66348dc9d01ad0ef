"""Identity-partition removal (Section 4, optimization item 5).

The basic local optimization removes partitions of gates that compose to
the identity.  The workhorse is commutation-aware *inverse-pair
cancellation*: while scanning the cascade, each gate looks backwards
through gates it provably commutes with; if it meets its own inverse the
pair annihilates.  Repeating to fixpoint removes nested identity blocks
(e.g. ``H H``, ``CNOT CNOT``, the back-to-back SWAP chains CTR leaves
behind) because every removal exposes new adjacent pairs.

Explicit identity gates (``I``) are always dropped.

Performance: the pairwise ``commutes_with`` / ``is_inverse_of`` verdicts
consulted by every backward walk are memoized at the gate layer (see
``repro.core.gates._commute_verdict``), so repeated sweeps over the same
cascade neighborhoods cost dictionary lookups, not re-derivation.  The
walk itself is bounded by a lookback window (:data:`LOOKBACK_WINDOW` by
default, overridable per call) which keeps a sweep near-linear even on
pathological all-commuting cascades.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..core.circuit import QuantumCircuit
from ..core.gates import Gate, _commute_verdict, _inverse_verdict

#: Default maximum number of gates a cancellation walk may commute
#: through; keeps a sweep near-linear on pathological all-commuting
#: cascades.  Override per call via the ``lookback`` argument.
LOOKBACK_WINDOW = 128


def cancel_inverse_pairs(
    gates: Sequence[Gate], lookback: Optional[int] = None
) -> List[Gate]:
    """One left-to-right cancellation sweep.

    Each incoming gate walks backwards over the kept gates *that share a
    qubit with it*: gates it commutes with are skipped; meeting its
    inverse cancels both; meeting anything else stops the walk.  Gates on
    disjoint qubits always commute, so the walk indexes the kept cascade
    per qubit and never visits them — a sweep is O(n * window) in
    same-support gates, independent of how many unrelated gates are
    interleaved.  ``lookback`` bounds the number of same-support gates a
    walk may commute through (``None`` uses :data:`LOOKBACK_WINDOW`).
    """
    window = LOOKBACK_WINDOW if lookback is None else max(0, int(lookback))
    # Kept gates with tombstones (None) for canceled entries, plus a
    # per-qubit index of positions so walks skip disjoint gates entirely.
    kept: List[Optional[Gate]] = []
    by_qubit: dict = {}
    for gate in gates:
        if gate.name == "I":
            continue
        support = gate.support
        # Head pointer into each qubit's position list, popping tombstones.
        heads = {}
        for q in support:
            stack = by_qubit.get(q)
            if stack is None:
                stack = by_qubit[q] = []
            h = len(stack) - 1
            while h >= 0 and kept[stack[h]] is None:
                stack.pop()
                h -= 1
            heads[q] = h
        canceled = False
        steps = 0
        while steps < window:
            position = -1
            for q in support:
                h = heads[q]
                if h >= 0:
                    candidate = by_qubit[q][h]
                    if candidate > position:
                        position = candidate
            if position < 0:
                break
            previous = kept[position]
            if _inverse_verdict(gate, previous):
                kept[position] = None
                canceled = True
                break
            if not _commute_verdict(gate, previous):
                break
            for q in support:
                h = heads[q]
                if h >= 0 and by_qubit[q][h] == position:
                    h -= 1
                    stack = by_qubit[q]
                    while h >= 0 and kept[stack[h]] is None:
                        h -= 1
                    heads[q] = h
            steps += 1
        if not canceled:
            index = len(kept)
            kept.append(gate)
            for q in support:
                by_qubit[q].append(index)
    return [gate for gate in kept if gate is not None]


def remove_identities(
    circuit: QuantumCircuit, lookback: Optional[int] = None
) -> QuantumCircuit:
    """Cancel inverse pairs to fixpoint; returns a new circuit."""
    gates, _ = cancel_to_fixpoint(list(circuit), lookback)
    return QuantumCircuit._trusted(circuit.num_qubits, gates, name=circuit.name)


def cancel_to_fixpoint(
    gates: List[Gate], lookback: Optional[int] = None
) -> Tuple[List[Gate], bool]:
    """:func:`remove_identities` on a gate list; also reports whether the
    list changed.  A sweep only drops gates, so an unchanged length means
    an unchanged list."""
    start = len(gates)
    while True:
        reduced = cancel_inverse_pairs(gates, lookback)
        if len(reduced) == len(gates):
            return reduced, len(reduced) != start
        gates = reduced
