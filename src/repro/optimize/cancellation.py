"""Identity-partition removal (Section 4, optimization item 5).

The basic local optimization removes partitions of gates that compose to
the identity.  The workhorse is commutation-aware *inverse-pair
cancellation*: while scanning the cascade, each gate looks backwards
through gates it provably commutes with; if it meets its own inverse the
pair annihilates.  Nested identity blocks (e.g. ``H H``, ``CNOT CNOT``,
the back-to-back SWAP chains CTR leaves behind) mostly fall in the same
sweep, since a removal is visible to every later gate's walk.

Repeating to fixpoint needs another sweep only when a removal could
change the walk of a gate processed *before* it.  A sweep therefore
records how each kept gate's walk ended: blocked at a position, cut by
the lookback window (with the lowest position it visited), or out of
gates.  When an incoming gate ``b`` cancels a kept gate ``a`` at
position ``p``, the only walks that visited ``a`` belong to the kept
gates ``b`` stepped over — the kept gates on ``a``'s wires between
``a`` and ``b``, since an inverse pair shares its support.  Such a walk
ends differently next sweep only if it was blocked by ``a`` (it may now
reach further) or cut by the window after stepping over ``a`` (its
lowest visited position is at or below ``p``, so a step is freed).  A
walk that stepped over ``a`` to a blocker, or that ran out of gates,
ends the same without it, and one that stopped above ``p`` never saw
it.  A pair whose supports differ is not covered by this argument and
always asks for another sweep.  If no removal asks, the next sweep
would cancel nothing, so :func:`cancel_to_fixpoint` returns without
running it — the same gates the sweep-until-unchanged loop returns,
minus its confirming sweep.

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
    return _sweep(gates, lookback)[0]


def _sweep(
    gates: Sequence[Gate], lookback: Optional[int]
) -> Tuple[List[Gate], bool]:
    """:func:`cancel_inverse_pairs`; also reports whether a further sweep
    could cancel more (see the module docstring for the argument)."""
    window = LOOKBACK_WINDOW if lookback is None else max(0, int(lookback))
    # Kept gates with tombstones (None) for canceled entries, plus a
    # per-qubit index of positions so walks skip disjoint gates entirely.
    kept: List[Optional[Gate]] = []
    by_qubit: dict = {}
    # How each kept gate's walk ended: the blocking position, -1 when it
    # ran out of gates, or -2 - L when the window cut it after visiting
    # position L.
    ends: List[int] = []
    again = False
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
        end = -1
        # A zero window visits nothing: the cut is recorded at the gate's
        # own index, above any position a later removal can free.
        position = len(kept)
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
                if not again:
                    again = previous.support != support or _reopens(
                        position, support, kept, by_qubit, ends
                    )
                break
            if not _commute_verdict(gate, previous):
                end = position
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
        else:
            end = -2 - position
        if not canceled:
            index = len(kept)
            kept.append(gate)
            ends.append(end)
            for q in support:
                by_qubit[q].append(index)
    return [gate for gate in kept if gate is not None], again


def _reopens(position, support, kept, by_qubit, ends) -> bool:
    """Whether removing the kept gate at ``position`` can change the walk
    of a kept gate above it on ``support``: one blocked by it, or cut by
    the window after stepping over it."""
    for q in support:
        stack = by_qubit[q]
        h = len(stack) - 1
        while h >= 0 and stack[h] > position:
            above = stack[h]
            if kept[above] is not None:
                end = ends[above]
                if end == position or (end < -1 and -2 - end <= position):
                    return True
            h -= 1
    return False


def remove_identities(
    circuit: QuantumCircuit, lookback: Optional[int] = None
) -> QuantumCircuit:
    """Cancel inverse pairs to fixpoint; returns a new circuit."""
    gates = cancel_to_fixpoint(list(circuit), lookback)[0]
    return QuantumCircuit._trusted(circuit.num_qubits, gates, name=circuit.name)


def cancel_to_fixpoint(
    gates: List[Gate], lookback: Optional[int] = None
) -> Tuple[List[Gate], bool, int]:
    """:func:`remove_identities` on a gate list; also reports whether the
    list changed and how many sweeps ran.  A sweep only drops gates, so
    an unchanged length means an unchanged list."""
    start = len(gates)
    sweeps = 0
    again = True
    while again:
        gates, again = _sweep(gates, lookback)
        sweeps += 1
    return gates, len(gates) != start, sweeps
