"""Circuit-identity rewrites (Section 4, optimization item 6).

These rules replace a partition of gates with a logically identical but
cheaper partition.  Each rule fires only when the gates of the partition
are *adjacent on the qubits they touch* (no intervening gate acts on any
involved qubit), which guarantees the rewrite is local and exact.

Implemented identities (all phase-exact):

* ``H X H  -> Z``  and  ``H Z H -> X``        (Hadamard conjugation)
* ``H_c H_t CNOT(t,c) H_c H_t -> CNOT(c,t)``  (Fig. 6 un-reversal) —
  applied only when the improved orientation is legal on the target
  device, so optimization never breaks coupling-map conformance.
* ``CNOT(a,b) X(a) CNOT(a,b) -> X(a) X(b)``   (control-X propagation)
* ``CNOT(a,b) Z(b) CNOT(a,b) -> Z(a) Z(b)``   (target-Z propagation)

Rules are cost-guarded by the driver in :mod:`repro.optimize.local`:
a rewrite is kept only if the technology cost function decreases.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from collections import defaultdict
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from ..core.circuit import QuantumCircuit
from ..core.gates import CNOT, Gate, H, X, Z
from ..devices.coupling import CouplingMap


#: How far ahead a rule may look for the next gate on a qubit.  Bounds a
#: template sweep to O(n * window); in mapped circuits partner gates are
#: always nearby, so the window does not cost reductions in practice.
LOOKAHEAD_WINDOW = 64


class WireTimeline:
    """A gate list indexed by wire: the neighbour lookups rules match with.

    For every wire the timeline keeps the ascending list positions of the
    gates acting on it, so the next (or previous) gate on a set of wires
    is one binary search per wire instead of a scan of the cascade.
    Lookups honour :data:`LOOKAHEAD_WINDOW` in list positions: a gate
    more than the window away is not a neighbour.
    """

    __slots__ = ("gates", "_wires")

    def __init__(self, gates: Sequence[Gate]):
        self.gates = gates
        wires: dict = defaultdict(lambda: array("l"))
        for position, gate in enumerate(gates):
            for qubit in gate.qubits:
                wires[qubit].append(position)
        self._wires = wires

    def next_on(self, start: int, qubits: Iterable[int]) -> Optional[int]:
        """Position of the first gate after ``start`` touching any of
        ``qubits`` (at most :data:`LOOKAHEAD_WINDOW` positions ahead)."""
        found = start + LOOKAHEAD_WINDOW + 1
        for qubit in qubits:
            row = self._wires.get(qubit)
            if row is None:
                continue
            slot = bisect_right(row, start)
            if slot < len(row) and row[slot] < found:
                found = row[slot]
        return found if found <= start + LOOKAHEAD_WINDOW else None

    def prev_on(self, start: int, qubits: Iterable[int]) -> Optional[int]:
        """Position of the last gate before ``start`` touching any of
        ``qubits`` (at most :data:`LOOKAHEAD_WINDOW` positions back)."""
        found = start - LOOKAHEAD_WINDOW - 1
        for qubit in qubits:
            row = self._wires.get(qubit)
            if row is None:
                continue
            slot = bisect_left(row, start) - 1
            if slot >= 0 and row[slot] > found:
                found = row[slot]
        return found if found >= start - LOOKAHEAD_WINDOW else None

    def chain(
        self, start: int, qubits: Iterable[int], length: int
    ) -> Optional[List[int]]:
        """Positions of the next ``length`` consecutive gates on
        ``qubits``, starting at ``start`` (which must itself touch them)."""
        indices = [start]
        while len(indices) < length:
            nxt = self.next_on(indices[-1], qubits)
            if nxt is None:
                return None
            indices.append(nxt)
        return indices


#: A rule takes (timeline, index, coupling_map) and, if its pattern starts
#: at ``timeline.gates[index]``, returns (indices_consumed,
#: replacement_gates).
Rule = Callable[
    [WireTimeline, int, Optional[CouplingMap]],
    Optional[Tuple[List[int], List[Gate]]],
]


def rule_hadamard_conjugation(line, index, coupling_map=None):
    """``H P H -> conjugate(P)`` on one qubit, for P in {X, Z}."""
    gates = line.gates
    first = gates[index]
    if first.name != "H":
        return None
    qubit = first.qubits[0]
    chain = line.chain(index, first.qubits, 3)
    if chain is None:
        return None
    middle, last = gates[chain[1]], gates[chain[2]]
    if last.name != "H" or last.qubits != first.qubits:
        return None
    if middle.qubits != first.qubits:
        return None
    if middle.name == "X":
        return chain, [Z(qubit)]
    if middle.name == "Z":
        return chain, [X(qubit)]
    return None


def rule_cnot_unreversal(line, index, coupling_map=None):
    """Collapse the 5-gate Fig. 6 reversal back to one CNOT when legal.

    Pattern: an H on each operand immediately before and after a CNOT
    (per-qubit timelines), rewritten to the opposite-orientation CNOT.
    On a restricted device the rewrite fires only if the coupling map
    allows the new orientation.
    """
    gates = line.gates
    anchor = gates[index]
    if anchor.name != "H":
        return None
    a = anchor.qubits[0]
    cnot_at = line.next_on(index, (a,))
    if cnot_at is None:
        return None
    cnot = gates[cnot_at]
    if cnot.name != "CNOT" or a not in cnot.qubits:
        return None
    b = cnot.qubits[0] if cnot.qubits[1] == a else cnot.qubits[1]
    # H on the partner qubit immediately before the CNOT.
    before_b = line.prev_on(cnot_at, (b,))
    if before_b is None or gates[before_b] != H(b):
        return None
    # H on both qubits immediately after the CNOT.
    after_a = line.next_on(cnot_at, (a,))
    after_b = line.next_on(cnot_at, (b,))
    if after_a is None or after_b is None or after_a == after_b:
        return None
    if gates[after_a] != H(a) or gates[after_b] != H(b):
        return None
    control, target = cnot.qubits
    new_control, new_target = target, control  # reversed orientation
    if coupling_map is not None and not coupling_map.allows(new_control, new_target):
        return None
    consumed = [index, before_b, cnot_at, after_a, after_b]
    return consumed, [CNOT(new_control, new_target)]


def rule_cnot_x_propagation(line, index, coupling_map=None):
    """``CNOT(a,b) X(a) CNOT(a,b) -> X(a) X(b)`` (and the Z dual on b)."""
    gates = line.gates
    first = gates[index]
    if first.name != "CNOT":
        return None
    a, b = first.qubits
    chain = line.chain(index, first.qubits, 3)
    if chain is None:
        return None
    middle, last = gates[chain[1]], gates[chain[2]]
    if last != first:
        return None
    if middle.name == "X" and middle.qubits == (a,):
        return chain, [X(a), X(b)]
    if middle.name == "Z" and middle.qubits == (b,):
        return chain, [Z(a), Z(b)]
    return None


#: Default rule set, in application order.
DEFAULT_RULES: Tuple[Rule, ...] = (
    rule_hadamard_conjugation,
    rule_cnot_unreversal,
    rule_cnot_x_propagation,
)


def apply_templates(
    circuit: QuantumCircuit,
    coupling_map: Optional[CouplingMap] = None,
    rules: Sequence[Rule] = DEFAULT_RULES,
    gate_set=None,
) -> QuantumCircuit:
    """One template sweep: try every rule at every position, left to right.

    Matches are applied greedily; the driver iterates sweeps to fixpoint.
    """
    gates, _ = template_sweep(list(circuit), coupling_map, rules, gate_set)
    return QuantumCircuit._trusted(circuit.num_qubits, gates, name=circuit.name)


def template_sweep(
    gates: List[Gate],
    coupling_map: Optional[CouplingMap] = None,
    rules: Sequence[Rule] = DEFAULT_RULES,
    gate_set=None,
) -> Tuple[List[Gate], bool]:
    """:func:`apply_templates` on a gate list; also reports whether a
    rewrite was applied (if not, the list is a fixpoint of the sweep)."""
    line = WireTimeline(gates)
    rewritten = False
    index = 0
    while index < len(gates):
        matched = None
        for rule in rules:
            matched = rule(line, index, coupling_map)
            if matched is not None:
                break
        if matched is not None and gate_set is not None:
            consumed, replacement = matched
            if any(g.name not in gate_set for g in replacement):
                matched = None  # rewrite would leave the device library
        if matched is None:
            index += 1
            continue
        consumed, replacement = matched
        consumed_set = set(consumed)
        rebuilt: List[Gate] = []
        inserted = False
        for position, gate in enumerate(gates):
            if position in consumed_set:
                if not inserted:
                    rebuilt.extend(replacement)
                    inserted = True
                continue
            rebuilt.append(gate)
        gates = rebuilt
        line = WireTimeline(gates)
        rewritten = True
        # Resume slightly earlier: the rewrite may enable a new match that
        # starts just before the replaced partition.
        index = max(0, min(consumed) - LOOKAHEAD_WINDOW)
    return gates, rewritten
