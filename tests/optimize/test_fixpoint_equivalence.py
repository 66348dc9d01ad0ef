"""The optimizer's neighbour index and early stop change no output.

This file keeps reference copies of the linear-scan template matcher,
the phase-merge sweep that scanned every pending qubit, and the round
loop that always ran a confirming round (stopping only on a rejected
round or the round cap).  Hypothesis checks that
:meth:`LocalOptimizer.run` returns exactly the reference's gates on
random Clifford+T circuits: on ``ibmqx4``, on a one-way line and with
the trapped-ion gate set, with templates on and off, and with template
partners placed exactly at, and one past, the lookahead window.
"""

import math

from hypothesis import given, settings, strategies as st

from repro.core import CNOT, H, QuantumCircuit, S, Sdg, T, Tdg, X, Z
from repro.core.gates import RX, RXX, RZ
from repro.devices import get_device, ion_device, linear_device
from repro.optimize import LocalOptimizer, apply_templates, remove_identities
from repro.optimize.phase import emit_phase, gate_exponent, is_phase_gate
from repro.optimize.templates import LOOKAHEAD_WINDOW, WireTimeline


# -- reference: linear-scan matcher -------------------------------------------

def ref_next_on(gates, start, qubits):
    limit = min(len(gates), start + 1 + LOOKAHEAD_WINDOW)
    for j in range(start + 1, limit):
        if not qubits.isdisjoint(gates[j].support):
            return j
    return None


def ref_prev_on(gates, start, qubits):
    floor = max(-1, start - 1 - LOOKAHEAD_WINDOW)
    for j in range(start - 1, floor, -1):
        if not qubits.isdisjoint(gates[j].support):
            return j
    return None


def ref_chain(gates, start, qubits, length):
    indices = [start]
    while len(indices) < length:
        nxt = ref_next_on(gates, indices[-1], qubits)
        if nxt is None:
            return None
        indices.append(nxt)
    return indices


def ref_hadamard_conjugation(gates, index, coupling_map):
    first = gates[index]
    if first.name != "H":
        return None
    qubit = first.qubits[0]
    chain = ref_chain(gates, index, {qubit}, 3)
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


def ref_cnot_unreversal(gates, index, coupling_map):
    anchor = gates[index]
    if anchor.name != "H":
        return None
    a = anchor.qubits[0]
    cnot_at = ref_next_on(gates, index, {a})
    if cnot_at is None:
        return None
    cnot = gates[cnot_at]
    if cnot.name != "CNOT" or a not in cnot.qubits:
        return None
    b = cnot.qubits[0] if cnot.qubits[1] == a else cnot.qubits[1]
    before_b = ref_prev_on(gates, cnot_at, {b})
    if before_b is None or gates[before_b] != H(b):
        return None
    after_a = ref_next_on(gates, cnot_at, {a})
    after_b = ref_next_on(gates, cnot_at, {b})
    if after_a is None or after_b is None or after_a == after_b:
        return None
    if gates[after_a] != H(a) or gates[after_b] != H(b):
        return None
    control, target = cnot.qubits
    if coupling_map is not None and not coupling_map.allows(target, control):
        return None
    return [index, before_b, cnot_at, after_a, after_b], [CNOT(target, control)]


def ref_cnot_x_propagation(gates, index, coupling_map):
    first = gates[index]
    if first.name != "CNOT":
        return None
    a, b = first.qubits
    chain = ref_chain(gates, index, {a, b}, 3)
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


REF_RULES = (ref_hadamard_conjugation, ref_cnot_unreversal, ref_cnot_x_propagation)


def ref_apply_templates(circuit, coupling_map, gate_set):
    gates = list(circuit)
    index = 0
    while index < len(gates):
        matched = None
        for rule in REF_RULES:
            matched = rule(gates, index, coupling_map)
            if matched is not None:
                break
        if matched is not None and gate_set is not None:
            if any(g.name not in gate_set for g in matched[1]):
                matched = None
        if matched is None:
            index += 1
            continue
        consumed, replacement = matched
        consumed_set = set(consumed)
        rebuilt = []
        inserted = False
        for position, gate in enumerate(gates):
            if position in consumed_set:
                if not inserted:
                    rebuilt.extend(replacement)
                    inserted = True
                continue
            rebuilt.append(gate)
        gates = rebuilt
        index = max(0, min(consumed) - LOOKAHEAD_WINDOW)
    return QuantumCircuit._trusted(circuit.num_qubits, gates, name=circuit.name)


# -- reference: phase merging scanning every pending qubit ---------------------

def _z_commutes_through(gate, qubit):
    if gate.is_diagonal:
        return True
    return gate.name in ("CNOT", "TOFFOLI", "MCX") and qubit in gate.controls


def ref_merge_phase_runs(gates, gate_set):
    kept = []
    pending = {}

    def flush(qubit):
        kept.extend(emit_phase(pending.pop(qubit, 0.0), qubit, gate_set))

    for gate in gates:
        if is_phase_gate(gate):
            qubit = gate.qubits[0]
            pending[qubit] = (pending.get(qubit, 0.0) + gate_exponent(gate)) % 8.0
            continue
        for qubit in list(pending):
            if qubit in gate.qubits and not _z_commutes_through(gate, qubit):
                flush(qubit)
        kept.append(gate)
    for qubit in sorted(pending):
        flush(qubit)
    return kept


def ref_merge_phases(circuit, gate_set):
    gates = list(circuit)
    while True:
        merged = ref_merge_phase_runs(gates, gate_set)
        if merged == gates:
            return QuantumCircuit._trusted(circuit.num_qubits, merged, name=circuit.name)
        gates = merged


# -- reference: the round loop with a confirming round -------------------------

def ref_run(circuit, cost_function, coupling_map, gate_set, enable_templates):
    best = circuit
    best_cost = cost_function(best)
    for _ in range(50):
        candidate = remove_identities(best)
        candidate = ref_merge_phases(candidate, gate_set)
        if enable_templates:
            candidate = ref_apply_templates(candidate, coupling_map, gate_set)
            candidate = remove_identities(candidate)
        cost = cost_function(candidate)
        if cost < best_cost:
            best, best_cost = candidate, cost
        else:
            break
    return best


# -- circuits ------------------------------------------------------------------

WIDTH = 5
ONE_QUBIT = (H, X, Z, S, Sdg, T, Tdg)


@st.composite
def clifford_t(draw, rotations=False):
    """Random Clifford+T gates on ``WIDTH`` wires, with templates' partner
    patterns mixed in; ``rotations`` adds RZ/RX/RXX (ion-native) gates."""
    kinds = ["1q", "1q", "cnot", "pattern"] + (["rot"] * 2 if rotations else [])
    wire = st.integers(0, WIDTH - 1)
    gates = []
    for _ in range(draw(st.integers(0, 30))):
        kind = draw(st.sampled_from(kinds))
        if kind == "1q":
            gates.append(draw(st.sampled_from(ONE_QUBIT))(draw(wire)))
            continue
        a = draw(wire)
        b = draw(wire.filter(lambda q: q != a))
        if kind == "cnot":
            gates.append(CNOT(a, b))
        elif kind == "rot":
            angle = draw(st.sampled_from([math.pi / 4, math.pi / 2, 0.3, -1.1]))
            gates.append(draw(st.sampled_from([
                RZ(angle, a), RX(angle, a), RXX(angle, a, b),
            ])))
        else:
            gates.extend(draw(st.sampled_from([
                [H(a), X(a), H(a)],
                [H(a), Z(a), H(a)],
                [H(a), H(b), CNOT(b, a), H(a), H(b)],
                [CNOT(a, b), X(a), CNOT(a, b)],
                [CNOT(a, b), Z(b), CNOT(a, b)],
                [H(a), T(a), T(a), Sdg(a), H(a)],
            ])))
    return gates


#: Edge patterns: (gates before the filler, gates after it, how many
#: positions the lookup spans beyond the filler).  H X H and CNOT X CNOT
#: look ahead from the first gate to the X; the Fig. 6 reversal spans
#: the gap ahead from its first H to the CNOT and back from the CNOT to
#: that H.
EDGE_PATTERNS = {
    "hxh": ([H(0)], [X(0), H(0)], 1),
    "cxc": ([CNOT(0, 1)], [X(0), CNOT(0, 1)], 1),
    "unreversal": ([H(1)], [H(0), CNOT(1, 0), H(0), H(1)], 2),
}


def padded(shape, gap):
    """An edge pattern whose lookup spans exactly ``gap`` positions; the
    filler ``T H`` on the spare wire 4 survives every pass unchanged."""
    first, last, beyond = EDGE_PATTERNS[shape]
    filler = ([T(4), H(4)] * gap)[: gap - beyond]
    return first + filler + last


@st.composite
def at_the_window(draw):
    """Random gates around an edge pattern whose partner sits 64 or 65
    positions from the gate that looks it up."""
    gap = draw(st.sampled_from([LOOKAHEAD_WINDOW, LOOKAHEAD_WINDOW + 1]))
    shape = draw(st.sampled_from(sorted(EDGE_PATTERNS)))
    return draw(clifford_t()) + padded(shape, gap) + draw(clifford_t())


TARGETS = {
    "ibmqx4": get_device("ibmqx4"),
    "line": linear_device(WIDTH),
    "ion": ion_device(WIDTH),
}


def assert_same_output(gates, target, enable_templates):
    device = TARGETS[target]
    circuit = QuantumCircuit(WIDTH, gates, name="random")
    optimizer = LocalOptimizer(
        device.cost_function, device.coupling_map,
        enable_templates=enable_templates, gate_set=device.gate_set,
    )
    out = optimizer.run(circuit)
    expected = ref_run(
        circuit, device.cost_function, device.coupling_map,
        optimizer.gate_set, enable_templates,
    )
    assert out.gates == expected.gates
    assert out.name == expected.name
    assert optimizer.last_report.stopped in ("fixpoint", "rejected")


SETTINGS = settings(max_examples=150, deadline=None)


@SETTINGS
@given(gates=clifford_t(), target=st.sampled_from(["ibmqx4", "line"]),
       enable_templates=st.booleans())
def test_clifford_t_matches_reference(gates, target, enable_templates):
    assert_same_output(gates, target, enable_templates)


@SETTINGS
@given(gates=clifford_t(rotations=True), enable_templates=st.booleans())
def test_ion_gate_set_matches_reference(gates, enable_templates):
    assert_same_output(gates, "ion", enable_templates)


@SETTINGS
@given(gates=at_the_window(), target=st.sampled_from(["ibmqx4", "line"]),
       enable_templates=st.booleans())
def test_partners_at_the_window_edge_match_reference(
    gates, target, enable_templates
):
    assert_same_output(gates, target, enable_templates)


@SETTINGS
@given(gates=st.one_of(clifford_t(), at_the_window()),
       target=st.sampled_from([None, "ibmqx4", "line"]))
def test_one_sweep_matches_linear_scan(gates, target):
    coupling_map = TARGETS[target].coupling_map if target else None
    circuit = QuantumCircuit(WIDTH, gates)
    assert (apply_templates(circuit, coupling_map).gates
            == ref_apply_templates(circuit, coupling_map, None).gates)


@st.composite
def sparse_wires(draw):
    """Gates on wires 0-3 separated by runs of ``T(4)`` filler, the runs
    often just inside or just past the window; returns the gates and the
    positions of the gates on wires 0-3."""
    run = st.one_of(
        st.integers(0, 4),
        st.integers(LOOKAHEAD_WINDOW - 2, LOOKAHEAD_WINDOW + 1),
    )
    gate = st.one_of(
        st.builds(T, st.integers(0, 3)),
        st.builds(CNOT, st.integers(0, 1), st.integers(2, 3)),
    )
    gates, anchors = [], []
    for filler, last in draw(st.lists(st.tuples(run, gate), min_size=1, max_size=6)):
        gates += [T(4)] * filler
        anchors.append(len(gates))
        gates.append(last)
    return gates, anchors


@SETTINGS
@given(sparse=sparse_wires(), data=st.data())
def test_lookups_match_linear_scan(sparse, data):
    """Every neighbour lookup agrees with the scan, near the window edge
    too."""
    gates, anchors = sparse
    line = WireTimeline(gates)
    start = data.draw(st.one_of(
        st.sampled_from(anchors), st.integers(0, len(gates) - 1)
    ))
    qubits = data.draw(st.sets(st.integers(0, WIDTH - 1), min_size=1, max_size=2))
    assert line.next_on(start, qubits) == ref_next_on(gates, start, qubits)
    assert line.prev_on(start, qubits) == ref_prev_on(gates, start, qubits)
    assert line.chain(start, qubits, 3) == ref_chain(gates, start, qubits, 3)


def test_lookups_stop_at_the_window():
    for gap in (LOOKAHEAD_WINDOW, LOOKAHEAD_WINDOW + 1):
        gates = [X(0)] + [T(1)] * (gap - 1) + [X(0)]
        line = WireTimeline(gates)
        inside = gap <= LOOKAHEAD_WINDOW
        assert line.next_on(0, (0,)) == (gap if inside else None)
        assert line.prev_on(gap, (0,)) == (0 if inside else None)


def test_window_edge_is_exercised():
    """A partner 64 positions away is matched, one 65 away is not."""
    for shape in EDGE_PATTERNS:
        inside = QuantumCircuit(WIDTH, padded(shape, LOOKAHEAD_WINDOW))
        outside = QuantumCircuit(WIDTH, padded(shape, LOOKAHEAD_WINDOW + 1))
        assert len(apply_templates(inside)) < len(inside), shape
        assert apply_templates(outside).gates == outside.gates, shape
