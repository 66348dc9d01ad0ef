"""The QMDD check runs on the wires the circuits touch.

The facade relabels both circuits onto the union of their touched wires
(in physical order) before the miter.  Every verdict must equal the one
on the full register: the reference pads one circuit with an ``H H``
pair on each idle wire, which leaves its function unchanged but makes
every wire touched, so nothing is compacted.
"""

import random

import pytest

from repro.core import CNOT, H, QuantumCircuit, SWAP, T, X, Z
from repro.qmdd import QMDDManager, check_equivalence
from repro.verify import verify_equivalent
from tests.conftest import random_circuit


def _full_register(circuit: QuantumCircuit) -> QuantumCircuit:
    """``circuit`` with an identity ``H H`` on every wire it leaves idle."""
    idle = set(range(circuit.num_qubits)) - set(circuit.used_qubits)
    padding = [gate for q in sorted(idle) for gate in (H(q), H(q))]
    return QuantumCircuit(
        circuit.num_qubits, list(circuit.gates) + padding, name=circuit.name
    )


def _verdicts(original, mapped, **kwargs):
    """(compacted report, full-register report) of the same question."""
    compact = verify_equivalent(original, mapped, method="qmdd", **kwargs)
    full = verify_equivalent(
        original, _full_register(mapped), method="qmdd", **kwargs
    )
    return compact, full


def _sparse_pair(seed: int):
    """A random circuit on a few scattered wires of a wider register and a
    second circuit that is either equal to it (identity pairs inserted,
    some on wires the first never touches) or differs by one gate."""
    rng = random.Random(seed)
    width = rng.randint(8, 13)
    wires = sorted(rng.sample(range(width), rng.randint(3, 5)))
    logical = random_circuit(len(wires), 24, seed=seed)
    relabel = dict(enumerate(wires))
    original = logical.remapped(relabel, width)
    gates = list(original.gates)
    equal = seed % 2 == 0
    if equal:
        for _ in range(3):
            q = rng.randrange(width)
            pair = [H(q), H(q)] if rng.random() < 0.5 else [X(q), X(q)]
            at = rng.randrange(len(gates) + 1)
            gates[at:at] = pair
    else:
        a, b = rng.sample(range(width), 2)
        extra = rng.choice([X(a), Z(a), H(a), CNOT(a, b)])
        gates.insert(rng.randrange(len(gates) + 1), extra)
    return original, QuantumCircuit(width, gates), equal


class TestCompactedVerdicts:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_sparse_pairs_match_full_register(self, seed):
        original, mapped, equal = _sparse_pair(seed)
        compact, full = _verdicts(original, mapped)
        assert compact.method == full.method == "qmdd"
        assert compact.equivalent == full.equivalent == equal
        width = original.num_qubits
        reference = check_equivalence(
            original, mapped, num_qubits=width,
            manager=QMDDManager(width), strategy="miter",
        )
        assert reference.equivalent == equal

    def test_compaction_names_the_wires_it_used(self):
        original = QuantumCircuit(12, [CNOT(1, 7), H(10)])
        report = verify_equivalent(original, original.copy(), method="qmdd")
        assert report.equivalent
        assert "wires=3/11" in report.detail

    def test_gate_on_a_wire_only_one_circuit_touches_is_a_no(self):
        original = QuantumCircuit(10, [H(0), CNOT(0, 8)])
        for extra in (X(4), Z(4), H(4), CNOT(4, 8)):
            mapped = QuantumCircuit(10, list(original.gates) + [extra])
            compact, full = _verdicts(original, mapped)
            assert not compact.equivalent, extra
            assert not full.equivalent, extra

    def test_identity_on_a_wire_only_one_circuit_touches_is_a_yes(self):
        original = QuantumCircuit(10, [H(0), CNOT(0, 8)])
        mapped = QuantumCircuit(10, [H(0), X(4), CNOT(0, 8), X(4)])
        compact, full = _verdicts(original, mapped)
        assert compact.equivalent and full.equivalent

    def test_global_phase_on_an_extra_wire(self):
        original = QuantumCircuit(9, [CNOT(2, 6)])
        # Z X Z X = -I on wire 5: equal up to a global phase only.
        mapped = QuantumCircuit(9, [CNOT(2, 6), Z(5), X(5), Z(5), X(5)])
        compact, full = _verdicts(original, mapped)
        assert not compact.equivalent and not full.equivalent
        compact, full = _verdicts(original, mapped, up_to_global_phase=True)
        assert compact.equivalent and full.equivalent


class TestOutputPermutation:
    def _routed(self):
        """A source on wires {1, 4, 9} of 12 and a 'routed' version whose
        last SWAP leaves wire 4's state on wire 6."""
        original = QuantumCircuit(12, [H(1), CNOT(1, 4), CNOT(4, 9)])
        mapped = QuantumCircuit(
            12, [H(1), CNOT(1, 4), CNOT(4, 9), SWAP(4, 6)]
        )
        return original, mapped

    def test_declared_permutation_is_a_yes(self):
        original, mapped = self._routed()
        permutation = {4: 6, 6: 4}
        compact, full = _verdicts(
            original, mapped, output_permutation=permutation
        )
        assert compact.equivalent and full.equivalent

    def test_missing_or_wrong_permutation_is_a_no(self):
        original, mapped = self._routed()
        for permutation in (None, {4: 7, 7: 4}, {1: 6, 6: 1}):
            compact, full = _verdicts(
                original, mapped, output_permutation=permutation
            )
            assert not compact.equivalent, permutation
            assert not full.equivalent, permutation

    def test_permutation_of_idle_wires_is_still_checked(self):
        """A declared swap of two wires neither circuit touches is false
        (the states never moved); its tail touches them, so compaction
        keeps them and the check says NO."""
        original = QuantumCircuit(8, [CNOT(0, 1)])
        compact, full = _verdicts(
            original, original.copy(), output_permutation={5: 7, 7: 5}
        )
        assert not compact.equivalent and not full.equivalent
        moved = QuantumCircuit(8, [CNOT(0, 1), SWAP(5, 7)])
        compact, full = _verdicts(
            original, moved, output_permutation={5: 7, 7: 5}
        )
        assert compact.equivalent and full.equivalent


class TestKnownZero:
    def _pair(self):
        # The CNOT is inert when wire 2 starts in |0>; the mapped side
        # deleted it (what constant propagation does under that fact).
        original = QuantumCircuit(12, [H(0), CNOT(2, 7), CNOT(0, 9)])
        mapped = QuantumCircuit(12, [H(0), CNOT(0, 9)])
        return original, mapped

    def test_true_fact_gives_a_subspace_yes(self):
        original, mapped = self._pair()
        compact, full = _verdicts(original, mapped, known_zero=[2])
        assert compact.method == full.method == "subspace"
        assert compact.equivalent and full.equivalent

    def test_wrong_fact_stays_a_no(self):
        original, mapped = self._pair()
        for facts in ((), (7,), (9,)):
            compact, full = _verdicts(original, mapped, known_zero=facts)
            assert not compact.equivalent, facts
            assert not full.equivalent, facts


class TestMethodChoice:
    def test_auto_still_uses_the_full_width(self):
        """Two touched wires far apart: the register is 30 wide, so auto
        picks sampled, as before compaction."""
        original = QuantumCircuit(30, [H(0), CNOT(0, 29), T(29)])
        report = verify_equivalent(original, original.copy())
        assert report.method == "sampled"
        assert report.equivalent
