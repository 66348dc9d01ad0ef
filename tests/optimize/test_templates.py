"""Circuit-identity template rewrites."""

import numpy as np

from repro.core import CNOT, H, QuantumCircuit, S, T, X, Z
from repro.devices import CouplingMap
from repro.optimize import apply_templates
from repro.optimize.templates import (
    WireTimeline,
    rule_cnot_unreversal,
    rule_cnot_x_propagation,
    rule_hadamard_conjugation,
)


class TestHadamardConjugation:
    def test_hxh_becomes_z(self):
        c = QuantumCircuit(1, [H(0), X(0), H(0)])
        out = apply_templates(c)
        assert out.gates == (Z(0),)

    def test_hzh_becomes_x(self):
        c = QuantumCircuit(1, [H(0), Z(0), H(0)])
        out = apply_templates(c)
        assert out.gates == (X(0),)

    def test_fires_across_disjoint_gates(self):
        c = QuantumCircuit(2, [H(0), T(1), X(0), T(1), H(0)])
        out = apply_templates(c)
        assert out.count("Z") == 1
        assert out.count("H") == 0
        assert np.allclose(out.unitary(), c.unitary())

    def test_blocked_by_intervening_gate_on_qubit(self):
        c = QuantumCircuit(2, [H(0), CNOT(0, 1), X(0), H(0)])
        out = apply_templates(c)
        assert out.count("H") == 2  # no rewrite

    def test_hth_not_rewritten(self):
        c = QuantumCircuit(1, [H(0), T(0), H(0)])
        assert apply_templates(c).gates == c.gates


class TestCnotUnreversal:
    def test_unreversal_without_device(self):
        reversed_form = [H(0), H(1), CNOT(1, 0), H(0), H(1)]
        c = QuantumCircuit(2, reversed_form)
        out = apply_templates(c)
        assert out.gates == (CNOT(0, 1),)
        assert np.allclose(out.unitary(), c.unitary())

    def test_unreversal_respects_coupling_map(self):
        # Only 1->0 exists: collapsing to CNOT(0,1) would be illegal.
        one_way = CouplingMap(2, {1: [0]})
        reversed_form = [H(0), H(1), CNOT(1, 0), H(0), H(1)]
        c = QuantumCircuit(2, reversed_form)
        out = apply_templates(c, coupling_map=one_way)
        assert out.gates == tuple(reversed_form)

    def test_unreversal_fires_when_legal(self):
        both = CouplingMap(2, {0: [1], 1: [0]})
        c = QuantumCircuit(2, [H(0), H(1), CNOT(1, 0), H(0), H(1)])
        out = apply_templates(c, coupling_map=both)
        assert out.gates == (CNOT(0, 1),)

    def test_h_order_before_cnot_irrelevant(self):
        c = QuantumCircuit(2, [H(1), H(0), CNOT(1, 0), H(1), H(0)])
        out = apply_templates(c)
        assert out.gates == (CNOT(0, 1),)


class TestCnotXPropagation:
    def test_control_x_propagates(self):
        c = QuantumCircuit(2, [CNOT(0, 1), X(0), CNOT(0, 1)])
        out = apply_templates(c)
        assert sorted(g.name for g in out) == ["X", "X"]
        assert np.allclose(out.unitary(), c.unitary())

    def test_target_z_propagates(self):
        c = QuantumCircuit(2, [CNOT(0, 1), Z(1), CNOT(0, 1)])
        out = apply_templates(c)
        assert sorted(g.name for g in out) == ["Z", "Z"]
        assert np.allclose(out.unitary(), c.unitary())

    def test_x_on_target_not_matched_by_this_rule(self):
        gates = [CNOT(0, 1), X(1), CNOT(0, 1)]
        match = rule_cnot_x_propagation(WireTimeline(gates), 0, None)
        assert match is None


class TestEngine:
    def test_cascaded_rewrites(self):
        # H X H -> Z, then CNOT Z(target) CNOT -> Z Z
        c = QuantumCircuit(
            2, [CNOT(0, 1), H(1), X(1), H(1), CNOT(0, 1)]
        )
        out = apply_templates(c)
        assert out.count("CNOT") == 0
        assert np.allclose(out.unitary(), c.unitary())

    def test_custom_rule_fires(self):
        # A user rule: T T on one wire (adjacent on that wire) -> S.
        def rule_t_pair(line, index, coupling_map=None):
            first = line.gates[index]
            if first.name != "T":
                return None
            partner = line.next_on(index, first.qubits)
            if partner is None or line.gates[partner] != first:
                return None
            return [index, partner], [S(first.qubits[0])]

        c = QuantumCircuit(2, [T(0), CNOT(1, 0), T(1), X(0), T(1)])
        out = apply_templates(c, rules=(rule_t_pair,))
        assert out.gates == (T(0), CNOT(1, 0), S(1), X(0))
        assert np.allclose(out.unitary(), c.unitary())

    def test_no_match_returns_equal_circuit(self):
        c = QuantumCircuit(2, [T(0), CNOT(0, 1)])
        assert apply_templates(c).gates == c.gates

    def test_rules_return_none_out_of_pattern(self):
        line = WireTimeline([T(0)])
        assert rule_hadamard_conjugation(line, 0, None) is None
        assert rule_cnot_unreversal(line, 0, None) is None
        assert rule_cnot_x_propagation(line, 0, None) is None


class TestGateSetRestriction:
    """Template/merge emission must respect a restricted device library."""

    def test_templates_skip_out_of_library_rewrites(self):
        from repro.core import H, QuantumCircuit, X
        from repro.optimize import apply_templates

        ion_set = {"RX", "RY", "RZ", "RXX", "I"}
        c = QuantumCircuit(1, [H(0), X(0), H(0)])
        out = apply_templates(c, gate_set=ion_set)
        assert out.gates == c.gates  # H X H -> Z suppressed (Z not in set)

    def test_merge_emits_rz_when_discrete_missing(self):
        from repro.core import QuantumCircuit, T
        from repro.optimize import merge_phases

        ion_set = {"RX", "RY", "RZ", "RXX", "I"}
        c = QuantumCircuit(1, [T(0), T(0)])
        merged = merge_phases(c, ion_set)
        assert len(merged) == 1
        assert merged[0].name == "RZ"

    def test_merge_emits_discrete_when_allowed(self):
        from repro.core import QuantumCircuit, S, T
        from repro.optimize import merge_phases

        transmon = {"T", "TDG", "S", "SDG", "Z", "RZ"}
        c = QuantumCircuit(1, [T(0), T(0)])
        assert merge_phases(c, transmon).gates == (S(0),)
