"""Phase-run merging tests (T T -> S, etc.)."""

import numpy as np
import pytest

from repro.core import CNOT, SWAP, Gate, H, QuantumCircuit, S, Sdg, T, Tdg, X, Z
from repro.optimize import merge_phase_runs, merge_phases
from repro.optimize.phase import (
    EXPONENT_GATES,
    PHASE_EXPONENT,
    is_phase_gate,
    merged_phase_gates,
    single_gate_for,
)


class TestPhaseAlgebra:
    def test_exponents(self):
        assert PHASE_EXPONENT["T"] == 1
        assert PHASE_EXPONENT["S"] == 2
        assert PHASE_EXPONENT["Z"] == 4
        assert PHASE_EXPONENT["SDG"] == 6
        assert PHASE_EXPONENT["TDG"] == 7

    def test_single_gate_for(self):
        assert single_gate_for(0) is None
        assert single_gate_for(1) == "T"
        assert single_gate_for(8) is None  # wraps to identity
        assert single_gate_for(9) == "T"
        assert single_gate_for(-1) == "TDG"

    def test_merged_phase_gates_matrices(self):
        """Every exponent's emitted gate sequence realizes exactly that
        Z-rotation (phase-exact)."""
        import cmath

        for exponent in range(8):
            gates = merged_phase_gates(exponent, 0)
            c = QuantumCircuit(1, gates)
            u = c.unitary() if gates else np.eye(2)
            wanted = np.diag([1, cmath.exp(1j * cmath.pi * exponent / 4)])
            assert np.allclose(u, wanted), exponent

    def test_is_phase_gate(self):
        assert is_phase_gate(T(0))
        assert is_phase_gate(Z(3))
        assert not is_phase_gate(H(0))
        assert not is_phase_gate(X(0))


class TestMerging:
    def test_t_t_becomes_s(self):
        assert merge_phase_runs([T(0), T(0)]) == [S(0)]

    def test_s_s_becomes_z(self):
        assert merge_phase_runs([S(0), S(0)]) == [Z(0)]

    def test_t_tdg_cancels(self):
        assert merge_phase_runs([T(0), Tdg(0)]) == []

    def test_z_s_becomes_sdg_exactly(self):
        assert merge_phase_runs([Z(0), S(0)]) == [Sdg(0)]

    def test_flush_keeps_first_pending_order(self):
        # A two-qubit gate flushes its pending wires in the order they
        # became pending, not in wire order.
        assert merge_phase_runs([T(1), T(0), SWAP(0, 1)]) == [
            T(1), T(0), SWAP(0, 1),
        ]
        assert merge_phase_runs([T(0), T(1), SWAP(0, 1)]) == [
            T(0), T(1), SWAP(0, 1),
        ]

    def test_reflushed_wire_goes_to_the_back(self):
        # Wire 0 flushes at the H and becomes pending again after wire 1.
        gates = [T(0), T(1), H(0), T(0), SWAP(0, 1)]
        assert merge_phase_runs(gates) == [T(0), H(0), T(1), T(0), SWAP(0, 1)]

    def test_t_s_survives_as_two_gates(self):
        merged = merge_phase_runs([T(0), S(0)])
        assert [g.name for g in merged] == ["S", "T"]

    def test_long_run_collapses(self):
        # 8 T gates = identity
        assert merge_phase_runs([T(0)] * 8) == []
        # 3 S = S Z -> SDG
        assert merge_phase_runs([S(0)] * 3) == [Sdg(0)]

    def test_runs_on_distinct_qubits_independent(self):
        merged = merge_phase_runs([T(0), T(1), T(0), T(1)])
        assert sorted(g.qubits[0] for g in merged) == [0, 1]
        assert all(g.name == "S" for g in merged)

    def test_merge_across_cnot_control(self):
        merged = merge_phase_runs([T(0), CNOT(0, 1), T(0)])
        names = [(g.name, g.qubits) for g in merged]
        assert ("CNOT", (0, 1)) in names
        assert ("S", (0,)) in names
        assert len(merged) == 2

    def test_no_merge_across_cnot_target(self):
        merged = merge_phase_runs([T(1), CNOT(0, 1), T(1)])
        assert len(merged) == 3

    def test_no_merge_across_hadamard(self):
        merged = merge_phase_runs([T(0), H(0), T(0)])
        assert [g.name for g in merged] == ["T", "H", "T"]


class TestMergePhasesFixpoint:
    def test_preserves_unitary(self):
        gates = [T(0), CNOT(0, 1), T(0), S(1), H(0), Z(1), S(1), T(0)]
        c = QuantumCircuit(2, gates)
        merged = merge_phases(c)
        assert np.allclose(merged.unitary(), c.unitary())

    def test_reduces_t_count(self):
        c = QuantumCircuit(1, [T(0), T(0), T(0), T(0)])
        merged = merge_phases(c)
        assert merged.t_count == 0
        assert merged.gates == (Z(0),)

    def test_idempotent(self):
        c = QuantumCircuit(2, [T(0), S(1), CNOT(0, 1)])
        assert merge_phases(merge_phases(c)) == merge_phases(c)

    def test_empty_circuit(self):
        assert len(merge_phases(QuantumCircuit(3))) == 0
