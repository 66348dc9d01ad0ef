"""The cost-guarded fixpoint optimizer."""

import numpy as np
import pytest

from repro.core import (
    CNOT,
    CostFunction,
    H,
    QuantumCircuit,
    Sdg,
    T,
    TOFFOLI,
    TRANSMON_COST,
    Tdg,
    X,
    transmon_cost,
)
from repro.backend import map_circuit
from repro.devices import IBMQX4, linear_device
from repro.optimize import LocalOptimizer, optimize_circuit


class TestBasics:
    def test_empty_circuit(self):
        out = optimize_circuit(QuantumCircuit(3))
        assert len(out) == 0

    def test_already_optimal_unchanged(self):
        c = QuantumCircuit(2, [H(0), CNOT(0, 1)])
        assert optimize_circuit(c).gates == c.gates

    def test_identity_block_removed(self):
        c = QuantumCircuit(2, [H(0), H(0), CNOT(0, 1), CNOT(0, 1), T(1), Tdg(1)])
        out = optimize_circuit(c)
        assert len(out) == 0

    def test_never_increases_cost(self):
        c = QuantumCircuit(3, [H(0), T(1), CNOT(0, 2), X(1)])
        out = optimize_circuit(c)
        assert transmon_cost(out) <= transmon_cost(c)

    def test_preserves_unitary(self):
        gates = [H(0), H(0), T(1), T(1), CNOT(0, 1), X(2), X(2), CNOT(0, 1)]
        c = QuantumCircuit(3, gates)
        out = optimize_circuit(c)
        assert np.allclose(out.unitary(), c.unitary())


class TestReport:
    def test_report_records_trace(self):
        optimizer = LocalOptimizer()
        c = QuantumCircuit(1, [H(0), H(0), T(0), T(0)])
        optimizer.run(c)
        report = optimizer.last_report
        assert report is not None
        assert report.initial_cost > report.final_cost
        assert report.percent_decrease > 0
        assert report.cost_trace[0] == report.initial_cost

    def test_report_zero_cost_percent(self):
        optimizer = LocalOptimizer()
        optimizer.run(QuantumCircuit(1))
        assert optimizer.last_report.percent_decrease == 0.0


class TestCostGuard:
    def test_hostile_cost_function_never_worsens(self):
        """A cost that *rewards* more gates: the optimizer must return a
        circuit no worse than the input under that metric."""
        hostile = CostFunction(name="hostile", custom=lambda c: -float(len(c)))
        c = QuantumCircuit(1, [H(0), H(0)])
        out = LocalOptimizer(cost_function=hostile).run(c)
        assert hostile(out) <= hostile(c)

    def test_max_rounds_respected(self):
        optimizer = LocalOptimizer(max_rounds=1)
        c = QuantumCircuit(1, [H(0), H(0)])
        optimizer.run(c)
        assert optimizer.last_report.rounds <= 1


class TestStopping:
    def test_fixpoint_needs_no_confirming_round(self):
        # One round cancels H H and leaves a fixpoint of every pass.
        optimizer = LocalOptimizer()
        out = optimizer.run(QuantumCircuit(1, [H(0), H(0), T(0)]))
        assert out.gates == (T(0),)
        assert optimizer.last_report.stopped == "fixpoint"
        assert optimizer.last_report.rounds == 1

    def test_round_without_gain_is_rejected(self):
        optimizer = LocalOptimizer()
        optimizer.run(QuantumCircuit(2, [H(0), CNOT(0, 1)]))
        assert optimizer.last_report.stopped == "rejected"
        assert optimizer.last_report.rounds == 1

    def test_merge_reopens_cancellation(self):
        # T T S† merges away, leaving H H for the next round to cancel.
        optimizer = LocalOptimizer(enable_templates=False)
        out = optimizer.run(QuantumCircuit(1, [H(0), T(0), T(0), Sdg(0), H(0)]))
        assert len(out) == 0
        assert optimizer.last_report.stopped == "fixpoint"
        assert optimizer.last_report.rounds == 2

    def test_template_rewrite_is_confirmed_by_another_round(self):
        # H X H -> Z is one template sweep, not a proven fixpoint of it.
        optimizer = LocalOptimizer()
        out = optimizer.run(QuantumCircuit(1, [H(0), X(0), H(0)]))
        assert out.count("Z") == 1
        assert optimizer.last_report.stopped == "rejected"
        assert optimizer.last_report.rounds == 2
        capped = LocalOptimizer(max_rounds=1)
        assert capped.run(QuantumCircuit(1, [H(0), X(0), H(0)])) == out
        assert capped.last_report.stopped == "max_rounds"


class TestMappedCircuits:
    def test_mapped_toffoli_improves(self):
        c = QuantumCircuit(3, [TOFFOLI(0, 1, 2)])
        mapped = map_circuit(c, IBMQX4)
        optimizer = LocalOptimizer(coupling_map=IBMQX4.coupling_map)
        out = optimizer.run(mapped)
        assert transmon_cost(out) < transmon_cost(mapped)
        # and conformance still holds
        from repro.backend import check_conformance

        assert check_conformance(out, IBMQX4) == []

    def test_optimized_mapped_circuit_equivalent(self):
        chain = linear_device(5)
        c = QuantumCircuit(5, [TOFFOLI(0, 2, 4), CNOT(4, 0)])
        mapped = map_circuit(c, chain)
        out = LocalOptimizer(coupling_map=chain.coupling_map).run(mapped)
        assert np.allclose(out.unitary(), c.unitary())

    def test_templates_can_be_disabled(self):
        c = QuantumCircuit(1, [H(0), X(0), H(0)])
        out = LocalOptimizer(enable_templates=False).run(c)
        assert out.count("Z") == 0  # conjugation rule never fired
