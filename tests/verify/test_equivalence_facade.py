"""The verification facade: method selection and verdicts."""

import pytest

from repro.core import (
    CNOT,
    H,
    MCX,
    QuantumCircuit,
    TOFFOLI,
    VerificationError,
    X,
)
from repro.backend import lower_mcx_gates, toffoli_network
from repro.verify import require_equivalent, verify_equivalent


class TestMethodSelection:
    def test_auto_picks_qmdd_when_narrow(self):
        a = QuantumCircuit(3, [TOFFOLI(0, 1, 2)])
        b = QuantumCircuit(3, toffoli_network(0, 1, 2))
        report = verify_equivalent(a, b)
        assert report.method == "qmdd"
        assert report.equivalent

    def test_auto_picks_sampled_when_wide(self):
        gate = MCX(*range(20, 29), 50)
        a = QuantumCircuit(96, [gate])
        b = QuantumCircuit(96, lower_mcx_gates([gate], 96))
        report = verify_equivalent(a, b)
        assert report.method == "sampled"
        assert report.equivalent

    def test_width_shrinks_to_touched_qubits(self):
        """A 32-wide circuit touching 3 qubits still verifies via QMDD."""
        a = QuantumCircuit(32, [TOFFOLI(0, 1, 2)])
        b = QuantumCircuit(32, toffoli_network(0, 1, 2))
        assert verify_equivalent(a, b).method == "qmdd"

    def test_explicit_dense(self):
        a = QuantumCircuit(2, [CNOT(0, 1)])
        report = verify_equivalent(a, a.copy(), method="dense")
        assert report.method == "dense" and report.equivalent

    def test_dense_width_limit(self):
        wide = QuantumCircuit(14, [X(13)])
        with pytest.raises(VerificationError):
            verify_equivalent(wide, wide.copy(), method="dense")

    def test_unknown_method(self):
        c = QuantumCircuit(1, [X(0)])
        with pytest.raises(VerificationError):
            verify_equivalent(c, c, method="oracle")


class TestVerdicts:
    def test_negative_qmdd(self):
        a = QuantumCircuit(2, [CNOT(0, 1)])
        b = QuantumCircuit(2, [CNOT(1, 0)])
        assert not verify_equivalent(a, b)

    def test_negative_sampled(self):
        a = QuantumCircuit(30, [X(0)])
        b = QuantumCircuit(30, [X(1)])
        report = verify_equivalent(a, b, method="sampled", samples=16)
        assert not report.equivalent

    def test_global_phase_option_dense(self):
        from repro.core import Gate, Z

        a = QuantumCircuit(1, [X(0), Z(0)])
        b = QuantumCircuit(1, [Gate("Y", (0,))])
        assert not verify_equivalent(a, b, method="dense")
        assert verify_equivalent(a, b, method="dense", up_to_global_phase=True)

    def test_require_equivalent_raises(self):
        a = QuantumCircuit(1, [X(0)])
        b = QuantumCircuit(1, [H(0)])
        with pytest.raises(VerificationError):
            require_equivalent(a, b)

    def test_require_equivalent_returns_report(self):
        c = QuantumCircuit(1, [X(0)])
        assert require_equivalent(c, c.copy()).equivalent


class TestQmddFalseNegativeRecheck:
    """The facade must recover from a (rare) QMDD false negative by
    independent recheck — and still report true non-equivalence."""

    def _fake_no(self, monkeypatch):
        import repro.verify.equivalence as eq

        class FakeResult:
            equivalent = False
            exact = False
            phase_only = False
            nodes_first = 1
            nodes_second = 1
            shared_root = False
            swaps_factored = 0

        monkeypatch.setattr(eq, "qmdd_check", lambda *a, **k: FakeResult())

    def test_recheck_rescues_equal_small_circuits(self, monkeypatch):
        self._fake_no(monkeypatch)
        c = QuantumCircuit(2, [CNOT(0, 1), H(0)])
        report = verify_equivalent(c, c.copy(), method="qmdd")
        assert report.equivalent
        assert "recheck:dense" in report.detail

    def test_sampled_recheck_cannot_overturn_a_wide_no(self, monkeypatch):
        """Beyond the dense limit the recheck only samples inputs: its
        agreement is recorded, but a complete NO stands."""
        self._fake_no(monkeypatch)
        gate = MCX(*range(9), 20)
        from repro.backend import lower_mcx_gates

        a = QuantumCircuit(96, [gate])
        b = QuantumCircuit(96, lower_mcx_gates([gate], 96))
        report = verify_equivalent(a, b, method="qmdd")
        assert not report.equivalent
        assert "recheck:sampled agreed on 32 samples" in report.detail

    def test_recheck_confirms_true_negatives(self, monkeypatch):
        self._fake_no(monkeypatch)
        a = QuantumCircuit(2, [CNOT(0, 1)])
        b = QuantumCircuit(2, [CNOT(1, 0)])
        report = verify_equivalent(a, b, method="qmdd")
        assert not report.equivalent
