"""Bounded-lookback cancellation: window semantics and scaling.

The commutation walk in :func:`cancel_inverse_pairs` is bounded by a
window counted in *same-support* gates.  These tests pin the semantics
(a small window refuses long-range cancellations; the default window
finds them) and the performance contract (a pathological all-commuting
cascade sweeps in near-linear time instead of quadratic).
"""

import time

from repro import CNOT, H, QuantumCircuit, T
from repro.optimize import cancel_inverse_pairs, remove_identities
from repro.optimize.cancellation import LOOKBACK_WINDOW


def separated_pair():
    """CNOT(0,1) ... CNOT(0,1) with two commuting CNOTs in between.

    The outer pair only cancels if the walk may commute through two
    same-support gates (shared control => commuting).
    """
    return [CNOT(0, 1), CNOT(0, 2), CNOT(0, 3), CNOT(0, 1)]


class TestWindowSemantics:
    def test_default_window_is_advertised(self):
        assert LOOKBACK_WINDOW == 128

    def test_small_window_blocks_long_range_cancellation(self):
        gates = separated_pair()
        assert cancel_inverse_pairs(gates, lookback=1) == gates

    def test_sufficient_window_cancels(self):
        assert cancel_inverse_pairs(separated_pair(), lookback=3) == [
            CNOT(0, 2),
            CNOT(0, 3),
        ]

    def test_default_window_cancels(self):
        assert cancel_inverse_pairs(separated_pair()) == [
            CNOT(0, 2),
            CNOT(0, 3),
        ]

    def test_zero_window_disables_cancellation(self):
        gates = [H(0), H(0)]
        assert cancel_inverse_pairs(gates, lookback=0) == gates

    def test_adjacent_pairs_cancel_even_with_window_one(self):
        assert cancel_inverse_pairs([H(0), H(0)], lookback=1) == []

    def test_window_counts_same_support_gates_only(self):
        # 60 unrelated gates interleave, but only ONE same-support gate
        # separates the pair — a window of 2 must still find it.
        gates = [CNOT(0, 1)]
        gates += [H(q) for q in range(2, 62)]
        gates += [CNOT(0, 2), CNOT(0, 1)]
        reduced = cancel_inverse_pairs(gates, lookback=2)
        assert CNOT(0, 1) not in reduced
        assert len(reduced) == 61

    def test_remove_identities_accepts_lookback(self):
        circuit = QuantumCircuit(4, separated_pair())
        assert len(remove_identities(circuit, lookback=1)) == 4
        assert len(remove_identities(circuit, lookback=3)) == 2


class TestNearLinearSweep:
    def test_all_commuting_cascade_is_fast(self):
        # 3000 mutually-commuting, never-canceling gates on one qubit is
        # the worst case for the walk: every gate commutes back through
        # the whole kept cascade.  The window caps each walk, so a sweep
        # does O(n * window) memoized verdict lookups — well under a
        # second — instead of O(n^2) re-derivations.
        n = 3000
        gates = [T(0)] * n
        started = time.perf_counter()
        reduced = cancel_inverse_pairs(gates)
        elapsed = time.perf_counter() - started
        assert len(reduced) == n  # nothing cancels, nothing lost
        assert elapsed < 2.0, f"sweep took {elapsed:.2f}s; window not bounding"

    def test_interleaved_qubits_do_not_slow_the_walk(self):
        # Same cascade spread across 50 qubits: per-qubit indexing means
        # disjoint gates are never visited, so this is just as fast.
        n = 3000
        gates = [T(i % 50) for i in range(n)]
        started = time.perf_counter()
        reduced = cancel_inverse_pairs(gates)
        elapsed = time.perf_counter() - started
        assert len(reduced) == n
        assert elapsed < 2.0
