"""Honest accounting of verification rechecks (verify.recheck.*).

A recheck is a *consequence* of one NO verdict, not an independent
check: folding rechecks into ``verify.*_checks`` used to double-count
work and dilute hit-rate dashboards.  These tests pin the split keys.
"""

import pytest

from repro.core import QuantumCircuit, TOFFOLI, X
from repro.backend import toffoli_network
from repro.obs import get_metrics
from repro.verify import verify_equivalent


@pytest.fixture
def counters():
    """Counter deltas for this test only (the registry is process-global)."""
    registry = get_metrics()
    before = dict(registry.snapshot()["counters"])

    def delta(name):
        return registry.counter(name) - before.get(name, 0)

    return delta


class TestPassingCheck:
    def test_counts_one_check_and_no_rechecks(self, counters):
        a = QuantumCircuit(3, [TOFFOLI(0, 1, 2)])
        b = QuantumCircuit(3, toffoli_network(0, 1, 2))
        report = verify_equivalent(a, b, method="qmdd")
        assert report.equivalent
        assert counters("verify.qmdd_checks") == 1
        assert counters("verify.recheck.qmdd_checks") == 0
        assert counters("verify.recheck.dense_checks") == 0
        assert counters("verify.recheck.sampled_checks") == 0


class TestTrueNegative:
    def test_rechecks_count_under_their_own_keys(self, counters):
        a = QuantumCircuit(3, toffoli_network(0, 1, 2))
        b = QuantumCircuit(3, toffoli_network(0, 1, 2) + [X(1)])
        report = verify_equivalent(a, b, method="qmdd", strategy="miter")
        assert not report.equivalent
        # One primary check; the miter NO triggers a two-sided qmdd
        # recheck, then a dense recheck (width 3 <= 10) — all of which
        # land under verify.recheck.*, never under verify.*_checks.
        assert counters("verify.qmdd_checks") == 1
        assert counters("verify.recheck.qmdd_checks") == 1
        assert counters("verify.recheck.dense_checks") == 1
        assert counters("verify.dense_checks") == 0

    def test_recheck_seconds_are_separated_too(self, counters):
        a = QuantumCircuit(3, toffoli_network(0, 1, 2))
        b = QuantumCircuit(3, toffoli_network(0, 1, 2) + [X(1)])
        verify_equivalent(a, b, method="qmdd", strategy="miter")
        assert counters("verify.seconds") > 0
        assert counters("verify.recheck.seconds") > 0

    def test_two_sided_negative_skips_the_qmdd_recheck(self, counters):
        """Only a miter NO gets the two-sided qmdd recheck; a two-sided
        NO goes straight to the independent method."""
        a = QuantumCircuit(3, toffoli_network(0, 1, 2))
        b = QuantumCircuit(3, toffoli_network(0, 1, 2) + [X(1)])
        report = verify_equivalent(a, b, method="qmdd", strategy="two_sided")
        assert not report.equivalent
        assert counters("verify.recheck.qmdd_checks") == 0
        assert counters("verify.recheck.dense_checks") == 1

