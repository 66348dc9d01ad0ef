"""Miter-strategy equivalence checking (repro.qmdd.equivalence).

The miter is a *fast path*, not a different oracle: on every pair the
repo can produce — hand-built cases, the regression corpus, and a
deliberately miscompiled cell — its verdict must match the paper's
two-sided pointer comparison.
"""

import numpy as np
import pytest

from repro.backend import toffoli_network
from repro.core import (
    CNOT,
    MCX,
    SWAP,
    Gate,
    H,
    QMDDError,
    QuantumCircuit,
    TOFFOLI,
    X,
    Z,
)
from repro.qmdd import QMDDManager, check_equivalence, check_equivalence_miter
from repro.verify import verify_equivalent
from tests.conftest import random_circuit


def _both(a, b, **kwargs):
    """(two_sided result, miter result) in independent managers."""
    return (
        check_equivalence(a, b, strategy="two_sided", **kwargs),
        check_equivalence(a, b, strategy="miter", **kwargs),
    )


class TestAgreement:
    def test_equivalent_pair(self):
        a = QuantumCircuit(3, [TOFFOLI(0, 1, 2)])
        b = QuantumCircuit(3, toffoli_network(0, 1, 2))
        two, miter = _both(a, b)
        assert two.exact and miter.exact
        assert two.strategy == "two_sided" and miter.strategy == "miter"

    def test_inequivalent_pair(self):
        c = random_circuit(3, 20, seed=3)
        broken = QuantumCircuit(3, list(c) + [X(1)])
        two, miter = _both(c, broken)
        assert not two.equivalent and not miter.equivalent

    def test_widened_registers(self):
        a = QuantumCircuit(2, [CNOT(0, 1)])
        b = QuantumCircuit(4, [CNOT(0, 1)])  # identity on extra wires
        two, miter = _both(a, b)
        assert two.equivalent and miter.equivalent

    @pytest.mark.parametrize("seed", range(6))
    def test_random_self_pairs(self, seed):
        c = random_circuit(4, 30, seed=seed)
        two, miter = _both(c, c.copy())
        assert two.exact and miter.exact

    @pytest.mark.parametrize("seed", range(6))
    def test_random_near_miss_pairs(self, seed):
        c = random_circuit(4, 30, seed=seed)
        tweaked = QuantumCircuit(4, list(c) + [Z(seed % 4)])
        two, miter = _both(c, tweaked)
        assert two.equivalent == miter.equivalent == False  # noqa: E712

    def test_global_phase_pair(self):
        """Z X = -i Y: phase-only equivalence must look the same through
        both strategies."""
        a = QuantumCircuit(1, [X(0), Z(0)])
        b = QuantumCircuit(1, [Gate("Y", (0,))])
        two, miter = _both(a, b)
        assert two.phase_only and miter.phase_only
        assert not two.equivalent and not miter.equivalent
        two, miter = _both(a, b, up_to_global_phase=True)
        assert two.equivalent and miter.equivalent
        assert not two.exact and not miter.exact


class TestMiterMechanics:
    def test_swaps_factored_reported(self):
        a = QuantumCircuit(3, [CNOT(0, 2)])
        b = QuantumCircuit(3, [SWAP(1, 2), CNOT(0, 1), SWAP(1, 2)])
        result = check_equivalence_miter(a, b)
        assert result.equivalent and result.swaps_factored == 2
        assert check_equivalence(a, b).swaps_factored == 0  # two-sided

    def test_telescoping_keeps_the_product_small(self):
        """For an equivalent pair the running product collapses as it is
        built — with both tables swept down to their live roots, the
        miter's peak stays below the two-sided build's."""
        c = random_circuit(5, 80, seed=2)
        two_manager = QMDDManager(5, gc_node_limit=1)
        miter_manager = QMDDManager(5, gc_node_limit=1)
        two = check_equivalence(c, c.copy(), manager=two_manager)
        miter = check_equivalence_miter(c, c.copy(), manager=miter_manager)
        assert miter.equivalent and two.equivalent
        assert (
            miter_manager.stats()["peak_unique_nodes"]
            < two_manager.stats()["peak_unique_nodes"]
        )

    def test_unknown_strategy_rejected(self):
        c = QuantumCircuit(1, [H(0)])
        with pytest.raises(QMDDError):
            check_equivalence(c, c.copy(), strategy="sideways")

    def test_narrow_manager_rejected(self):
        manager = QMDDManager(2)
        c = QuantumCircuit(3, [X(2)])
        with pytest.raises(QMDDError):
            check_equivalence_miter(c, c.copy(), manager=manager)


def _swap(a, b):
    """SWAP(a, b) as a router emits it: three CNOTs."""
    return [CNOT(a, b), CNOT(b, a), CNOT(a, b)]


def _dense_equal(a, b, width):
    return bool(np.allclose(
        a.widened(width).unitary(), b.widened(width).unitary(), atol=1e-8
    ))


#: (case, width, original gates, mapped gates, expected verdict): each
#: mapped stream moves wires with SWAPs the miter factors out.
LAYOUT_CASES = [
    ("pure_swap", 3, [CNOT(0, 2)],
     _swap(0, 1) + [CNOT(1, 2)] + _swap(0, 1), True),
    ("swap_gate", 3, [CNOT(0, 2)],
     [SWAP(0, 1), CNOT(1, 2), SWAP(0, 1)], True),
    ("dressed_swap", 3, [H(1), CNOT(0, 2), Gate("T", (1,))],
     [H(1)] + _swap(0, 1) + [CNOT(1, 2)] + _swap(0, 1) + [Gate("T", (1,))],
     True),
    ("dressed_swap_wrong_wire", 3, [H(1), CNOT(0, 2), Gate("T", (1,))],
     [H(1)] + _swap(0, 1) + [CNOT(1, 2), Gate("T", (1,))] + _swap(0, 1),
     False),
    ("two_cnot_remnant", 3, [CNOT(0, 1), CNOT(0, 2)],
     [CNOT(1, 0), CNOT(0, 1), CNOT(1, 2)] + _swap(0, 1), True),
    ("toffoli_on_swapped_wires", 4, [TOFFOLI(0, 2, 3)],
     _swap(0, 1) + [TOFFOLI(1, 2, 3)] + _swap(0, 1), True),
    ("toffoli_on_unswapped_wires", 4, [TOFFOLI(0, 2, 3)],
     _swap(0, 1) + [TOFFOLI(0, 2, 3)] + _swap(0, 1), False),
    ("mcx_on_swapped_wires", 6, [MCX(0, 1, 2, 4)],
     _swap(2, 3) + _swap(0, 5) + [MCX(5, 1, 3, 4)] + _swap(0, 5)
     + _swap(2, 3), True),
    ("mcx_target_swapped_away", 6, [MCX(0, 1, 2, 4)],
     _swap(2, 3) + _swap(4, 5) + [MCX(0, 1, 3, 4)] + _swap(4, 5)
     + _swap(2, 3), False),
    ("unmatched_swap_at_end", 3, [CNOT(0, 2)],
     [SWAP(1, 2), CNOT(0, 1)], False),
    ("swap_pair_at_end", 3, [CNOT(0, 2)],
     [SWAP(1, 2), CNOT(0, 1), SWAP(1, 2)], True),
    ("crossing_swaps", 4, [CNOT(0, 3), CNOT(1, 2)],
     _swap(0, 1) + _swap(1, 2) + [CNOT(2, 3), CNOT(0, 1)] + _swap(1, 2)
     + _swap(0, 1), True),
]


class TestLayoutTracking:
    """The miter tracks factored SWAPs as a wire relabelling; every
    verdict must match a dense unitary comparison."""

    @pytest.mark.parametrize(
        "case, width, original, mapped, expected", LAYOUT_CASES,
        ids=[case[0] for case in LAYOUT_CASES],
    )
    def test_verdict_matches_dense(self, case, width, original, mapped,
                                   expected):
        a = QuantumCircuit(width, original)
        b = QuantumCircuit(width, mapped)
        assert _dense_equal(a, b, width) is expected
        result = check_equivalence_miter(a, b)
        assert result.equivalent is expected
        assert result.swaps_factored > 0
        assert check_equivalence(a, b).equivalent is expected

    def test_block_reordered_when_its_pair_flips(self):
        """After SWAP(0,1) the stream pair (0,2) sits on diagram wires
        (1,2) and (1,2) on (0,2) — the block under test lands in the
        opposite order, so its 4x4 must be re-expressed."""
        gates = [CNOT(2, 1), H(1), CNOT(1, 2)]
        a = QuantumCircuit(3, [SWAP(0, 1)] + gates + [SWAP(0, 1)])
        b = QuantumCircuit(3, [CNOT(2, 0), H(0), CNOT(0, 2)])
        assert _dense_equal(a, b, 3)
        assert check_equivalence_miter(a, b).equivalent

    @pytest.mark.parametrize("claim, expected", [
        ({1: 2, 2: 1}, True),
        ({}, False),
        ({0: 1, 1: 0}, False),
        ({0: 2, 1: 0, 2: 1}, False),
    ])
    def test_claimed_output_permutation(self, claim, expected):
        a = QuantumCircuit(3, [H(0), CNOT(0, 2)])
        b = QuantumCircuit(3, [H(0), SWAP(1, 2), CNOT(0, 1)])
        dense = verify_equivalent(
            a, b, method="dense", output_permutation=claim
        )
        report = verify_equivalent(
            a, b, method="qmdd", output_permutation=claim
        )
        assert dense.equivalent is expected
        assert report.equivalent is expected
        assert "agreed equivalent" not in report.detail


def _compiled(route):
    from repro import compile_circuit
    from repro.benchlib import single_target
    from repro.devices import IBMQX4

    circuit = single_target.build_benchmark("000f", 4)
    result = compile_circuit(circuit, IBMQX4, verify=False, route=route)
    source = result.original.remapped(
        result.placement, num_qubits=result.device.num_qubits
    )
    return source, result.optimized, result.output_permutation


def _mutants(mapped):
    """(name, circuit) for the unmutated output, a middle CNOT dropped
    and the first CNOT reversed."""
    gates = list(mapped)
    cnots = [i for i, g in enumerate(gates) if g.name == "CNOT"]
    dropped = gates[:cnots[len(cnots) // 2]] + gates[cnots[len(cnots) // 2] + 1:]
    reversed_ = list(gates)
    first = gates[cnots[0]]
    reversed_[cnots[0]] = CNOT(first.qubits[1], first.qubits[0])
    width = mapped.num_qubits
    return [
        ("as_compiled", mapped),
        ("dropped_cnot", QuantumCircuit(width, dropped)),
        ("reversed_cnot", QuantumCircuit(width, reversed_)),
    ]


def _routed_verdicts():
    """(route, mutant, miter verdict, dense verdict) per output."""
    for route in ("sabre", "ctr"):
        source, mapped, permutation = _compiled(route)
        for name, circuit in _mutants(mapped):
            miter = verify_equivalent(
                source, circuit, method="qmdd",
                output_permutation=permutation,
            )
            dense = verify_equivalent(
                source, circuit, method="dense",
                output_permutation=permutation,
            )
            assert "agreed equivalent" not in miter.detail
            yield route, name, miter.equivalent, dense.equivalent


class TestRoutedMutations:
    def test_mutated_outputs_are_rejected(self):
        verdicts = list(_routed_verdicts())
        assert {route for route, *_ in verdicts} == {"sabre", "ctr"}
        for route, name, miter, dense in verdicts:
            assert miter == dense, (route, name)
            assert miter is (name == "as_compiled"), (route, name)

    def test_verdicts_stable_under_a_tight_gc_limit(self, monkeypatch):
        from repro.qmdd.pool import reset_manager_pool

        default = list(_routed_verdicts())
        monkeypatch.setenv("REPRO_QMDD_GC_LIMIT", "512")
        reset_manager_pool()
        try:
            tight = list(_routed_verdicts())
        finally:
            monkeypatch.delenv("REPRO_QMDD_GC_LIMIT")
            reset_manager_pool()
        assert tight == default


class TestCorpusAgreement:
    """Replay the regression corpus through both strategies."""

    def _compiled_entries(self):
        from repro.batch import CompileJob
        from repro.fuzz.corpus import load_corpus
        from repro.fuzz.harness import build_fuzz_device, resolve_options

        for entry in load_corpus("tests/corpus"):
            device = build_fuzz_device(entry.device)
            options = resolve_options(entry.options)
            yield entry, CompileJob.make(entry.circuit, device, options).run()

    def test_strategies_agree_on_every_corpus_cell(self):
        from repro.fuzz.harness import oracle_check

        checked = 0
        for entry, result in self._compiled_entries():
            miter = oracle_check(result, strategy="miter")
            two = oracle_check(result, strategy="two_sided")
            assert miter.equivalent == two.equivalent, entry.entry_id
            # Historical bugs stay fixed: every cell verifies today.
            assert miter.equivalent, entry.entry_id
            checked += 1
        assert checked > 0, "regression corpus is empty"


class TestInjectedMiscompile:
    def test_miter_catches_a_seeded_miscompile(self, monkeypatch):
        """A deliberately corrupted mapper output (dropped CNOT) must be
        flagged by both strategies — the fast path cannot wave a real
        miscompile through."""
        from repro import compile_circuit
        from repro.benchlib import revlib
        from repro.devices import IBMQX4
        from repro.fuzz.harness import oracle_check

        monkeypatch.setenv("REPRO_FAULT_INJECT", "miscompile:*")
        circuit = revlib.build_benchmark("3_17_14")
        result = compile_circuit(circuit, IBMQX4, verify=False)
        miter = oracle_check(result, strategy="miter")
        two = oracle_check(result, strategy="two_sided")
        assert not miter.equivalent
        assert not two.equivalent
