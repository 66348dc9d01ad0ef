"""Gate-stream fusion for the miter fast path (repro.qmdd.fusion).

Fusion is a *rewrite of the stream*, so every test's ground truth is the
canonical QMDD: applying the fused blocks must land on the exact same
node object (and weight) as applying the original gates one by one in
the same manager.
"""

import numpy as np
import pytest

from repro.backend import toffoli_network
from repro.core import CNOT, CZ, Gate, H, QuantumCircuit, SWAP, TOFFOLI, X
from repro.qmdd import QMDDManager
from repro.qmdd.fusion import FusedBlock, fuse_stream
from tests.conftest import random_circuit


def _apply_blocks(manager, blocks):
    """Apply fused blocks in place, multiplying each factored-out SWAP
    back in (the miter tracks it as a relabelling instead)."""
    total = manager.identity()
    for block in blocks:
        if block.matrix is None:
            total = manager.apply_gate(total, block.gate)
        elif len(block.qubits) == 1:
            total = manager.apply_single(total, block.matrix, block.qubits[0])
        else:
            total = manager.apply_block(
                total, block.matrix, block.qubits[0], block.qubits[1]
            )
            if block.swap:
                total = manager.apply_swap(total, *block.qubits)
    return total


def _assert_stream_preserved(gates, num_qubits):
    """Fused and unfused builds of the same stream must share a root."""
    manager = QMDDManager(num_qubits)
    reference = manager.circuit_edge(QuantumCircuit(num_qubits, list(gates)))
    fused = _apply_blocks(manager, fuse_stream(list(gates)))
    assert fused.node is reference.node
    assert manager.values.equal(fused.weight, reference.weight)


class TestProductPreservation:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_streams_pointer_exact(self, seed):
        circuit = random_circuit(5, 40, seed=seed)
        _assert_stream_preserved(list(circuit), 5)

    def test_toffoli_network_stream(self):
        _assert_stream_preserved(toffoli_network(0, 1, 2), 3)

    def test_inverse_concatenation_like_the_miter(self):
        circuit = random_circuit(4, 30, seed=99)
        stream = list(circuit.inverse()) + list(circuit)
        manager = QMDDManager(4)
        fused = _apply_blocks(manager, fuse_stream(stream))
        identity = manager.identity()
        assert fused.node is identity.node
        assert manager.values.equal(fused.weight, identity.weight)


class TestOrderingRule:
    def test_no_widen_across_a_later_block(self):
        """Regression: X(0) must not absorb CNOT(0,1) once CNOT(1,2) has
        touched wire 1 — that reorder changes the product."""
        stream = [X(0), CNOT(1, 2), CNOT(0, 1)]
        blocks = fuse_stream(stream)
        assert len(blocks) == 3  # nothing may merge here
        _assert_stream_preserved(stream, 3)

    def test_disjoint_supports_still_merge(self):
        # H(2) commutes past the (0,1) block trivially; the X(0) after
        # it still belongs to the most recent block on wire 0.
        stream = [CNOT(0, 1), H(2), X(0)]
        blocks = fuse_stream(stream)
        assert len(blocks) == 2
        assert sorted(len(b.qubits) for b in blocks) == [1, 2]
        _assert_stream_preserved(stream, 3)

    def test_one_wire_run_fuses_to_one_block(self):
        blocks = fuse_stream([H(0), X(0), H(0)])
        assert len(blocks) == 1
        assert blocks[0].qubits == (0,)
        assert blocks[0].gates_fused == 3
        # H X H = Z
        z = blocks[0].matrix
        assert abs(z[0][0] - 1) < 1e-9 and abs(z[1][1] + 1) < 1e-9

    def test_pair_run_fuses_to_one_block(self):
        stream = [CNOT(0, 1), H(0), CZ(0, 1), SWAP(0, 1), CNOT(1, 0)]
        blocks = fuse_stream(stream)
        assert len(blocks) == 1
        assert blocks[0].qubits == (0, 1)
        assert blocks[0].gates_fused == 5
        _assert_stream_preserved(stream, 2)


class TestIdentityDropping:
    def test_cancelling_pair_is_dropped(self):
        assert fuse_stream([CNOT(0, 1), CNOT(0, 1)]) == []

    def test_drop_identity_false_keeps_the_block(self):
        blocks = fuse_stream([CNOT(0, 1), CNOT(0, 1)], drop_identity=False)
        assert len(blocks) == 1
        assert blocks[0].is_identity
        assert blocks[0].gates_fused == 2

    def test_explicit_identity_gates_vanish(self):
        assert fuse_stream([Gate("I", (0,)), Gate("I", (2,))]) == []

    def test_non_identity_block_is_not_dropped(self):
        blocks = fuse_stream([CNOT(0, 1), CNOT(1, 0)])
        assert len(blocks) == 1
        assert not blocks[0].is_identity


class TestBigGatePassthrough:
    def test_toffoli_is_kept_verbatim(self):
        blocks = fuse_stream([H(0), TOFFOLI(0, 1, 2), H(0)])
        assert len(blocks) == 3
        big = blocks[1]
        assert isinstance(big, FusedBlock)
        assert big.matrix is None
        assert big.gate.name == "TOFFOLI"
        _assert_stream_preserved([H(0), TOFFOLI(0, 1, 2), H(0)], 3)

    def test_big_gate_fences_fusion_on_its_wires(self):
        # The trailing X(1) may not cross the Toffoli back into the
        # leading block.
        stream = [X(1), TOFFOLI(0, 1, 2), X(1)]
        blocks = fuse_stream(stream)
        assert len(blocks) == 3
        _assert_stream_preserved(stream, 3)


class TestCompression:
    def test_mapped_style_stream_fuses_substantially(self):
        """Toffoli decompositions are long {1q, CNOT} runs per wire
        pair — the whole point of the fast path (~4-6 gates/block)."""
        gates = list(toffoli_network(0, 1, 2)) + list(
            toffoli_network(1, 2, 0)
        )
        blocks = fuse_stream(gates)
        fused_gates = sum(b.gates_fused for b in blocks)
        assert fused_gates <= len(gates)
        assert fused_gates / len(blocks) >= 2.0


def _embed(matrix, qubits, num_qubits):
    """Dense ``2^n`` matrix of ``matrix`` acting on ``qubits`` (qubit 0
    most significant, ``qubits[0]`` the block's most significant bit)."""
    dim = 1 << num_qubits
    k = len(qubits)
    out = np.zeros((dim, dim), dtype=complex)
    shifts = [num_qubits - 1 - q for q in qubits]
    for col in range(dim):
        sub_col = 0
        for shift in shifts:
            sub_col = (sub_col << 1) | ((col >> shift) & 1)
        for sub_row in range(1 << k):
            row = col
            for i, shift in enumerate(shifts):
                bit = (sub_row >> (k - 1 - i)) & 1
                row = (row & ~(1 << shift)) | (bit << shift)
            out[row, col] += matrix[sub_row][sub_col]
    return out


class TestFusedMatrices:
    """Every fused block's matrix, multiplied out in stream order, must
    equal the dense product of the original gates within 1e-12."""

    def _check(self, stream, num_qubits):
        reference = QuantumCircuit(num_qubits, list(stream)).unitary()
        total = np.eye(1 << num_qubits, dtype=complex)
        for block in fuse_stream(list(stream), drop_identity=False):
            if block.matrix is None:
                local = QuantumCircuit(num_qubits, [block.gate]).unitary()
            else:
                local = _embed(block.matrix, block.qubits, num_qubits)
                if block.swap:
                    swap = QuantumCircuit(num_qubits, [SWAP(*block.qubits)])
                    local = swap.unitary() @ local
            total = local @ total
        assert np.max(np.abs(total - reference)) <= 1e-12

    @pytest.mark.parametrize("seed", range(8))
    def test_random_clifford_t_streams(self, seed):
        self._check(list(random_circuit(4, 50, seed=seed)), 4)

    def test_one_pair_run_in_both_wire_orders(self):
        stream = [
            H(1), CNOT(1, 0), Gate("T", (0,)), CZ(1, 0), SWAP(1, 0),
            CNOT(0, 1), Gate("SDG", (1,)), Gate("Y", (0,)),
        ]
        blocks = fuse_stream(stream, drop_identity=False)
        assert len(blocks) == 1 and blocks[0].qubits == (0, 1)
        self._check(stream, 2)

    def test_rotations_and_rxx(self):
        import math

        stream = [
            Gate("RX", (0,), (math.pi / 2,)),
            Gate("RXX", (1, 0), (math.pi / 4,)),
            Gate("RZ", (1,), (0.3,)),
            Gate("RY", (0,), (-1.1,)),
            Gate("RXX", (0, 2), (0.7,)),
            Gate("RZ", (2,), (math.pi,)),
        ]
        self._check(stream, 3)

    def test_cached_gate_matrices_are_read_only(self):
        blocks = fuse_stream([H(0), X(0)], drop_identity=False)
        assert blocks[0].matrix is not None
        from repro.qmdd.fusion import _gate_1q

        with pytest.raises(ValueError):
            _gate_1q("H", ())[0, 0] = 0


class TestSwapFactoring:
    @pytest.mark.parametrize("gates, count", [
        ([], 0),
        ([H(0), X(1)], 0),
        ([CNOT(0, 1)], 1),
        ([CZ(0, 1), H(1)], 1),
        ([CNOT(0, 1), CNOT(1, 0)], 2),
        ([SWAP(0, 1)], 3),
    ])
    def test_cnot_count_invariant(self, gates, count):
        from repro.qmdd.fusion import _cnot_count

        u = QuantumCircuit(2, gates).unitary() if gates else np.eye(4)
        assert _cnot_count(np.asarray(u, dtype=complex)) == count

    @pytest.mark.parametrize("seed", range(3))
    def test_generic_unitary_needs_three_cnots(self, seed):
        from repro.qmdd.fusion import _cnot_count

        rng = np.random.default_rng(seed)
        z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        u, _ = np.linalg.qr(z)
        assert _cnot_count(u) == 3

    @pytest.mark.parametrize("stream, flagged", [
        ([SWAP(0, 1)], True),
        ([H(0), SWAP(0, 1), Gate("T", (1,))], True),
        ([CNOT(0, 1), CNOT(1, 0)], True),
        ([CNOT(0, 1)], False),
        ([CNOT(0, 1), H(0), CNOT(0, 1)], False),
    ])
    def test_swap_flag_only_when_cheaper(self, stream, flagged):
        (block,) = fuse_stream(stream)
        assert block.swap is flagged
        _assert_stream_preserved(stream, 2)

    def test_pure_swap_is_a_kept_flagged_identity(self):
        (block,) = fuse_stream([CNOT(0, 1), CNOT(1, 0), CNOT(0, 1)])
        assert block.swap and block.is_identity
