"""Gate-stream fusion for the miter verification fast path.

The miter equivalence check owns the *whole* concatenated gate stream
(``original.inverse()`` followed by ``mapped``), which licenses
preprocessing a per-circuit canonical build cannot do: consecutive gates
confined to at most two wires are composed into a single 2- or 4-entry
unitary block, and blocks that compose to the identity are dropped
outright.  Mapped circuits are dominated by Toffoli-decomposition
fragments — long {1q, CNOT} runs on one wire pair — so fusion shrinks
the stream by ~4-6x, and every surviving block costs one DD traversal
instead of one per gate (see :meth:`QMDDManager.apply_block`).

Fusion reorders only across *disjoint* supports: a gate joins a block
only while that block is still the most recent toucher of every wire
involved, so any two blocks that share a wire keep their stream order
and the composed product is exactly the product of the original stream.

Routed circuits are full of SWAPs, whole or merged into their
neighbours.  A two-wire block ``B`` whose ``SWAP . B`` needs fewer CNOTs
than ``B`` (Shende, Markov & Bullock's invariant, :func:`_cnot_count`)
is emitted as ``SWAP . B`` with its ``swap`` flag set, so that
``B = SWAP . matrix``; the miter applies the matrix and tracks the SWAP
as a wire relabelling instead of multiplying it into the diagram.  A
pure SWAP block becomes the identity matrix with the flag set.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..core.gates import Gate, gate_matrix

__all__ = ["FusedBlock", "fuse_stream"]

#: Entries below this magnitude are snapped when testing a composed
#: block against the identity (floats accumulate dust under products).
_IDENTITY_ATOL = 1e-12


@dataclass
class FusedBlock:
    """One fused segment of the gate stream.

    ``matrix`` is a nested tuple (2x2 for one wire, 4x4 for a pair, row
    index ``2*bit_first + bit_second`` for the pair case) when the block
    was fused; ``gate`` carries the original gate for segments that
    cannot fuse (3+ qubit gates), in which case ``matrix`` is ``None``.
    When ``swap`` is set the segment's product is ``SWAP . matrix`` on
    its wire pair.
    """

    qubits: Tuple[int, ...]
    matrix: Optional[Tuple[Tuple[complex, ...], ...]]
    gate: Optional[Gate]
    gates_fused: int
    swap: bool = False

    @property
    def is_identity(self) -> bool:
        """True when ``matrix`` is the identity (a flagged block's
        product is then the SWAP alone)."""
        if self.matrix is None:
            return False
        dim = len(self.matrix)
        return all(
            abs(self.matrix[i][j] - (1.0 if i == j else 0.0)) <= _IDENTITY_ATOL
            for i in range(dim)
            for j in range(dim)
        )


def _embed_1q(u: np.ndarray, position: int) -> np.ndarray:
    """Embed a 2x2 into the 4x4 pair basis at ``position`` (0 = the
    first/shallower wire, 1 = the second/deeper wire): ``u (x) I`` or
    ``I (x) u``, written into the two diagonal copies directly."""
    embedded = np.zeros((4, 4), dtype=complex)
    if position == 0:
        embedded[0::2, 0::2] = u
        embedded[1::2, 1::2] = u
    else:
        embedded[:2, :2] = u
        embedded[2:, 2:] = u
    return embedded


def _frozen(matrix: np.ndarray) -> np.ndarray:
    """Mark a cached matrix read-only (blocks never update in place)."""
    matrix.flags.writeable = False
    return matrix


#: Bound of the per-gate matrix caches below (rotation angles make the
#: key space open-ended; the Clifford+T alphabet needs a few dozen).
_MATRIX_CACHE = 4096


@lru_cache(maxsize=_MATRIX_CACHE)
def _gate_1q(name: str, params: Tuple[float, ...]) -> np.ndarray:
    """2x2 matrix of a one-qubit gate."""
    return _frozen(
        np.asarray(gate_matrix(name, params=params or None), dtype=complex)
    )


@lru_cache(maxsize=_MATRIX_CACHE)
def _gate_1q_in_pair(
    name: str, params: Tuple[float, ...], position: int
) -> np.ndarray:
    """4x4 matrix of a one-qubit gate at ``position`` of a wire pair."""
    return _frozen(_embed_1q(_gate_1q(name, params), position))


#: Basis order of a 4x4 after a SWAP of its wires: the |01> and |10>
#: rows (or columns) exchange.
_SWAP_ROWS = (0, 2, 1, 3)


def _swap_order(matrix: np.ndarray) -> np.ndarray:
    """Re-express a 4x4 in the opposite wire order (SWAP . M . SWAP)."""
    return matrix[np.ix_(_SWAP_ROWS, _SWAP_ROWS)]


def reversed_pair(matrix: Tuple[Tuple[complex, ...], ...]):
    """A frozen 4x4 block in the opposite wire order (SWAP . M . SWAP)."""
    return tuple(tuple(matrix[i][j] for j in _SWAP_ROWS) for i in _SWAP_ROWS)


@lru_cache(maxsize=_MATRIX_CACHE)
def _gate_2q(name: str, params: Tuple[float, ...], ordered: bool) -> np.ndarray:
    """4x4 matrix of a 2-qubit gate in the basis of its sorted wire pair;
    ``ordered`` is whether the gate lists its qubits in that order
    (``gate_matrix`` is in listed order: a CNOT's control first)."""
    matrix = np.asarray(gate_matrix(name, 2, params or None), dtype=complex)
    return _frozen(matrix if ordered else _swap_order(matrix))


#: Exact entries of sigma_y (x) sigma_y, the "magic" conjugation of the
#: CNOT-count invariant.
_YY = np.array(
    [[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]], dtype=complex
)
#: Tolerance of the CNOT-count classification.  A misjudged count only
#: costs speed: the block is emitted exactly either way.
_COUNT_ATOL = 1e-8


def _cnot_count(u: np.ndarray) -> int:
    """Fewest CNOTs any circuit for the 4x4 unitary ``u`` needs.

    Shende, Markov & Bullock (PRA 69, 062321): with ``u`` scaled into
    SU(4) and gamma = u YY u^T YY, the count is 0 iff gamma = +-I, 1 iff
    trace(gamma) = 0 and gamma^2 = -I, 2 iff trace(gamma) is real, else 3.
    """
    u = u / np.linalg.det(u) ** 0.25
    gamma = u @ _YY @ u.T @ _YY
    identity = np.eye(4)
    if np.allclose(gamma, identity, atol=_COUNT_ATOL) or np.allclose(
        gamma, -identity, atol=_COUNT_ATOL
    ):
        return 0
    trace = np.trace(gamma)
    if abs(trace) <= _COUNT_ATOL and np.allclose(
        gamma @ gamma, -identity, atol=_COUNT_ATOL
    ):
        return 1
    return 2 if abs(trace.imag) <= _COUNT_ATOL else 3


@lru_cache(maxsize=_MATRIX_CACHE)
def _swap_is_cheaper(matrix: Tuple[Tuple[complex, ...], ...]) -> bool:
    """Whether ``SWAP . matrix`` needs fewer CNOTs than ``matrix``.

    Memoised on the frozen block: a compiled stream has thousands of
    two-wire blocks but a few hundred distinct matrices, and the numpy
    test costs far more than the lookup.
    """
    u = np.array(matrix, dtype=complex)
    return _cnot_count(u[list(_SWAP_ROWS)]) < _cnot_count(u)


class _OpenBlock:
    __slots__ = ("qubits", "matrix", "count")

    def __init__(self, qubits: Tuple[int, ...], matrix: np.ndarray):
        self.qubits = qubits
        self.matrix = matrix
        self.count = 1

    def widen(self, pair: Tuple[int, int]) -> None:
        """Grow a 1-wire block to the given pair (superset of support)."""
        if len(self.qubits) == 2:
            if self.qubits != pair:
                raise ValueError("cannot widen across different pairs")
            return
        position = pair.index(self.qubits[0])
        self.matrix = _embed_1q(self.matrix, position)
        self.qubits = pair

    def absorb(self, gate: Gate) -> None:
        pair = self.qubits
        if gate.num_qubits == 1:
            if len(pair) == 1:
                u = _gate_1q(gate.name, gate.params)
            else:
                u = _gate_1q_in_pair(
                    gate.name, gate.params, pair.index(gate.qubits[0])
                )
        else:
            u = _gate_2q(gate.name, gate.params, gate.qubits == pair)
        self.matrix = u @ self.matrix
        self.count += 1

    def freeze(self) -> FusedBlock:
        matrix = tuple(map(tuple, self.matrix.tolist()))
        return FusedBlock(
            qubits=self.qubits, matrix=matrix, gate=None,
            gates_fused=self.count,
        )


def _factor_swap(block: FusedBlock) -> None:
    """Rewrite a two-wire ``block`` as ``SWAP . (SWAP . B)`` with the
    outer SWAP as its flag when that lowers the CNOT count: a pure row
    permutation, so the product is unchanged to the last bit."""
    if _swap_is_cheaper(block.matrix):
        block.matrix = tuple(block.matrix[row] for row in _SWAP_ROWS)
        block.swap = True


def fuse_stream(gates: Sequence[Gate], drop_identity: bool = True) -> List[FusedBlock]:
    """Fuse a gate stream into maximal <=2-wire blocks.

    Blocks are emitted in creation order, which is stream-consistent:
    a gate may only merge into the *most recent* block touching any of
    its wires, and only when no later block touched any wire of the
    merged support — so two blocks sharing a wire always keep their
    stream order, and reordering happens only across disjoint supports
    (where it is a commutation, not a change of product).

    Blocks whose composed matrix is the identity are dropped when
    ``drop_identity`` (their application would be a no-op, e.g. a
    cancelling CNOT pair the peephole optimizer could not see across
    the miter seam).  Two-wire blocks that are cheaper with a SWAP
    factored out carry it as their ``swap`` flag (see the module
    docstring); a pure SWAP block is kept as a flagged identity.
    """
    blocks: List[Optional[_OpenBlock]] = []
    big_gates = {}  # block index -> FusedBlock for 3+ qubit gates
    last_block = {}  # wire -> index of the most recent block touching it

    def start(gate: Gate) -> None:
        index = len(blocks)
        if gate.num_qubits > 2:
            blocks.append(None)
            big_gates[index] = FusedBlock(
                qubits=tuple(gate.qubits), matrix=None, gate=gate,
                gates_fused=1,
            )
        elif gate.num_qubits == 1:
            matrix = _gate_1q(gate.name, gate.params)
            blocks.append(_OpenBlock((gate.qubits[0],), matrix))
        else:
            pair = tuple(sorted(gate.qubits))
            matrix = _gate_2q(gate.name, gate.params, gate.qubits == pair)
            blocks.append(_OpenBlock(pair, matrix))
        for q in gate.qubits:
            last_block[q] = index

    for gate in gates:
        if gate.name == "I" and gate.num_qubits == 1:
            continue
        if gate.num_qubits > 2:
            start(gate)
            continue
        support = set(gate.qubits)
        touched = [last_block[q] for q in support if q in last_block]
        if touched:
            index = max(touched)
            block = blocks[index]
            if block is not None:
                union = set(block.qubits) | support
                if len(union) <= 2 and all(
                    last_block.get(q, -1) <= index for q in union
                ):
                    if len(union) == 2 and len(block.qubits) == 1:
                        pair = tuple(sorted(union))
                        block.widen(pair)
                        for q in pair:
                            last_block[q] = index
                    block.absorb(gate)
                    for q in support:
                        last_block[q] = index
                    continue
        start(gate)

    result: List[FusedBlock] = []
    for index, block in enumerate(blocks):
        if block is None:
            result.append(big_gates[index])
            continue
        fused = block.freeze()
        if fused.is_identity:
            if drop_identity:
                continue
        elif len(fused.qubits) == 2:
            _factor_swap(fused)
        result.append(fused)
    return result
