"""QMDD-based formal equivalence checking (Sections 2.4 and 4).

Because the QMDD of a matrix is canonical for a fixed variable order,
checking whether two circuits implement the same function reduces to
building both diagrams in one manager and comparing root edges: equal
functions share the same node object ("the pointers ... will match").

Two notions of equality are offered:

* **exact** — same node and same root weight: the transfer matrices are
  identical, including global phase.  This is what the paper's compiler
  requires (its rewrites are all phase-exact).
* **up to global phase** — same node and root weights of equal magnitude:
  the matrices differ by ``e^(i*theta)``, which is unobservable.

The default check is the miter (:func:`check_equivalence_miter`): one
running product over ``first.inverse() + second`` that telescopes to the
identity for an equivalent pair.  SWAPs in the fused stream — a routed
circuit's wire moves and the tail that undoes its final layout — are
kept outside the diagram as a wire relabelling, so the product does not
carry the router's permutation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..core.circuit import QuantumCircuit
from ..core.exceptions import QMDDError
from ..core.gates import Gate
from .fusion import fuse_stream, reversed_pair
from .manager import QMDDManager
from .structure import Edge, count_nodes


@dataclass(frozen=True)
class EquivalenceResult:
    """Outcome of a QMDD equivalence check, with diagnostics."""

    equivalent: bool
    exact: bool
    phase_only: bool  # equal up to a (non-trivial) global phase
    nodes_first: int
    nodes_second: int
    shared_root: bool
    #: How the verdict was computed: ``"two_sided"`` (both diagrams
    #: built and roots compared) or ``"miter"`` (one running product
    #: tested against the identity).
    strategy: str = "two_sided"
    #: SWAPs the miter tracked as a wire relabelling instead of
    #: multiplying them into its product (0 for two-sided checks).
    swaps_factored: int = 0

    def __bool__(self) -> bool:
        return self.equivalent


def check_equivalence(
    first: QuantumCircuit,
    second: QuantumCircuit,
    num_qubits: Optional[int] = None,
    up_to_global_phase: bool = False,
    manager: Optional[QMDDManager] = None,
    strategy: str = "two_sided",
) -> EquivalenceResult:
    """Build both circuits' QMDDs in one manager and compare root edges.

    ``num_qubits`` widens both circuits into a common register (a mapped
    circuit typically uses more physical wires than its logical source;
    the extra wires must act as the identity, which this check enforces
    automatically because the source is embedded with identity on them).

    ``strategy="miter"`` dispatches to :func:`check_equivalence_miter`
    instead of the two-sided build.
    """
    if strategy == "miter":
        return check_equivalence_miter(
            first, second, num_qubits=num_qubits,
            up_to_global_phase=up_to_global_phase, manager=manager,
        )
    if strategy != "two_sided":
        raise QMDDError(f"unknown equivalence strategy {strategy!r}")
    width = num_qubits or max(first.num_qubits, second.num_qubits)
    if manager is None:
        manager = QMDDManager(width)
    elif manager.num_qubits < width:
        raise QMDDError("supplied manager is narrower than the circuits")
    edge_a = manager.circuit_edge(first.widened(manager.num_qubits))
    # The first diagram must survive any mid-build GC sweep of the
    # second, or the pointer comparison below would see a fresh node.
    edge_b = manager.circuit_edge(
        second.widened(manager.num_qubits), extra_roots=(edge_a,)
    )
    return compare_edges(manager, edge_a, edge_b, up_to_global_phase)


def check_equivalence_miter(
    first: QuantumCircuit,
    second: QuantumCircuit,
    num_qubits: Optional[int] = None,
    up_to_global_phase: bool = False,
    manager: Optional[QMDDManager] = None,
) -> EquivalenceResult:
    """Miter-style incremental equivalence: one running product over the
    concatenated stream ``first.inverse() + second``, tested against the
    cached identity edge.

    Applying the inverted original *first* makes the product telescope:
    after the mapped prefix has reproduced the first j original gates,
    the product is the remaining original suffix, so intermediate
    diagrams stay near-linear in the circuit width instead of tracking
    two full circuit DDs.

    Because the miter owns the whole stream, it can preprocess it in
    ways a per-circuit canonical build cannot: the stream is fused into
    <=2-wire blocks (:func:`~repro.qmdd.fusion.fuse_stream`) — mapped
    circuits decompose into long {1q, CNOT} runs per wire pair, so one
    :meth:`~repro.qmdd.manager.QMDDManager.apply_block` traversal
    replaces ~4-6 per-gate traversals, and blocks that compose to the
    identity (cancellations invisible to the per-circuit peephole, e.g.
    across the miter seam) are skipped outright.

    The routing permutation stays out of the diagram.  The true product
    is ``Pi . D``: ``D`` is the diagram built here and ``Pi`` a wire
    permutation kept as ``sigma`` (stream wire -> diagram wire).  Every
    block is applied on its ``sigma``-relabelled wires (a pair that
    flips order is re-expressed as ``SWAP . M . SWAP``), and a block
    fused with its SWAP factored out (``block.swap``) exchanges two
    entries of ``sigma`` instead of multiplying the SWAP in — so a
    routed circuit's product telescopes as if it had never been
    routed.  At the end at most n-1 SWAPs fold what is left of ``Pi``
    into ``D``.  Every step is a row or column permutation of an exact
    factorization, so the verdict is the one the plain product gives.

    The final comparison is the same pointer test as the two-sided
    build: the product's root must be the identity node with weight 1
    (or unit magnitude when checking up to a global phase).

    When the manager has a ``gc_node_limit``, the unique table is swept
    between blocks with the running product as the only live root, so a
    deep inequivalent pair cannot grow the table without bound.
    """
    width = num_qubits or max(first.num_qubits, second.num_qubits)
    if manager is None:
        manager = QMDDManager(width)
    elif manager.num_qubits < width:
        raise QMDDError("supplied manager is narrower than the circuits")
    width = manager.num_qubits
    gates = list(first.widened(width).inverse()) + list(second.widened(width))
    gc_armed = manager.gc_node_limit is not None
    total = manager.identity()
    sigma = list(range(width))
    swaps = 0
    for block in fuse_stream(gates):
        if block.matrix is None:
            gate = block.gate
            total = manager.apply_gate(total, Gate._trusted(
                gate.name, tuple(sigma[q] for q in gate.qubits), gate.params
            ))
        elif len(block.qubits) == 1:
            total = manager.apply_single(
                total, block.matrix, sigma[block.qubits[0]]
            )
        else:
            p, q = block.qubits
            if not (block.swap and block.is_identity):
                a, b = sigma[p], sigma[q]
                if a < b:
                    total = manager.apply_block(total, block.matrix, a, b)
                else:
                    total = manager.apply_block(
                        total, reversed_pair(block.matrix), b, a
                    )
            if block.swap:
                sigma[p], sigma[q] = sigma[q], sigma[p]
                swaps += 1
        if gc_armed:
            manager.maybe_collect((total,))
    # Fold the leftover permutation in: SWAP(sigma[w], w) on the diagram
    # puts stream wire w back on diagram wire w.
    for wire in range(width):
        held = sigma[wire]
        if held != wire:
            total = manager.apply_swap(total, held, wire)
            sigma[sigma.index(wire)] = held
            sigma[wire] = wire
    nodes = count_nodes(total)
    identity = manager.identity()
    shared = total.node is identity.node
    tolerance = manager.values.tolerance
    exact = shared and manager.values.equal(total.weight, identity.weight)
    phase_equal = shared and abs(abs(total.weight) - 1.0) <= tolerance
    equivalent = exact or (up_to_global_phase and phase_equal)
    return EquivalenceResult(
        equivalent=equivalent,
        exact=exact,
        phase_only=phase_equal and not exact,
        nodes_first=nodes,
        nodes_second=nodes,
        shared_root=shared,
        strategy="miter",
        swaps_factored=swaps,
    )


def compare_edges(
    manager: QMDDManager,
    edge_a: Edge,
    edge_b: Edge,
    up_to_global_phase: bool = False,
) -> EquivalenceResult:
    """Compare two root edges living in ``manager``."""
    shared = edge_a.node is edge_b.node
    exact = shared and manager.values.equal(edge_a.weight, edge_b.weight)
    phase_equal = shared and abs(abs(edge_a.weight) - abs(edge_b.weight)) <= (
        manager.values.tolerance
    )
    equivalent = exact or (up_to_global_phase and phase_equal)
    return EquivalenceResult(
        equivalent=equivalent,
        exact=exact,
        phase_only=phase_equal and not exact,
        nodes_first=count_nodes(edge_a),
        nodes_second=count_nodes(edge_b),
        shared_root=shared,
    )


def edge_is_diagonal(edge: Edge) -> bool:
    """True if the matrix below ``edge`` is diagonal.

    A QMDD is diagonal iff every reachable node's off-diagonal quadrants
    (U01 and U10) are zero — checkable in one graph walk.
    """
    seen = set()

    def walk(node) -> bool:
        if node.is_terminal or id(node) in seen:
            return True
        seen.add(id(node))
        if not node.edges[1].is_zero or not node.edges[2].is_zero:
            return False
        return walk(node.edges[0].node) and walk(node.edges[3].node)

    return walk(edge.node)


def check_equivalence_up_to_diagonal(
    first: QuantumCircuit,
    second: QuantumCircuit,
    num_qubits: Optional[int] = None,
) -> bool:
    """True when ``first = D . second`` for some diagonal ``D``.

    This is the right notion for *relative-phase* realizations (e.g.
    Margolus Toffolis or the pre-decomposed single-target gates of the
    paper's benchmark source [23]): the classical action matches exactly
    and phases differ per basis state.  Computed as diagonality of
    ``U_first . U_second^dagger`` — one extra circuit build, no dense
    matrices.
    """
    width = num_qubits or max(first.num_qubits, second.num_qubits)
    manager = QMDDManager(width)
    product = manager.circuit_edge(
        second.inverse().widened(width).compose(first.widened(width))
    )
    return edge_is_diagonal(product)


def assert_equivalent(
    first: QuantumCircuit,
    second: QuantumCircuit,
    num_qubits: Optional[int] = None,
    up_to_global_phase: bool = False,
) -> EquivalenceResult:
    """Like :func:`check_equivalence` but raises
    :class:`~repro.core.exceptions.VerificationError` on failure."""
    from ..core.exceptions import VerificationError

    result = check_equivalence(first, second, num_qubits, up_to_global_phase)
    if not result:
        raise VerificationError(
            f"circuits {first.name or 'A'!r} and {second.name or 'B'!r} are "
            f"not equivalent (shared_root={result.shared_root})"
        )
    return result
