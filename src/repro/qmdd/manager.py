"""The QMDD manager: unique table, operation caches, matrix algebra.

One :class:`QMDDManager` owns every node it ever builds.  Because nodes
are hash-consed through the unique table and edge weights are interned
through the :class:`~repro.qmdd.values.ValueTable`, the QMDD of a matrix
is *canonical* for a fixed variable order: two circuits implement the
same transfer matrix if and only if their root edges come out identical
(same node object, same weight) — the paper's equivalence check, where
"the pointers to the original and technology-mapped specification will
match if the two designs are functionally identical" (Section 4).

Normalization rule: each node's outgoing weights are divided by the
largest-magnitude weight (ties broken by edge position), which propagates
upward into the incoming edge.  Zero sub-matrices are the terminal node
with weight 0, regardless of level.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..core.circuit import QuantumCircuit
from ..core.exceptions import QMDDError
from ..core.gates import Gate, gate_matrix
from .structure import Edge, Node, TERMINAL_LEVEL
from .values import ValueTable


class QMDDManager:
    """Builds and combines QMDDs over a fixed number of qubits.

    ``op_cache_limit`` bounds each operation cache (``multiply``,
    ``add``, ``apply``): when a cache reaches the limit it is cleared
    wholesale and the manager's ``generation`` stamp is bumped — a full
    clear is safe at any time because results are recomputed on miss,
    and a generation-stamped clear is far cheaper than per-entry LRU
    bookkeeping on a hot path that inserts millions of entries.

    ``gc_node_limit`` arms the mark-and-sweep unique-table collector:
    when the table grows past the limit during a gate-by-gate build,
    :meth:`collect_garbage` drops every node unreachable from the live
    roots (the running product plus the identity/gate caches).  Both
    limits default to ``None`` (unbounded — the historical behavior);
    the verification :class:`~repro.qmdd.pool.ManagerPool` turns them
    on so long-running fuzz/batch campaigns stay memory-bounded.
    """

    def __init__(
        self,
        num_qubits: int,
        tolerance: float = 1e-9,
        op_cache_limit: Optional[int] = None,
        gc_node_limit: Optional[int] = None,
    ):
        if num_qubits < 1:
            raise QMDDError("QMDD needs at least one qubit")
        self.num_qubits = num_qubits
        self.values = ValueTable(tolerance)
        self.terminal = Node(TERMINAL_LEVEL, None)
        self.op_cache_limit = op_cache_limit
        self.gc_node_limit = gc_node_limit
        self._unique: Dict[Tuple, Node] = {}
        self._mul_cache: Dict[Tuple[int, int], Edge] = {}
        self._add_cache: Dict[Tuple[int, int, complex], Edge] = {}
        self._gate_cache: Dict[Tuple, Edge] = {}
        self._identity_cache: Dict[int, Edge] = {}
        self._apply_cache: Dict[Tuple, Edge] = {}
        #: Per-cache hit/miss counters so cache efficacy is measurable
        #: (reported by :meth:`stats` and ``BENCH_runtime.json``).
        self.cache_hits: Dict[str, int] = {
            "mul": 0, "add": 0, "gate": 0, "apply": 0,
        }
        self.cache_misses: Dict[str, int] = {
            "mul": 0, "add": 0, "gate": 0, "apply": 0,
        }
        #: Bumped on every overflow clear and GC sweep; entries keyed on
        #: node ids from an older generation are never consulted because
        #: the clear empties the cache that held them.
        self.generation = 0
        #: Overflow clears per operation cache.
        self.cache_clears: Dict[str, int] = {"mul": 0, "add": 0, "apply": 0}
        self.gc_sweeps = 0
        self.gc_reclaimed = 0
        #: High-water mark of the unique table (peak live node count).
        self.peak_unique_nodes = 0
        #: Counter baseline consumed by :meth:`record_metrics` so pooled
        #: managers report per-check deltas, not lifetime totals.
        self._recorded: Dict[str, int] = {}
        self._zero_edge = Edge(self.terminal, self.values.lookup(0j))
        self._one_weight = self.values.lookup(1 + 0j)
        self._one_edge = Edge(self.terminal, self._one_weight)

    # -- primitive edges ------------------------------------------------------

    @property
    def zero(self) -> Edge:
        """The all-zero matrix (any size)."""
        return self._zero_edge

    @property
    def one(self) -> Edge:
        """The scalar 1 (terminal edge)."""
        return self._one_edge

    def edge(self, node: Node, weight: complex) -> Edge:
        """An edge with an interned weight; zero weight collapses to the
        terminal zero edge."""
        values = self.values
        weight = values.lookup(weight)
        if abs(weight) <= values.tolerance:
            return self._zero_edge
        return Edge(node, weight)

    # -- node construction -------------------------------------------------------

    def make_node(self, level: int, edges: Sequence[Edge]) -> Edge:
        """Create (or find) the normalized node for the four quadrant edges,
        returning the edge that points to it."""
        if len(edges) != 4:
            raise QMDDError("a QMDD node has exactly four edges")
        e0, e1, e2, e3 = edges
        magnitudes = (
            abs(e0.weight), abs(e1.weight), abs(e2.weight), abs(e3.weight)
        )
        largest = max(magnitudes)
        if largest == 0:
            return self._zero_edge
        # Normalize: divide by the largest-magnitude weight.  The pick must
        # be *tolerance-deterministic*: when two magnitudes agree within
        # the value tolerance, always take the earliest edge, otherwise
        # float dust on different construction paths would normalize equal
        # matrices differently and break pointer canonicity.  One pass:
        # the picked edge gets the canonical 1 and zero edges stay the
        # zero edge, so only the remaining weights are interned.
        tolerance = self.values.tolerance
        threshold = largest - tolerance
        pick = 0
        while magnitudes[pick] < threshold:
            pick += 1
        norm = edges[pick].weight
        lookup = self.values.lookup
        zero = self._zero_edge
        normalized = []
        for index, e in enumerate(edges):
            if index == pick:
                e = Edge(e.node, self._one_weight)
            elif magnitudes[index] == 0:
                e = zero
            else:
                weight = lookup(e.weight / norm)
                e = zero if abs(weight) <= tolerance else Edge(e.node, weight)
            normalized.append(e)
        n0, n1, n2, n3 = normalized
        key = (
            level,
            id(n0.node), n0.weight, id(n1.node), n1.weight,
            id(n2.node), n2.weight, id(n3.node), n3.weight,
        )
        node = self._unique.get(key)
        if node is None:
            node = Node(level, (n0, n1, n2, n3))
            self._unique[key] = node
            if len(self._unique) > self.peak_unique_nodes:
                self.peak_unique_nodes = len(self._unique)
        return self.edge(node, norm)

    def identity(self, level: int = 0) -> Edge:
        """QMDD of the identity matrix on levels ``level..num_qubits-1``."""
        if level >= self.num_qubits:
            return self.one
        cached = self._identity_cache.get(level)
        if cached is None:
            sub = self.identity(level + 1)
            cached = self.make_node(level, (sub, self.zero, self.zero, sub))
            self._identity_cache[level] = cached
        return cached

    # -- gate construction ----------------------------------------------------------

    def gate_edge(self, gate: Gate) -> Edge:
        """QMDD of ``gate`` embedded over all ``num_qubits`` qubits."""
        key = (gate.name, gate.qubits, gate.params)
        cached = self._gate_cache.get(key)
        if cached is None:
            self.cache_misses["gate"] += 1
            cached = self._build_gate(gate)
            self._gate_cache[key] = cached
        else:
            self.cache_hits["gate"] += 1
        return cached

    def _build_gate(self, gate: Gate) -> Edge:
        if max(gate.qubits) >= self.num_qubits:
            raise QMDDError(f"gate {gate} outside {self.num_qubits}-qubit QMDD")
        if gate.name in ("CNOT", "TOFFOLI", "MCX", "CZ"):
            # Controlled gates are built structurally (O(num_qubits) nodes)
            # as identity + |1..1><1..1| (x) (U - I); materializing the
            # dense 2^k matrix would explode for wide MCX gates.
            return self._build_controlled(gate)
        matrix = gate_matrix(gate.name, gate.num_qubits, gate.params or None)
        position = {q: i for i, q in enumerate(gate.qubits)}
        k = gate.num_qubits
        memo: Dict[Tuple[int, int, int], Edge] = {}

        def build(level: int, row: int, col: int) -> Edge:
            if level == self.num_qubits:
                return self.edge(self.terminal, matrix[row, col])
            found = memo.get((level, row, col))
            if found is not None:
                return found
            if level in position:
                shift = k - 1 - position[level]
                quadrants = tuple(
                    build(level + 1, row | (r << shift), col | (c << shift))
                    for r in (0, 1)
                    for c in (0, 1)
                )
            else:
                sub = build(level + 1, row, col)
                quadrants = (sub, self.zero, self.zero, sub)
            result = self.make_node(level, quadrants)
            memo[(level, row, col)] = result
            return result

        return build(0, 0, 0)

    def _build_controlled(self, gate: Gate) -> Edge:
        """Controlled-X / controlled-Z as ``I + P (x) (U - I)`` where P
        projects every control onto |1>.  The correction term is a chain
        of one node per level, so even a 90-control MCX stays tiny."""
        controls = set(gate.controls)
        target = gate.target
        # (U - I) quadrant weights at the target level, as multipliers of
        # the sub-DD: X - I = [[-1, 1], [1, -1]]; Z - I = diag(0, -2).
        if gate.name == "CZ":
            target_weights = (0.0, 0.0, 0.0, -2.0)
        else:
            target_weights = (-1.0, 1.0, 1.0, -1.0)

        def build(level: int) -> Edge:
            if level == self.num_qubits:
                return self.one
            sub = build(level + 1)
            if level in controls:
                return self.make_node(level, (self.zero, self.zero, self.zero, sub))
            if level == target:
                quadrants = tuple(sub.scaled(w) if w else self.zero
                                  for w in target_weights)
                return self.make_node(level, quadrants)
            return self.make_node(level, (sub, self.zero, self.zero, sub))

        return self.add(self.identity(), build(0))

    # -- cache bounding and garbage collection ----------------------------------------

    def _cache_put(self, name: str, cache: Dict, key, value) -> None:
        """Insert into an operation cache, clearing it wholesale first
        when it has reached ``op_cache_limit``."""
        limit = self.op_cache_limit
        if limit is not None and len(cache) >= limit:
            cache.clear()
            self.generation += 1
            self.cache_clears[name] += 1
        cache[key] = value

    def collect_garbage(self, roots: Iterable[Edge] = ()) -> int:
        """Mark-and-sweep the unique table; returns nodes reclaimed.

        Marks every node reachable from ``roots`` plus the manager's own
        identity and gate caches (those edges must stay canonical across
        a sweep), then drops all other unique-table entries.  Surviving
        nodes keep their table keys — the keys reference child ids and
        every child of a live node is itself live — so **pointer
        canonicity survives**: a post-sweep :meth:`make_node` with the
        same quadrants still returns the same node object.  The
        operation caches are cleared because their keys embed the ids of
        (possibly dead) nodes; Python may reuse a dead node's id for a
        new node, which would make a stale entry silently wrong.
        """
        marked: set = set()
        stack: List[Node] = [edge.node for edge in roots]
        stack.extend(edge.node for edge in self._identity_cache.values())
        stack.extend(edge.node for edge in self._gate_cache.values())
        while stack:
            node = stack.pop()
            if node.is_terminal or id(node) in marked:
                continue
            marked.add(id(node))
            stack.extend(child.node for child in node.edges)
        before = len(self._unique)
        self._unique = {
            key: node
            for key, node in self._unique.items()
            if id(node) in marked
        }
        reclaimed = before - len(self._unique)
        self._mul_cache.clear()
        self._add_cache.clear()
        self._apply_cache.clear()
        self.generation += 1
        self.gc_sweeps += 1
        self.gc_reclaimed += reclaimed
        return reclaimed

    def maybe_collect(self, roots: Iterable[Edge] = ()) -> int:
        """Run :meth:`collect_garbage` if the unique table has outgrown
        ``gc_node_limit`` (no-op when unarmed)."""
        limit = self.gc_node_limit
        if limit is not None and len(self._unique) > limit:
            return self.collect_garbage(roots)
        return 0

    # -- algebra ---------------------------------------------------------------------

    def multiply(self, left: Edge, right: Edge) -> Edge:
        """Matrix product ``left @ right``."""
        if left.is_zero or right.is_zero:
            return self.zero
        product = self._mul_nodes(left.node, right.node)
        return self.edge(product.node, product.weight * left.weight * right.weight)

    def _mul_nodes(self, a: Node, b: Node) -> Edge:
        if a.is_terminal and b.is_terminal:
            return self.one
        if a.is_terminal or b.is_terminal:
            raise QMDDError("QMDD multiply level mismatch (skipped level?)")
        if a.level != b.level:
            raise QMDDError(
                f"QMDD multiply level mismatch: {a.level} vs {b.level}"
            )
        key = (id(a), id(b))
        cached = self._mul_cache.get(key)
        if cached is not None:
            self.cache_hits["mul"] += 1
            return cached
        self.cache_misses["mul"] += 1
        quadrants: List[Edge] = []
        for i in (0, 1):
            for j in (0, 1):
                first = self.multiply(a.edges[2 * i + 0], b.edges[0 + j])
                second = self.multiply(a.edges[2 * i + 1], b.edges[2 + j])
                quadrants.append(self.add(first, second))
        result = self.make_node(a.level, quadrants)
        self._cache_put("mul", self._mul_cache, key, result)
        return result

    def add(self, left: Edge, right: Edge) -> Edge:
        """Matrix sum ``left + right``."""
        if left.weight == 0:
            return right
        if right.weight == 0:
            return left
        ratio = self.values.lookup(right.weight / left.weight)
        summed = self._add_nodes(left.node, right.node, ratio)
        return self.edge(summed.node, summed.weight * left.weight)

    def _add_nodes(self, a: Node, b: Node, ratio: complex) -> Edge:
        """``matrix(a) + ratio * matrix(b)`` with weight-1 incoming edges."""
        if a.is_terminal and b.is_terminal:
            return self.edge(self.terminal, 1 + ratio)
        if a.is_terminal or b.is_terminal:
            raise QMDDError("QMDD add level mismatch (skipped level?)")
        if a.level != b.level:
            raise QMDDError(f"QMDD add level mismatch: {a.level} vs {b.level}")
        key = (id(a), id(b), ratio)
        cached = self._add_cache.get(key)
        if cached is not None:
            self.cache_hits["add"] += 1
            return cached
        self.cache_misses["add"] += 1
        quadrants = [
            self.add(a.edges[i], b.edges[i].scaled(ratio)) for i in range(4)
        ]
        result = self.make_node(a.level, quadrants)
        self._cache_put("add", self._add_cache, key, result)
        return result

    # -- specialized gate application ------------------------------------------------

    def _scaled_edge(self, edge: Edge, factor: complex) -> Edge:
        if edge.weight == 0 or factor == 0:
            return self._zero_edge
        return self.edge(edge.node, edge.weight * factor)

    def apply_single(self, edge: Edge, matrix, qubit: int, op_key=None) -> Edge:
        """Left-multiply a one-qubit gate at ``qubit`` into ``edge``.

        Only nodes at levels ``<= qubit`` are rebuilt; the (typically
        large) sub-diagrams below the gate are shared untouched — far
        cheaper than a generic DD-DD multiply for local gates.  Results
        are cached per (gate, node) in the manager-wide apply cache, so
        revisiting a subtree shape (ubiquitous in routed circuits, whose
        SWAP chains repeat) is free.
        """
        u00, u01 = matrix[0][0], matrix[0][1]
        u10, u11 = matrix[1][0], matrix[1][1]
        if op_key is None:
            op_key = ("1q", u00, u01, u10, u11, qubit)
        cache = self._apply_cache
        hits, misses = self.cache_hits, self.cache_misses

        def rec(e: Edge) -> Edge:
            if e.weight == 0:
                return e
            node = e.node
            key = (op_key, id(node))
            cached = cache.get(key)
            if cached is not None:
                hits["apply"] += 1
            else:
                misses["apply"] += 1
                e0, e1, e2, e3 = node.edges
                if node.level == qubit:
                    quadrants = (
                        self.add(self._scaled_edge(e0, u00), self._scaled_edge(e2, u01)),
                        self.add(self._scaled_edge(e1, u00), self._scaled_edge(e3, u01)),
                        self.add(self._scaled_edge(e0, u10), self._scaled_edge(e2, u11)),
                        self.add(self._scaled_edge(e1, u10), self._scaled_edge(e3, u11)),
                    )
                else:
                    quadrants = (rec(e0), rec(e1), rec(e2), rec(e3))
                cached = self.make_node(node.level, quadrants)
                self._cache_put("apply", cache, key, cached)
            return self._scaled_edge(cached, e.weight)

        return rec(edge)

    def _project_rows(self, edge: Edge, qubit: int, bit: int) -> Edge:
        """Zero every matrix row whose ``qubit`` bit differs from ``bit``."""
        op_key = ("proj", qubit, bit)
        cache = self._apply_cache
        hits, misses = self.cache_hits, self.cache_misses

        def rec(e: Edge) -> Edge:
            if e.weight == 0:
                return e
            node = e.node
            key = (op_key, id(node))
            cached = cache.get(key)
            if cached is not None:
                hits["apply"] += 1
            else:
                misses["apply"] += 1
                e0, e1, e2, e3 = node.edges
                if node.level == qubit:
                    if bit == 0:
                        quadrants = (e0, e1, self._zero_edge, self._zero_edge)
                    else:
                        quadrants = (self._zero_edge, self._zero_edge, e2, e3)
                else:
                    quadrants = (rec(e0), rec(e1), rec(e2), rec(e3))
                cached = self.make_node(node.level, quadrants)
                self._cache_put("apply", cache, key, cached)
            return self._scaled_edge(cached, e.weight)

        return rec(edge)

    _X_MATRIX = ((0.0, 1.0), (1.0, 0.0))

    def apply_cnot(self, edge: Edge, control: int, target: int) -> Edge:
        """Left-multiply CNOT(control, target) into ``edge``."""
        op_key = ("cx", control, target)
        cache = self._apply_cache
        outer = min(control, target)
        x_key = ("1q", 0.0, 1.0, 1.0, 0.0, target)
        hits, misses = self.cache_hits, self.cache_misses

        def rec(e: Edge) -> Edge:
            if e.weight == 0:
                return e
            node = e.node
            key = (op_key, id(node))
            cached = cache.get(key)
            if cached is not None:
                hits["apply"] += 1
            else:
                misses["apply"] += 1
                e0, e1, e2, e3 = node.edges
                if node.level == outer:
                    if outer == control:
                        # Control above target: X hits the control-1 rows.
                        quadrants = (
                            e0,
                            e1,
                            self.apply_single(e2, self._X_MATRIX, target, x_key),
                            self.apply_single(e3, self._X_MATRIX, target, x_key),
                        )
                    else:
                        # Target above control: swap target rows within the
                        # control-1 subspace, keep control-0 rows in place.
                        quadrants = (
                            self.add(
                                self._project_rows(e0, control, 0),
                                self._project_rows(e2, control, 1),
                            ),
                            self.add(
                                self._project_rows(e1, control, 0),
                                self._project_rows(e3, control, 1),
                            ),
                            self.add(
                                self._project_rows(e0, control, 1),
                                self._project_rows(e2, control, 0),
                            ),
                            self.add(
                                self._project_rows(e1, control, 1),
                                self._project_rows(e3, control, 0),
                            ),
                        )
                else:
                    quadrants = (rec(e0), rec(e1), rec(e2), rec(e3))
                cached = self.make_node(node.level, quadrants)
                self._cache_put("apply", cache, key, cached)
            return self._scaled_edge(cached, e.weight)

        return rec(edge)

    _Z_MATRIX = ((1.0, 0.0), (0.0, -1.0))

    def apply_controlled(
        self,
        edge: Edge,
        controls: Sequence[int],
        target: int,
        matrix,
        op_key=None,
    ) -> Edge:
        """Left-multiply a multi-controlled one-qubit gate into ``edge``.

        Covers CZ, TOFFOLI and MCX without materializing a gate DD or
        running a DD x DD multiply: only nodes at levels between the
        outermost touched qubit and the target are rebuilt.  Control
        levels *above* the target split the recursion (control-0 rows
        pass through untouched); controls *below* the target are folded
        in at the target level via row projections, mixing rows only
        within the all-controls-one subspace:

            new_row0 = row0 - P row0 + u00 P row0 + u01 P row1
            new_row1 = row1 - P row1 + u10 P row0 + u11 P row1

        where ``P`` projects onto rows whose deeper control bits are all
        one.  Results share the manager-wide apply cache.
        """
        controls = tuple(sorted(int(c) for c in controls))
        if not controls:
            return self.apply_single(edge, matrix, target, op_key)
        u00, u01 = matrix[0][0], matrix[0][1]
        u10, u11 = matrix[1][0], matrix[1][1]
        if op_key is None:
            op_key = ("ctrl", u00, u01, u10, u11, controls, target)
        control_set = frozenset(controls)
        below = tuple(c for c in controls if c > target)
        cache = self._apply_cache
        hits, misses = self.cache_hits, self.cache_misses

        def project(e: Edge) -> Edge:
            for control in below:
                e = self._project_rows(e, control, 1)
            return e

        def mix(row0: Edge, row1: Edge) -> Tuple[Edge, Edge]:
            """One column's new (row0, row1) quadrants at the target."""
            if not below:
                p0, p1 = row0, row1
                keep0 = keep1 = self._zero_edge
            else:
                p0, p1 = project(row0), project(row1)
                keep0 = self.add(row0, p0.scaled(-1))
                keep1 = self.add(row1, p1.scaled(-1))
            new0 = self.add(
                self._scaled_edge(p0, u00), self._scaled_edge(p1, u01)
            )
            new1 = self.add(
                self._scaled_edge(p0, u10), self._scaled_edge(p1, u11)
            )
            return self.add(keep0, new0), self.add(keep1, new1)

        def rec(e: Edge) -> Edge:
            if e.weight == 0:
                return e
            node = e.node
            key = (op_key, id(node))
            cached = cache.get(key)
            if cached is not None:
                hits["apply"] += 1
            else:
                misses["apply"] += 1
                e0, e1, e2, e3 = node.edges
                level = node.level
                if level == target:
                    q0, q2 = mix(e0, e2)
                    q1, q3 = mix(e1, e3)
                    quadrants = (q0, q1, q2, q3)
                elif level in control_set:
                    quadrants = (e0, e1, rec(e2), rec(e3))
                else:
                    quadrants = (rec(e0), rec(e1), rec(e2), rec(e3))
                cached = self.make_node(level, quadrants)
                self._cache_put("apply", cache, key, cached)
            return self._scaled_edge(cached, e.weight)

        return rec(edge)

    def apply_block(
        self,
        edge: Edge,
        matrix4,
        first: int,
        second: int,
        op_key=None,
    ) -> Edge:
        """Left-multiply a fused two-qubit block (4x4 unitary over wires
        ``first < second``, row index ``2*bit_first + bit_second``).

        This is the miter fast path's workhorse: a block fused from k
        gates costs *one* traversal of the levels above ``first`` instead
        of k.  Viewing the 4x4 as a 2x2 matrix of 2x2 sub-blocks
        ``A[i][k]`` (the ``second``-level mix for the ``first``-level
        transition ``i <- k``), each node at level ``first`` rebuilds as

            out[i][j] = A[i][0] @ e[0][j]  +  A[i][1] @ e[1][j]

        where ``A @ e`` is the cached one-qubit row mix of
        :meth:`apply_single` at level ``second``.  Zero sub-blocks
        (ubiquitous in fused permutation-like blocks) skip their term.
        """
        if not first < second:
            raise QMDDError("apply_block expects first < second")
        sub = [
            [
                (
                    (matrix4[2 * i + 0][2 * k + 0], matrix4[2 * i + 0][2 * k + 1]),
                    (matrix4[2 * i + 1][2 * k + 0], matrix4[2 * i + 1][2 * k + 1]),
                )
                for k in (0, 1)
            ]
            for i in (0, 1)
        ]
        sub_zero = [
            [all(v == 0 for row in sub[i][k] for v in row) for k in (0, 1)]
            for i in (0, 1)
        ]
        sub_key = [
            [
                ("1q", *sub[i][k][0], *sub[i][k][1], second)
                for k in (0, 1)
            ]
            for i in (0, 1)
        ]
        if op_key is None:
            op_key = (
                "2q",
                tuple(tuple(row) for row in matrix4),
                first,
                second,
            )
        cache = self._apply_cache
        hits, misses = self.cache_hits, self.cache_misses

        def mix(i: int, k: int, e: Edge) -> Edge:
            if sub_zero[i][k] or e.is_zero:
                return self._zero_edge
            return self.apply_single(e, sub[i][k], second, sub_key[i][k])

        def rec(e: Edge) -> Edge:
            if e.weight == 0:
                return e
            node = e.node
            key = (op_key, id(node))
            cached = cache.get(key)
            if cached is not None:
                hits["apply"] += 1
            else:
                misses["apply"] += 1
                e0, e1, e2, e3 = node.edges
                if node.level == first:
                    columns = ((e0, e2), (e1, e3))
                    quadrants = []
                    for i in (0, 1):
                        row = []
                        for j in (0, 1):
                            top, bottom = columns[j]
                            row.append(self.add(mix(i, 0, top), mix(i, 1, bottom)))
                        quadrants.append(row)
                    quadrants = (
                        quadrants[0][0], quadrants[0][1],
                        quadrants[1][0], quadrants[1][1],
                    )
                else:
                    quadrants = (rec(e0), rec(e1), rec(e2), rec(e3))
                cached = self.make_node(node.level, quadrants)
                self._cache_put("apply", cache, key, cached)
            return self._scaled_edge(cached, e.weight)

        return rec(edge)

    def apply_swap(self, edge: Edge, a: int, b: int) -> Edge:
        """Left-multiply SWAP(a, b) into ``edge`` as three specialized
        CNOT passes (SWAP = CX(a,b) CX(b,a) CX(a,b)).  Each pass rebuilds
        only the touched levels and shares the apply cache, so routed
        circuits' repeated SWAP chains stay on the fast path instead of
        falling back to a DD x DD multiply."""
        edge = self.apply_cnot(edge, a, b)
        edge = self.apply_cnot(edge, b, a)
        return self.apply_cnot(edge, a, b)

    def apply_gate(self, edge: Edge, gate: Gate) -> Edge:
        """Left-multiply ``gate`` into ``edge`` using the cheapest path:
        specialized application for one-qubit gates, CNOT, SWAP, CZ,
        TOFFOLI and MCX (everything the compiler's inputs and mapped
        outputs contain), generic multiply otherwise."""
        if gate.num_qubits == 1:
            if gate.name == "I":
                return edge
            matrix = gate_matrix(gate.name, params=gate.params or None)
            return self.apply_single(
                edge,
                ((matrix[0, 0], matrix[0, 1]), (matrix[1, 0], matrix[1, 1])),
                gate.qubits[0],
                ("1g", gate.name, gate.params, gate.qubits[0]),
            )
        name = gate.name
        if name == "CNOT":
            return self.apply_cnot(edge, gate.qubits[0], gate.qubits[1])
        if name == "SWAP":
            return self.apply_swap(edge, gate.qubits[0], gate.qubits[1])
        if name == "CZ":
            # CZ is symmetric: treat the shallower qubit as the control
            # so the recursion never needs row projections.
            control, target = sorted(gate.qubits)
            return self.apply_controlled(
                edge, (control,), target, self._Z_MATRIX,
                ("cz", control, target),
            )
        if name in ("TOFFOLI", "MCX"):
            controls = tuple(sorted(gate.controls))
            return self.apply_controlled(
                edge, controls, gate.target, self._X_MATRIX,
                ("mcx", controls, gate.target),
            )
        return self.multiply(self.gate_edge(gate), edge)

    # -- circuits -----------------------------------------------------------------------

    def circuit_edge(
        self,
        circuit: QuantumCircuit,
        extra_roots: Sequence[Edge] = (),
    ) -> Edge:
        """QMDD of the whole circuit's transfer matrix.

        Gates are applied in circuit order: the total matrix is
        ``U_last ... U_2 U_1``, built by applying each gate into the
        running product (specialized application for local gates).

        When the manager has a ``gc_node_limit``, the unique table is
        swept between gates with the running product as the live root.
        ``extra_roots`` names additional edges that must survive such a
        sweep — e.g. the first circuit's root while the second circuit
        of a two-sided equivalence check is being built.
        """
        if circuit.num_qubits > self.num_qubits:
            raise QMDDError(
                f"circuit has {circuit.num_qubits} qubits, manager only "
                f"{self.num_qubits}"
            )
        gc_armed = self.gc_node_limit is not None
        total = self.identity()
        for gate in circuit:
            total = self.apply_gate(total, gate)
            if gc_armed:
                self.maybe_collect((total, *extra_roots))
        return total

    # -- inspection -----------------------------------------------------------------------

    def to_matrix(self, edge: Edge, level: int = 0) -> np.ndarray:
        """Dense matrix represented by ``edge`` (exponential; tests only)."""
        size = 2 ** (self.num_qubits - level)
        if edge.is_zero:
            return np.zeros((size, size), dtype=complex)
        if edge.node.is_terminal:
            if level != self.num_qubits:
                raise QMDDError("nonzero terminal edge above the bottom level")
            return np.array([[edge.weight]], dtype=complex)
        half = size // 2
        matrix = np.zeros((size, size), dtype=complex)
        for i in (0, 1):
            for j in (0, 1):
                sub = self.to_matrix(edge.node.edges[2 * i + j], level + 1)
                matrix[i * half : (i + 1) * half, j * half : (j + 1) * half] = sub
        return matrix * edge.weight

    def stats(self) -> Dict[str, int]:
        """Table sizes and cache efficacy, for diagnostics and benchmarks."""
        stats = {
            "unique_nodes": len(self._unique),
            "peak_unique_nodes": self.peak_unique_nodes,
            "mul_cache": len(self._mul_cache),
            "add_cache": len(self._add_cache),
            "apply_cache": len(self._apply_cache),
            "values": len(self.values),
            "generation": self.generation,
            "gc_sweeps": self.gc_sweeps,
            "gc_reclaimed": self.gc_reclaimed,
            "cache_clears": sum(self.cache_clears.values()),
        }
        for name in ("mul", "add", "gate", "apply"):
            hits = self.cache_hits[name]
            misses = self.cache_misses[name]
            stats[f"{name}_hits"] = hits
            stats[f"{name}_misses"] = misses
        return stats

    def record_metrics(self, registry, prefix: str = "qmdd.") -> None:
        """Fold this manager's counters into a
        :class:`repro.obs.MetricsRegistry`: hit/miss tallies become
        counters (summed across managers and processes), table sizes
        become gauges (merged by maximum — "how big did the unique
        table get").  Called by the verification facade after every
        QMDD equivalence check so per-worker managers stop losing their
        stats at the process boundary.

        Counters are shipped as **deltas since the previous call** —
        pooled managers survive across checks, and re-shipping lifetime
        totals would double-count every earlier check's work.
        """
        def ship(name: str, value: int) -> None:
            delta = value - self._recorded.get(name, 0)
            if delta:
                registry.inc(f"{prefix}{name}", delta)
            self._recorded[name] = value

        for name in ("mul", "add", "gate", "apply"):
            ship(f"{name}_hits", self.cache_hits[name])
            ship(f"{name}_misses", self.cache_misses[name])
        ship("gc_sweeps", self.gc_sweeps)
        ship("gc_nodes_reclaimed", self.gc_reclaimed)
        ship("cache_clears", sum(self.cache_clears.values()))
        registry.gauge_max(f"{prefix}unique_nodes", len(self._unique))
        registry.gauge_max(f"{prefix}peak_unique_nodes", self.peak_unique_nodes)
        registry.gauge_max(f"{prefix}mul_cache", len(self._mul_cache))
        registry.gauge_max(f"{prefix}add_cache", len(self._add_cache))
        registry.gauge_max(f"{prefix}values", len(self.values))

    def cache_hit_rates(self) -> Dict[str, float]:
        """Hit rate per operation cache (0.0 where never consulted)."""
        rates = {}
        for name in ("mul", "add", "gate", "apply"):
            total = self.cache_hits[name] + self.cache_misses[name]
            rates[name] = self.cache_hits[name] / total if total else 0.0
        return rates
