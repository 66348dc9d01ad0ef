"""Coupling maps and the coupling-complexity metric (Section 3).

A transmon device restricts two-qubit CNOT gates to a *coupling map*: a
directed relation ``control -> [targets]``.  The paper represents these
maps as dictionaries (Section 3) and introduces **coupling complexity**,
the ratio of available couplings to all ``n*(n-1)`` ordered qubit pairs.
A complexity of 1 means all-to-all connectivity (the simulator); values
near 0 mean sparse connectivity that forces heavy rerouting.

:class:`CouplingMap` also precomputes the *undirected* routing graph used
by the CTR algorithm: for SWAP-path purposes direction does not matter,
because a reversed CNOT can always be realized with four extra Hadamards
(paper Fig. 6).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..core.exceptions import DeviceError


class CouplingMap:
    """A directed CNOT coupling map over ``num_qubits`` physical qubits."""

    def __init__(
        self,
        num_qubits: int,
        couplings: Mapping[int, Sequence[int]],
        name: str = "custom",
        all_to_all: bool = False,
    ):
        if num_qubits <= 0:
            raise DeviceError("device must have at least one qubit")
        self.name = name
        self.num_qubits = int(num_qubits)
        self.all_to_all = bool(all_to_all)
        self._directed: FrozenSet[Tuple[int, int]] = frozenset(
            (int(control), int(target))
            for control, targets in couplings.items()
            for target in targets
        )
        for control, target in self._directed:
            if control == target:
                raise DeviceError(f"self-coupling {control}->{target}")
            if not (0 <= control < num_qubits and 0 <= target < num_qubits):
                raise DeviceError(
                    f"coupling {control}->{target} outside 0..{num_qubits - 1}"
                )
        #: Content identity of the map (part of every cache key).
        self.identity = "all" if self.all_to_all else repr(sorted(self._directed))
        # Undirected adjacency for CTR routing.
        neighbors: Dict[int, set] = {q: set() for q in range(num_qubits)}
        for control, target in self._directed:
            neighbors[control].add(target)
            neighbors[target].add(control)
        if self.all_to_all:
            for q in range(num_qubits):
                neighbors[q] = set(range(num_qubits)) - {q}
        self._neighbors: Dict[int, Tuple[int, ...]] = {
            q: tuple(sorted(adjacent)) for q, adjacent in neighbors.items()
        }
        # Lazy all-pairs routing tables.  Maps are immutable, so one
        # full BFS per *source* fills that source's distance and parent
        # rows forever: distance() is O(1) and shortest_path() is
        # O(path) after the first query from a given source.  The CTR
        # placement/routing scorers hammer these quadratically (every
        # candidate pair, every gate), which used to mean one full BFS
        # per scored pair on the 96-qubit Fig. 7 device.
        self._distance_rows: Dict[int, Dict[int, int]] = {}
        self._parent_rows: Dict[int, Dict[int, int]] = {}
        #: Number of full BFS traversals run (at most one per source;
        #: asserted by tests and reported by benchmarks).
        self.bfs_runs = 0

    # -- constructors --------------------------------------------------------

    @classmethod
    def fully_connected(cls, num_qubits: int, name: str = "simulator") -> "CouplingMap":
        """The ideal simulator: every ordered pair may host a CNOT."""
        return cls(num_qubits, {}, name=name, all_to_all=True)

    @classmethod
    def from_edge_list(
        cls, num_qubits: int, edges: Iterable[Tuple[int, int]], name: str = "custom"
    ) -> "CouplingMap":
        """Build from an iterable of directed ``(control, target)`` pairs."""
        couplings: Dict[int, List[int]] = {}
        for control, target in edges:
            couplings.setdefault(control, []).append(target)
        return cls(num_qubits, couplings, name=name)

    # -- queries ----------------------------------------------------------------

    @property
    def directed_edges(self) -> FrozenSet[Tuple[int, int]]:
        """All available ``(control, target)`` CNOT placements."""
        if self.all_to_all:
            return frozenset(
                (a, b)
                for a in range(self.num_qubits)
                for b in range(self.num_qubits)
                if a != b
            )
        return self._directed

    def as_dict(self) -> Dict[int, List[int]]:
        """The paper's dictionary form ``{control: [targets...]}``."""
        result: Dict[int, List[int]] = {}
        for control, target in sorted(self.directed_edges):
            result.setdefault(control, []).append(target)
        return result

    def allows(self, control: int, target: int) -> bool:
        """True if CNOT(control, target) is natively executable."""
        if self.all_to_all:
            return control != target and self._in_range(control, target)
        return (control, target) in self._directed

    def allows_reversed(self, control: int, target: int) -> bool:
        """True if only the opposite orientation CNOT(target, control) is
        native, so the gate needs the Fig. 6 Hadamard reversal."""
        return not self.allows(control, target) and self.allows(target, control)

    def coupled(self, a: int, b: int) -> bool:
        """True if the qubits are adjacent in either direction."""
        return self.allows(a, b) or self.allows(b, a)

    def neighbors(self, qubit: int) -> Tuple[int, ...]:
        """Undirected neighbors of ``qubit`` (for SWAP routing)."""
        self._check(qubit)
        return self._neighbors[qubit]

    def _in_range(self, *qubits: int) -> bool:
        return all(0 <= q < self.num_qubits for q in qubits)

    def _check(self, *qubits: int) -> None:
        for q in qubits:
            if not (0 <= q < self.num_qubits):
                raise DeviceError(f"qubit {q} outside device {self.name}")

    # -- metrics ---------------------------------------------------------------

    @property
    def coupling_complexity(self) -> float:
        """The paper's coupling-complexity metric (Section 3).

        Ratio of available CNOT couplings to the ``n*(n-1)`` ordered
        two-qubit permutations.  1.0 for the ideal simulator.
        """
        if self.num_qubits < 2:
            return 1.0
        if self.all_to_all:
            return 1.0
        permutations = self.num_qubits * (self.num_qubits - 1)
        return len(self._directed) / permutations

    def is_connected(self) -> bool:
        """True if the undirected routing graph is a single component
        (restricted to qubits that have at least one coupling)."""
        active = [q for q in range(self.num_qubits) if self._neighbors[q]]
        if not active:
            return self.num_qubits <= 1
        seen = {active[0]}
        frontier = deque([active[0]])
        while frontier:
            q = frontier.popleft()
            for adjacent in self._neighbors[q]:
                if adjacent not in seen:
                    seen.add(adjacent)
                    frontier.append(adjacent)
        return all(q in seen for q in active)

    # -- shortest paths (used by CTR) -----------------------------------------------

    def _routing_rows(self, source: int) -> Tuple[Dict[int, int], Dict[int, int]]:
        """The memoized (distance row, parent row) for ``source``.

        Computed with the paper's connectivity-tree construction
        (Fig. 4): breadth-first layers rooted at ``source``, terminating
        branches at already-seen nodes — but run to exhaustion once and
        cached, instead of once per destination.  Neighbor order is the
        sorted-tuple order of ``_neighbors``, so reconstructed paths are
        identical to what the per-query BFS used to return.
        """
        rows = self._distance_rows.get(source)
        if rows is not None:
            return rows, self._parent_rows[source]
        self.bfs_runs += 1
        distance: Dict[int, int] = {source: 0}
        parent: Dict[int, int] = {source: source}
        frontier = deque([source])
        while frontier:
            q = frontier.popleft()
            step = distance[q] + 1
            for adjacent in self._neighbors[q]:
                if adjacent in parent:
                    continue  # branch terminates: node already in the tree
                parent[adjacent] = q
                distance[adjacent] = step
                frontier.append(adjacent)
        self._distance_rows[source] = distance
        self._parent_rows[source] = parent
        return distance, parent

    def shortest_path(self, source: int, destination: int) -> Optional[List[int]]:
        """Shortest undirected path from ``source`` to ``destination``.

        O(path length) after the first query from ``source``: paths are
        reconstructed from the memoized per-source parent table (see
        :meth:`_routing_rows`).  Returns ``None`` when the qubits lie in
        different components.
        """
        self._check(source, destination)
        if source == destination:
            return [source]
        _, parent = self._routing_rows(source)
        if destination not in parent:
            return None
        path = [destination]
        while path[-1] != source:
            path.append(parent[path[-1]])
        path.reverse()
        return path

    def distance(self, a: int, b: int) -> Optional[int]:
        """Undirected hop distance, or None if disconnected.

        O(1) after the first query from source ``a`` (one BFS fills the
        whole distance row; maps are immutable so it never invalidates).
        """
        self._check(a, b)
        distance, _ = self._routing_rows(a)
        return distance.get(b)

    def cheapest_path(
        self,
        source: int,
        destination: int,
        edge_cost,
    ) -> Optional[List[int]]:
        """Minimum-cost undirected path under a custom edge cost.

        ``edge_cost(a, b)`` must return a non-negative float for the
        undirected link between adjacent ``a`` and ``b``.  Used by the
        noise-aware CTR variant, which weighs links by calibrated CNOT
        error instead of hop count.  Dijkstra with a binary heap.
        """
        import heapq

        self._check(source, destination)
        if source == destination:
            return [source]
        best: Dict[int, float] = {source: 0.0}
        parent: Dict[int, int] = {}
        heap = [(0.0, source)]
        visited = set()
        while heap:
            cost, q = heapq.heappop(heap)
            if q in visited:
                continue
            visited.add(q)
            if q == destination:
                path = [destination]
                while path[-1] != source:
                    path.append(parent[path[-1]])
                path.reverse()
                return path
            for adjacent in self._neighbors[q]:
                if adjacent in visited:
                    continue
                step = float(edge_cost(q, adjacent))
                if step < 0:
                    raise DeviceError("edge costs must be non-negative")
                total = cost + step
                if total < best.get(adjacent, float("inf")):
                    best[adjacent] = total
                    parent[adjacent] = q
                    heapq.heappush(heap, (total, adjacent))
        return None

    def __repr__(self) -> str:
        return (
            f"CouplingMap({self.name!r}, qubits={self.num_qubits}, "
            f"couplings={len(self.directed_edges)}, "
            f"complexity={self.coupling_complexity:.4f})"
        )
