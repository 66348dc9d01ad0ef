"""Initial qubit placement optimization.

The paper maps logical qubit *i* to physical qubit *i* and lists
cost-aware placement as future work: "More optimizations ... especially
those that aim to minimize cost by finding ideal qubit placement on a
QC, will also be added."  This module implements that extension:

* :func:`interaction_graph` — weighted logical interaction counts.
* :func:`greedy_placement` — seed the most-interacting logical qubit on
  the physically best-connected qubit, then place each next logical
  qubit (by interaction weight with already-placed ones) on the free
  physical qubit minimizing distance-weighted routing cost.
* :func:`refine_placement` — pairwise-exchange hill climbing on the
  routing-cost estimate until no swap of two assignments helps.
* :func:`choose_placement` — the strategy front door used by the
  compiler (``"identity"``, ``"greedy"``, or ``"refined"``).

The cost model scores a placement by
``sum over logical CNOT pairs (weight * swaps_needed(phys_a, phys_b))``
where ``swaps_needed`` is the coupling-graph distance minus one — the
number of SWAPs CTR will insert each way.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..core.circuit import QuantumCircuit
from ..core.exceptions import NotSynthesizableError, SynthesisError
from ..devices.device import Device
from .mapper import identity_placement

#: Strategy names accepted by :func:`choose_placement`.
PLACEMENT_STRATEGIES = ("identity", "greedy", "refined")


def interaction_graph(circuit: QuantumCircuit) -> Dict[Tuple[int, int], int]:
    """Count multi-qubit interactions between logical qubit pairs.

    Every pair of operands inside one gate counts once; the counts drive
    placement (heavily-interacting pairs should sit close together).
    """
    weights: Dict[Tuple[int, int], int] = {}
    for gate in circuit:
        qubits = gate.qubits
        if len(qubits) < 2:
            continue
        for i in range(len(qubits)):
            for j in range(i + 1, len(qubits)):
                key = (min(qubits[i], qubits[j]), max(qubits[i], qubits[j]))
                weights[key] = weights.get(key, 0) + 1
    return weights


def placement_cost(
    placement: Dict[int, int],
    weights: Dict[Tuple[int, int], int],
    device: Device,
) -> float:
    """Distance-weighted routing-cost estimate of a placement."""
    total = 0.0
    for (a, b), weight in weights.items():
        pa = placement.get(a, a)
        pb = placement.get(b, b)
        distance = device.coupling_map.distance(pa, pb)
        if distance is None:
            return float("inf")
        total += weight * max(0, distance - 1)
    return total


def greedy_placement(circuit: QuantumCircuit, device: Device) -> Dict[int, int]:
    """Interaction-driven greedy placement (see module docstring)."""
    if circuit.num_qubits > device.num_qubits:
        raise NotSynthesizableError(
            f"{circuit.name or 'circuit'} needs {circuit.num_qubits} qubits; "
            f"{device.name} has {device.num_qubits}"
        )
    weights = interaction_graph(circuit)
    logical_order = _logical_by_total_weight(circuit, weights)
    coupling = device.coupling_map

    placement: Dict[int, int] = {}
    used_physical: set = set()

    def physical_candidates() -> List[int]:
        return [q for q in range(device.num_qubits) if q not in used_physical]

    for logical in logical_order:
        placed_partners = [
            (other, weight)
            for (a, b), weight in weights.items()
            for other in ((b if a == logical else a),)
            if logical in (a, b) and other in placement
        ]
        if not placed_partners:
            # Seed (or isolated qubit): pick the best-connected free qubit.
            best = max(
                physical_candidates(),
                key=lambda q: (len(coupling.neighbors(q)), -q),
            )
        else:
            def score(candidate: int) -> float:
                total = 0.0
                for other, weight in placed_partners:
                    distance = coupling.distance(candidate, placement[other])
                    if distance is None:
                        return float("inf")
                    total += weight * max(0, distance - 1)
                return total

            best = min(physical_candidates(), key=lambda q: (score(q), q))
        placement[logical] = best
        used_physical.add(best)
    return placement


def _logical_by_total_weight(
    circuit: QuantumCircuit, weights: Dict[Tuple[int, int], int]
) -> List[int]:
    totals = {q: 0 for q in range(circuit.num_qubits)}
    for (a, b), weight in weights.items():
        totals[a] += weight
        totals[b] += weight
    return sorted(totals, key=lambda q: (-totals[q], q))


def refine_placement(
    placement: Dict[int, int],
    circuit: QuantumCircuit,
    device: Device,
    max_passes: int = 10,
) -> Dict[int, int]:
    """Pairwise-exchange hill climbing on :func:`placement_cost`.

    Considers swapping every pair of logical assignments (and moving a
    logical qubit to any free physical qubit) until a full pass finds no
    improvement.

    Scoring is *incremental*: per-pair contributions are kept between
    candidate moves and only the pairs incident to the moved logicals
    are rescored, so one candidate costs O(degree) distance lookups
    instead of a full O(|weights|) rescore.  Contributions are
    integer-valued (integer interaction weight times integer SWAP
    count), so the running total is exact and the accepted moves — and
    the final placement — are identical to a full rescore.
    """
    weights = interaction_graph(circuit)
    current = dict(placement)
    coupling = device.coupling_map
    logicals = list(current)
    free = [q for q in range(device.num_qubits) if q not in current.values()]

    incident: Dict[int, List[Tuple[Tuple[int, int], int]]] = {}
    for pair, weight in weights.items():
        incident.setdefault(pair[0], []).append((pair, weight))
        incident.setdefault(pair[1], []).append((pair, weight))

    def contribution(pair: Tuple[int, int], weight: int) -> Optional[float]:
        """This pair's cost term under ``current`` (None = disconnected)."""
        a, b = pair
        distance = coupling.distance(current.get(a, a), current.get(b, b))
        if distance is None:
            return None
        return weight * max(0, distance - 1)

    contributions: Dict[Tuple[int, int], Optional[float]] = {}
    finite_total = 0.0
    infinite_pairs = 0
    for pair, weight in weights.items():
        term = contribution(pair, weight)
        contributions[pair] = term
        if term is None:
            infinite_pairs += 1
        else:
            finite_total += term
    best_cost = float("inf") if infinite_pairs else finite_total

    def rescore(
        moved: Tuple[int, ...]
    ) -> Tuple[float, List[Tuple[Tuple[int, int], Optional[float]]]]:
        """Candidate cost after ``current`` was mutated, touching only
        the pairs incident to the moved logicals; returns the cost and
        the contribution updates to apply on acceptance."""
        total = finite_total
        infinite = infinite_pairs
        updates: List[Tuple[Tuple[int, int], Optional[float]]] = []
        seen: Set[Tuple[int, int]] = set()
        for logical in moved:
            for pair, weight in incident.get(logical, ()):
                if pair in seen:
                    continue
                seen.add(pair)
                old = contributions[pair]
                new = contribution(pair, weight)
                if old is None:
                    infinite -= 1
                else:
                    total -= old
                if new is None:
                    infinite += 1
                else:
                    total += new
                updates.append((pair, new))
        return (float("inf") if infinite else total), updates

    def accept(
        updates: List[Tuple[Tuple[int, int], Optional[float]]]
    ) -> None:
        nonlocal finite_total, infinite_pairs
        for pair, new in updates:
            old = contributions[pair]
            if old is None:
                infinite_pairs -= 1
            else:
                finite_total -= old
            if new is None:
                infinite_pairs += 1
            else:
                finite_total += new
            contributions[pair] = new

    for _ in range(max_passes):
        improved = False
        for i in range(len(logicals)):
            for j in range(i + 1, len(logicals)):
                a, b = logicals[i], logicals[j]
                current[a], current[b] = current[b], current[a]
                cost, updates = rescore((a, b))
                if cost < best_cost:
                    best_cost = cost
                    accept(updates)
                    improved = True
                else:
                    current[a], current[b] = current[b], current[a]
        for a in logicals:
            for index, spare in enumerate(free):
                old_physical = current[a]
                current[a] = spare
                cost, updates = rescore((a,))
                if cost < best_cost:
                    best_cost = cost
                    accept(updates)
                    free[index] = old_physical
                    improved = True
                else:
                    current[a] = old_physical
        if not improved:
            break
    return current


def choose_placement(
    circuit: QuantumCircuit, device: Device, strategy: str = "identity"
) -> Dict[int, int]:
    """Produce a placement by strategy name.

    ``identity`` reproduces the paper's behaviour; ``greedy`` runs the
    interaction-driven placement; ``refined`` additionally hill-climbs.
    """
    if strategy == "identity":
        return identity_placement(circuit, device)
    if strategy == "greedy":
        return greedy_placement(circuit, device)
    if strategy == "refined":
        return refine_placement(greedy_placement(circuit, device), circuit, device)
    raise SynthesisError(f"unknown placement strategy {strategy!r}")
