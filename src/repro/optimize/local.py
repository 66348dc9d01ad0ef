"""The cost-guarded local optimization driver (Section 4, items 5-6).

The paper applies its two local optimizations "recursively until [the]
technology library cost function cannot be further reduced".
:class:`LocalOptimizer` implements exactly that loop:

1. cancel identity partitions (inverse pairs, through commutation);
2. merge phase-gate runs (``T T -> S`` etc.);
3. rewrite partitions by cheaper circuit identities (templates), with
   coupling-map awareness so mapped circuits stay executable;
4. measure the cost function; repeat while it decreased.

Every accepted round is guaranteed not to increase the cost: if a round
ever produced a costlier circuit (possible in principle with a hostile
custom cost function), the previous circuit is returned instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, List, Optional, Tuple

from ..core.circuit import QuantumCircuit
from ..core.cost import CostFunction, TRANSMON_COST
from ..core.gates import Gate
from ..devices.coupling import CouplingMap
from ..obs import NULL_TRACER, get_metrics
from .cancellation import cancel_to_fixpoint, remove_identities
from .dataflow import ConstantPropagationStats, propagate_constants
from .merging import merge_to_fixpoint
from .templates import template_sweep


#: Pass names for the driver's fixpoint bookkeeping.
_CANCEL, _MERGE, _TEMPLATES = "cancel", "merge", "templates"


@dataclass
class OptimizationReport:
    """Per-round cost trace of one optimization run.

    ``stopped`` says why the round loop ended: ``"fixpoint"`` (the last
    accepted circuit is a fixpoint of every pass, so another round could
    only return it unchanged), ``"rejected"`` (a round did not lower the
    cost) or ``"max_rounds"``.
    """

    initial_cost: float
    final_cost: float
    rounds: int
    cost_trace: List[float] = field(default_factory=list)
    stopped: str = "max_rounds"

    @property
    def percent_decrease(self) -> float:
        if self.initial_cost == 0:
            return 0.0
        return 100.0 * (self.initial_cost - self.final_cost) / self.initial_cost


class LocalOptimizer:
    """Fixpoint driver over the local optimization passes."""

    def __init__(
        self,
        cost_function: CostFunction = TRANSMON_COST,
        coupling_map: Optional[CouplingMap] = None,
        max_rounds: int = 50,
        enable_templates: bool = True,
        gate_set=None,
        tracer=None,
        known_zero=(),
        known_one=(),
    ):
        self.cost_function = cost_function
        self.coupling_map = coupling_map
        self.max_rounds = max_rounds
        self.enable_templates = enable_templates
        self.gate_set = set(gate_set) if gate_set is not None else None
        #: Input facts for the dataflow constant-propagation pass: wires
        #: asserted to start in |0⟩ / |1⟩.  Empty (the default) keeps the
        #: pass — and its analysis — entirely out of the loop; rewrites
        #: under facts are exact only on the asserted subspace, so the
        #: caller must verify with the same ``known_zero``.
        self.known_zero = frozenset(known_zero)
        self.known_one = frozenset(known_one)
        #: Optional :class:`repro.obs.Tracer`; when set, every fixpoint
        #: iteration records an ``optimize.round`` span carrying the
        #: round's cost and gate-count deltas.
        self.tracer = tracer
        self.last_report: Optional[OptimizationReport] = None
        #: Accumulated :class:`ConstantPropagationStats` of the last run
        #: (``None`` when no input facts were supplied).
        self.last_dataflow: Optional[ConstantPropagationStats] = None

    def _round(
        self, circuit: QuantumCircuit, clean: FrozenSet[str]
    ) -> Tuple[QuantumCircuit, FrozenSet[str]]:
        """One round of the passes over ``circuit``.

        ``clean`` names the passes ``circuit`` is already a fixpoint of;
        the round returns its candidate with the same bookkeeping.  A
        pass that changes the gates clears it; cancellation and merging
        run to their own fixpoint and then mark themselves, while one
        template sweep is a fixpoint only if it rewrote nothing.
        """
        passes = [] if _CANCEL in clean else [_CANCEL]
        passes.append(_MERGE)
        if self.enable_templates:
            # Templates can expose fresh inverse pairs; clean them now so
            # the cost comparison sees the full benefit.
            passes += [_TEMPLATES, _CANCEL]
        fixed = set(clean)
        gates: List[Gate] = list(circuit)
        for name in passes:
            if name == _CANCEL:
                gates, changed = cancel_to_fixpoint(gates)
            elif name == _MERGE:
                gates, changed = merge_to_fixpoint(gates, self.gate_set)
            else:
                gates, changed = template_sweep(
                    gates, self.coupling_map, gate_set=self.gate_set
                )
            if changed:
                fixed.clear()
            if not changed or name != _TEMPLATES:
                fixed.add(name)
        candidate = QuantumCircuit._trusted(
            circuit.num_qubits, gates, name=circuit.name
        )
        return candidate, frozenset(fixed)

    def run(self, circuit: QuantumCircuit) -> QuantumCircuit:
        """Optimize ``circuit`` until the cost function stops decreasing.

        The loop also stops, without a confirming round, once the best
        circuit is a fixpoint of every enabled pass: the next round
        would return it unchanged at equal cost and be rejected.
        """
        t = self.tracer if self.tracer is not None else NULL_TRACER
        facts = bool(self.known_zero or self.known_one)
        self.last_dataflow = (
            ConstantPropagationStats(self.known_zero, self.known_one)
            if facts else None
        )
        enabled = {_CANCEL, _MERGE}
        if self.enable_templates:
            enabled.add(_TEMPLATES)
        best = circuit
        best_cost = self.cost_function(best)
        clean: FrozenSet[str] = frozenset()
        trace = [best_cost]
        rounds = 0
        stopped = "max_rounds"
        while rounds < self.max_rounds:
            rounds += 1
            with t.span("optimize.round", round=rounds) as span:
                candidate, fixed = self._round(best, clean)
                cost = self.cost_function(candidate)
                trace.append(cost)
                span.set(
                    cost_before=best_cost,
                    cost_after=cost,
                    gates_before=len(best),
                    gates_after=len(candidate),
                    accepted=cost < best_cost,
                )
            if cost >= best_cost:
                stopped = "rejected"
                break
            best, best_cost, clean = candidate, cost, fixed
            if clean >= enabled:
                stopped = "fixpoint"
                break
        # Dataflow constant propagation after the fixpoint: on the raw
        # mapping the facts are usually blocked by basis-changing
        # sandwiches (H conjugations), so the interesting deletions
        # appear only once templates have cleaned those up.  After a
        # rewrite a cancellation sweep (cheap, exact) cleans any
        # inverse pairs the deletion exposed and propagation runs
        # again over the smaller circuit; the common case — nothing to
        # rewrite — is one early-bailing sweep.  Accepted at equal
        # cost too (fewer gates, never costlier).
        while facts and rounds < self.max_rounds:
            rounds += 1
            with t.span("optimize.dataflow") as df_span:
                rewritten, stats = propagate_constants(
                    best, self.known_zero, self.known_one
                )
                df_span.set(
                    deleted=stats.deleted, demoted=stats.demoted,
                    gates_before=len(best), gates_after=len(rewritten),
                )
            assert self.last_dataflow is not None
            self.last_dataflow.merge(stats)
            if not stats.changed:
                break
            rewritten = remove_identities(rewritten)
            cost = self.cost_function(rewritten)
            if cost > best_cost:
                break
            best, best_cost = rewritten, cost
            trace.append(cost)
        self.last_report = OptimizationReport(
            initial_cost=trace[0],
            final_cost=best_cost,
            rounds=rounds,
            cost_trace=trace,
            stopped=stopped,
        )
        metrics = get_metrics()
        metrics.inc("optimizer.runs")
        metrics.inc("optimizer.rounds", rounds)
        metrics.inc("optimizer.cost_saved", trace[0] - best_cost)
        return best


def optimize_circuit(
    circuit: QuantumCircuit,
    cost_function: CostFunction = TRANSMON_COST,
    coupling_map: Optional[CouplingMap] = None,
    known_zero=(),
    known_one=(),
) -> QuantumCircuit:
    """Convenience wrapper: run :class:`LocalOptimizer` once."""
    return LocalOptimizer(
        cost_function, coupling_map, known_zero=known_zero, known_one=known_one
    ).run(circuit)
