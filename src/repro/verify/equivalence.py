"""The compiler's verification facade.

The paper's compiler always closes with formal verification: "All outputs
were confirmed to be the same function as their original
technology-independent description by building the QMDD data structure
for each design and testing for equivalence" (Section 5).

:func:`verify_equivalent` chooses the strongest affordable method:

* **qmdd** (default) — canonical QMDD comparison; complete and exact.
* **dense** — numpy unitary comparison; complete, but <= ~12 qubits.
* **sampled** — sparse simulation on random basis inputs; exact per
  sample, used for very wide circuits (the 96-qubit Table 8 runs) where
  building the full QMDD is impractically slow in pure Python.
* **auto** — qmdd below ``qmdd_width_limit`` qubits, else sampled.
  Auto mode first tries the dataflow **abstract-permutation pre-screen**:
  when both circuits are classical-reversible within
  :data:`PRESCREEN_WIDTH_LIMIT` qubits, their exact truth tables are
  compared before any QMDD is built — disagreement is an immediate NO
  with a witness input, agreement is a proof, and ⊤ (non-classical or
  too wide) falls through to the miter path.

The qmdd method runs one of two strategies (see
``docs/performance.md``):

* **miter** (default) — apply the mapped circuit's gates followed by
  the original's inverse onto one running product and test it against
  the identity; for equivalent circuits the product collapses as it is
  built, so intermediate diagrams stay small.
* **two_sided** — the paper's original formulation: build both
  diagrams and compare root pointers.  Kept as the fallback and as the
  first recheck of a miter NO (the two builds take different float
  normalization paths, so they double-check each other near tolerance
  boundaries).

A mapped circuit routed with a moving layout (``route="sabre"``) ends
on permuted wires; the facade appends the SWAP tail that undoes the
declared permutation.  The miter factors SWAPs out of its fused stream
and tracks them as a wire relabelling, so neither the router's SWAPs nor
that tail grow its product: a sabre output verifies like an unrouted
one.

Either strategy runs on the wires the two circuits touch, relabelled in
physical order: an idle wire is an identity factor on both sides, and
dropping it saves rebuilding a node on that level for every gate below
it.  A remaining NO is rechecked on the full register: densely up to 10
wires, which may overturn it, or by sampling above, which may not.

QMDD managers are pooled per process and per width
(:class:`~repro.qmdd.pool.ManagerPool`), so batch workers and fuzz
campaigns reuse warm gate/identity caches across checks under bounded
unique/operation tables.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Optional
import numpy as np

from ..core.circuit import QuantumCircuit
from ..core.exceptions import VerificationError
from ..obs import get_metrics
from ..qmdd.equivalence import check_equivalence as qmdd_check
from ..qmdd.manager import QMDDManager
from ..qmdd.pool import get_manager_pool
from .permutation import evaluate, permutation
from .sparse_sim import run_sparse, sampled_equivalence

#: QMDD strategies accepted by ``verify_equivalent(strategy=...)``.
VERIFY_STRATEGIES = ("miter", "two_sided")
#: Methods accepted by ``verify_equivalent(method=...)``.
VERIFY_METHODS = ("auto", "qmdd", "dense", "sampled")

#: Width bound of the abstract-permutation pre-screen (the exact
#: permutation of both circuits is built; 2^width entries each).
PRESCREEN_WIDTH_LIMIT = 12

#: Work bound of the pre-screen: ``2^width * total_gates`` evaluation
#: steps.  Beyond it the screen abstains (⊤) and the QMDD path runs —
#: a "cheap NO" that costs more than the miter is no longer cheap.
_PRESCREEN_MAX_OPS = 1 << 20

#: Exhaustive-subspace bounds: sparse simulation of every admissible
#: basis input is attempted up to this many free (non-known-zero)
#: wires; classical circuits use the cheaper bitwise evaluator with a
#: work bound instead.
_SUBSPACE_EXHAUSTIVE_FREE = 10
_SUBSPACE_MAX_OPS = 1 << 22


@dataclass(frozen=True)
class VerificationReport:
    """How a circuit pair was verified and what the verdict was."""

    method: str
    equivalent: bool
    detail: str = ""

    def __bool__(self) -> bool:
        return self.equivalent


def verify_equivalent(
    original: QuantumCircuit,
    mapped: QuantumCircuit,
    method: str = "auto",
    up_to_global_phase: bool = False,
    qmdd_width_limit: int = 24,
    samples: int = 32,
    seed: int = 2019,
    strategy: str = "miter",
    pool: bool = True,
    known_zero: Iterable[int] = (),
    prescreen: bool = True,
    output_permutation: Optional[Dict[int, int]] = None,
    _recheck: bool = False,
) -> VerificationReport:
    """Check that ``mapped`` implements ``original`` (ancilla wires must
    act as identity).  Returns a report; never raises on inequivalence —
    use :func:`require_equivalent` for that.

    ``seed`` drives the sampled method's basis-state choice, making wide
    verdicts reproducible (the differential fuzz harness depends on a
    failing case replaying identically).

    ``strategy`` selects the qmdd build (``"miter"`` or ``"two_sided"``)
    and ``pool=False`` opts out of the per-process manager pool (used by
    benchmarks that must measure cold builds).

    ``known_zero`` restricts the equivalence claim to the subspace where
    the listed wires start in |0⟩ (the compiler passes the facts it let
    the dataflow optimizer exploit).  A full-space YES implies the
    subspace YES; on a full-space NO the check re-asks the question on
    the admissible inputs only.

    When ``method == "auto"`` and both circuits are classical-reversible
    within :data:`PRESCREEN_WIDTH_LIMIT` qubits, the abstract-permutation
    pre-screen compares exact truth tables *before any QMDD is built*:
    disagreement is an immediate NO with a witness input, agreement is a
    proof (the permutation is the circuit's full semantics).  Pass
    ``prescreen=False`` to force the QMDD path.

    ``output_permutation`` declares that ``mapped`` ends with its wires
    permuted — dynamic-layout routing (``route="sabre"``) leaves input
    wire ``v``'s state on wire ``output_permutation[v]`` instead of
    spending SWAPs to restore it.  The check composes the *inverse*
    permutation into ``mapped`` (as a wire-space SWAP tail), so every
    path — miter, two-sided, prescreen, dense, sampled, subspace — sees
    both circuits in the same wire basis and ``known_zero`` facts keep
    their input-wire meaning.  The miter absorbs that tail as a wire
    relabelling at no diagram cost."""
    if strategy not in VERIFY_STRATEGIES:
        raise VerificationError(
            f"unknown verification strategy {strategy!r} "
            f"(expected one of {', '.join(VERIFY_STRATEGIES)})"
        )
    if output_permutation and any(
        v != p for v, p in output_permutation.items()
    ):
        # Undo the routing permutation inside the comparison: append the
        # inverse-permutation SWAP tail to the mapped circuit.  SWAP is
        # native to every verification backend (QMDD apply, dense
        # matrices, sparse simulation, the classical prescreen), so all
        # downstream paths stay unchanged.
        from ..backend.router import permutation_restore_gates

        tail = permutation_restore_gates(
            output_permutation, mapped.num_qubits
        )
        mapped = QuantumCircuit(
            mapped.num_qubits,
            list(mapped.gates) + tail,
            name=mapped.name,
        )
    # Wires beyond the last touched qubit are identity in both circuits, so
    # verification can run on the narrower effective register.
    touched = [q for c in (original, mapped) for q in c.used_qubits]
    width = (max(touched) + 1) if touched else 1
    original = QuantumCircuit(width, original.gates, name=original.name)
    mapped = QuantumCircuit(width, mapped.gates, name=mapped.name)
    zeros = frozenset(q for q in known_zero if 0 <= q < width)
    if method == "auto":
        if prescreen and not _recheck:
            screened = _permutation_prescreen(original, mapped, width, zeros)
            if screened is not None:
                return screened
        method = "qmdd" if width <= qmdd_width_limit else "sampled"

    metrics = get_metrics()
    # Rechecks count under their own verify.recheck.* keys: a recheck is
    # a *consequence* of one NO verdict, not an independent check, and
    # folding it into verify.*_checks used to dilute hit-rate dashboards.
    counter_prefix = "verify.recheck." if _recheck else "verify."
    metrics.inc(f"{counter_prefix}{method}_checks")
    started = time.perf_counter()
    try:
        report = _verify(
            original, mapped, method, width,
            up_to_global_phase=up_to_global_phase, samples=samples, seed=seed,
            strategy=strategy, pool=pool,
        )
        if not report.equivalent and zeros and not _recheck:
            # The full-space check failed, but the claim is only about
            # the |0⟩-restricted subspace (e.g. after constant-
            # propagation deletions that are sound there by design).
            return _subspace_verify(
                original, mapped, width, zeros,
                up_to_global_phase=up_to_global_phase,
                samples=samples, seed=seed,
            )
        return report
    finally:
        metrics.inc(
            f"{counter_prefix}seconds", time.perf_counter() - started
        )


def _verify(
    original: QuantumCircuit,
    mapped: QuantumCircuit,
    method: str,
    width: int,
    up_to_global_phase: bool,
    samples: int,
    seed: int,
    strategy: str = "miter",
    pool: bool = True,
) -> VerificationReport:
    if method == "qmdd":
        metrics = get_metrics()
        # Wires neither circuit touches are identity factors on both
        # sides, so the QMDD check runs on the touched wires alone,
        # relabelled in physical order; the rechecks below keep the
        # full register.
        wires = sorted(
            {q for circuit in (original, mapped) for q in circuit.used_qubits}
        )
        first, second, compact = original, mapped, width
        if wires and len(wires) < width:
            relabel = {q: index for index, q in enumerate(wires)}
            compact = len(wires)
            first = original.remapped(relabel, compact)
            second = mapped.remapped(relabel, compact)
        if pool:
            manager_pool = get_manager_pool()
            manager = manager_pool.acquire(compact)
            manager_pool.record_metrics(metrics)
        else:
            manager = QMDDManager(compact)
        result = qmdd_check(
            first, second, num_qubits=compact,
            up_to_global_phase=up_to_global_phase, manager=manager,
            strategy=strategy,
        )
        # Per-check managers used to take their unique-table and
        # operation-cache stats to the grave (worst of all inside pool
        # workers); record them in this process's registry so the batch
        # engine can ship them back to the coordinator.
        manager.record_metrics(metrics)
        equivalent = result.equivalent
        detail = (
            f"strategy={strategy} wires={compact}/{width} "
            f"nodes={result.nodes_first}/{result.nodes_second} "
            f"shared_root={result.shared_root}"
        )
        if strategy == "miter":
            detail += f" swaps_factored={result.swaps_factored}"
        if not equivalent and strategy == "miter":
            # The miter and the two-sided build take different float
            # normalization paths; a miter NO near a tolerance boundary
            # is first re-asked with the paper's original formulation.
            metrics.inc("verify.recheck.qmdd_checks")
            two_sided = qmdd_check(
                first, second, num_qubits=compact,
                up_to_global_phase=up_to_global_phase, manager=manager,
                strategy="two_sided",
            )
            manager.record_metrics(metrics)
            if two_sided.equivalent:
                equivalent = True
                detail += " (recheck:two_sided agreed equivalent)"
        if not equivalent:
            # Canonical float DDs can (rarely) produce a *false negative*
            # when two build paths normalize near a tolerance boundary —
            # never a false positive.  A dense recheck is complete, so it
            # may overturn the NO; a sampled one only tries inputs, so its
            # agreement is recorded but the NO stands.
            if width <= 10:
                recheck = verify_equivalent(
                    original, mapped, method="dense",
                    up_to_global_phase=up_to_global_phase,
                    _recheck=True,
                )
                if recheck.equivalent:
                    equivalent = True
                    detail += " (recheck:dense agreed equivalent)"
            else:
                recheck = verify_equivalent(
                    original, mapped, method="sampled",
                    up_to_global_phase=up_to_global_phase, samples=samples,
                    seed=seed, _recheck=True,
                )
                if recheck.equivalent:
                    detail += (
                        f" (recheck:sampled agreed on {samples} samples; "
                        "incomplete, the NO stands)"
                    )
        return VerificationReport(
            method="qmdd",
            equivalent=equivalent,
            detail=detail,
        )
    if method == "dense":
        if width > 12:
            raise VerificationError("dense verification beyond 12 qubits")
        a = original.widened(width).unitary()
        b = mapped.widened(width).unitary()
        if up_to_global_phase:
            # Align phases on the largest entry of a.
            index = np.unravel_index(np.argmax(np.abs(a)), a.shape)
            if abs(b[index]) > 1e-12:
                b = b * (a[index] / b[index])
        return VerificationReport(
            method="dense",
            equivalent=bool(np.allclose(a, b, atol=1e-8)),
            detail=f"dim={a.shape[0]}",
        )
    if method == "sampled":
        verdict = sampled_equivalence(
            original, mapped, samples=samples, seed=seed,
            up_to_global_phase=up_to_global_phase,
        )
        return VerificationReport(
            method="sampled",
            equivalent=verdict,
            detail=f"samples={samples}",
        )
    raise VerificationError(f"unknown verification method {method!r}")


def _permutation_prescreen(
    original: QuantumCircuit,
    mapped: QuantumCircuit,
    width: int,
    known_zero: FrozenSet[int],
) -> Optional[VerificationReport]:
    """The dataflow abstract-permutation pre-screen.

    Both circuits must be classical-reversible (their abstract
    permutation is exact, not ⊤) and narrow enough that building the
    2^width truth tables is cheaper than any QMDD.  Disagreement on an
    admissible input is a complete NO with that input as witness;
    agreement on every admissible input is a complete YES — for
    classical circuits the permutation *is* the unitary.  Returns
    ``None`` (⊤: fall through to the miter path) when either circuit is
    non-classical or the work bound is exceeded.
    """
    if width > PRESCREEN_WIDTH_LIMIT:
        return None
    if not (original.is_classical_reversible and mapped.is_classical_reversible):
        return None
    total_gates = len(original.gates) + len(mapped.gates)
    if (1 << width) * max(total_gates, 1) > _PRESCREEN_MAX_OPS:
        return None
    metrics = get_metrics()
    metrics.inc("verify.prescreen.checks")
    started = time.perf_counter()
    try:
        first = permutation(original)
        second = permutation(mapped)
        zero_mask = sum(1 << (width - 1 - q) for q in known_zero)
        for index in range(1 << width):
            if index & zero_mask:
                continue  # outside the known-zero subspace
            if first[index] != second[index]:
                metrics.inc("verify.prescreen.rejects")
                witness = format(index, f"0{width}b")
                expected = format(first[index], f"0{width}b")
                got = format(second[index], f"0{width}b")
                return VerificationReport(
                    method="prescreen",
                    equivalent=False,
                    detail=(
                        f"abstract permutations disagree on input "
                        f"|{witness}>: original -> |{expected}>, "
                        f"mapped -> |{got}>"
                    ),
                )
        metrics.inc("verify.prescreen.proofs")
        scope = (
            f"on the |0> subspace of q{{{','.join(map(str, sorted(known_zero)))}}}"
            if known_zero else "on all inputs"
        )
        return VerificationReport(
            method="prescreen",
            equivalent=True,
            detail=(
                f"exact classical permutations agree {scope} "
                f"(2^{width} states, no QMDD built)"
            ),
        )
    finally:
        metrics.inc("verify.prescreen.seconds", time.perf_counter() - started)


def _subspace_verify(
    original: QuantumCircuit,
    mapped: QuantumCircuit,
    width: int,
    known_zero: FrozenSet[int],
    up_to_global_phase: bool,
    samples: int,
    seed: int,
) -> VerificationReport:
    """Equivalence restricted to basis inputs with ``known_zero`` wires
    in |0⟩ (reached only after a full-space NO).

    By linearity, agreement on every admissible *basis* input proves
    equivalence on the whole subspace, so the exhaustive legs are exact
    proofs; beyond the exhaustive bounds the verdict degrades to
    restricted sampling (exact per sample, like the ``sampled`` method).
    """
    metrics = get_metrics()
    metrics.inc("verify.subspace_checks")
    started = time.perf_counter()
    try:
        free_positions = [
            width - 1 - q for q in range(width) if q not in known_zero
        ]
        free = len(free_positions)

        def scatter(packed: int) -> int:
            index = 0
            for offset, position in enumerate(free_positions):
                if packed & (1 << offset):
                    index |= 1 << position
            return index

        classical = (
            original.is_classical_reversible and mapped.is_classical_reversible
        )
        total_gates = len(original.gates) + len(mapped.gates)
        if classical and (1 << free) * max(total_gates, 1) <= _SUBSPACE_MAX_OPS:
            for packed in range(1 << free):
                index = scatter(packed)
                if evaluate(original, index) != evaluate(mapped, index):
                    witness = format(index, f"0{width}b")
                    return VerificationReport(
                        method="subspace",
                        equivalent=False,
                        detail=f"classical outputs differ on input |{witness}>",
                    )
            return VerificationReport(
                method="subspace",
                equivalent=True,
                detail=(
                    f"exhaustive classical check over 2^{free} admissible "
                    "inputs (exact on the subspace)"
                ),
            )
        if free <= _SUBSPACE_EXHAUSTIVE_FREE:
            for packed in range(1 << free):
                index = scatter(packed)
                state_a = run_sparse(original, index)
                state_b = run_sparse(mapped, index)
                if not state_a.equals(
                    state_b, up_to_global_phase=up_to_global_phase
                ):
                    witness = format(index, f"0{width}b")
                    return VerificationReport(
                        method="subspace",
                        equivalent=False,
                        detail=f"states differ on basis input |{witness}>",
                    )
            return VerificationReport(
                method="subspace",
                equivalent=True,
                detail=(
                    f"exhaustive sparse simulation over 2^{free} admissible "
                    "basis inputs (exact on the subspace by linearity)"
                ),
            )
        rng = random.Random(seed)
        for _ in range(samples):
            index = scatter(rng.getrandbits(free))
            state_a = run_sparse(original, index)
            state_b = run_sparse(mapped, index)
            if not state_a.equals(
                state_b, up_to_global_phase=up_to_global_phase
            ):
                witness = format(index, f"0{width}b")
                return VerificationReport(
                    method="subspace",
                    equivalent=False,
                    detail=f"states differ on basis input |{witness}>",
                )
        return VerificationReport(
            method="subspace",
            equivalent=True,
            detail=(
                f"{samples} sampled admissible basis inputs agree "
                "(subspace too wide for the exhaustive check)"
            ),
        )
    finally:
        metrics.inc("verify.subspace_seconds", time.perf_counter() - started)


def require_equivalent(
    original: QuantumCircuit,
    mapped: QuantumCircuit,
    method: str = "auto",
    up_to_global_phase: bool = False,
    **kwargs,
) -> VerificationReport:
    """Like :func:`verify_equivalent` but raises on failure."""
    report = verify_equivalent(
        original, mapped, method=method, up_to_global_phase=up_to_global_phase, **kwargs
    )
    if not report:
        raise VerificationError(
            f"{mapped.name or 'mapped circuit'} is NOT equivalent to "
            f"{original.name or 'original'} (method={report.method})"
        )
    return report
