"""The replayable regression corpus of shrunk fuzz failures.

Every fuzz finding, once shrunk, is worth keeping forever: it is a
minimal input that once made the compiler produce a wrong (or crashing)
answer.  The corpus stores each one as a small JSON document under
``tests/corpus/`` — content-addressed filenames, deterministic payloads
— and the tier-1 suite replays the whole directory on every run, so a
fixed miscompile can never quietly return.

An entry records everything needed to re-run the cell without the
generator: the explicit (shrunk) gate list, the fuzz-grid device name,
the named option vector, plus provenance (case seed, original size,
failure detail) for humans reading the bug report.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..batch.engine import CompileJob
from ..batch.serialize import circuit_from_payload, circuit_to_payload
from ..core.circuit import QuantumCircuit
from ..core.exceptions import ReproError
from .harness import FuzzConfig, FuzzFinding, build_fuzz_device, oracle_check, resolve_options

__all__ = [
    "CORPUS_VERSION",
    "CorpusEntry",
    "ReplayOutcome",
    "entry_from_finding",
    "load_corpus",
    "replay_corpus",
    "replay_entry",
    "save_entry",
]

#: Bump on incompatible entry-schema changes; old entries are rejected
#: loudly (a silently skipped regression test is worse than a failure).
CORPUS_VERSION = 1


@dataclass
class CorpusEntry:
    """One minimal failing (historically) compilation cell."""

    kind: str
    device: str
    options: Dict[str, str]
    circuit: QuantumCircuit
    case_seed: int = 0
    detail: str = ""
    original_gates: int = 0

    @property
    def entry_id(self) -> str:
        """Content address: same cell -> same id, regardless of when or
        where it was found."""
        basis = "\n".join((
            self.kind,
            self.device,
            json.dumps(self.options, sort_keys=True),
            self.circuit.fingerprint(),
        ))
        return hashlib.sha256(basis.encode()).hexdigest()[:16]

    def to_payload(self) -> Dict:
        return {
            "version": CORPUS_VERSION,
            "id": self.entry_id,
            "kind": self.kind,
            "device": self.device,
            "options": dict(sorted(self.options.items())),
            "circuit": circuit_to_payload(self.circuit),
            "case_seed": self.case_seed,
            "detail": self.detail,
            "original_gates": self.original_gates,
        }

    @classmethod
    def from_payload(cls, payload: Dict) -> "CorpusEntry":
        version = payload.get("version")
        if version != CORPUS_VERSION:
            raise ReproError(
                f"corpus entry version {version!r} unsupported "
                f"(expected {CORPUS_VERSION})"
            )
        return cls(
            kind=payload["kind"],
            device=payload["device"],
            options=dict(payload["options"]),
            circuit=circuit_from_payload(payload["circuit"]),
            case_seed=payload.get("case_seed", 0),
            detail=payload.get("detail", ""),
            original_gates=payload.get("original_gates", 0),
        )


def entry_from_finding(finding: FuzzFinding) -> CorpusEntry:
    """Convert a harness finding into its corpus form (minimal circuit)."""
    return CorpusEntry(
        kind=finding.kind,
        device=finding.device,
        options=dict(finding.options),
        circuit=finding.minimal_circuit,
        case_seed=finding.case_seed,
        detail=finding.detail,
        original_gates=(
            finding.shrunk.original_gates
            if finding.shrunk is not None
            else len(finding.circuit)
        ),
    )


def save_entry(directory: str, entry: CorpusEntry) -> str:
    """Write ``entry`` to ``directory`` (created if needed); returns the
    path.  Content-addressed name, atomic write: saving the same finding
    twice is idempotent and concurrent savers cannot corrupt a file."""
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{entry.entry_id}.json")
    temp = f"{path}.tmp.{os.getpid()}"
    with open(temp, "w") as handle:
        json.dump(entry.to_payload(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    os.replace(temp, path)
    return path


def load_corpus(directory: str) -> List[CorpusEntry]:
    """All entries in ``directory``, sorted by id (deterministic order).
    Missing directory reads as an empty corpus; malformed entries raise."""
    if not os.path.isdir(directory):
        return []
    entries: List[CorpusEntry] = []
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".json"):
            continue
        path = os.path.join(directory, name)
        try:
            with open(path) as handle:
                payload = json.load(handle)
        except (OSError, ValueError) as error:
            raise ReproError(f"unreadable corpus entry {path}: {error}")
        entries.append(CorpusEntry.from_payload(payload))
    return entries


@dataclass
class ReplayOutcome:
    """Result of re-running one corpus entry against today's compiler."""

    entry: CorpusEntry
    passed: bool
    detail: str

    def describe(self) -> str:
        status = "pass" if self.passed else "STILL FAILING"
        return (
            f"{self.entry.entry_id} [{self.entry.kind} on "
            f"{self.entry.device}] {status}: {self.detail}"
        )


def replay_entry(
    entry: CorpusEntry, config: Optional[FuzzConfig] = None
) -> ReplayOutcome:
    """Re-run one entry: compile its circuit on its device/options and
    ask the oracle.  ``passed`` means the historical bug stays fixed —
    the cell compiles and the output is equivalent."""
    config = config or FuzzConfig()
    device = build_fuzz_device(entry.device)
    options = resolve_options(entry.options)
    try:
        result = CompileJob.make(entry.circuit, device, options).run()
    except Exception as error:
        return ReplayOutcome(
            entry=entry,
            passed=False,
            detail=f"compile raised {type(error).__name__}: {error}",
        )
    verdict = oracle_check(
        result,
        samples=config.oracle_samples,
        seed=config.seed,
        qmdd_width_limit=config.qmdd_width_limit,
    )
    if not verdict.equivalent:
        return ReplayOutcome(
            entry=entry,
            passed=False,
            detail=f"oracle mismatch (method={verdict.method})",
        )
    return ReplayOutcome(
        entry=entry,
        passed=True,
        detail=f"equivalent (method={verdict.method})",
    )


def replay_corpus(
    directory: str, config: Optional[FuzzConfig] = None
) -> List[ReplayOutcome]:
    """Replay every entry under ``directory`` in deterministic order."""
    return [
        replay_entry(entry, config=config)
        for entry in load_corpus(directory)
    ]
