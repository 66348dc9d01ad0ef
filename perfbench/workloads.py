"""Workload populations and the seeded operation plan of one run.

An *operation* is one compile as a caller issues it, described by a
JSON-safe dict::

    {"id": "paper-grid/#017f/ibmqx5/sabre", "family": "table3",
     "name": "017f", "qubits": 6, "device": "ibmqx5", "route": "sabre",
     "verify": "auto"}

The population of every workload and the order of its compiles are
fixed, so the set of distinct outputs -- and with it every ``opt_*``
figure -- is the same in every run.  ``--seed`` places the warm repeats
of ``serve-mix`` and picks which outputs the checks simulate on which
inputs.  Importing this module loads nothing of the compiler.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

WORKLOADS = ("paper-grid", "wide96", "serve-mix")

#: The five IBM devices of the paper's Tables 3-6, in paper order.
PAPER_DEVICES = ("ibmqx2", "ibmqx3", "ibmqx4", "ibmqx5", "ibmq_16")
ROUTES = ("ctr", "sabre")

#: Seed of the fixed ``paper-grid`` draw (the paper's year).  Not the
#: run's ``--seed``: every run compiles the same draw.
PAPER_GRID_DRAW_SEED = 2019
#: Cells drawn from the 290-cell Table 3 + Table 5 grid: about 24 s of
#: serial compile time on a 2-CPU machine.
PAPER_GRID_DRAW = 64
#: The trapped-ion target of ``paper-grid`` (all-to-all, native
#: {RX, RY, RZ, RXX}): the smallest ion machine that holds every Table 3
#: and Table 5 source with a spare line.  It is the only target that
#: reaches the mapper's rebase stage; its 58 cells take about 5 s.
ION_DEVICE = "ion7"

#: Table 7 cascade sizes on the 96-qubit machine (``T3_b`` .. ``T19_b``).
WIDE96_SIZES = tuple(range(3, 20))

#: Nominal seconds of one round of each workload; a run does
#: ``max(1, round(seconds / nominal))`` whole rounds, so its work is
#: fixed by ``--seconds`` alone and never by how fast the machine is.
#: A ``serve-mix`` round is one fresh daemon answering one stream.
ROUND_SECONDS = {"paper-grid": 30.0, "wide96": 34.0, "serve-mix": 15.0}

#: ``serve-mix``: warm repeats of every distinct request in a round.
#: A synthetic choice, not taken from an observed request log: with 4,
#: a fifth of the stream is cold.  Every ``serve-mix`` latency figure
#: depends on it (README.md).
SERVE_REPEATS = 4


def rounds(workload: str, seconds: float, traced: bool = False) -> int:
    """Rounds of a run; a traced run does one (per-layer figures need
    no repeats, and tracing costs time)."""
    if traced:
        return 1
    return max(1, round(seconds / ROUND_SECONDS[workload]))


def table3_rows() -> List[Tuple[str, int]]:
    from repro.benchlib import single_target

    return list(single_target.PAPER_STG_BENCHMARKS)


def revlib_rows() -> List[Tuple[str, int]]:
    from repro.benchlib import revlib

    return [
        (name, revlib.build_benchmark(name).num_qubits)
        for name, _, _ in revlib.PAPER_REVLIB_BENCHMARKS
    ]


def device(name: str):
    """The target ``name``: a registered device, or ``ion<n>``, which
    the compiler builds on request and does not register."""
    if name.startswith("ion"):
        from repro.devices import ion_device

        return ion_device(int(name[3:]))
    from repro.devices import get_device

    return get_device(name)


def _op(workload: str, family: str, name: str, qubits: int, device: str,
        route: str, verify) -> Dict:
    label = f"#{name}" if family == "table3" else name
    return {
        "id": f"{workload}/{label}/{device}/{route}",
        "family": family,
        "name": name,
        "qubits": qubits,
        "device": device,
        "route": route,
        "verify": verify,
    }


def _grid_sources() -> List[Tuple[str, str, int]]:
    sources = [("table3", n, q) for n, q in table3_rows()]
    return sources + [("revlib", n, q) for n, q in revlib_rows()]


def paper_grid_population() -> List[Dict]:
    """All 290 IBM cells: 24 Table 3 functions and 5 RevLib circuits on
    the five IBM devices under both routes, verification ``auto``."""
    return [
        _op("paper-grid", family, name, qubits, device, route, "auto")
        for family, name, qubits in _grid_sources()
        for device in PAPER_DEVICES
        for route in ROUTES
    ]


def paper_grid_round() -> List[Dict]:
    """The fixed list every ``paper-grid`` run compiles: a draw from the
    IBM cells, then every source on the ion machine under both routes."""
    population = paper_grid_population()
    drawn = random.Random(PAPER_GRID_DRAW_SEED).sample(
        population, PAPER_GRID_DRAW
    )
    ion = [
        _op("paper-grid", family, name, qubits, ION_DEVICE, route, "auto")
        for family, name, qubits in _grid_sources()
        for route in ROUTES
    ]
    return drawn + ion


def wide96_round() -> List[Dict]:
    """``T3_b`` .. ``T19_b`` on the 96-qubit machine, both routes, no
    verification."""
    return [
        _op("wide96", "table7", f"T{n}_b", 96, "proposed96", route, False)
        for n in WIDE96_SIZES
        for route in ROUTES
    ]


def compile_plan(workload: str, count: int) -> List[Dict]:
    """The operations of ``count`` rounds of a compile workload, always
    in the same order.  The order is not seeded: QMDD manager pools and
    the optimizer's memo tables carry state from one compile to the
    next, and a shuffled order moved single compiles by up to 4x
    (README.md)."""
    population = (
        paper_grid_round() if workload == "paper-grid" else wide96_round()
    )
    return population * count


def emits_qasm(op: Dict) -> bool:
    """Whether the operation ends in QASM emission.  Ion outputs hold
    RXX, which ``repro.io.to_qasm`` cannot write (``FOUND`` in
    CHANGES.md); their gate list is read from the result instead."""
    return not op["device"].startswith("ion")


def expected_na(op: Dict, device_qubits: int) -> bool:
    """Whether a correct compiler answers N/A for ``op``: the source is
    wider than the device, or it needs a spare line the device lacks --
    a full-degree Table 3 function at equal width
    (``single_target.expected_na``), or the T5 gate of RevLib
    ``4gt12-v0_88`` on a 5-qubit device."""
    if op["qubits"] > device_qubits:
        return True
    if op["family"] == "table3":
        ones = bin(int(op["name"], 16)).count("1")
        return op["qubits"] == device_qubits and ones % 2 == 1
    if op["family"] == "revlib":
        return op["name"] == "4gt12-v0_88" and device_qubits == 5
    return False


def serve_population() -> List[Dict]:
    """Distinct ``serve-mix`` requests: Table 3 functions of at most 5
    qubits and the Table 5 circuits, on the five devices under both
    routes, leaving out the pairs that are N/A by :func:`expected_na`."""
    sources = [("table3", n, q) for n, q in table3_rows() if q <= 5]
    sources += [("revlib", n, q) for n, q in revlib_rows()]
    device_qubits = {"ibmqx2": 5, "ibmqx3": 16, "ibmqx4": 5, "ibmqx5": 16,
                     "ibmq_16": 14}
    ops = []
    for family, name, qubits in sources:
        for device in PAPER_DEVICES:
            for route in ROUTES:
                op = _op("serve-mix", family, name, qubits, device, route,
                         True)
                if not expected_na(op, device_qubits[device]):
                    ops.append(op)
    return ops


def serve_stream(rng: random.Random) -> List[int]:
    """One round's request stream as indexes into
    :func:`serve_population`: every distinct request once cold, in
    population order, and ``SERVE_REPEATS`` more times at positions
    drawn from ``rng``."""
    distinct = len(serve_population())
    stream = [i for i in range(distinct) for _ in range(SERVE_REPEATS + 1)]
    rng.shuffle(stream)
    # Relabel so that first sends (the compiles) come in population
    # order; only the places of the repeats depend on the seed.
    relabel: Dict[int, int] = {}
    for index in stream:
        relabel.setdefault(index, len(relabel))
    return [relabel[index] for index in stream]
