"""Checks of one run's outputs, and the ``opt_*`` figures.

The compiler's device library supplies only the *target* (its qubit
count, directed coupling edges and native gates) and the RevLib source
cascades; everything else -- reading the output, cost, depth,
simulation, the Table 3 and Table 7 source functions, the N/A rule --
is the benchmark's own (:mod:`check`, :mod:`workloads`).
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence, Tuple

import check
from workloads import device as get_target
from workloads import expected_na

#: Paper Table 8, T column (unoptimized and optimized alike).
PAPER_TABLE8_T = {6: 336, 7: 448, 8: 560, 9: 672, 10: 784}

#: Outputs simulated per run.  A Table 3 or RevLib output is run on
#: every basis input of its source wires; a Table 7 output on inputs
#: chosen to fire its gates, to miss each by one control, and at random
#: (:meth:`Output.source_inputs`).
SIMULATED = {"paper-grid": 16, "wide96": 4, "serve-mix": 12}


def targets(names) -> Dict[str, Tuple[int, List, Tuple[str, ...]]]:
    specs = {}
    for name in names:
        device = get_target(name)
        specs[name] = (
            device.num_qubits,
            sorted(device.coupling_map.directed_edges),
            tuple(device.gate_set),
        )
    return specs


def _revlib_cascade(name: str) -> List[Tuple[List[int], int]]:
    from repro.benchlib import revlib

    cascade = []
    for gate in revlib.build_benchmark(name):
        if gate.name not in ("X", "CNOT", "TOFFOLI", "MCX"):
            raise check.CheckError(f"{name}: {gate.name} is not an NCT gate")
        cascade.append((list(gate.qubits[:-1]), gate.qubits[-1]))
    return cascade


def source_output(op: Dict, bits: Sequence[int]) -> List[int]:
    """What the source maps the logical basis state ``bits`` to."""
    if op["family"] == "table3":
        return check.single_target_output(op["name"], bits)
    if op["family"] == "revlib":
        return check.cascade_output(_revlib_cascade(op["name"]), bits)
    n = int(op["name"][1:-2])
    return check.cascade_output(check.table7_cascade(n), bits)


def toffoli_t_bound(n: int) -> int:
    """28 T per Barenco Toffoli of one ``T_n`` gate, four gates: a
    ``T_3`` is one Toffoli, a ``T_n`` (n >= 4) a 4(n-3)-Toffoli chain."""
    return 28 * (1 if n == 3 else 4 * (n - 3))


class Output:
    """One distinct compiled output, read back from its text."""

    def __init__(self, op: Dict, num_qubits: int, gates, placement: Dict,
                 permutation: Dict, reported: Dict):
        self.op = op
        self.num_qubits = num_qubits
        self.gates = gates
        self.placement = {int(k): v for k, v in placement.items()}
        self.permutation = {int(k): v for k, v in permutation.items()}
        self.reported = reported
        self.cost = None
        self.depth = check.depth(gates)

    def problems(self, spec) -> List[str]:
        """What is wrong with the output on target ``spec``; also sets
        :attr:`cost`, by the target's own cost function (Eqn. 2 on a
        transmon target, :func:`check.ion_cost` on an ion one)."""
        qubits, edges, native = spec
        op, found = self.op, []
        self.cost = (check.eqn2_cost(self.gates) if "CNOT" in native
                     else check.ion_cost(self.gates))
        if self.num_qubits != qubits:
            found.append(f"{self.num_qubits} wires on a {qubits}-qubit target")
        found += check.legality_problems(self.gates, edges, native)[:3]
        t = check.t_count(self.gates)
        reported = self.reported
        if abs(reported["optimized_cost"] - self.cost) > 1e-9:
            found.append(f"reported cost {reported['optimized_cost']} "
                         f"but the output costs {self.cost}")
        if reported["optimized_gates"] != len(self.gates):
            found.append("reported gate count differs from the output")
        if reported["optimized_t"] != t:
            found.append("reported T-count differs from the output")
        if self.cost > reported["unoptimized_cost"] + 1e-9:
            found.append(f"optimized cost {self.cost} exceeds unoptimized "
                         f"{reported['unoptimized_cost']}")
        if op["family"] == "table7":
            n = int(op["name"][1:-2])
            if t > toffoli_t_bound(n):
                found.append(f"T-count {t} above {toffoli_t_bound(n)}")
            if op["route"] == "ctr" and n in PAPER_TABLE8_T \
                    and t != PAPER_TABLE8_T[n]:
                found.append(f"CTR T-count {t} differs from the paper's "
                             f"{PAPER_TABLE8_T[n]}")
        return found

    def source_inputs(self, rng: random.Random) -> List[List[int]]:
        """Basis inputs on the source wires.  A Table 3 or RevLib source
        gets all of them.  A Table 7 cascade gets one input on which
        every ``T_n`` gate fires (all its controls are 1 when it is
        reached; random inputs almost never fire one), per gate that
        input with one seeded control flipped to 0, and a random one.
        The firing input is 0 off the controls, so a control moved to
        another wire stops its gate from firing."""
        logical = len(self.placement)
        if self.op["family"] != "table7":
            return [[(row >> (logical - 1 - w)) & 1 for w in range(logical)]
                    for row in range(1 << logical)]
        cascade = check.table7_cascade(int(self.op["name"][1:-2]))
        fire_all = [0] * logical
        for index, (controls, _) in enumerate(cascade):
            reached = check.cascade_output(cascade[:index], fire_all)
            for wire in controls:
                fire_all[wire] ^= 1 - reached[wire]
        for index, (controls, _) in enumerate(cascade):
            reached = check.cascade_output(cascade[:index], fire_all)
            if not all(reached[wire] for wire in controls):
                raise check.CheckError(f"gate {index} does not fire")
        inputs = [fire_all]
        for controls, _ in cascade:
            near_miss = list(fire_all)
            near_miss[rng.choice(controls)] ^= 1
            inputs.append(near_miss)
        return inputs + [[rng.randint(0, 1) for _ in range(logical)]]

    def simulate(self, rng: random.Random) -> None:
        """Raise :class:`check.CheckError` unless seeded basis inputs
        reach the source function's outputs.  Device wires outside the
        placement get seeded random bits, which the output must keep."""
        starts, wanted = [], []
        for source_in in self.source_inputs(rng):
            bits = [rng.randint(0, 1) for _ in range(self.num_qubits)]
            for q, bit in enumerate(source_in):
                bits[self.placement[q]] = bit
            source_out = source_output(self.op, source_in)
            want = list(bits)
            for q, bit in enumerate(source_out):
                want[self.placement[q]] = bit
            starts.append(bits)
            wanted.append(want)
        check.check_function(
            self.num_qubits, self.gates, starts, wanted, self.permutation
        )


def judge(workload: str, outcomes: List[Dict], seed: int) -> Dict:
    """Check every outcome ``{"op", "error" | "output"}`` of a run.

    An op is *failed* when the compiler raised where the N/A rule says
    it should not (or raised anything but N/A).  The remaining ops are
    checked; ``problems`` lists what was wrong.  Repeats of an op must
    give the same output as its first occurrence.
    """
    specs = targets({o["op"]["device"] for o in outcomes})
    problems: List[str] = []
    failed = 0
    distinct: Dict[str, Output] = {}
    first_text: Dict[str, object] = {}
    for outcome in outcomes:
        op = outcome["op"]
        na_expected = expected_na(op, specs[op["device"]][0])
        error = outcome.get("error")
        if error is not None:
            if not (error == "NotSynthesizableError" and na_expected):
                failed += 1
            continue
        if na_expected:
            problems.append(f"{op['id']}: compiled, but the N/A rule holds")
        key = op["id"]
        if key in first_text:
            if first_text[key] != outcome["text"]:
                problems.append(f"{key}: a repeat gave another output")
            continue
        first_text[key] = outcome["text"]
        try:
            output = outcome["output"]()
        except check.CheckError as error:
            problems.append(f"{key}: unreadable output: {error}")
            continue
        distinct[key] = output
        problems += [f"{key}: {p}" for p in output.problems(specs[op["device"]])]

    rng = random.Random(seed)
    count = SIMULATED[workload]
    for key in rng.sample(sorted(distinct), min(count, len(distinct))):
        try:
            distinct[key].simulate(rng)
        except check.CheckError as error:
            problems.append(f"{key}: simulation: {error}")
    return {
        "problems": problems,
        "failed": failed,
        "opt_cost": sum(o.cost for o in distinct.values()),
        "opt_gates": sum(len(o.gates) for o in distinct.values()),
        "opt_depth": sum(o.depth for o in distinct.values()),
    }


def from_record(record: Dict):
    """A deferred :class:`Output` of a compile-workload record: its QASM
    text, or its gate list where the target has no QASM form."""
    def build() -> Output:
        if record["qasm"] is not None:
            num_qubits, gates = check.read_qasm(record["qasm"])
        else:
            num_qubits = record["num_qubits"]
            gates = [(name, tuple(qubits), tuple(params))
                     for name, qubits, params in record["gates"]]
        return Output(record["op"], num_qubits, gates, record["placement"],
                      record["output_permutation"], record["reported"])
    return build


def from_payload(op: Dict, payload: Dict):
    """A deferred :class:`Output` of a serve response's result payload."""
    def build() -> Output:
        circuit = payload["optimized"]
        gates = [
            (name, tuple(qubits), tuple(params))
            for name, qubits, params in circuit["gates"]
        ]
        metrics = payload["optimized_metrics"]
        reported = {
            "unoptimized_cost": payload["unoptimized_metrics"]["cost"],
            "optimized_cost": metrics["cost"],
            "optimized_t": metrics["t_count"],
            "optimized_gates": metrics["gate_volume"],
        }
        return Output(op, circuit["num_qubits"], gates, payload["placement"],
                      payload["output_permutation"], reported)
    return build
