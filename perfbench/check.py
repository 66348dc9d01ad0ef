"""Output checks that share no code with the compiler under test.

Everything here reads only the emitted OpenQASM text (or the gate
lists of a serve response) and the source definitions:

* :func:`read_qasm` -- a small OpenQASM 2.0 reader;
* :func:`legality_problems` -- every CNOT on a directed coupling edge,
  only native gates;
* :func:`eqn2_cost`, :func:`ion_cost` and :func:`depth` -- the paper's
  Eqn. 2 cost ``0.5 t + 0.25 c + a``, the trapped-ion cost ``a + 2 m``
  (``m`` Moelmer-Sorensen ``RXX`` gates) and the ASAP layer count;
* :func:`check_function` -- runs basis inputs through the output
  circuit: a dense state-vector simulator (NumPy) on narrow targets,
  a sparse one on wide transmon targets;
* :func:`source_output` -- the basis state the source function maps an
  input to: the hex truth table of a Table 3 single-target gate, or a
  bitwise evaluation of an NCT cascade (RevLib, Table 7).

Wire convention: a basis state is a list of bits indexed by wire.
"""

from __future__ import annotations

import math
import re
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

#: One gate: (IR-style name, wires, parameters).
Gate = Tuple[str, Tuple[int, ...], Tuple[float, ...]]

_QASM_NAMES = {
    "id": "I", "x": "X", "y": "Y", "z": "Z", "h": "H", "s": "S",
    "sdg": "SDG", "t": "T", "tdg": "TDG", "cx": "CNOT", "cz": "CZ",
    "swap": "SWAP", "ccx": "TOFFOLI", "rz": "RZ", "u1": "RZ", "rx": "RX",
    "ry": "RY",
}
_GATE = re.compile(
    r"([a-z][a-z0-9]*)\s*(?:\(([^)]*)\))?\s+q\[(\d+)\]"
    r"(?:\s*,\s*q\[(\d+)\])?(?:\s*,\s*q\[(\d+)\])?"
)


class CheckError(Exception):
    """An output failed an independent check."""


_PI_ANGLE = re.compile(r"(-?)(?:([0-9.]+)\s*\*\s*)?pi(?:\s*/\s*([0-9.]+))?")


def _angle(text: str) -> float:
    """A QASM angle: a number, or ``[-][k*]pi[/d]``."""
    text = text.strip()
    try:
        return float(text)
    except ValueError:
        pass
    match = _PI_ANGLE.fullmatch(text)
    if match is None:
        raise CheckError(f"bad angle {text!r}")
    sign, factor, divisor = match.groups()
    value = math.pi * float(factor or 1) / float(divisor or 1)
    return -value if sign else value


def read_qasm(text: str) -> Tuple[int, List[Gate]]:
    """Parse OpenQASM 2.0 with one register ``q`` into
    ``(num_qubits, gates)``.  Each distinct statement is parsed once: a
    routed circuit repeats the same few thousand statements."""
    num_qubits = -1
    gates: List[Gate] = []
    parsed: Dict[str, Gate] = {}
    for raw in text.split(";"):
        statement = raw.split("//", 1)[0].strip()
        gate = parsed.get(statement)
        if gate is not None:
            gates.append(gate)
            continue
        if not statement or statement.startswith(("OPENQASM", "include")):
            continue
        if statement.startswith("qreg"):
            found = re.fullmatch(r"qreg\s+q\[(\d+)\]", statement)
            if found is None or num_qubits >= 0:
                raise CheckError(f"unexpected register {statement!r}")
            num_qubits = int(found.group(1))
            continue
        match = _GATE.fullmatch(statement)
        if match is None or match.group(1) not in _QASM_NAMES:
            raise CheckError(f"unknown statement {statement!r}")
        name, angle, *operands = match.groups()
        wires = tuple(int(w) for w in operands if w is not None)
        if len(set(wires)) != len(wires) or max(wires) >= num_qubits:
            raise CheckError(f"bad wires {wires} on {num_qubits} qubits")
        params = (_angle(angle),) if angle is not None else ()
        gate = parsed[statement] = (_QASM_NAMES[name], wires, params)
        gates.append(gate)
    if num_qubits < 0:
        raise CheckError("no qreg declaration")
    return num_qubits, gates


def legality_problems(
    gates: Iterable[Gate],
    edges: Iterable[Tuple[int, int]],
    native: Iterable[str],
) -> List[str]:
    """Gates off the directed coupling map or outside the native set."""
    edge_set = set(map(tuple, edges))
    native_set = set(native)
    problems = []
    for index, (name, wires, _) in enumerate(gates):
        if name not in native_set:
            problems.append(f"gate {index}: {name} is not native")
        elif len(wires) == 2 and wires not in edge_set:
            problems.append(f"gate {index}: {name}{wires} not a coupling edge")
        elif len(wires) > 2:
            problems.append(f"gate {index}: {name} acts on {len(wires)} wires")
    return problems


def eqn2_cost(gates: Sequence[Gate]) -> float:
    """Paper Eqn. 2: ``0.5 * #T/T-dagger + 0.25 * #CNOT + #gates``."""
    t = sum(1 for name, _, _ in gates if name in ("T", "TDG"))
    c = sum(1 for name, _, _ in gates if name == "CNOT")
    return 0.5 * t + 0.25 * c + len(gates)


def ion_cost(gates: Sequence[Gate]) -> float:
    """Cost on a trapped-ion target: one per gate plus a surcharge of 2
    per ``RXX``, the slow two-qubit Moelmer-Sorensen interaction."""
    return len(gates) + 2.0 * sum(1 for name, _, _ in gates if name == "RXX")


def t_count(gates: Sequence[Gate]) -> int:
    return sum(1 for name, _, _ in gates if name in ("T", "TDG"))


def depth(gates: Sequence[Gate]) -> int:
    """ASAP layers: a gate sits one layer above the last gate on any of
    its wires."""
    level: Dict[int, int] = {}
    deepest = 0
    for _, wires, _ in gates:
        layer = 1 + max((level.get(w, 0) for w in wires), default=0)
        for wire in wires:
            level[wire] = layer
        deepest = max(deepest, layer)
    return deepest


# -- source functions -------------------------------------------------------


def single_target_output(hex_name: str, bits: Sequence[int]) -> List[int]:
    """Table 3 function ``#hex`` on ``len(bits)`` wires: wires
    ``0..k-1`` are the inputs (wire 0 the most significant bit of the
    truth-table row), wire ``k`` the target, flipped iff bit ``row`` of
    the hex value is 1."""
    k = len(bits) - 1
    row = 0
    for wire in range(k):
        row = (row << 1) | bits[wire]
    out = list(bits)
    out[k] ^= (int(hex_name, 16) >> row) & 1
    return out


def cascade_output(
    cascade: Sequence[Tuple[Sequence[int], int]], bits: Sequence[int]
) -> List[int]:
    """Bitwise evaluation of an NCT/MCX cascade of ``(controls,
    target)`` pairs (an empty control list is a NOT)."""
    out = list(bits)
    for controls, target in cascade:
        if all(out[c] for c in controls):
            out[target] ^= 1
    return out


def table7_cascade(n: int) -> List[Tuple[List[int], int]]:
    """Table 7 ``Tn_b`` as written in the paper: four ``T_n`` gates, gate
    ``g`` (0-based) controlled by ``q[20g+1 .. 20g+n-1]`` onto
    ``q[20g+25]``."""
    return [
        (list(range(20 * g + 1, 20 * g + n)), 20 * g + 25) for g in range(4)
    ]


# -- simulation --------------------------------------------------------------

_SQRT_HALF = 1.0 / math.sqrt(2.0)
_PHASES = {
    "Z": -1.0 + 0j,
    "S": 1j,
    "SDG": -1j,
    "T": complex(_SQRT_HALF, _SQRT_HALF),
    "TDG": complex(_SQRT_HALF, -_SQRT_HALF),
}


def _single_matrix(name: str, params: Tuple[float, ...]) -> np.ndarray:
    if name == "H":
        return np.array([[1, 1], [1, -1]], dtype=complex) * _SQRT_HALF
    if name == "Y":
        return np.array([[0, -1j], [1j, 0]], dtype=complex)
    theta = params[0]
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    if name == "RX":
        return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)
    if name == "RY":
        return np.array([[c, -s], [s, c]], dtype=complex)
    raise CheckError(f"simulator has no rule for {name}")


class SparseState:
    """A superposition of basis states of one run: one bit row per
    branch, with its amplitude.

    Hadamards are applied lazily: ``frame[w]`` marks a wire whose true
    state is ``H`` applied to the tracked one.  Gates on framed wires
    are conjugated by ``H`` where that stays classical or diagonal
    (``X <-> Z``, ``CNOT`` reversed, ``CNOT`` into a framed target is a
    ``CZ``); only the rest make a framed wire branch, and an ``H`` that
    would merge branches is applied at once.  This keeps the branch
    count near the true support of the state, which stays small on
    routed Toffoli cascades.
    """

    #: Branch budget; a circuit needing more is reported, not run.
    MAX_BRANCHES = 1 << 18

    def __init__(self, bits: Sequence[int]):
        self.rows = np.array([list(bits)], dtype=np.uint8)
        self.amps = np.ones(1, dtype=complex)
        self.frame = [False] * len(bits)
        self.peak_branches = 1

    def apply(self, name: str, wires: Tuple[int, ...], params) -> None:
        frame = self.frame
        if name == "I":
            return
        if name == "H":
            wire = wires[0]
            frame[wire] = not frame[wire]
            if frame[wire] and self._varies(wire):
                self._try_collapse(wire)
            return
        if len(wires) == 1 and frame[wires[0]]:
            if name == "X":
                name = "Z"
            elif name == "Z":
                name = "X"
            elif name == "Y":
                self.amps *= -1.0
            else:
                self._unframe(wires[0])
        elif name == "CNOT":
            control, target = wires
            if frame[control] and frame[target]:
                wires = (target, control)
            elif frame[target]:
                name = "CZ"
            elif frame[control]:
                self._unframe(control)
        elif len(wires) > 1:
            raise CheckError(f"simulator has no rule for {name}")
        self._apply_unframed(name, wires, params)

    def _apply_unframed(self, name, wires, params) -> None:
        rows = self.rows
        if name == "X":
            rows[:, wires[0]] ^= 1
        elif name == "CNOT":
            rows[:, wires[1]] ^= rows[:, wires[0]]
        elif name == "CZ":
            both = (rows[:, wires[0]] & rows[:, wires[1]]).astype(bool)
            self.amps[both] *= -1.0
        elif name in _PHASES:
            self.amps[rows[:, wires[0]].astype(bool)] *= _PHASES[name]
        elif name == "RZ":
            half = params[0] / 2
            ones = rows[:, wires[0]].astype(bool)
            self.amps[ones] *= complex(math.cos(half), math.sin(half))
            self.amps[~ones] *= complex(math.cos(half), -math.sin(half))
        else:
            self._branch(wires[0], _single_matrix(name, params))

    def _varies(self, wire: int) -> bool:
        column = self.rows[:, wire]
        return bool(column.any()) and not bool(column.all())

    def _try_collapse(self, wire: int) -> None:
        """Apply a framed wire's ``H`` now if that merges branches (it
        closes an ``H ... H`` pair, e.g. a Toffoli's target)."""
        rows, amps, peak = self.rows, self.amps, self.peak_branches
        self._unframe(wire)
        if len(self.amps) >= len(amps):
            self.rows, self.amps, self.peak_branches = rows, amps, peak
            self.frame[wire] = True

    def _unframe(self, wire: int) -> None:
        self.frame[wire] = False
        self._branch(wire, _single_matrix("H", ()))

    def _branch(self, wire: int, matrix: np.ndarray) -> None:
        """A non-diagonal one-qubit gate: every branch splits in two,
        then equal basis states are added up."""
        bit = self.rows[:, wire].astype(np.intp)
        zero = self.rows.copy()
        zero[:, wire] = 0
        one = self.rows.copy()
        one[:, wire] = 1
        self.rows = np.concatenate([zero, one])
        self.amps = np.concatenate(
            [matrix[0, bit] * self.amps, matrix[1, bit] * self.amps]
        )
        self._merge()
        self.peak_branches = max(self.peak_branches, len(self.amps))
        if len(self.amps) > self.MAX_BRANCHES:
            raise CheckError(
                f"more than {self.MAX_BRANCHES} branches; not simulated"
            )

    def _merge(self) -> None:
        """Add up branches on equal basis states; drop zero amplitudes."""
        packed = np.packbits(self.rows, axis=1)
        keys = np.ascontiguousarray(packed).view(
            np.dtype((np.void, packed.shape[1]))
        ).ravel()
        unique, first, inverse = np.unique(
            keys, return_index=True, return_inverse=True
        )
        amps = np.zeros(len(unique), dtype=complex)
        np.add.at(amps, inverse.ravel(), self.amps)
        keep = np.abs(amps) > 1e-9
        self.rows = self.rows[first[keep]]
        self.amps = amps[keep]

    def result(self) -> Tuple[List[int], complex]:
        """The final basis state and its amplitude; raises if the run
        ends in a superposition."""
        for wire, framed in enumerate(self.frame):
            if framed:
                self._unframe(wire)
        if len(self.amps) != 1:
            raise CheckError(f"ends in {len(self.amps)} basis states")
        return self.rows[0].tolist(), complex(self.amps[0])


def simulate(
    gates: Sequence[Gate], bits: Sequence[int]
) -> Tuple[List[int], complex, int]:
    """Run the basis state ``bits`` through ``gates`` (sparse): the
    output bits, their amplitude and the peak branch count."""
    state = SparseState(bits)
    for name, wires, params in gates:
        state.apply(name, wires, params)
    out, amp = state.result()
    return out, amp, state.peak_branches


#: Targets up to this many wires are simulated densely.
DENSE_MAX_WIRES = 10

_DENSE_FIXED = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "CNOT": np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1],
                      [0, 0, 1, 0]], dtype=complex),
    "CZ": np.diag([1, 1, 1, -1]).astype(complex),
    "SWAP": np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0],
                      [0, 0, 0, 1]], dtype=complex),
}


def _dense_matrix(name: str, params: Tuple[float, ...]) -> np.ndarray:
    """The gate's matrix, up to a global phase; for two wires the first
    is the high bit (the control of ``CNOT``)."""
    if name in _DENSE_FIXED:
        return _DENSE_FIXED[name]
    if name in _PHASES:
        return np.diag([1.0, _PHASES[name]])
    if name == "RZ":
        return np.diag([1.0, complex(math.cos(params[0]),
                                     math.sin(params[0]))])
    if name == "RXX":
        # cos(theta) I - i sin(theta) X(x)X, the IR's Moelmer-Sorensen gate
        c, s = math.cos(params[0]), math.sin(params[0])
        return c * np.eye(4) - 1j * s * np.fliplr(np.eye(4))
    return _single_matrix(name, params)


def dense_run(
    num_qubits: int, gates: Sequence[Gate], inputs: Sequence[Sequence[int]]
) -> List[Tuple[List[int], complex]]:
    """Run every input through ``gates`` at once on a dense state of
    shape ``(2,) * num_qubits + (len(inputs),)``; per input, the output
    basis state and its amplitude.  Raises if an output is not a basis
    state."""
    state = np.zeros((2,) * num_qubits + (len(inputs),), dtype=complex)
    for column, bits in enumerate(inputs):
        state[tuple(bits) + (column,)] = 1.0
    for name, wires, params in gates:
        k = len(wires)
        if k > 2:
            raise CheckError(f"simulator has no rule for {name}")
        matrix = _dense_matrix(name, params).reshape((2,) * (2 * k))
        state = np.tensordot(matrix, state,
                             axes=(list(range(k, 2 * k)), list(wires)))
        state = np.moveaxis(state, list(range(k)), list(wires))
    flat = state.reshape(-1, len(inputs))
    results = []
    for column in range(len(inputs)):
        index = int(np.argmax(np.abs(flat[:, column])))
        amp = complex(flat[index, column])
        if abs(abs(amp) - 1.0) > 1e-6:
            raise CheckError(f"input {list(inputs[column])} ends in a "
                             "superposition")
        bits = [(index >> (num_qubits - 1 - w)) & 1 for w in range(num_qubits)]
        results.append((bits, amp))
    return results


def check_function(
    num_qubits: int,
    gates: Sequence[Gate],
    inputs: Sequence[Sequence[int]],
    expected: Sequence[Sequence[int]],
    output_permutation: Dict[int, int],
) -> None:
    """Check that the circuit maps each input to its expected basis
    state, read through ``output_permutation`` (the bit that the source
    leaves on wire ``v`` is found on wire ``perm[v]``), with one common
    unit-modulus phase."""
    if num_qubits <= DENSE_MAX_WIRES:
        outputs = dense_run(num_qubits, gates, inputs)
    else:
        outputs = [simulate(gates, bits)[:2] for bits in inputs]
    phase = None
    for bits_in, want, (got, amp) in zip(inputs, expected, outputs):
        for wire in range(num_qubits):
            if got[output_permutation.get(wire, wire)] != want[wire]:
                raise CheckError(
                    f"input {list(bits_in)}: wire {wire} should read "
                    f"{want[wire]} on output wire "
                    f"{output_permutation.get(wire, wire)}"
                )
        if abs(abs(amp) - 1.0) > 1e-6:
            raise CheckError(f"output amplitude {amp} is not unit modulus")
        if phase is None:
            phase = amp
        elif abs(amp - phase) > 1e-6:
            raise CheckError("inputs pick up different phases")
