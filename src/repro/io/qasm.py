"""OpenQASM 2.0 reader and writer.

The compiler's final output is "the final implementation-specific quantum
circuit represented as Quantum Assembly Language, or QASM, code"
(Section 4, Fig. 2).  This module emits OpenQASM 2.0 for any circuit in
the IR and parses the subset of QASM that the IR can represent:

* ``qreg``/``creg`` declarations (multiple qregs are concatenated),
* the gates ``id x y z h s sdg t tdg cx cz swap ccx``,
* the rotations ``rz``/``u1``, ``rx``, ``ry`` and ``rxx``,
* ``measure`` and ``barrier`` statements (recorded or skipped),
* ``//`` comments and the ``OPENQASM``/``include`` headers.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from ..core.circuit import QuantumCircuit
from ..core.exceptions import ParseError
from ..core.exceptions import CircuitError
from ..core.gates import Gate


def _build_gate(name, operands, params, filename, line_no):
    """Construct a gate, converting IR validation errors (bad arity,
    duplicate operands, ...) into located ParseErrors."""
    try:
        return Gate(name, tuple(operands), tuple(params))
    except CircuitError as error:
        raise ParseError(str(error), filename, line_no, code="REPRO607")

#: QASM gate name -> IR gate name.
_QASM_TO_IR = {
    "id": "I",
    "x": "X",
    "y": "Y",
    "z": "Z",
    "h": "H",
    "s": "S",
    "sdg": "SDG",
    "t": "T",
    "tdg": "TDG",
    "cx": "CNOT",
    "cz": "CZ",
    "swap": "SWAP",
    "ccx": "TOFFOLI",
}

#: IR gate name -> QASM gate name.
_IR_TO_QASM = {ir: qasm for qasm, ir in _QASM_TO_IR.items()}

#: Parametric QASM gates -> IR rotations (u1 is the phase-rotation alias).
_QASM_PARAMETRIC = {
    "rz": "RZ", "u1": "RZ", "rx": "RX", "ry": "RY", "rxx": "RXX",
}
_IR_PARAMETRIC = {"RZ": "rz", "RX": "rx", "RY": "ry", "RXX": "rxx"}

#: QASM angle = scale x IR angle.  The IR's ``RXX(t)`` is
#: ``cos t I - i sin t XX``, which qelib1's ``rxx`` writes as ``rxx(2t)``.
_ANGLE_SCALE = {"rxx": 2.0}

_TOKEN_RE = re.compile(r"(\w+)\s*\[\s*(\d+)\s*\]")
_PARAM_CALL_RE = re.compile(r"(\w+)\s*\(([^)]*)\)\s*(.*)")


def _eval_angle(text: str, filename, line_no) -> float:
    """Evaluate a QASM angle expression: numbers, ``pi``, + - * / and
    parentheses (e.g. ``pi/2``, ``-3*pi/4``, ``0.25``)."""
    import ast
    import math

    try:
        tree = ast.parse(text.strip(), mode="eval")
    except SyntaxError:
        raise ParseError(f"bad angle expression {text!r}", filename, line_no,
                         code="REPRO605")

    def walk(node):
        if isinstance(node, ast.Expression):
            return walk(node.body)
        if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
            return float(node.value)
        if isinstance(node, ast.Name) and node.id == "pi":
            return math.pi
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            value = walk(node.operand)
            return -value if isinstance(node.op, ast.USub) else value
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.Add, ast.Sub, ast.Mult, ast.Div)
        ):
            left, right = walk(node.left), walk(node.right)
            if isinstance(node.op, ast.Add):
                return left + right
            if isinstance(node.op, ast.Sub):
                return left - right
            if isinstance(node.op, ast.Mult):
                return left * right
            return left / right
        raise ParseError(f"unsupported angle expression {text!r}", filename,
                             line_no, code="REPRO605")

    return walk(tree)


def parse_qasm(text: str, name: str = "", filename: Optional[str] = None) -> QuantumCircuit:
    """Parse OpenQASM 2.0 source into a circuit.

    Measurements are dropped (the IR models the unitary part); unknown
    gates raise :class:`ParseError`.
    """
    registers: Dict[str, Tuple[int, int]] = {}  # name -> (offset, size)
    total_qubits = 0
    gates: List[Gate] = []

    def qubit_of(token: str, line_no: int) -> int:
        match = _TOKEN_RE.fullmatch(token.strip())
        if not match:
            raise ParseError(f"bad qubit reference {token!r}", filename, line_no,
                             code="REPRO604")
        reg, index = match.group(1), int(match.group(2))
        if reg not in registers:
            raise ParseError(f"unknown register {reg!r}", filename, line_no,
                             code="REPRO601")
        offset, size = registers[reg]
        if index >= size:
            raise ParseError(
                f"index {index} out of range for register {reg!r}", filename,
                line_no, code="REPRO601",
            )
        return offset + index

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("//", 1)[0].strip()
        if not line:
            continue
        for statement in filter(None, (s.strip() for s in line.split(";"))):
            lowered = statement.lower()
            if lowered.startswith("openqasm") or lowered.startswith("include"):
                continue
            if lowered.startswith("creg") or lowered.startswith("barrier"):
                continue
            if lowered.startswith("measure"):
                continue
            if lowered.startswith("qreg"):
                match = _TOKEN_RE.search(statement)
                if not match:
                    raise ParseError("bad qreg declaration", filename, line_no,
                                     code="REPRO604")
                reg, size = match.group(1), int(match.group(2))
                if reg in registers:
                    raise ParseError(f"register {reg!r} redefined", filename,
                                     line_no, code="REPRO602")
                registers[reg] = (total_qubits, size)
                total_qubits += size
                continue
            call = _PARAM_CALL_RE.match(statement)
            if call and call.group(1).lower() in _QASM_PARAMETRIC:
                mnemonic = call.group(1).lower()
                angle = _eval_angle(call.group(2), filename, line_no)
                angle /= _ANGLE_SCALE.get(mnemonic, 1.0)
                operand_text = call.group(3)
                if not operand_text.strip():
                    raise ParseError(
                        f"gate {mnemonic!r} missing operands", filename,
                        line_no, code="REPRO604",
                    )
                operands = [qubit_of(tok, line_no) for tok in operand_text.split(",")]
                gates.append(
                    _build_gate(
                        _QASM_PARAMETRIC[mnemonic], operands, (angle,),
                        filename, line_no,
                    )
                )
                continue
            parts = statement.split(None, 1)
            mnemonic = parts[0].lower()
            if mnemonic not in _QASM_TO_IR:
                raise ParseError(f"unsupported gate {mnemonic!r}", filename, line_no,
                                 code="REPRO603")
            if len(parts) < 2:
                raise ParseError(f"gate {mnemonic!r} missing operands", filename,
                                 line_no, code="REPRO604")
            operands = [qubit_of(tok, line_no) for tok in parts[1].split(",")]
            gates.append(_build_gate(_QASM_TO_IR[mnemonic], operands, (),
                                     filename, line_no))

    circuit = QuantumCircuit(total_qubits, name=name)
    circuit.extend(gates)
    return circuit


def read_qasm(path: str, name: str = "") -> QuantumCircuit:
    """Parse a ``.qasm`` file."""
    with open(path) as handle:
        return parse_qasm(handle.read(), name=name or _stem(path), filename=path)


def to_qasm(
    circuit: QuantumCircuit,
    register: str = "q",
    include_measure: bool = False,
) -> str:
    """Emit OpenQASM 2.0 for ``circuit``.

    MCX gates have no single QASM 2.0 mnemonic; lower them first
    (:func:`repro.backend.lower_mcx_gates`) or they raise here.
    """
    lines = [
        "OPENQASM 2.0;",
        'include "qelib1.inc";',
        f"qreg {register}[{circuit.num_qubits}];",
    ]
    if include_measure:
        lines.append(f"creg c[{circuit.num_qubits}];")
    for gate in circuit:
        operands = ", ".join(f"{register}[{q}]" for q in gate.qubits)
        if gate.name in _IR_PARAMETRIC:
            mnemonic = _IR_PARAMETRIC[gate.name]
            angle = gate.params[0] * _ANGLE_SCALE.get(mnemonic, 1.0)
            lines.append(f"{mnemonic}({angle!r}) {operands};")
            continue
        mnemonic = _IR_TO_QASM.get(gate.name)
        if mnemonic is None:
            raise ParseError(
                f"gate {gate.name} has no OpenQASM 2.0 representation; "
                "decompose it first"
            )
        lines.append(f"{mnemonic} {operands};")
    if include_measure:
        lines.append(f"measure {register} -> c;")
    return "\n".join(lines) + "\n"


def write_qasm(circuit: QuantumCircuit, path: str, **kwargs) -> None:
    """Write ``circuit`` to ``path`` as OpenQASM 2.0."""
    with open(path, "w") as handle:
        handle.write(to_qasm(circuit, **kwargs))


def _stem(path: str) -> str:
    import os

    return os.path.splitext(os.path.basename(path))[0]
