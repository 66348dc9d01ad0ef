"""OpenQASM 2.0 parser/writer tests."""

import pytest

from repro.core import CNOT, Gate, H, ParseError, QuantumCircuit, T, TOFFOLI, X
from repro.io import parse_qasm, read_qasm, to_qasm, write_qasm


SAMPLE = """
OPENQASM 2.0;
include "qelib1.inc";
qreg q[3];
creg c[3];
h q[0];
cx q[0], q[1];
t q[2];
ccx q[0], q[1], q[2];
barrier q[0];
measure q[0] -> c[0];
"""


class TestParsing:
    def test_sample_program(self):
        c = parse_qasm(SAMPLE, name="sample")
        assert c.num_qubits == 3
        assert [g.name for g in c] == ["H", "CNOT", "T", "TOFFOLI"]
        assert c.name == "sample"

    def test_headers_and_comments_skipped(self):
        c = parse_qasm("OPENQASM 2.0;\n// nothing\nqreg q[1];\nx q[0]; // flip\n")
        assert c.gates == (X(0),)

    def test_multiple_statements_per_line(self):
        c = parse_qasm("qreg q[2]; h q[0]; cx q[0],q[1];")
        assert len(c) == 2

    def test_multiple_registers_concatenate(self):
        c = parse_qasm("qreg a[2];\nqreg b[2];\ncx a[1], b[0];")
        assert c.num_qubits == 4
        assert c.gates == (CNOT(1, 2),)

    def test_all_supported_gates(self):
        source = "qreg q[3];\n" + "\n".join(
            f"{m} q[0];" for m in ["id", "x", "y", "z", "h", "s", "sdg", "t", "tdg"]
        ) + "\ncx q[0],q[1];\ncz q[0],q[1];\nswap q[1],q[2];\nccx q[0],q[1],q[2];"
        c = parse_qasm(source)
        assert len(c) == 13

    def test_unknown_gate_raises(self):
        with pytest.raises(ParseError):
            parse_qasm("qreg q[2];\nfrobnicate q[0];")
        with pytest.raises(ParseError):
            parse_qasm("qreg q[2];\ncu1(0.5) q[0], q[1];")

    def test_unknown_register_raises(self):
        with pytest.raises(ParseError):
            parse_qasm("qreg q[2];\nx r[0];")

    def test_index_out_of_range_raises(self):
        with pytest.raises(ParseError):
            parse_qasm("qreg q[2];\nx q[5];")

    def test_missing_operands_raises(self):
        with pytest.raises(ParseError):
            parse_qasm("qreg q[2];\nh;")


class TestEmission:
    def test_roundtrip(self):
        c = QuantumCircuit(3, [H(0), CNOT(0, 1), T(2), TOFFOLI(0, 1, 2)], name="rt")
        back = parse_qasm(to_qasm(c))
        assert back.gates == c.gates
        assert back.num_qubits == c.num_qubits

    def test_header_present(self):
        text = to_qasm(QuantumCircuit(1, [X(0)]))
        assert text.startswith("OPENQASM 2.0;")
        assert 'include "qelib1.inc";' in text

    def test_measure_block(self):
        text = to_qasm(QuantumCircuit(2, [H(0)]), include_measure=True)
        assert "creg c[2];" in text
        assert "measure q -> c;" in text

    def test_mcx_rejected(self):
        from repro.core import MCX

        c = QuantumCircuit(5, [MCX(0, 1, 2, 3, 4)])
        with pytest.raises(ParseError):
            to_qasm(c)

    def test_custom_register_name(self):
        text = to_qasm(QuantumCircuit(1, [X(0)]), register="phys")
        assert "qreg phys[1];" in text
        assert "x phys[0];" in text

    def test_rxx_is_qelib_rxx_of_twice_the_angle(self):
        import math

        c = QuantumCircuit(2, [Gate("RXX", (1, 0), (math.pi / 4,))])
        text = to_qasm(c)
        assert f"rxx({math.pi / 2!r}) q[1], q[0];" in text
        assert parse_qasm(text).gates == c.gates

    def test_trapped_ion_compile_roundtrips(self):
        from repro import compile_circuit
        from repro.benchlib import single_target
        from repro.devices import ion_device
        from repro.verify import verify_equivalent

        source = single_target.build_benchmark("017f", 5)
        result = compile_circuit(source, ion_device(7))
        assert result.optimized.count("RXX") > 0
        back = parse_qasm(result.qasm)
        assert back.num_qubits == result.optimized.num_qubits
        assert back.gates == result.optimized.gates
        assert verify_equivalent(
            result.optimized, back, method="dense"
        ).equivalent


class TestFiles:
    def test_file_roundtrip(self, tmp_path):
        c = QuantumCircuit(2, [H(0), CNOT(0, 1)])
        path = str(tmp_path / "bell.qasm")
        write_qasm(c, path)
        back = read_qasm(path)
        assert back.gates == c.gates
        assert back.name == "bell"
