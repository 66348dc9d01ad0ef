"""Golden-output guard for ``COMPILER_EPOCH``.

Every cache key carries :data:`repro.compiler.COMPILER_EPOCH`, so a
persistent cache only stays honest if the epoch moves whenever the
compiler's outputs do.  This test compiles the Table 3 cells on two IBM
devices under both routes, with verification off, and hashes each
cell's label, QASM and output permutation.  The digest is stored next
to the epoch as :data:`repro.compiler.COMPILER_EPOCH_DIGEST`.
"""

import hashlib

from repro.backend.mapper import ROUTE_STRATEGIES
from repro.benchlib.single_target import PAPER_STG_BENCHMARKS, build_benchmark
from repro.compiler import COMPILER_EPOCH, COMPILER_EPOCH_DIGEST, compile_circuit
from repro.core.exceptions import NotSynthesizableError
from repro.io import to_qasm

DEVICES = ("ibmqx4", "ibmq_16")


def golden_digest() -> str:
    digest = hashlib.sha256()
    for name, qubits in PAPER_STG_BENCHMARKS:
        circuit = build_benchmark(name, qubits)
        for device in DEVICES:
            for route in ROUTE_STRATEGIES:
                digest.update(f"#{name}@{device}/{route}\n".encode())
                try:
                    result = compile_circuit(
                        circuit, device, verify=False, route=route
                    )
                except NotSynthesizableError:
                    digest.update(b"N/A\n")
                    continue
                digest.update(to_qasm(result.optimized).encode())
                digest.update(
                    repr(sorted(result.output_permutation.items())).encode()
                )
    return digest.hexdigest()


def test_outputs_match_the_compiler_epoch():
    digest = golden_digest()
    assert digest == COMPILER_EPOCH_DIGEST, (
        f"compiled outputs changed (digest {digest}) but COMPILER_EPOCH is "
        f"still {COMPILER_EPOCH}: if the change is intended, bump "
        f"COMPILER_EPOCH in src/repro/compiler.py and store this digest "
        f"as COMPILER_EPOCH_DIGEST, so caches stop serving old outputs"
    )
