"""Golden outputs of the wide Table 7 cascades on the 96-qubit machine.

``test_compiler_epoch.py`` guards the Table 3 cells, none of which
reaches the optimizer's window sizes on wide circuits.  This test
compiles ``T3_b`` … ``T6_b`` on the Fig. 7 machine under both routes,
with verification off, and hashes each optimized gate list and output
permutation.  An optimizer change that claims byte-identical outputs
must leave :data:`WIDE_DIGEST` as it is.
"""

import hashlib

from repro.backend.mapper import ROUTE_STRATEGIES
from repro.benchlib import table7
from repro.compiler import compile_circuit
from repro.devices import PROPOSED96

CASCADES = ("T3_b", "T4_b", "T5_b", "T6_b")

WIDE_DIGEST = (
    "18b1261b106def612456f4056b316571443ece13be7d6e25c0eee3df2f849929"
)


def wide_digest() -> str:
    digest = hashlib.sha256()
    for name in CASCADES:
        circuit = table7.build_benchmark(name)
        for route in ROUTE_STRATEGIES:
            result = compile_circuit(
                circuit, PROPOSED96, verify=False, route=route
            )
            digest.update(f"{name}/{route}\n".encode())
            for gate in result.optimized:
                digest.update(f"{gate}\n".encode())
            digest.update(
                repr(sorted(result.output_permutation.items())).encode()
            )
    return digest.hexdigest()


def test_wide_cascades_match_their_golden_digest():
    digest = wide_digest()
    assert digest == WIDE_DIGEST, (
        f"optimized Table 7 outputs on the 96-qubit machine changed "
        f"(digest {digest}); if the change is intended, bump "
        f"COMPILER_EPOCH and store the new digest here"
    )
