"""End-to-end tracing through compile_circuit and the fuzz harness."""

from repro.compiler import compile_circuit
from repro.core.circuit import QuantumCircuit
from repro.core.gates import CNOT, H, TOFFOLI
from repro.devices import get_device
from repro.fuzz import FuzzConfig, run_fuzz
from repro.obs import optimizer_trajectory, stage_rows


def _compile(trace=True, verify=False):
    return compile_circuit(
        QuantumCircuit(3, [TOFFOLI(0, 1, 2), H(0), CNOT(0, 1)], name="ccx"),
        get_device("ibmqx4"), verify=verify, trace=trace,
    )


def test_trace_off_by_default():
    result = _compile(trace=False)
    assert result.trace is None


def test_traced_compile_records_pipeline_stages():
    result = _compile(verify="qmdd")
    (root,) = result.trace["spans"]
    assert root["name"] == "compile"
    assert root["attrs"]["device"] == "ibmqx4"
    stages = [child["name"] for child in root["children"]]
    for expected in ("placement", "map", "optimize", "verify"):
        assert expected in stages, stages
    mapping = next(c for c in root["children"] if c["name"] == "map")
    map_stages = [child["name"] for child in mapping["children"]]
    assert "map.lower" in map_stages and "map.route" in map_stages
    verify_span = next(c for c in root["children"] if c["name"] == "verify")
    assert verify_span["attrs"] == {"method": "qmdd", "equivalent": True}


def test_optimizer_rounds_carry_cost_deltas():
    result = _compile()
    rounds = optimizer_trajectory(result.trace)
    assert rounds, "no optimize.round spans recorded"
    first = rounds[0]
    assert first["round"] == 1
    assert first["cost_before"] >= first["cost_after"]
    assert "gates_before" in first and "accepted" in first
    # The loop converged, and its last round says how: every earlier
    # round was accepted, and the last one is accepted exactly when the
    # loop stopped on a proven fixpoint (no confirming round follows).
    (root,) = result.trace["spans"]
    optimize = next(c for c in root["children"] if c["name"] == "optimize")
    stopped = optimize["attrs"]["stopped"]
    assert stopped in ("fixpoint", "rejected")
    assert optimize["attrs"]["rounds"] == len(rounds)
    assert all(r["accepted"] for r in rounds[:-1])
    assert rounds[-1]["accepted"] is (stopped == "fixpoint")


def test_stage_rows_cover_whole_compile():
    rows = stage_rows(_compile().trace)
    assert rows[0]["name"] == "compile" and rows[0]["depth"] == 0
    assert any(row["depth"] == 2 for row in rows)  # map.* sub-stages
    assert abs(rows[0]["share"] - 1.0) < 1e-9


def test_fuzz_report_has_phase_timing_and_metrics():
    report = run_fuzz(
        FuzzConfig(seed=11, iterations=3, max_qubits=3, max_gates=4)
    )
    assert set(report.phase_seconds) >= {"generate", "compile", "oracle"}
    assert all(v >= 0.0 for v in report.phase_seconds.values())
    assert report.timing_line().startswith("generate ")
    counters = report.metrics["counters"]
    assert counters["compile.calls"] == report.compiles
    # Every oracle check is settled either by a QMDD build or by the
    # abstract-permutation prescreen (classical pairs never reach QMDD).
    settled = (
        counters.get("verify.qmdd_checks", 0)
        + counters.get("verify.prescreen.proofs", 0)
        + counters.get("verify.prescreen.rejects", 0)
    )
    assert settled >= report.oracle_checks
