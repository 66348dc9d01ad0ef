"""The benchmark ledger keeps the suites of earlier sessions.

``benchmarks/harness.py::write_runtime_json`` runs at the end of every
bench session; running one bench file must add (or refresh) that
suite's record, not drop the suites other sessions recorded.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))

SESSION = """
import sys
sys.path.insert(0, {benchmarks!r})
import harness
harness.RUNTIME[{suite!r}] = {{"cells": {cells}}}
print(harness.write_runtime_json({path!r}))
"""


def run_session(path, suite, cells):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), env.get("PYTHONPATH", "")]
    )
    code = SESSION.format(
        benchmarks=os.path.join(ROOT, "benchmarks"), suite=suite,
        cells=cells, path=str(path),
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == str(path)


def test_sessions_merge_their_suites(tmp_path):
    ledger = tmp_path / "BENCH_runtime.json"
    run_session(ledger, "table3", 120)
    run_session(ledger, "table5", 50)
    record = json.loads(ledger.read_text())
    assert record["suites"] == {"table3": {"cells": 120}, "table5": {"cells": 50}}
    # A rerun of one suite replaces its own record and keeps the other.
    run_session(ledger, "table5", 7)
    record = json.loads(ledger.read_text())
    assert record["suites"] == {"table3": {"cells": 120}, "table5": {"cells": 7}}
