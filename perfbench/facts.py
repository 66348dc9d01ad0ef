"""Two measured facts the benchmark's design rests on (README.md).

Run from the root of a checkout::

    python3 perfbench/facts.py hashseed   # about 2 minutes
    python3 perfbench/facts.py order      # about 4 minutes

``hashseed``: compile the Table 3 grid and the Table 8 rows on the
96-qubit machine under both routes in fresh processes with
``PYTHONHASHSEED`` 0, 1, 2 and random, and print one SHA-256 digest
of all emitted QASM per hash seed.  Equal digests mean the outputs do
not depend on string hashing.

``order``: compile the CTR cells of the Table 3 grid (verification
``auto``) in one process alone, then interleaved with the sabre cells,
and print the summed CTR time of each; the QMDD manager pools carry
state from cell to cell, so the order of cells changes their timings.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import PAPER_DEVICES, ROUTES  # noqa: E402


def _table3_jobs(route: str, verify):
    from repro.batch import CompileJob
    from repro.benchlib import single_target

    for name, qubits in single_target.PAPER_STG_BENCHMARKS:
        circuit = single_target.build_benchmark(name, qubits)
        for device in PAPER_DEVICES:
            yield CompileJob.make(circuit, device,
                                  {"verify": verify, "route": route},
                                  label=f"#{name}/{device}/{route}")


def digest() -> None:
    """Child: print the digest of every output of this process."""
    from repro.batch import CompileJob, compile_many
    from repro.benchlib import table7

    jobs = []
    for route in ROUTES:
        jobs += list(_table3_jobs(route, False))
        for name in table7.PAPER_96Q_BENCHMARKS:
            jobs.append(CompileJob.make(
                table7.build_benchmark(name), "proposed96",
                {"verify": False, "route": route}, label=f"{name}/{route}",
            ))
    sha = hashlib.sha256()
    for entry in compile_many(jobs, workers=1):
        sha.update(entry.job.label.encode())
        if entry.ok:
            sha.update(entry.result.qasm.encode())
            sha.update(json.dumps(sorted(
                entry.result.output_permutation.items())).encode())
        else:
            sha.update(entry.error.exception_type.encode())
    print(f"{len(jobs)} outputs, sha256 {sha.hexdigest()}")


def hashseed() -> None:
    for seed in ("0", "1", "2", "random"):
        env = dict(os.environ, PYTHONPATH=os.path.join(os.getcwd(), "src"))
        env.pop("PYTHONHASHSEED", None)
        if seed != "random":
            env["PYTHONHASHSEED"] = seed
        out = subprocess.run(
            [sys.executable, __file__, "digest"], env=env, check=True,
            capture_output=True, text=True, timeout=900,
        ).stdout.strip()
        print(f"PYTHONHASHSEED={seed}: {out}", flush=True)


def order(interleaved: bool) -> None:
    """Child: time the CTR cells, alone or alternating with sabre."""
    from repro.batch import compile_many

    ctr = list(_table3_jobs("ctr", "auto"))
    sabre = list(_table3_jobs("sabre", "auto"))
    jobs = []
    for ctr_job, sabre_job in zip(ctr, sabre):
        jobs += [ctr_job, sabre_job] if interleaved else [ctr_job]
    ctr_seconds = 0.0
    for job in jobs:
        started = time.perf_counter()
        compile_many([job], workers=1)
        if job.option_dict["route"] == "ctr":
            ctr_seconds += time.perf_counter() - started
    print(f"{len(ctr)} CTR cells {'interleaved with sabre' if interleaved else 'alone'}: "
          f"{ctr_seconds:.2f} s")


def main() -> int:
    command = sys.argv[1] if len(sys.argv) > 1 else ""
    if command == "digest":
        digest()
    elif command == "hashseed":
        hashseed()
    elif command in ("order", "order-alone", "order-interleaved"):
        if command == "order":
            env = dict(os.environ, PYTHONPATH=os.path.join(os.getcwd(), "src"))
            for kind in ("order-alone", "order-interleaved"):
                subprocess.run([sys.executable, __file__, kind], env=env,
                               check=True, timeout=900)
        else:
            order(command == "order-interleaved")
    else:
        print(__doc__, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
