"""Steadiness of the benchmark: run each workload N times, one seed per
run, and print every end-to-end metric's median, quartiles and spread
(interquartile distance over the median) against its bound::

    python3 perfbench/steady.py --runs 10 [--workload wide96 ...] \\
        [--first-seed 1] [--json perfbench/out/steady.json]

Run from the root of a checkout.  Every spread must stay within its
bound, ``setup_s`` included; ``ok`` marks the ones below a third of it.
Every run must be correct and the share of failed operations identical
in every run.  The exit status is 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload: str, seed: int, seconds: int) -> dict:
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    completed = subprocess.run(command, capture_output=True, text=True,
                               timeout=300)
    if completed.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited "
                         f"{completed.returncode}:\n{completed.stderr}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--json", help="also write every run's result here")
    args = parser.parse_args(argv)
    with open("BENCHMARK.json") as handle:
        spec = json.load(handle)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    everything = {}
    status = 0
    for workload in workloads:
        results = []
        for offset in range(args.runs):
            seed = args.first_seed + offset
            result = run_once(workload, seed, spec["run_seconds"])
            results.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} "
                  f"failed={result['failed']}", file=sys.stderr, flush=True)
        everything[workload] = results
        shares = {r["failed"] / r["attempted"] for r in results}
        correct = all(r["correct"] for r in results)
        print(f"\n{workload}: {args.runs} runs, correct={correct}, "
              f"failed shares {sorted(shares)}")
        print(f"  {'metric':<14}{'median':>14}{'q1':>14}{'q3':>14}"
              f"{'spread':>9}{'bound':>8}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, q2, q3, width = spread(values)
            verdict = "ok" if width < bound / 3 else (
                "within" if width <= bound else "OVER")
            if width > bound or not correct or len(shares) != 1:
                status = 1
            print(f"  {name:<14}{q2:>14.6g}{q1:>14.6g}{q3:>14.6g}"
                  f"{100 * width:>8.2f}%{100 * bound:>7.0f}%  {verdict}")
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(everything, handle, indent=1)
    return status


if __name__ == "__main__":
    sys.exit(main())
