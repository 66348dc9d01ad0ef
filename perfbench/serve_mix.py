"""The ``serve-mix`` workload: a closed loop against ``repro serve``.

Each round, one client sends the seeded request stream of
:func:`workloads.serve_stream` to a fresh daemon (``--workers 1``,
memory-only cache, ``--quiet``), each request after the previous
answer.  The first send of every distinct request compiles (cold:
parse, compile, store); the repeats are cache hits (warm: lookup,
serialize, HTTP).  The daemon's CPU and peak RSS are read from
``/proc/<pid>``.

A traced run sends every request with ``?profile=1`` and then replays
the same stream in this process through the layers' public functions
the daemon calls (parse, cache get/put, serialize), timing each call.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import re
import select
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Tuple

import spans as spans_mod
import verdicts
from report import (
    SETUP_LAUNCHES, BenchError, latency_figures, program_env, write_trace,
)
from workloads import rounds, serve_population, serve_stream

#: Warm responses compared against a fresh cache-free compile.
FRESH_SAMPLE = 6
#: Every this many cold requests of the replay also compile traced.
OVERHEAD_EVERY = 4
_ANNOUNCE = re.compile(r"listening on http://([\d.]+):(\d+)")


def request_texts(recorder) -> Dict[Tuple[str, str], Tuple[str, str]]:
    """Source text and format per ``(family, name)``.  Formats rotate
    over ``.real``, ``.qc`` and ``.qasm``; sources with gates of more
    than two controls skip ``.qasm``, which cannot express them."""
    from repro.benchlib import revlib, single_target
    from repro.io import to_qasm, to_qc, to_real

    writers = {"real": to_real, "qc": to_qc, "qasm": to_qasm}
    texts = {}
    with recorder.span("frontend.synth"):
        for op in serve_population():
            key = (op["family"], op["name"])
            if key in texts:
                continue
            if op["family"] == "table3":
                circuit = single_target.build_benchmark(
                    op["name"], op["qubits"]
                )
            else:
                circuit = revlib.build_benchmark(op["name"])
            formats = ["real", "qc", "qasm"]
            if any(g.name == "MCX" for g in circuit):
                formats.remove("qasm")
            fmt = formats[len(texts) % len(formats)]
            texts[key] = (writers[fmt](circuit), fmt)
    return texts


class Daemon:
    """A ``repro serve`` process on an ephemeral port."""

    def __init__(self, root: str, out_dir: str, cache_entries: int):
        self.log_path = os.path.join(out_dir, f"serve-{os.getpid()}.log")
        self.log = open(self.log_path, "w")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1",
             "--port", "0", "--workers", "1", "--quiet",
             "--max-memory-entries", str(cache_entries)],
            cwd=root, env=program_env(root), stdout=subprocess.PIPE, stderr=self.log,
            text=True,
        )
        self.port = None

    def wait_ready(self, timeout: float = 60.0) -> None:
        """Read the announce line, then poll ``/healthz``."""
        deadline = time.monotonic() + timeout
        stdout = self.process.stdout
        ready, _, _ = select.select([stdout], [], [], timeout)
        line = stdout.readline() if ready else ""
        match = _ANNOUNCE.search(line)
        if match is None:
            raise BenchError(f"repro serve did not announce: {line!r}")
        self.port = int(match.group(2))
        while time.monotonic() < deadline:
            try:
                status, _ = self.get("/healthz")
                if status == 200:
                    return
            except OSError:
                pass
            time.sleep(0.005)
        raise BenchError("repro serve never answered /healthz")

    def get(self, path: str):
        connection = http.client.HTTPConnection("127.0.0.1", self.port,
                                                timeout=30)
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            return response.status, json.loads(response.read())
        finally:
            connection.close()

    def cpu_seconds(self) -> float:
        with open(f"/proc/{self.process.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        ticks = int(fields[11]) + int(fields[12])  # utime + stime
        return ticks / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self) -> None:
        """SIGTERM (the daemon drains), then wait; kill if it hangs."""
        try:
            if self.process.poll() is None:
                self.process.send_signal(signal.SIGTERM)
                try:
                    self.process.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    self.process.kill()
                    self.process.wait()
        finally:
            self.process.stdout.close()
            self.log.close()
            if os.path.getsize(self.log_path) == 0:
                os.remove(self.log_path)


def send_stream(port: int, stream: List[int], bodies: List[bytes],
                profile: bool) -> List[Dict]:
    """The closed loop: one request in flight, each on its own
    connection, as :class:`repro.serve.client.ServeClient` sends them
    (a kept-alive connection stalls on delayed ACKs; see CHANGES.md)."""
    path = "/compile?profile=1" if profile else "/compile"
    headers = {"Content-Type": "application/json"}
    answers = []
    for index in stream:
        started = time.perf_counter()
        connection = http.client.HTTPConnection("127.0.0.1", port,
                                                timeout=120)
        try:
            connection.request("POST", path, body=bodies[index],
                               headers=headers)
            response = connection.getresponse()
            body = response.read()
        finally:
            connection.close()
        latency = time.perf_counter() - started
        answers.append({"index": index, "status": response.status,
                        "started": started, "latency_s": latency,
                        "body": body})
    return answers


def cold_setup(root: str, out_dir: str) -> float:
    """Seconds from spawning a daemon until ``/healthz`` answers."""
    launched = time.monotonic()
    daemon = Daemon(root, out_dir, cache_entries=64)
    try:
        daemon.wait_ready()
        return time.monotonic() - launched
    finally:
        daemon.stop()


def serve_round(root: str, out_dir: str, stream: List[int],
                bodies: List[bytes], profile: bool) -> Dict:
    """Start a daemon, send one stream, read its figures, stop it."""
    launched = time.monotonic()
    daemon = Daemon(root, out_dir, cache_entries=2 * len(bodies) + 64)
    try:
        daemon.wait_ready()
        ready = time.monotonic()
        daemon.get("/metrics")  # the next scrape's delta covers the stream
        cpu_start = daemon.cpu_seconds()
        wall_start = time.perf_counter()
        answers = send_stream(daemon.port, stream, bodies, profile)
        wall = time.perf_counter() - wall_start
        cpu = daemon.cpu_seconds() - cpu_start
        peak_rss_mb = daemon.peak_rss_mb()
        status, scrape = daemon.get("/metrics")
        if status != 200:
            raise BenchError(f"/metrics answered {status}")
    finally:
        daemon.stop()
    return {"setup_s": ready - launched, "wall_s": wall, "cpu_s": cpu,
            "peak_rss_mb": peak_rss_mb, "answers": answers,
            "scrape": scrape, "stream": stream}


def run(args, root: str, out_dir: str) -> Dict:
    recorder = spans_mod.Recorder()
    population = serve_population()
    texts = request_texts(recorder)
    requests = []
    for op in population:
        text, fmt = texts[(op["family"], op["name"])]
        requests.append({"circuit": text, "format": fmt,
                         "device": op["device"], "name": op["id"],
                         "options": {"route": op["route"]}})
    bodies = [json.dumps(r).encode() for r in requests]
    rng = random.Random(args.seed)
    served = [
        serve_round(root, out_dir, serve_stream(rng), bodies,
                    bool(args.trace))
        for _ in range(rounds("serve-mix", args.seconds, bool(args.trace)))
    ]
    setups = [done["setup_s"] for done in served]
    if not args.trace:
        setups += [cold_setup(root, out_dir)
                   for _ in range(SETUP_LAUNCHES - len(setups))]

    problems: List[str] = []
    outcomes = []
    warm: List[Tuple[int, Dict]] = []
    failed = 0
    for done in served:
        cold = set()
        for answer in done["answers"]:
            op = population[answer["index"]]
            if answer["status"] != 200:
                failed += 1
                outcomes.append({"op": op,
                                 "error": f"HTTP {answer['status']}"})
                continue
            document = json.loads(answer["body"])
            answer["document"] = document
            payload = document["result"]
            first = answer["index"] not in cold
            if document["from_cache"] == first:
                problems.append(
                    f"{op['id']}: from_cache={document['from_cache']} on "
                    f"{'first' if first else 'repeat'} send"
                )
            if first:
                cold.add(answer["index"])
            else:
                warm.append((answer["index"], payload))
            outcomes.append({
                "op": op,
                "text": json.dumps([payload["optimized"],
                                    payload["output_permutation"],
                                    payload["placement"]]),
                "output": verdicts.from_payload(op, payload),
            })
        stream = done["stream"]
        repeats = len(stream) - len(set(stream))
        cache = done["scrape"]["cache"]
        if cache.get("hits") != repeats or cache.get("stores") != len(cold):
            problems.append(
                f"/metrics cache delta {cache.get('hits')} hits, "
                f"{cache.get('stores')} stores; the client sent "
                f"{repeats} repeats of {len(cold)} requests"
            )
    verdict = verdicts.judge("serve-mix", outcomes, args.seed)
    problems += verdict["problems"]
    failed += verdict["failed"]
    problems += fresh_compare(requests, warm, args.seed)

    answers = [a for done in served for a in done["answers"]]
    result = {"attempted": len(answers), "failed": failed,
              "problems": problems}
    if not args.trace:
        result["metrics"] = {
            "setup_s": statistics.median(setups),
            "ops_per_s": len(answers) / sum(d["wall_s"] for d in served),
            **latency_figures([a["latency_s"] for a in answers]),
            "cpu_s": sum(d["cpu_s"] for d in served),
            "opt_cost": verdict["opt_cost"],
            "opt_gates": verdict["opt_gates"],
            "opt_depth": verdict["opt_depth"],
            "peak_rss_mb": max(d["peak_rss_mb"] for d in served),
        }
        return result

    # Traced run (one round): graft each profiled compile under its
    # request span, then replay the stream through the layers.
    (done,) = served
    for answer in answers:
        document = answer.get("document")
        op = population[answer["index"]]
        span = recorder.record(
            "serve.request", answer["started"], answer["latency_s"],
            id=op["id"], route=op["route"],
        )
        if document and not document["from_cache"]:
            recorder.graft(document["result"].get("trace"), span)
    pairs = replay(requests, done["stream"], recorder)
    metrics = done["scrape"]["metrics"]["delta"]
    layers = spans_mod.layer_metrics(
        recorder.spans, metrics.get("counters", {}), metrics.get("gauges", {})
    )
    seconds = [a["document"]["seconds"] for a in answers if a.get("document")]
    layers.update({
        "batch.cache_hit_ratio": done["scrape"]["cache"].get("hit_rate", 0.0),
        "serve.service_s": sum(seconds),
        "serve.roundtrip_overhead_ms": spans_mod.median_ms([
            a["latency_s"] - a["document"]["seconds"]
            for a in answers if a.get("document")
        ]),
        "obs.trace_overhead_frac": spans_mod.overhead_fraction(pairs),
    })
    result["metrics"] = layers
    write_trace(args, out_dir, recorder.spans, layers)
    return result


def replay(requests: List[Dict], stream: List[int], recorder) -> List:
    """Run the stream in-process through the layers the daemon uses,
    one span per call; returns ``[untraced_s, traced_s]`` pairs of
    every ``OVERHEAD_EVERY``-th cold compile."""
    from repro.batch import CompilationCache, CompileJob
    from repro.batch.serialize import result_to_payload
    from repro.compiler import compile_circuit
    from repro.io import parse_qasm, parse_qc, parse_real

    parsers = {"qasm": parse_qasm, "qc": parse_qc, "real": parse_real}
    cache = CompilationCache(max_entries=2 * len(requests) + 64)
    pairs = []
    seen = set()
    with recorder.span("replay"):
        for index in stream:
            request = requests[index]
            with recorder.span("io.parse"):
                circuit = parsers[request["format"]](
                    request["circuit"], name=request["name"]
                )
            job = CompileJob.make(circuit, request["device"],
                                  request["options"], label=request["name"])
            key = job.cache_key()
            with recorder.span("batch.cache_get"):
                result = cache.get(key)
            if result is None:
                options = job.option_dict
                with recorder.span("replay.compile"):
                    result = compile_circuit(job.circuit, job.device,
                                             **options)
                if len(seen) % OVERHEAD_EVERY == 0:
                    timed = {}
                    first_plain = len(seen) % (2 * OVERHEAD_EVERY) == 0
                    for traced in ((False, True) if first_plain
                                   else (True, False)):
                        begin = time.perf_counter()
                        compile_circuit(job.circuit, job.device,
                                        trace=traced, **options)
                        timed[traced] = time.perf_counter() - begin
                    pairs.append([timed[False], timed[True]])
                with recorder.span("batch.cache_put"):
                    cache.put(key, result)
            with recorder.span("batch.serialize"):
                json.dumps(result_to_payload(result))
            seen.add(index)
    return pairs


def fresh_compare(requests: List[Dict], warm: List[Tuple[int, Dict]],
                  seed: int) -> List[str]:
    """A seeded sample of warm responses must equal a fresh cache-free
    ``compile_many`` of the same request."""
    from repro.batch import CompileJob, compile_many
    from repro.batch.serialize import result_to_payload
    from repro.io import parse_qasm, parse_qc, parse_real

    parsers = {"qasm": parse_qasm, "qc": parse_qc, "real": parse_real}
    problems = []
    rng = random.Random(seed)
    for index, payload in rng.sample(warm, min(FRESH_SAMPLE, len(warm))):
        request = requests[index]
        circuit = parsers[request["format"]](request["circuit"],
                                             name=request["name"])
        job = CompileJob.make(circuit, request["device"], request["options"])
        entry = compile_many([job], workers=1)[0]
        if not entry.ok:
            problems.append(f"{request['name']}: fresh compile failed: "
                            f"{entry.error}")
            continue
        fresh = result_to_payload(entry.result)
        for field in ("optimized", "output_permutation", "placement",
                      "optimized_metrics", "unoptimized_metrics"):
            if fresh[field] != payload[field]:
                problems.append(f"{request['name']}: warm {field} differs "
                                "from a fresh compile")
    return problems
