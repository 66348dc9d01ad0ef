"""Command-line interface for the synthesis and compilation tool.

The paper describes a *prototype tool*; this CLI is its front door::

    repro devices                          # list synthesis targets
    repro info adder.qc                    # metrics of a circuit file
    repro compile adder.qc --device ibmqx5 -o adder_qx5.qasm
    repro compile --hex 033f --inputs 4 --device ibmqx3
    repro verify original.qc mapped.qasm   # formal equivalence check
    repro fuzz --seed 2019 --iterations 100  # differential fuzzing
    repro fuzz --replay tests/corpus         # regression corpus
    repro serve --port 8400 --cache-dir .repro_cache  # compile daemon

Also runnable as ``python -m repro ...``.

Ctrl-C anywhere exits with status 130; during a batch compile the
completed results are flushed first (see ``docs/robustness.md``).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .backend.mapper import MCX_MODES, ROUTE_STRATEGIES
from .backend.placement import PLACEMENT_STRATEGIES
from .core.exceptions import NotSynthesizableError, ReproError
from .devices import available_devices, get_device
from .io import read_circuit, to_qasm, to_qc, to_real
from .verify import verify_equivalent
from .verify.equivalence import VERIFY_METHODS, VERIFY_STRATEGIES


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Technology-dependent quantum logic synthesis with "
        "QMDD formal verification (Smith & Thornton, ISCA 2019).",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    devices = commands.add_parser("devices", help="list synthesis targets")
    devices.set_defaults(handler=cmd_devices)

    info = commands.add_parser("info", help="show metrics of a circuit file")
    info.add_argument("input", help="circuit file (.qasm/.qc/.real)")
    info.set_defaults(handler=cmd_info)

    compile_cmd = commands.add_parser(
        "compile", help="map circuits or a classical function to a device"
    )
    compile_cmd.add_argument("inputs_files", nargs="*", metavar="input",
                             help="circuit file(s) (.qasm/.qc/.real); several "
                                  "files are batch-compiled together")
    compile_cmd.add_argument("--hex", dest="hex_name",
                             help="classical function as a hex truth table")
    compile_cmd.add_argument("--expr", dest="expressions", action="append",
                             help="classical function as a Boolean expression "
                                  "(repeatable for multi-output)")
    compile_cmd.add_argument("--inputs", type=int,
                             help="variable count for --hex")
    compile_cmd.add_argument("--device", required=True,
                             help="target device name (see `repro devices`)")
    compile_cmd.add_argument("-o", "--output", help="write result here "
                             "(.qasm/.qc/.real by extension; default stdout). "
                             "With several inputs: an output directory")
    compile_cmd.add_argument("--placement", default="identity",
                             choices=PLACEMENT_STRATEGIES)
    compile_cmd.add_argument("--no-optimize", action="store_true",
                             help="emit the raw mapping")
    compile_cmd.add_argument("--verify", default="auto",
                             choices=VERIFY_METHODS + ("none",))
    compile_cmd.add_argument("--mcx-mode", default="barenco",
                             choices=MCX_MODES,
                             help="generalized-Toffoli lowering strategy")
    compile_cmd.add_argument("--route", default="ctr",
                             choices=ROUTE_STRATEGIES,
                             help="CNOT legalization: the paper's CTR "
                                  "(swap there and back, default) or the "
                                  "dynamic-layout sabre router (fewer SWAPs; "
                                  "output wires end permuted, see "
                                  "docs/performance.md)")
    compile_cmd.add_argument("--restore-layout", action="store_true",
                             help="with --route sabre: append the uncompute "
                                  "SWAP tail so wires keep their identity")
    compile_cmd.add_argument("--strict", action="store_true",
                             help="fail the compile on any stage-contract "
                                  "diagnostic (see `repro lint`)")
    compile_cmd.add_argument("--known-zero", dest="known_zero", default=None,
                             metavar="WIRES",
                             help="comma-separated logical wires asserted to "
                                  "start in |0> (e.g. '2' for a fresh STG "
                                  "target); enables dataflow constant "
                                  "propagation and subspace verification")
    compile_cmd.add_argument("--workers", type=int, default=1,
                             help="worker processes for batch compilation "
                                  "(default 1 = serial)")
    compile_cmd.add_argument("--cache-dir", default=None,
                             help="enable the persistent compilation cache "
                                  "in this directory (e.g. .repro_cache)")
    compile_cmd.add_argument("--timeout", type=float, default=None,
                             help="per-job wall-clock timeout in seconds "
                                  "(default: none)")
    compile_cmd.add_argument("--retries", type=int, default=1,
                             help="retry budget for transient job failures "
                                  "(timeouts, worker crashes; default 1)")
    compile_cmd.add_argument("--profile", action="store_true",
                             help="record per-stage spans and print a "
                                  "wall-time table plus the optimizer's "
                                  "per-iteration cost trajectory")
    compile_cmd.add_argument("--trace-out", dest="trace_out", metavar="FILE",
                             default=None,
                             help="write recorded spans as a Chrome "
                                  "trace_event file (load in chrome://tracing "
                                  "or Perfetto); implies tracing")
    compile_cmd.set_defaults(handler=cmd_compile)

    fuzz = commands.add_parser(
        "fuzz", help="differentially fuzz the compiler against the QMDD "
                     "oracle (see docs/robustness.md)"
    )
    fuzz.add_argument("--seed", type=int, default=2019,
                      help="campaign seed (same seed = same cases)")
    fuzz.add_argument("--iterations", type=int, default=50,
                      help="number of generated cases (default 50)")
    fuzz.add_argument("--budget-seconds", type=float, default=None,
                      help="stop after this much wall-clock time even if "
                           "iterations remain")
    fuzz.add_argument("--max-qubits", type=int, default=5,
                      help="generated circuit width bound (default 5)")
    fuzz.add_argument("--max-gates", type=int, default=12,
                      help="generated cascade length bound (default 12)")
    fuzz.add_argument("--device", action="append", dest="fuzz_devices",
                      help="restrict the device grid (repeatable; default: "
                           "linear5, t5, tokyo20)")
    fuzz.add_argument("--workers", type=int, default=1,
                      help="worker processes for the compile fan-out")
    fuzz.add_argument("--timeout", type=float, default=30.0,
                      help="per-case compile timeout in seconds (default 30)")
    fuzz.add_argument("--route", default=None, choices=ROUTE_STRATEGIES,
                      help="pin the routing axis to one strategy "
                           "(default: the campaign sweeps both)")
    fuzz.add_argument("--corpus-dir", default=None,
                      help="save shrunk findings to this regression corpus "
                           "directory (e.g. tests/corpus)")
    fuzz.add_argument("--no-shrink", action="store_true",
                      help="report findings without minimizing them")
    fuzz.add_argument("--replay", metavar="DIR", default=None,
                      help="replay a regression corpus instead of fuzzing; "
                           "exits 1 if any entry still fails")
    fuzz.set_defaults(handler=cmd_fuzz)

    lint = commands.add_parser(
        "lint", help="statically analyze circuit files (no compilation)"
    )
    lint.add_argument("inputs", nargs="+", metavar="input",
                      help="circuit or function file(s) "
                           "(.qasm/.qc/.real/.pla)")
    lint.add_argument("--device", default=None,
                      help="also check coupling-map legality and native "
                           "gate-set conformance for this device")
    lint.add_argument("--strict", action="store_true",
                      help="exit non-zero on warnings, not just errors")
    lint.add_argument("--format", dest="output_format", default="text",
                      choices=["text", "json"],
                      help="diagnostic output format (default text)")
    lint.add_argument("--dataflow", action="store_true",
                      help="also run the dataflow analyzers (liveness, "
                           "constant propagation; REPRO8xx)")
    lint.add_argument("--assume-zero", dest="assume_zero", default=None,
                      metavar="WIRES",
                      help="comma-separated wires assumed |0> at entry "
                           "(feeds the dataflow constants analyzer)")
    lint.add_argument("--assume-one", dest="assume_one", default=None,
                      metavar="WIRES",
                      help="comma-separated wires assumed |1> at entry")
    lint.add_argument("--observable", default=None, metavar="WIRES",
                      help="comma-separated wires observed at exit (feeds "
                           "the dataflow liveness analyzer)")
    lint.set_defaults(handler=cmd_lint)

    analyze = commands.add_parser(
        "analyze", help="dataflow report for one circuit file: basis-state "
                        "constants, liveness, abstract permutation"
    )
    analyze.add_argument("input", help="circuit or function file "
                                       "(.qasm/.qc/.real/.pla)")
    analyze.add_argument("--assume-zero", dest="assume_zero", default=None,
                         metavar="WIRES",
                         help="comma-separated wires assumed |0> at entry")
    analyze.add_argument("--assume-one", dest="assume_one", default=None,
                         metavar="WIRES",
                         help="comma-separated wires assumed |1> at entry")
    analyze.add_argument("--observable", default=None, metavar="WIRES",
                         help="comma-separated wires observed at exit")
    analyze.add_argument("--format", dest="output_format", default="text",
                         choices=["text", "json"],
                         help="report format (default text)")
    analyze.set_defaults(handler=cmd_analyze)

    serve = commands.add_parser(
        "serve", help="run the long-lived JSON-over-HTTP compile service "
                      "(shared warm cache; see docs/serving.md)"
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8400,
                       help="bind port (default 8400; 0 picks an ephemeral "
                            "port, announced on stdout)")
    serve.add_argument("--workers", type=int, default=None,
                       help="concurrent compile worker threads "
                            "(default: CPU count, capped at 8)")
    serve.add_argument("--queue-depth", type=int, default=16,
                       help="requests allowed to wait beyond the busy "
                            "workers before answering 429 (default 16)")
    serve.add_argument("--cache-dir", default=None,
                       help="persistent compilation cache directory "
                            "(default: memory-only)")
    serve.add_argument("--max-memory-entries", type=int, default=512,
                       help="memory-tier LRU capacity (default 512)")
    serve.add_argument("--max-disk-entries", type=int, default=None,
                       help="disk-tier entry budget (default: unbounded)")
    serve.add_argument("--quiet", action="store_true",
                       help="suppress per-request access logging")
    serve.set_defaults(handler=cmd_serve)

    draw = commands.add_parser("draw", help="render a circuit file as ASCII art")
    draw.add_argument("input", help="circuit file (.qasm/.qc/.real)")
    draw.add_argument("--columns", type=int, default=24,
                      help="max drawing columns before truncation")
    draw.add_argument("--params", action="store_true",
                      help="show rotation angles")
    draw.set_defaults(handler=cmd_draw)

    verify = commands.add_parser(
        "verify", help="formally check two circuit files for equivalence"
    )
    verify.add_argument("first")
    verify.add_argument("second")
    verify.add_argument("--method", default="auto", choices=VERIFY_METHODS)
    verify.add_argument("--strategy", default="miter",
                        choices=VERIFY_STRATEGIES,
                        help="QMDD build strategy (default miter)")
    verify.add_argument("--up-to-global-phase", action="store_true")
    verify.set_defaults(handler=cmd_verify)

    return parser


def cmd_devices(args) -> int:
    print(f"{'name':<12} {'qubits':>6} {'complexity':>11}  notes")
    for name in available_devices():
        device = get_device(name)
        notes = []
        if device.is_simulator:
            notes.append("simulator")
        if device.retired:
            notes.append("retired")
        print(
            f"{device.name:<12} {device.num_qubits:>6} "
            f"{device.coupling_complexity:>11.6f}  {', '.join(notes)}"
        )
    return 0


def cmd_info(args) -> int:
    circuit = read_circuit(args.input)
    from .core.cost import CircuitMetrics

    metrics = CircuitMetrics.of(circuit)
    print(f"file      : {args.input}")
    print(f"qubits    : {circuit.num_qubits}")
    print(f"gates     : {metrics.gate_volume}")
    print(f"T count   : {metrics.t_count}")
    print(f"CNOTs     : {circuit.cnot_count}")
    print(f"depth     : {circuit.depth()}")
    print(f"Eqn.2 cost: {metrics.cost:g}")
    print(f"histogram : {circuit.gate_histogram()}")
    return 0


def cmd_compile(args) -> int:
    tracing = bool(args.profile or args.trace_out)
    options = {
        "optimize": not args.no_optimize,
        "verify": False if args.verify == "none" else args.verify,
        "placement": args.placement,
        "mcx_mode": args.mcx_mode,
        "route": args.route,
        "restore_layout": args.restore_layout,
        "strict": args.strict,
        "trace": tracing,
    }
    if args.known_zero:
        try:
            options["known_zero"] = tuple(
                int(part) for part in args.known_zero.split(",") if part.strip()
            )
        except ValueError:
            print(f"error: --known-zero expects comma-separated wire "
                  f"indices, got {args.known_zero!r}", file=sys.stderr)
            return 2

    # Collect the circuits to compile (front-end synthesis happens here;
    # the back-end runs through the batch engine below).
    circuits = []
    if args.expressions:
        from .frontend import synthesize_expressions

        circuits.append(synthesize_expressions(args.expressions, name="expr"))
    elif args.hex_name:
        if args.inputs is None:
            print("error: --hex requires --inputs", file=sys.stderr)
            return 2
        from .frontend.cascade import synthesize_truth_table
        from .frontend.truth_table import TruthTable

        table = TruthTable.from_hex(args.hex_name, args.inputs)
        circuits.append(
            synthesize_truth_table(table, name=f"#{args.hex_name}")
        )
    elif args.inputs_files:
        circuits.extend(read_circuit(path) for path in args.inputs_files)
    else:
        print("error: provide a circuit file or --hex/--inputs", file=sys.stderr)
        return 2

    from .batch import CompilationCache, compile_many

    cache = (
        CompilationCache(directory=args.cache_dir) if args.cache_dir else None
    )
    report = compile_many(
        [(circuit, args.device, options) for circuit in circuits],
        workers=args.workers,
        cache=cache,
        timeout=args.timeout,
        retries=args.retries,
    )

    if report.interrupted:
        # Ctrl-C mid-batch: flush whatever finished, then exit 130 like
        # any interrupted Unix tool (128 + SIGINT).
        _emit_batch(report, args.output if len(report) > 1 else None, cache)
        print("interrupted: completed results flushed", file=sys.stderr)
        return 130

    if len(report) == 1:
        entry = report[0]
        if not entry.ok:
            _reraise(entry.error)
        status = _emit_single(entry.result, args.output)
        if tracing:
            _emit_observability(report, args.profile, args.trace_out)
        return status
    status = _emit_batch(report, args.output, cache)
    if tracing:
        _emit_observability(report, args.profile, args.trace_out)
    return status


def _reraise(error) -> None:
    """Surface a captured job error with the CLI's historical exit codes."""
    if error.not_synthesizable:
        raise NotSynthesizableError(error.message)
    raise ReproError(f"{error.exception_type}: {error.message}")


def _emit_single(result, output: Optional[str]) -> int:
    print(f"unoptimized : {result.unoptimized_metrics} (T/gates/cost)",
          file=sys.stderr)
    print(f"optimized   : {result.optimized_metrics}", file=sys.stderr)
    print(f"cost saved  : {result.percent_cost_decrease:.2f}%", file=sys.stderr)
    if result.verification is not None:
        verdict = "EQUIVALENT" if result.verification.equivalent else "MISMATCH"
        print(f"verification: {result.verification.method} -> {verdict}",
              file=sys.stderr)
    print(f"time        : {result.synthesis_seconds * 1e3:.1f} ms",
          file=sys.stderr)
    if result.diagnostics:
        print(f"diagnostics : {result.diagnostics.summary()}", file=sys.stderr)
        for diagnostic in result.diagnostics:
            print(f"  {diagnostic.render()}", file=sys.stderr)

    text = _render(result.optimized, output)
    if output:
        with open(output, "w") as handle:
            handle.write(text)
        print(f"wrote {output}", file=sys.stderr)
    else:
        print(text)
    return 0


def _emit_batch(report, output: Optional[str], cache) -> int:
    """Summarize a multi-circuit batch; write one QASM file per input
    when ``output`` names a directory."""
    import os

    if output is not None and not os.path.isdir(output):
        print("error: with several inputs -o must be a directory",
              file=sys.stderr)
        return 2
    width = max(len(e.job.circuit.name or "circuit") for e in report)
    failures = 0
    for entry in report:
        name = entry.job.circuit.name or "circuit"
        if entry.ok:
            result = entry.result
            cached = " (cached)" if entry.from_cache else ""
            print(
                f"{name:<{width}}  {result.unoptimized_metrics}  ->  "
                f"{result.optimized_metrics}  "
                f"[{result.synthesis_seconds * 1e3:.1f} ms]{cached}",
                file=sys.stderr,
            )
            if output:
                stem = os.path.splitext(os.path.basename(name))[0] or "circuit"
                path = os.path.join(output, f"{stem}.qasm")
                with open(path, "w") as handle:
                    handle.write(_render(result.optimized, path))
                print(f"  wrote {path}", file=sys.stderr)
        else:
            failures += 1
            kind = "N/A" if entry.error.not_synthesizable else "error"
            print(f"{name:<{width}}  {kind}: {entry.error.message}",
                  file=sys.stderr)
    for label, diagnostic in report.diagnostics():
        print(f"  {label}: {diagnostic.render()}", file=sys.stderr)
    for diagnostic in report.health():
        print(f"  {diagnostic.render()}", file=sys.stderr)
    print(f"batch       : {report.summary()}", file=sys.stderr)
    return 1 if failures == len(report) else 0


def _emit_observability(report, profile: bool, trace_out: Optional[str]) -> None:
    """Render the ``--profile`` tables and/or the ``--trace-out`` Chrome
    trace for every traced result in ``report``.

    A cached hit may carry no trace (the stored compile ran without
    tracing); those entries are reported as such, not silently skipped.
    """
    from .obs import write_chrome_trace

    if profile:
        for entry in report:
            if not entry.ok:
                continue
            if not (entry.result.trace and entry.result.trace.get("spans")):
                print(
                    f"profile [{entry.job.label}]: no trace recorded "
                    "(cached result from an unprofiled compile)",
                    file=sys.stderr,
                )
                continue
            _print_profile(entry.job.label, entry.result.trace)
        if report.metrics.get("counters") or report.metrics.get("gauges"):
            _print_metrics(report.metrics)
    if trace_out:
        traced = [
            (entry.job.label, entry.result.trace)
            for entry in report
            if entry.ok and entry.result.trace
            and entry.result.trace.get("spans")
        ]
        if traced:
            count = write_chrome_trace(
                trace_out,
                [trace for _, trace in traced],
                labels=[label for label, _ in traced],
            )
            print(f"wrote {trace_out} ({count} trace events)", file=sys.stderr)
        else:
            print(f"no traces recorded; {trace_out} not written",
                  file=sys.stderr)


def _print_profile(label: str, trace) -> None:
    """One entry's stage table and optimizer cost trajectory."""
    from .obs import optimizer_trajectory, stage_rows

    print(f"profile [{label}]:", file=sys.stderr)
    print(f"  {'stage':<30} {'ms':>9}  {'share':>6}", file=sys.stderr)
    for row in stage_rows(trace):
        name = "  " * row["depth"] + row["name"]
        attrs = " ".join(
            f"{key}={value}" for key, value in row["attrs"].items()
        )
        print(
            f"  {name:<30} {row['seconds'] * 1e3:>9.2f}  "
            f"{row['share'] * 100:>5.1f}%" + (f"  {attrs}" if attrs else ""),
            file=sys.stderr,
        )
    rounds = optimizer_trajectory(trace)
    if rounds:
        print("  optimizer trajectory:", file=sys.stderr)
        for step in rounds:
            verdict = "accepted" if step.get("accepted") else "rejected"
            print(
                f"    round {step.get('round', '?')}: "
                f"cost {step.get('cost_before', '?')} -> "
                f"{step.get('cost_after', '?')}  "
                f"gates {step.get('gates_before', '?')} -> "
                f"{step.get('gates_after', '?')}  "
                f"[{step['seconds'] * 1e3:.2f} ms, {verdict}]",
                file=sys.stderr,
            )


def _print_metrics(snapshot) -> None:
    """The batch's merged metrics registry, counters then gauges."""
    print("metrics:", file=sys.stderr)
    for name, value in sorted(snapshot.get("counters", {}).items()):
        rendered = f"{value:.6f}" if isinstance(value, float) else str(value)
        print(f"  {name:<30} {rendered}", file=sys.stderr)
    for name, value in sorted(snapshot.get("gauges", {}).items()):
        print(f"  {name:<30} {value} (gauge)", file=sys.stderr)


def _render(circuit, output_path: Optional[str]) -> str:
    if output_path and output_path.endswith(".qc"):
        return to_qc(circuit)
    if output_path and output_path.endswith(".real"):
        return to_real(circuit)
    return to_qasm(circuit)


def cmd_lint(args) -> int:
    """Run the static analyzer suite over circuit files; no compilation.

    Exit codes: 0 clean (or warnings without ``--strict``), 1 when any
    error-severity diagnostic is found (or any finding with ``--strict``),
    2 on usage problems (unknown device, unreadable file).
    """
    import json

    from .analysis import (
        DATAFLOW_LINT_ANALYZERS,
        DEFAULT_LINT_ANALYZERS,
        Diagnostic,
        DiagnosticReport,
        lint_circuit,
    )
    from .core.exceptions import ParseError

    try:
        device = get_device(args.device) if args.device else None
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    names = list(DEFAULT_LINT_ANALYZERS)
    options = {}
    if getattr(args, "dataflow", False):
        names.extend(DATAFLOW_LINT_ANALYZERS)
    for key in ("assume_zero", "assume_one", "observable"):
        value = getattr(args, key, None)
        if value is not None:
            options[key] = value
    documents = []
    errors = warnings = 0
    for path in args.inputs:
        try:
            circuit = _load_lintable(path)
        except ParseError as error:
            report = DiagnosticReport([error.diagnostic])
        except OSError as error:
            print(f"error: cannot read {path}: {error}", file=sys.stderr)
            return 2
        else:
            try:
                report = lint_circuit(
                    circuit, device=device, names=names,
                    options=options or None,
                )
            except ReproError:
                # User-facing input problems keep their historical exit
                # path (main() prints them and exits 1).
                raise
            except Exception as error:
                # An analyzer raising anything else is a bug in the
                # analyzer, not in the user's input: report one located
                # diagnostic instead of a traceback, and exit 2 (usage/
                # tool failure, distinct from "lint found problems").
                crash = Diagnostic.make(
                    "REPRO901",
                    f"analyzer crashed while linting this file: "
                    f"{type(error).__name__}: {error}",
                    filename=path,
                    hint="this is an analyzer bug, not a problem with "
                         "the input; please report it",
                )
                print(crash.render(), file=sys.stderr)
                return 2
        errors += len(report.errors())
        warnings += len(report.warnings())
        documents.append({
            "file": path,
            "diagnostics": report.to_payload(),
            "summary": report.summary(),
        })
        if args.output_format == "text":
            status = report.summary() if report else "clean"
            print(f"{path}: {status}")
            for diagnostic in report:
                print(f"  {diagnostic.render()}")
    if args.output_format == "json":
        print(json.dumps(
            {
                "files": documents,
                "errors": errors,
                "warnings": warnings,
            },
            indent=2,
        ))
    elif len(args.inputs) > 1:
        print(f"total: {errors} error(s), {warnings} warning(s)")
    if errors or (args.strict and warnings):
        return 1
    return 0


def _load_lintable(path: str):
    """Read any lintable input: circuit formats directly, ``.pla``/
    ``.esop`` switching functions through the front-end cascade, and
    fuzz-corpus ``.json`` entries by their embedded circuit."""
    import os

    ext = os.path.splitext(path)[1].lower()
    if ext in (".pla", ".esop"):
        from .frontend.cascade import cascade_from_cubes
        from .io import read_pla

        return cascade_from_cubes(read_pla(path), name=path)
    if ext == ".json":
        import json

        from .batch.serialize import circuit_from_payload

        with open(path) as handle:
            payload = json.load(handle)
        if not isinstance(payload, dict) or "circuit" not in payload:
            raise ReproError(
                f"{path}: not a fuzz-corpus entry (no 'circuit' key)"
            )
        return circuit_from_payload(payload["circuit"])
    return read_circuit(path)


def cmd_analyze(args) -> int:
    """Print the dataflow digest of one circuit: constant-propagation
    facts, liveness (when ``--observable`` is given), and the abstract
    permutation.  Exit 0 always (this is a report, not a gate)."""
    import json

    from .analysis import dataflow_summary

    circuit = _load_lintable(args.input)

    def wires(text):
        if text is None:
            return ()
        return tuple(int(part) for part in text.split(",") if part.strip())

    summary = dataflow_summary(
        circuit,
        assume_zero=wires(args.assume_zero),
        assume_one=wires(args.assume_one),
        observable=(
            wires(args.observable) if args.observable is not None else None
        ),
    )
    if args.output_format == "json":
        print(json.dumps(summary, indent=2))
        return 0
    print(f"file        : {args.input}")
    print(f"width       : {summary['width']}  gates: {summary['gates']}")
    if summary["assume_zero"] or summary["assume_one"]:
        print(f"assumptions : zero={summary['assume_zero']} "
              f"one={summary['assume_one']}")
    print(f"inert gates : {len(summary['inert_gates'])}")
    for record in summary["inert_gates"]:
        print(f"  [{record['gate_index']}] {record['gate']}: "
              f"{record['reason']}")
    print(f"demotable   : {len(summary['demotable_gates'])}")
    for record in summary["demotable_gates"]:
        print(f"  [{record['gate_index']}] {record['gate']} -> "
              f"{record['replacement']}: {record['reason']}")
    if summary["exit_facts"]:
        facts = ", ".join(
            f"{wire}={value}" for wire, value in summary["exit_facts"].items()
        )
        print(f"exit facts  : {facts}")
    if "observable" in summary:
        print(f"observable  : {summary['observable']}")
        print(f"dead gates  : {len(summary['dead_gates'])}")
        for record in summary["dead_gates"]:
            print(f"  [{record['gate_index']}] {record['gate']}")
        print(f"live at entry: {summary['live_at_entry']}")
    perm = summary["permutation"]
    if perm["exact"]:
        shape = "identity" if perm["identity"] else (
            f"{perm['moved_states']}/{perm['size']} states moved"
        )
        print(f"permutation : exact ({shape})")
    else:
        print(f"permutation : ⊤ ({perm['reason']})")
    return 0


def cmd_fuzz(args) -> int:
    """Differential fuzzing front-end: campaign mode by default,
    ``--replay DIR`` to re-check a saved regression corpus.

    Exit codes: 0 clean, 1 on findings (or still-failing corpus
    entries), 130 when interrupted.
    """
    from .fuzz import (
        FuzzConfig,
        entry_from_finding,
        replay_corpus,
        run_fuzz,
        save_entry,
    )

    if args.replay:
        outcomes = replay_corpus(args.replay)
        if not outcomes:
            print(f"corpus {args.replay}: no entries", file=sys.stderr)
            return 0
        failures = 0
        for outcome in outcomes:
            if not outcome.passed:
                failures += 1
            print(outcome.describe())
        print(
            f"replayed {len(outcomes)} entries, {failures} still failing",
            file=sys.stderr,
        )
        return 1 if failures else 0

    config = FuzzConfig(
        seed=args.seed,
        iterations=args.iterations,
        budget_seconds=args.budget_seconds,
        max_qubits=args.max_qubits,
        max_gates=args.max_gates,
        devices=list(args.fuzz_devices) if args.fuzz_devices else None,
        workers=args.workers,
        timeout=args.timeout,
        route=args.route,
    )
    report = run_fuzz(
        config,
        on_event=lambda message: print(message, file=sys.stderr),
        shrink=not args.no_shrink,
    )
    for finding in report.findings:
        print(finding.describe())
        for gate in finding.minimal_circuit:
            print(f"    {gate}")
    if report.timing_line():
        print(f"timing: {report.timing_line()}", file=sys.stderr)
    if report.metrics.get("counters") or report.metrics.get("gauges"):
        _print_metrics(report.metrics)
    if args.corpus_dir:
        for finding in report.findings:
            path = save_entry(args.corpus_dir, entry_from_finding(finding))
            print(f"saved {path}", file=sys.stderr)
    if report.interrupted:
        return 130
    return 0 if report.ok else 1


def cmd_serve(args) -> int:
    """Run the compile-service daemon until SIGTERM/Ctrl-C; both drain
    in-flight requests first.  Exit 0 after SIGTERM, 130 after Ctrl-C.
    """
    import os

    from .serve import ServeConfig, run_server

    config = ServeConfig(
        workers=args.workers,
        queue_depth=args.queue_depth,
        cache_dir=args.cache_dir,
        max_memory_entries=args.max_memory_entries,
        max_disk_entries=args.max_disk_entries,
        allow_test_delay=os.environ.get("REPRO_SERVE_TEST_DELAY") == "1",
    )
    return run_server(
        config,
        host=args.host,
        port=args.port,
        verbose=not args.quiet,
    )


def cmd_draw(args) -> int:
    from .drawing import draw_circuit

    circuit = read_circuit(args.input)
    print(draw_circuit(circuit, max_columns=args.columns,
                       show_params=args.params))
    return 0


def cmd_verify(args) -> int:
    first = read_circuit(args.first)
    second = read_circuit(args.second)
    report = verify_equivalent(
        first, second, method=args.method,
        up_to_global_phase=args.up_to_global_phase,
        strategy=args.strategy,
    )
    verdict = "EQUIVALENT" if report.equivalent else "NOT EQUIVALENT"
    print(f"{verdict} (method={report.method} {report.detail})")
    return 0 if report.equivalent else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except KeyboardInterrupt:
        # Batch paths flush completed work and return 130 themselves;
        # this is the backstop for every other command.
        print("interrupted", file=sys.stderr)
        return 130
    except NotSynthesizableError as error:
        print(f"N/A: {error}", file=sys.stderr)
        return 3
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
