"""Command line entry points.

``repro-analyze file.pl "main(g, var)"`` — run the compiled dataflow
analysis and print the mode/type/aliasing report (``--lint`` appends the
lint report).

``repro-prolog file.pl "goal(X)"`` — compile a program to WAM code and run
a query on the concrete machine (``--engine solver`` uses the SLD solver,
``--listing`` prints the WAM code instead of running).

``repro-lint file.pl "main(g, var)"`` — verify the compiled bytecode and
lint the source against the analysis; exit status 1 when any
error-severity diagnostic (or a syntax error) is found, 0 otherwise.

``repro-optimize file.pl "main(g, var)" --goal "main(t, R)"`` — run the
repro.opt pipeline (dead-clause elimination, forced first-argument
indexing, get/unify specialization) and *validate* the result: the
optimized code area must be verifier-clean and every ``--goal`` must
produce identical solutions on the original and optimized programs;
exit status 1 on any verifier diagnostic or divergence.

``repro-fuzz --seed 42 --count 200`` — a deterministic differential
fuzzing campaign: generated and mutated programs are checked by the
oracle battery (execution agreement, soundness, lattice agreement,
optimizer validation, incremental serve), violations are shrunk to
minimal reproducers, and the summary lands in ``BENCH_fuzz.json``;
exit status 1 on any violation (see docs/fuzz.md).

``repro-trace check|stitch|html trace.jsonl`` — inspect a span trace:
validate the stitched multi-process invariants, merge the per-process
records into one tree, or render the self-contained HTML time-travel
viewer (see docs/tracing.md).

``repro-serve`` — the analysis service: JSON-lines requests on stdin
(or ``--batch file.pl ...`` for a one-shot run), content-addressed
result caching and incremental re-analysis; ``--workers 1`` executes
requests in a supervised, crash-isolated worker subprocess with
``--request-timeout`` / ``--max-retries`` policy, and ``--journal``
arms the self-healing on-disk store (see docs/serve.md).

The commands share one loader and one set of argument groups, so
flags mean the same thing everywhere.  All three catch library errors
(:class:`~repro.errors.ReproError`) and I/O errors at top level: one
line on stderr, exit status 2 — never a traceback.  Resource limits
(``--max-steps``, ``--deadline``, ...) are available everywhere; the
analysis commands default to ``--on-budget=degrade``, reporting a sound
⊤-widened result instead of dying when a limit trips.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Optional, Sequence

from .analysis.driver import MAX_ITERATIONS, Analyzer
from .errors import ReproError
from .prolog.library import with_library
from .prolog.parser import parse_term
from .prolog.program import Program
from .prolog.solver import Solver
from .prolog.writer import term_to_text
from .robust import Budget
from .wam.compile import CompilerOptions, compile_program
from .wam.listing import disassemble
from .wam.machine import Machine


def _guard(command: Callable[[argparse.Namespace], int], prog: str):
    """Run a command body; library and I/O failures, and a term nested
    deeper than a recursive walk can follow, become exit code 2 with a
    one-line message instead of a traceback."""

    def main(argv: Optional[Sequence[str]] = None) -> int:
        try:
            return command(argv)
        except (ReproError, OSError) as error:
            print(f"{prog}: error: {error}", file=sys.stderr)
            return 2
        except RecursionError as error:
            print(f"{prog}: error: too deep to analyze: {error}",
                  file=sys.stderr)
            return 2

    return main


def _load_program(path: str, use_library: bool) -> Program:
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    if use_library:
        return with_library(text)
    return Program.from_text(text)


def _add_budget_arguments(
    parser: argparse.ArgumentParser, analysis: bool = True
) -> None:
    """Resource-limit flags (see repro.robust.Budget)."""
    parser.add_argument(
        "--max-steps", type=int, default=None, metavar="N",
        help="abstract/concrete machine step limit",
    )
    parser.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="wall-clock limit for the whole run",
    )
    if analysis:
        parser.add_argument(
            "--max-iterations", type=int, default=MAX_ITERATIONS, metavar="N",
            help=f"fixpoint iteration limit (default {MAX_ITERATIONS})",
        )
        parser.add_argument(
            "--table-limit", type=int, default=None, metavar="N",
            help="extension-table entry limit",
        )
        parser.add_argument(
            "--on-budget", default="degrade", choices=["degrade", "raise"],
            help="when a limit trips: degrade soundly to ⊤ (default) "
            "or raise",
        )


def _budget_from(arguments: argparse.Namespace) -> Optional[Budget]:
    """A Budget from the parsed flags, or None when nothing was limited."""
    max_iterations = getattr(arguments, "max_iterations", None)
    table_limit = getattr(arguments, "table_limit", None)
    if (
        arguments.max_steps is None
        and arguments.deadline is None
        and table_limit is None
        and max_iterations in (None, MAX_ITERATIONS)
    ):
        return None
    return Budget(
        max_steps=arguments.max_steps,
        max_iterations=max_iterations,
        max_table_entries=table_limit,
        deadline=arguments.deadline,
    )


def _add_program_arguments(
    parser: argparse.ArgumentParser,
    analysis: bool = True,
    on_undefined_default: str = "error",
) -> None:
    """How the program is loaded and, with ``analysis``, analyzed: one
    group for repro-analyze, repro-lint, repro-optimize and repro-serve
    (repro-prolog takes ``--library`` only)."""
    parser.add_argument("--library", action="store_true", help="add list library")
    if not analysis:
        return
    parser.add_argument("--depth", type=int, default=4, help="term-depth limit")
    parser.add_argument(
        "--no-trimming", action="store_true", help="disable environment trimming"
    )
    parser.add_argument(
        "--subsumption", action="store_true",
        help="reuse summaries of more general explored patterns",
    )
    parser.add_argument(
        "--on-undefined",
        default=on_undefined_default,
        choices=["error", "fail", "top"],
        help="policy for calls to undefined predicates",
    )


def _add_analysis_arguments(
    parser: argparse.ArgumentParser, on_undefined_default: str = "error"
) -> None:
    """Arguments shared by the commands that analyze one Prolog file."""
    parser.add_argument("file", help="Prolog source file")
    parser.add_argument(
        "entries",
        nargs="+",
        help='entry calling patterns, e.g. "main" or "nrev(glist, var)"',
    )
    _add_program_arguments(parser, on_undefined_default=on_undefined_default)
    parser.add_argument(
        "--json", action="store_true", help="print the report as JSON"
    )
    _add_budget_arguments(parser)


def _build_analyzer(arguments: argparse.Namespace, program: Program) -> Analyzer:
    options = CompilerOptions(environment_trimming=not arguments.no_trimming)
    return Analyzer(
        program,
        options=options,
        depth=arguments.depth,
        subsumption=arguments.subsumption,
        on_undefined=arguments.on_undefined,
        budget=_budget_from(arguments),
        on_budget=arguments.on_budget,
    )


def _checkpoint_setup(
    arguments: argparse.Namespace, analyzer: Analyzer, program: Program
):
    """Build the (policy, resume snapshot) pair for --checkpoint /
    --resume; (None, None) when neither flag is given.  A snapshot is
    tied to the config fingerprint (engine version and analyzer knobs)
    and, as its key, to the program fingerprint."""
    if arguments.checkpoint is None and arguments.resume is None:
        return None, None
    import os

    from .robust import checkpoint as ckpt
    from .serve.fingerprint import config_fingerprint, program_fingerprint

    config_fp = config_fingerprint(
        depth=arguments.depth,
        subsumption=arguments.subsumption,
        on_undefined=arguments.on_undefined,
        environment_trimming=not arguments.no_trimming,
    )
    key = program_fingerprint(program)
    entries = sorted(str(entry) for entry in arguments.entries)
    resume_data = None
    if arguments.resume is not None:
        try:
            with open(arguments.resume, "r", encoding="utf-8") as handle:
                candidate = json.load(handle)
        except (OSError, ValueError) as error:
            print(
                f"warning: cannot read --resume {arguments.resume}: "
                f"{error}; starting from scratch",
                file=sys.stderr,
            )
            candidate = None
        if candidate is not None:
            resume_data = ckpt.load(candidate, config=config_fp, key=key)
            if resume_data is None:
                print(
                    "warning: --resume snapshot is damaged or was taken "
                    "under different analysis settings or for a "
                    "different program; ignoring it",
                    file=sys.stderr,
                )
            elif resume_data.get("entries") != entries:
                print(
                    "warning: --resume snapshot was taken for different "
                    "entries; ignoring it",
                    file=sys.stderr,
                )
                resume_data = None
    policy = None
    if arguments.checkpoint is not None:
        path = arguments.checkpoint

        def sink(snap: dict) -> None:
            temp = path + ".tmp"
            with open(temp, "w", encoding="utf-8") as handle:
                json.dump(snap, handle, sort_keys=True)
            os.replace(temp, path)  # a reader never sees a torn file

        policy = ckpt.CheckpointPolicy(
            sink,
            every=max(1, arguments.checkpoint_every),
            budget=analyzer.budget,
            config=config_fp,
            key=key,
            entries=entries,
            resume=resume_data,
        )
    return policy, resume_data


def _analyze_command(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-analyze",
        description="Compiled dataflow analysis of a Prolog program",
    )
    _add_analysis_arguments(parser)
    parser.add_argument(
        "--table", action="store_true", help="print the raw extension table too"
    )
    parser.add_argument(
        "--specialize", action="store_true",
        help="print the WAM specialization report",
    )
    parser.add_argument(
        "--parallel", action="store_true",
        help="print the and-parallelism annotation",
    )
    parser.add_argument(
        "--deadcode", action="store_true", help="print the dead-code report"
    )
    parser.add_argument(
        "--optimize", action="store_true",
        help="run the repro.opt pipeline and print the optimization "
        "report (verifier status included; repro-optimize adds "
        "differential validation)",
    )
    parser.add_argument(
        "--lint", action="store_true", help="print the lint report too"
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="collect metrics and print the per-opcode-class and "
        "per-predicate cost tables (see docs/observability.md)",
    )
    parser.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="write a JSON-lines span trace to PATH ('-' for stderr)",
    )
    parser.add_argument(
        "--trace-states", type=int, default=0, metavar="N",
        help="with --trace-out: embed up to N per-pass extension-table "
        "state dumps in the trace, the data behind the viewer's "
        "time-travel panel (see docs/tracing.md; default 0 = off)",
    )
    parser.add_argument(
        "--checkpoint", default=None, metavar="PATH",
        help="snapshot the extension table to PATH every "
        "--checkpoint-every fixpoint passes (and at a budget degrade), "
        "so an interrupted run can --resume instead of restarting",
    )
    parser.add_argument(
        "--checkpoint-every", type=int, default=16, metavar="N",
        help="checkpoint cadence in fixpoint passes (default 16; "
        "needs --checkpoint)",
    )
    parser.add_argument(
        "--resume", default=None, metavar="PATH",
        help="seed the fixpoint from a snapshot written by --checkpoint "
        "(validated: a snapshot from different analysis settings, "
        "program or entries is ignored with a warning)",
    )
    arguments = parser.parse_args(argv)
    program = _load_program(arguments.file, arguments.library)
    analyzer = _build_analyzer(arguments, program)
    checkpoint_policy, resume_data = _checkpoint_setup(
        arguments, analyzer, program
    )
    tracer = None
    if arguments.trace_out is not None:
        from .obs import Tracer

        tracer = Tracer(arguments.trace_out)
        analyzer.tracer = tracer
        analyzer.trace_states = max(0, arguments.trace_states)
    metrics = None
    if arguments.profile:
        from .obs import MetricsRegistry

        metrics = MetricsRegistry()
        analyzer.metrics = metrics
    try:
        result = analyzer.analyze(
            arguments.entries,
            checkpoint=checkpoint_policy,
            resume=resume_data,
        )
    finally:
        if tracer is not None:
            tracer.close()
    if arguments.json:
        report = result.to_dict()
        if metrics is not None:
            report["metrics"] = metrics.snapshot()
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0
    print(result.to_text())
    if metrics is not None:
        from .obs import format_profile

        print()
        print(format_profile(metrics.snapshot()))
    if arguments.table:
        print()
        print(result.table_text())
    if arguments.specialize:
        from .opt import specialize

        print()
        print(specialize(analyzer.compiled, result).to_text())
    if arguments.parallel:
        from .opt import annotate_parallelism

        print()
        print(annotate_parallelism(program, result).to_text())
    if arguments.deadcode:
        from .lint import find_dead_code

        print()
        print(find_dead_code(program, result).to_text())
    if arguments.optimize:
        from .lint.verifier import verify_code
        from .opt import optimize_program

        optimized = optimize_program(analyzer.compiled, result)
        print()
        print(optimized.report.to_text())
        errors = verify_code(optimized.compiled.code)
        print(
            "% verifier: optimized code is clean"
            if not errors
            else f"% verifier: {len(errors)} diagnostic(s) on optimized code"
        )
    if arguments.lint:
        from .lint import assemble_report

        print()
        print(assemble_report(
            analyzer.compiled, program, result, file=arguments.file
        ).to_text())
    return 0


def _lint_command(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "Static diagnostics: WAM bytecode verification plus "
            "analysis-driven source linting"
        ),
    )
    _add_analysis_arguments(parser, on_undefined_default="top")
    parser.add_argument(
        "--no-verify", action="store_true",
        help="skip the bytecode verifier pass",
    )
    parser.add_argument(
        "--no-source", action="store_true", help="skip the source rules"
    )
    arguments = parser.parse_args(argv)
    from .lint import LintOptions, lint_file

    options = LintOptions(
        depth=arguments.depth,
        subsumption=arguments.subsumption,
        on_undefined=arguments.on_undefined,
        environment_trimming=not arguments.no_trimming,
        verify=not arguments.no_verify,
        source=not arguments.no_source,
        budget=_budget_from(arguments),
        on_budget=arguments.on_budget,
    )
    report = lint_file(
        arguments.file,
        arguments.entries,
        library=arguments.library,
        options=options,
    )
    if arguments.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.to_text())
    return 1 if report.has_errors else 0


def _optimize_command(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-optimize",
        description=(
            "Analysis-driven WAM optimization with translation "
            "validation: dead clauses dropped, first-argument dispatch "
            "forced, get/unify instructions specialized; the optimized "
            "code must pass the bytecode verifier and produce the same "
            "solutions as the original on every --goal"
        ),
    )
    _add_analysis_arguments(parser)
    parser.add_argument(
        "--goal", action="append", default=None, metavar="GOAL",
        help="validation goal (repeatable); each goal is also folded "
        "into the analysis entries so the facts cover it",
    )
    parser.add_argument(
        "--max-solutions", type=int, default=None, metavar="N",
        help="cap the solutions compared per goal",
    )
    parser.add_argument(
        "--listing", action="store_true",
        help="print the optimized WAM code listing too",
    )
    arguments = parser.parse_args(argv)
    from .opt import goal_entry_specs, optimize_program, validate

    program = _load_program(arguments.file, arguments.library)
    analyzer = _build_analyzer(arguments, program)
    goals = [parse_term(text) for text in (arguments.goal or [])]
    entries: list = list(arguments.entries)
    for goal in goals:
        entries.extend(goal_entry_specs(analyzer.compiled.program, goal))
    result = analyzer.analyze(entries)
    optimized = optimize_program(analyzer.compiled, result)
    report = validate(
        analyzer.compiled,
        optimized.compiled,
        goals,
        max_solutions=arguments.max_solutions,
    )
    if arguments.json:
        document = {
            "optimization": optimized.report.to_dict(),
            "validation": {
                "ok": report.ok,
                "diagnostics": [d.to_dict() for d in report.diagnostics],
                "goals": [
                    {
                        "goal": goal.goal,
                        "solutions": goal.solutions,
                        "matches": goal.matches,
                        "detail": goal.detail,
                    }
                    for goal in report.goals
                ],
            },
        }
        print(json.dumps(document, indent=2, sort_keys=True))
        return 0 if report.ok else 1
    print(optimized.report.to_text())
    print()
    print(report.to_text())
    if arguments.listing:
        print()
        print(disassemble(optimized.compiled.code))
    return 0 if report.ok else 1


def _prolog_command(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-prolog",
        description="Run a Prolog query on the WAM (or the SLD solver)",
    )
    parser.add_argument("file", help="Prolog source file")
    _add_program_arguments(parser, analysis=False)
    parser.add_argument("goal", nargs="?", default="main", help="query goal")
    parser.add_argument(
        "--engine", default="wam", choices=["wam", "solver"]
    )
    parser.add_argument(
        "--all", action="store_true", help="print all solutions (default: first)"
    )
    parser.add_argument(
        "--listing", action="store_true", help="print WAM code and exit"
    )
    _add_budget_arguments(parser, analysis=False)
    arguments = parser.parse_args(argv)
    program = _load_program(arguments.file, arguments.library)
    goal = parse_term(arguments.goal)
    if arguments.listing:
        compiled = compile_program(program)
        print(disassemble(compiled.code))
        return 0
    budget = None
    if arguments.max_steps is not None or arguments.deadline is not None:
        budget = Budget(
            max_steps=arguments.max_steps, deadline=arguments.deadline
        ).start()
    if arguments.engine == "wam":
        machine = Machine(compile_program(program))
        if budget is not None:
            machine.step_monitor = budget.charge_step
        solutions = machine.run(goal)
        output_source = machine
    else:
        solver = Solver(program, budget=budget)
        if budget is not None and arguments.max_steps is not None:
            solver.max_steps = arguments.max_steps
        solutions = solver.solve(goal)
        output_source = solver
    found = 0
    for solution in solutions:
        found += 1
        if solution:
            bindings = ", ".join(
                f"{name} = {term_to_text(value)}"
                for name, value in solution.items()
            )
            print(bindings)
        else:
            print("true")
        if not arguments.all:
            break
    if not found:
        print("false")
    text = "".join(output_source.output)
    if text:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    return 0 if found else 1


def _serve_gateway(arguments, service_config) -> int:
    """``repro-serve --listen``: run the sharded TCP gateway until a
    ``shutdown`` request (or Ctrl-C) drains it."""
    import asyncio

    from .serve.gateway import Gateway, GatewayConfig
    from .serve.service import MAX_REQUEST_LINE

    host, _, port = arguments.listen.rpartition(":")
    try:
        port_number = int(port)
    except ValueError:
        raise ReproError(
            f"--listen expects [HOST:]PORT, got {arguments.listen!r}"
        ) from None
    config = GatewayConfig(
        host=host or "127.0.0.1",
        port=port_number,
        shards=arguments.shards,
        workers=arguments.workers,
        queue_depth=arguments.queue_depth,
        degrade_depth=arguments.degrade_depth,
        max_line_bytes=(
            arguments.max_line_bytes
            if arguments.max_line_bytes is not None else MAX_REQUEST_LINE
        ),
        request_timeout=arguments.request_timeout,
        max_retries=arguments.max_retries,
    )
    gateway = Gateway(config, service_config, trace_path=arguments.trace_out)

    async def _run() -> None:
        host_bound, port_bound = await gateway.start()
        print(
            json.dumps({
                "listening": f"{host_bound}:{port_bound}",
                "shards": config.shards,
                "workers_per_shard": config.workers,
            }, sort_keys=True),
            flush=True,
        )
        try:
            await gateway.serve_until_stopped()
        finally:
            await gateway.stop()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        pass
    return 0


def _serve_command(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description=(
            "Analysis service: JSON-lines requests on stdin (default) "
            "or a batch run over files; results are cached by content "
            "fingerprint and re-analysis is incremental per SCC"
        ),
    )
    parser.add_argument(
        "files", nargs="*",
        help="Prolog files for --batch mode (default: serve stdin)",
    )
    parser.add_argument(
        "--batch", action="store_true",
        help="analyze the given files and exit instead of serving stdin",
    )
    parser.add_argument(
        "--entry", action="append", default=None, metavar="PATTERN",
        help='entry calling pattern for --batch (repeatable), '
        'e.g. "main(g, var)"',
    )
    parser.add_argument(
        "--passes", type=int, default=2, metavar="N",
        help="batch passes over the files (default 2; the second "
        "should hit the cache)",
    )
    parser.add_argument(
        "--store", default=None, metavar="DIR",
        help="persist results on disk under DIR",
    )
    parser.add_argument(
        "--journal", action="store_true",
        help="write-ahead journal for the --store directory: torn "
        "writes are repaired on startup, corrupt entries quarantined",
    )
    parser.add_argument(
        "--workers", type=int, default=0, choices=(0, 1),
        help="1: run each request in a supervised worker subprocess "
        "(crash isolation); 0: in-process, the default",
    )
    parser.add_argument(
        "--request-timeout", type=float, default=None, metavar="SECONDS",
        help="per-request wall-clock cap; a worker still busy past it "
        "(+ grace) is SIGKILLed and the request answered with a "
        "structured error (needs --workers 1)",
    )
    parser.add_argument(
        "--max-retries", type=int, default=2, metavar="N",
        help="crash retries per request before a structured retriable "
        "error is returned (default 2; needs --workers 1)",
    )
    parser.add_argument(
        "--checkpoint-every", type=int, default=16, metavar="N",
        help="snapshot a running fixpoint's extension table every N "
        "passes (plus once near the budget deadline) so crashed or "
        "budget-tripped requests resume instead of restarting "
        "(default 16; 0 disables checkpointing)",
    )
    parser.add_argument(
        "--cache-entries", type=int, default=1024, metavar="N",
        help="in-memory store entry cap (default 1024)",
    )
    parser.add_argument(
        "--cache-bytes", type=int, default=64 * 1024 * 1024, metavar="N",
        help="in-memory store byte cap (default 64 MiB)",
    )
    _add_program_arguments(parser)
    parser.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="write a JSON-lines span trace to PATH ('-' for stderr); "
        "with --workers 1 or --listen this is a *stitched* cross-process "
        "trace — inspect it with repro-trace (see docs/tracing.md)",
    )
    parser.add_argument(
        "--max-line-bytes", type=int, default=None, metavar="N",
        help="longest accepted request line in bytes (default 10 MiB); "
        "longer lines are drained and answered with a structured error",
    )
    parser.add_argument(
        "--listen", default=None, metavar="[HOST:]PORT",
        help="serve a TCP gateway instead of stdin: JSON lines over a "
        "socket, routed by consistent-hashed program fingerprint "
        "across --shards backends with admission control and load "
        "shedding (see docs/serve.md)",
    )
    parser.add_argument(
        "--shards", type=int, default=2, metavar="N",
        help="gateway shards, each with its own worker and store "
        "partition (default 2; needs --listen)",
    )
    parser.add_argument(
        "--queue-depth", type=int, default=64, metavar="N",
        help="per-shard admission cap; requests beyond it are shed "
        "with a structured error (default 64; needs --listen)",
    )
    parser.add_argument(
        "--degrade-depth", type=int, default=None, metavar="N",
        help="queue depth at which admitted requests get the tightened "
        "degrade budget (default: half of --queue-depth)",
    )
    _add_budget_arguments(parser)
    arguments = parser.parse_args(argv)
    from .serve import AnalysisService, ServiceConfig, run_batch, serve_loop

    service_config = ServiceConfig(
        depth=arguments.depth,
        subsumption=arguments.subsumption,
        on_undefined=arguments.on_undefined,
        environment_trimming=not arguments.no_trimming,
        library=arguments.library,
        budget=_budget_from(arguments),
        max_entries=arguments.cache_entries,
        max_bytes=arguments.cache_bytes,
        store_dir=arguments.store,
        journal=arguments.journal,
        checkpoint_every=(
            arguments.checkpoint_every if arguments.checkpoint_every > 0
            else None
        ),
    )
    if arguments.listen is not None:
        return _serve_gateway(arguments, service_config)
    tracer = None
    if arguments.trace_out is not None:
        from .obs import Tracer

        # Supervised mode stitches worker spans under the supervisor's
        # track, so the tracer needs a process name; in-process mode
        # keeps the plain single-process trace.
        tracer = Tracer(
            arguments.trace_out,
            process="supervisor-0" if arguments.workers else None,
        )
    if arguments.workers:
        from .serve import Supervisor, SupervisorConfig

        service = Supervisor(service_config, SupervisorConfig(
            request_timeout=arguments.request_timeout,
            max_retries=arguments.max_retries,
        ), tracer=tracer)
    else:
        service = AnalysisService(service_config, tracer=tracer)
    try:
        if arguments.batch or arguments.files:
            if not arguments.files:
                parser.error("--batch needs at least one file")
            entries = arguments.entry or ["main"]
            summary = run_batch(
                service, arguments.files, entries,
                passes=arguments.passes, stdout=sys.stdout,
            )
            print(json.dumps(summary, sort_keys=True))
            errors = sum(counts["error"] for counts in summary["passes"])
            return 1 if errors else 0
        if arguments.max_line_bytes is not None:
            return serve_loop(
                service, sys.stdin, sys.stdout,
                max_line_bytes=arguments.max_line_bytes,
            )
        return serve_loop(service, sys.stdin, sys.stdout)
    finally:
        service.close()
        if tracer is not None:
            tracer.close()


def _trace_command(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-trace",
        description=(
            "Inspect JSON-lines span traces (docs/tracing.md): stitch "
            "multi-process records into one tree, check the stitched "
            "invariants, or render the static HTML time-travel viewer"
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)
    stitch_parser = commands.add_parser(
        "stitch",
        help="merge raw multi-process records into one stitched "
        "JSON-lines tree (qualified span ids, shared time base)",
    )
    stitch_parser.add_argument("trace", help="trace file to stitch")
    stitch_parser.add_argument(
        "--out", default="-", metavar="PATH",
        help="stitched output path (default '-' for stdout)",
    )
    check_parser = commands.add_parser(
        "check",
        help="validate the stitched invariants (per-process LIFO, "
        "resolvable acyclic parent edges) and print a summary; "
        "exit 1 when the trace is malformed",
    )
    check_parser.add_argument("trace", help="trace file to check")
    html_parser = commands.add_parser(
        "html",
        help="render the self-contained HTML viewer (flame/timeline "
        "plus fixpoint time-travel when the trace has state dumps)",
    )
    html_parser.add_argument(
        "trace", nargs="?", default=None,
        help="trace file to embed (omit for a file-picker page)",
    )
    html_parser.add_argument(
        "--out", default="trace.html", metavar="PATH",
        help="output HTML path (default trace.html; '-' for stdout)",
    )
    html_parser.add_argument(
        "--title", default=None, metavar="TEXT", help="page title"
    )
    arguments = parser.parse_args(argv)
    from .obs import read_trace, stitch, trace_summary

    def _read(path: str) -> list:
        # A torn tail (crashed writer) must be a structured failure,
        # not a JSONDecodeError traceback.
        try:
            return read_trace(path)
        except ValueError as error:
            print(
                f"repro-trace: unreadable trace {path!r}: {error}",
                file=sys.stderr,
            )
            raise SystemExit(1)

    if arguments.command == "stitch":
        stitched = stitch(_read(arguments.trace))
        lines = "".join(
            json.dumps(record, sort_keys=True) + "\n" for record in stitched
        )
        if arguments.out == "-":
            sys.stdout.write(lines)
        else:
            with open(arguments.out, "w", encoding="utf-8") as handle:
                handle.write(lines)
        return 0
    if arguments.command == "check":
        records = _read(arguments.trace)
        try:
            summary = trace_summary(records)
        except ValueError as error:
            print(f"repro-trace: invalid trace: {error}", file=sys.stderr)
            return 1
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0
    from .obs import render_html

    records = (
        _read(arguments.trace) if arguments.trace is not None else None
    )
    title = arguments.title or (
        arguments.trace if arguments.trace is not None else "repro trace"
    )
    html = render_html(records, title=title)
    if arguments.out == "-":
        sys.stdout.write(html)
    else:
        with open(arguments.out, "w", encoding="utf-8") as handle:
            handle.write(html)
        print(f"wrote {arguments.out} ({len(html)} bytes)")
    return 0


def _fuzz_command(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-fuzz",
        description=(
            "Generative differential soundness fuzzing: seeded random "
            "Prolog programs (plus mutated benchmarks and corpus "
            "reproducers) are checked by differential oracles — "
            "concrete WAM vs SLD solver, observed answers vs abstract "
            "success patterns, abstract WAM vs both baseline "
            "analyzers, optimizer translation validation, incremental "
            "serve vs from-scratch — and violations are delta-debugged "
            "to minimal reproducers.  Deterministic per --seed: the "
            "summary document is byte-identical across runs"
        ),
    )
    from .fuzz import ORACLE_NAMES

    parser.add_argument(
        "--seed", type=int, default=0, metavar="N",
        help="campaign seed (default 0); every program and edit "
        "derives from it",
    )
    parser.add_argument(
        "--count", type=int, default=100, metavar="N",
        help="programs to check (default 100)",
    )
    parser.add_argument(
        "--out", default="BENCH_fuzz.json", metavar="FILE",
        help="summary document (default BENCH_fuzz.json; '-' for "
        "stdout, 'none' to skip)",
    )
    parser.add_argument(
        "--corpus", default=None, metavar="DIR",
        help="reproducer corpus directory: violations are stored "
        "there minimized, and existing entries join the mutation "
        "seed pool (default: nothing persisted)",
    )
    parser.add_argument(
        "--oracle", action="append", default=None, choices=ORACLE_NAMES,
        metavar="NAME", dest="oracles",
        help=f"oracle to run (repeatable; default: all of "
        f"{', '.join(ORACLE_NAMES)})",
    )
    parser.add_argument(
        "--mutate-ratio", type=float, default=0.25, metavar="R",
        help="fraction of iterations that mutate a benchmark/corpus "
        "program instead of generating fresh (default 0.25)",
    )
    parser.add_argument(
        "--no-benchmarks", action="store_true",
        help="don't mutate the Table 1 benchmark suite",
    )
    parser.add_argument(
        "--size-budget", type=int, default=30, metavar="N",
        help="clause budget per generated program (default 30)",
    )
    parser.add_argument(
        "--max-steps", type=int, default=200_000, metavar="N",
        help="machine step cap per goal; exhaustion is a counted "
        "skip, never a hang (default 200000)",
    )
    parser.add_argument(
        "--max-solutions", type=int, default=30, metavar="N",
        help="solutions compared per goal (default 30)",
    )
    parser.add_argument(
        "--max-depth", type=int, default=2_000, metavar="N",
        help="SLD solver call-depth cap; exhaustion is a counted "
        "skip (default 2000)",
    )
    parser.add_argument(
        "--no-shrink", action="store_true",
        help="report violations without minimizing them",
    )
    parser.add_argument(
        "--shrink-attempts", type=int, default=500, metavar="N",
        help="candidate cap per shrink (default 500)",
    )
    parser.add_argument(
        "--quiet", action="store_true",
        help="suppress per-violation progress lines on stderr",
    )
    arguments = parser.parse_args(argv)
    from .bench.emit import write_json
    from .fuzz import CampaignConfig, GenConfig, run_campaign

    config = CampaignConfig(
        seed=arguments.seed,
        count=arguments.count,
        mutate_ratio=arguments.mutate_ratio,
        oracles=arguments.oracles,
        gen=GenConfig(size_budget=arguments.size_budget),
        max_steps=arguments.max_steps,
        max_solutions=arguments.max_solutions,
        max_depth=arguments.max_depth,
        shrink=not arguments.no_shrink,
        shrink_attempts=arguments.shrink_attempts,
        corpus_dir=arguments.corpus,
        use_benchmarks=not arguments.no_benchmarks,
    )
    log = None if arguments.quiet else (
        lambda message: print(message, file=sys.stderr)
    )
    document = run_campaign(config, log=log)
    coverage = document["coverage"]
    programs = document["programs"]
    if arguments.out != "none":
        write_json(
            document, arguments.out,
            summary=f"wrote {arguments.out}: {document['count']} programs "
            f"({programs['generated']} generated, "
            f"{programs['mutated']} mutants), "
            f"{document['violation_count']} violation(s), "
            f"opcode coverage {coverage['opcodes_covered']}"
            f"/{coverage['opcode_universe']}",
        )
    return 1 if document["violation_count"] else 0


#: The console-script entry points: the command bodies above, wrapped so
#: any ReproError, I/O error or RecursionError exits 2 with a one-line
#: message.
main_analyze = _guard(_analyze_command, "repro-analyze")
main_lint = _guard(_lint_command, "repro-lint")
main_optimize = _guard(_optimize_command, "repro-optimize")
main_prolog = _guard(_prolog_command, "repro-prolog")
main_serve = _guard(_serve_command, "repro-serve")
main_fuzz = _guard(_fuzz_command, "repro-fuzz")
main_trace = _guard(_trace_command, "repro-trace")
