"""Before/after benchmarks for the repro.opt optimizer (BENCH_opt.json).

For every Table 1 benchmark: compile the program, analyze it with the
benchmark's entry spec *plus* entry specs derived from the goals that
will actually run (:func:`repro.opt.goal_entry_specs` — the facts must
cover every validated goal), optimize, and **translation-validate**:
the optimized code area must be verifier-clean and both the full goal
and the test goal must produce identical solutions on the original and
optimized machines.  A validation failure aborts the emit — a benchmark
that runs the wrong program measures nothing.

Two measurements per benchmark, both on the concrete WAM running the
full benchmark goal:

* **retired instructions** — the machine's ``instruction_count`` after
  a run of each program; the deterministic measure.
* **wall time** — interleaved rounds (baseline, optimized, baseline,
  ...) with the cyclic GC parked, minimum per configuration; the noisy
  but honest measure.

The derivative benchmarks (``log10``/``ops8``/``times10``/``divide10``)
are reported as a separate ``deriv`` group: their ``d/3`` has two
variable-keyed clauses, so the baseline compiler refuses first-argument
indexing and every call walks a 10-clause ``try_me_else`` chain — the
forced-dispatch transform is worth ~1.6x retired instructions there.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

from ..analysis.driver import analyze
from ..opt import goal_entry_specs, optimize_program, validate
from ..prolog.parser import parse_term
from ..prolog.program import Program
from ..prolog.terms import Term
from ..wam.compile import CompiledProgram, compile_program
from ..wam.machine import Machine
from .programs import BENCHMARKS

#: The d/3-heavy derivative group called out in the report.
DERIV_GROUP = ("log10", "ops8", "times10", "divide10")


def _run_goal(compiled: CompiledProgram, goal: Term) -> None:
    machine = Machine(compiled)
    for _ in machine.run(goal):
        pass


def _retired_instructions(compiled: CompiledProgram, goal: Term) -> int:
    machine = Machine(compiled)
    for _ in machine.run(goal):
        pass
    return machine.instruction_count


def _geo_mean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def run_opt(
    repeats: int = 3, names: Optional[Sequence[str]] = None
) -> dict:
    """The BENCH_opt document; raises ``SystemExit`` on any validation
    failure rather than emitting numbers for a wrong program."""
    selected = [
        benchmark for benchmark in BENCHMARKS
        if names is None or benchmark.name in names
    ]
    rows: List[dict] = []
    prepared: List[Tuple[object, CompiledProgram, CompiledProgram, Term]] = []
    for benchmark in selected:
        program = Program.from_text(benchmark.source)
        compiled = compile_program(program)
        goals = [parse_term(benchmark.goal), parse_term(benchmark.test_goal)]
        entries: List[object] = [benchmark.entry]
        for goal in goals:
            entries.extend(goal_entry_specs(compiled.program, goal))
        result = analyze(compiled, *entries)
        optimized = optimize_program(compiled, result)
        report = validate(compiled, optimized.compiled, goals)
        if not report.ok:
            raise SystemExit(
                f"{benchmark.name}: translation validation failed — "
                f"refusing to emit\n{report.to_text()}"
            )
        prepared.append((benchmark, compiled, optimized, goals[0]))

    for benchmark, compiled, optimized, goal in prepared:
        baseline_instructions = _retired_instructions(compiled, goal)
        optimized_instructions = _retired_instructions(
            optimized.compiled, goal
        )
        baseline_s: List[float] = []
        optimized_s: List[float] = []
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(repeats):
                for samples, program in (
                    (baseline_s, compiled),
                    (optimized_s, optimized.compiled),
                ):
                    gc.collect()
                    started = time.perf_counter()
                    _run_goal(program, goal)
                    samples.append(time.perf_counter() - started)
        finally:
            if gc_was_enabled:
                gc.enable()
        baseline_ms = min(baseline_s) * 1000.0
        optimized_ms = min(optimized_s) * 1000.0
        totals = optimized.report.to_dict()["totals"]
        rows.append({
            "name": benchmark.name,
            "entry": benchmark.entry,
            "goal": benchmark.goal,
            "baseline_instructions": baseline_instructions,
            "optimized_instructions": optimized_instructions,
            "instruction_reduction_percent": round(
                (1 - optimized_instructions / baseline_instructions) * 100.0,
                2,
            ),
            "baseline_ms": round(baseline_ms, 3),
            "optimized_ms": round(optimized_ms, 3),
            "speedup": round(baseline_ms / optimized_ms, 3),
            "transforms": totals,
        })

    speedups = [row["speedup"] for row in rows]
    instruction_ratios = [
        row["baseline_instructions"] / row["optimized_instructions"]
        for row in rows
    ]
    document: Dict[str, object] = {
        "suite": "repro.opt before/after on the concrete WAM",
        "repeats": repeats,
        "benchmarks": rows,
        "geo_mean_speedup": round(_geo_mean(speedups), 3),
        "geo_mean_instruction_ratio": round(
            _geo_mean(instruction_ratios), 3
        ),
    }
    deriv = [row for row in rows if row["name"] in DERIV_GROUP]
    if deriv:
        document["deriv"] = {
            "names": [row["name"] for row in deriv],
            "geo_mean_speedup": round(
                _geo_mean([row["speedup"] for row in deriv]), 3
            ),
            "geo_mean_instruction_ratio": round(
                _geo_mean([
                    row["baseline_instructions"]
                    / row["optimized_instructions"]
                    for row in deriv
                ]),
                3,
            ),
        }
    return document


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.opt",
        description="Emit BENCH_opt.json: validated before/after "
        "measurements for the repro.opt optimizer.",
    )
    parser.add_argument("--out", default="BENCH_opt.json")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--only", action="append", metavar="NAME",
        help="restrict to one benchmark (repeatable)",
    )
    arguments = parser.parse_args(argv)
    document = run_opt(repeats=arguments.repeats, names=arguments.only)
    with open(arguments.out, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(
        f"wrote {arguments.out}: geo-mean speedup "
        f"{document['geo_mean_speedup']}x (instruction ratio "
        f"{document['geo_mean_instruction_ratio']}x)"
    )
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
