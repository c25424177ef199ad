"""Regenerates the paper's Table 1: "The Efficiency of Dataflow Analyzers".

For every benchmark we measure:

* ``Baseline`` — the Prolog-hosted analyzer of
  :mod:`repro.baselines.prolog_analyzer` (the stand-in for "Aquarius under
  Quintus"; ``baseline="transform"`` and ``baseline="meta"`` select the
  other implementation styles);
* ``Compile`` — our clause-to-WAM compilation time (the paper's PLM
  column);
* ``Size`` — static WAM code size, ``Exec`` — abstract WAM instructions
  executed to reach the fixpoint;
* ``Ours`` — the compiled analyzer's time;
* ``Speed-Up`` — baseline / ours, with the arithmetic average in the last
  row exactly like the paper.

Times are the minimum over ``repeats`` runs (analysis only, no parsing or
compilation, matching the paper's exclusion of preprocessing time).
"""

from __future__ import annotations

import argparse
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from ..analysis.driver import Analyzer
from ..prolog.program import Program
from ..wam.compile import compile_program
from .paper_data import TABLE1_BY_NAME, TABLE1_AVERAGE_SPEEDUP
from .profile import BenchmarkProfile, profile_program
from .programs import BENCHMARKS, Benchmark, get_benchmark


@dataclass
class Table1Row:
    """One measured row."""

    name: str
    args: int
    preds: int
    baseline_seconds: float
    compile_seconds: float
    size: int
    exec_count: int
    ours_seconds: float
    iterations: int

    @property
    def speedup(self) -> float:
        if self.ours_seconds <= 0:
            return float("inf")
        return self.baseline_seconds / self.ours_seconds


def _make_baseline(kind: str, source: str):
    if kind == "prolog":
        from ..baselines.prolog_analyzer import PrologAnalyzer

        return PrologAnalyzer(source)
    if kind == "transform":
        from ..baselines.transform import TransformAnalyzer

        return TransformAnalyzer(source)
    if kind == "meta":
        from ..baselines.meta import MetaAnalyzer

        return MetaAnalyzer(source)
    raise ValueError(f"unknown baseline {kind!r} (prolog/transform/meta)")


def measure_benchmark(
    benchmark: Benchmark,
    repeats: int = 3,
    baseline: str = "prolog",
) -> Table1Row:
    """Measure one Table 1 row."""
    program = Program.from_text(benchmark.source)
    compile_times = []
    for _ in range(max(repeats, 1)):
        started = time.perf_counter()
        compiled = compile_program(Program.from_text(benchmark.source))
        compile_times.append(time.perf_counter() - started)
    analyzer = Analyzer(compiled)
    ours_times = []
    result = None
    for _ in range(max(repeats, 1)):
        result = analyzer.analyze([benchmark.entry])
        ours_times.append(result.seconds)
    assert result is not None
    baseline_times = []
    for _ in range(max(repeats, 1)):
        baseline_result = _make_baseline(baseline, benchmark.source).analyze(
            [benchmark.entry]
        )
        baseline_times.append(baseline_result.seconds)
    profile = profile_program(benchmark.name, program, compiled)
    return Table1Row(
        name=benchmark.name,
        args=profile.args,
        preds=profile.preds,
        baseline_seconds=min(baseline_times),
        compile_seconds=min(compile_times),
        size=profile.size,
        exec_count=result.instructions_executed,
        ours_seconds=min(ours_times),
        iterations=result.iterations,
    )


def run_table1(
    names: Optional[Sequence[str]] = None,
    repeats: int = 3,
    baseline: str = "prolog",
    progress: Optional[Callable[[str], None]] = None,
) -> List[Table1Row]:
    benchmarks = (
        [get_benchmark(name) for name in names] if names else list(BENCHMARKS)
    )
    rows = []
    for benchmark in benchmarks:
        if progress is not None:
            progress(benchmark.name)
        rows.append(
            measure_benchmark(benchmark, repeats=repeats, baseline=baseline)
        )
    return rows


def format_table1(rows: Sequence[Table1Row], show_paper: bool = True) -> str:
    """Render measured rows (and the paper's, for comparison)."""
    header = (
        f"{'Benchmark':10s} {'Args':>4s} {'Preds':>5s} {'Baseline':>10s} "
        f"{'Compile':>9s} {'Size':>5s} {'Exec':>6s} {'Ours':>9s} "
        f"{'Speed-Up':>8s}"
    )
    lines = [header, "-" * len(header)]
    speedups = []
    for row in rows:
        speedups.append(row.speedup)
        lines.append(
            f"{row.name:10s} {row.args:4d} {row.preds:5d} "
            f"{row.baseline_seconds * 1000:8.1f}ms "
            f"{row.compile_seconds * 1000:7.1f}ms {row.size:5d} "
            f"{row.exec_count:6d} {row.ours_seconds * 1000:7.2f}ms "
            f"{row.speedup:8.1f}"
        )
    average = sum(speedups) / len(speedups) if speedups else 0.0
    lines.append(f"{'average':10s} {'':4s} {'':5s} {'':10s} {'':9s} {'':5s} {'':6s} {'':9s} {average:8.1f}")
    if show_paper:
        lines.append("")
        lines.append("paper (Sun 3/60, Aquarius under Quintus 2.0):")
        paper_header = (
            f"{'Benchmark':10s} {'Args':>4s} {'Preds':>5s} {'Aquarius':>10s} "
            f"{'PLM':>9s} {'Size':>5s} {'Exec':>6s} {'Ours':>9s} "
            f"{'Speed-Up':>8s}"
        )
        lines.append(paper_header)
        lines.append("-" * len(paper_header))
        for row in rows:
            paper = TABLE1_BY_NAME.get(row.name)
            if paper is None:
                continue
            lines.append(
                f"{paper.name:10s} {paper.args:4d} {paper.preds:5d} "
                f"{paper.aquarius_seconds * 1000:8.1f}ms "
                f"{paper.plm_seconds * 1000:7.1f}ms {paper.size:5d} "
                f"{paper.exec_count:6d} {paper.ours_ms:7.2f}ms "
                f"{paper.speedup:8d}"
            )
        lines.append(
            f"{'average':10s} {'':>52s} {TABLE1_AVERAGE_SPEEDUP:19d}"
        )
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Regenerate Table 1")
    parser.add_argument("names", nargs="*", help="benchmark subset")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--baseline",
        default="prolog",
        choices=["prolog", "transform", "meta"],
        help="which baseline analyzer stands in for Aquarius",
    )
    parser.add_argument("--no-paper", action="store_true")
    arguments = parser.parse_args(argv)
    rows = run_table1(
        arguments.names or None,
        repeats=arguments.repeats,
        baseline=arguments.baseline,
        progress=lambda name: print(f"measuring {name} ...", flush=True),
    )
    print(format_table1(rows, show_paper=not arguments.no_paper))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
