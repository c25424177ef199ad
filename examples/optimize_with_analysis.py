"""Use analysis results to specialize WAM code — why the analysis matters.

The paper motivates the analyzer with the "substantial optimizations" that
need global modes/types/aliasing.  This example runs the analysis on the
qsort benchmark and lists what the optimizer (``repro.opt``) does with
it: get instructions that drop dereferencing, trailing or their
read/write tag dispatch, and predicates proven choice-point-free.

Run:  python examples/optimize_with_analysis.py [benchmark]
"""

import sys

from repro.analysis import Analyzer
from repro.bench import get_benchmark
from repro.lint import find_dead_code
from repro.opt import specialize
from repro.prolog import Program
from repro.wam import compile_program


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "qsort"
    bench = get_benchmark(name)
    compiled = compile_program(Program.from_text(bench.source))
    result = Analyzer(compiled).analyze([bench.entry])

    print(f"analysis of {name} (entry {bench.entry}):")
    print(result.to_text())
    print()

    report = specialize(compiled, result)
    print(report.to_text())
    print()
    fraction = (
        100.0 * len(report.annotations) / max(report.instructions_seen, 1)
    )
    print(
        f"{fraction:.0f}% of the optimized instructions are specialized;"
        f" estimated {report.total_saving} cost units saved per pass over"
        " the code."
    )

    print()
    print(find_dead_code(compiled.program, result).to_text())


if __name__ == "__main__":
    main()
