"""Independent And-Parallelism from the analysis — the paper's motivation.

The paper's introduction: global dataflow information "paves the way for
efficient implementation of ... Independent And-Parallelism".  This
example analyzes a program and prints, for every clause body, which goal
pairs can run in parallel — unconditionally, or under run-time
ground/indep checks (the conditions of &-Prolog's Conditional Graph
Expressions).

Run:  python examples/parallelize.py [benchmark]
"""

import sys

from repro.analysis import Analyzer
from repro.bench import get_benchmark
from repro.opt import annotate_parallelism
from repro.prolog import Program

FIB_MATRIX = """
main :- work(4, _).
work(0, leaf) :- !.
work(N, node(L, R)) :-
    M is N - 1,
    work(M, L),
    work(M, R).
"""


def main() -> None:
    if len(sys.argv) > 1:
        bench = get_benchmark(sys.argv[1])
        source, entry, label = bench.source, bench.entry, bench.name
    else:
        source, entry, label = FIB_MATRIX, "main", "divide-and-conquer demo"
    program = Program.from_text(source)
    result = Analyzer(program).analyze([entry])
    print(f"and-parallelism annotation of {label} (entry {entry}):\n")
    print(annotate_parallelism(program, result).to_text())


if __name__ == "__main__":
    main()
