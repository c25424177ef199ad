"""Cross-validation: two independent analyzer implementations must compute
identical fixpoint tables on the whole benchmark suite.

The abstract WAM (compiled, destructive heap, trailing) and the Python
meta-interpreter (AST, copy-on-branch store) share only the domain
definitions; identical tables on 11 realistic programs is strong evidence
both implement the same analysis.
"""

import pytest

from repro.analysis import Analyzer
from repro.baselines import MetaAnalyzer
from repro.bench import BENCHMARKS


def table_map(table):
    return {
        (indicator, entry.calling): entry.success
        for indicator, entry in table.all_entries()
    }


@pytest.mark.parametrize("bench", BENCHMARKS, ids=lambda b: b.name)
def test_meta_matches_abstract_wam(bench):
    fast = Analyzer(bench.source).analyze([bench.entry])
    meta = MetaAnalyzer(bench.source).analyze([bench.entry])
    assert table_map(fast.table) == table_map(meta.table)


@pytest.mark.parametrize("bench", BENCHMARKS, ids=lambda b: b.name)
def test_same_iteration_count(bench):
    # The meta baseline keeps the paper's whole passes; the compiled
    # analyzer's sweeps re-run only dirty entries and skip the closing
    # pass that changes nothing, so they never take more.  The metric
    # goldens pin the exact sweep counts.
    fast = Analyzer(bench.source).analyze([bench.entry])
    meta = MetaAnalyzer(bench.source).analyze([bench.entry])
    assert fast.iterations <= meta.iterations


def test_indexing_does_not_change_analysis():
    from repro.wam import CompilerOptions

    for bench in BENCHMARKS[:4]:
        plain = Analyzer(
            bench.source, options=CompilerOptions(indexing=False)
        ).analyze([bench.entry])
        indexed = Analyzer(
            bench.source, options=CompilerOptions(indexing=True)
        ).analyze([bench.entry])
        assert table_map(plain.table) == table_map(indexed.table)


def test_trimming_does_not_change_analysis():
    from repro.wam import CompilerOptions

    for bench in BENCHMARKS[:4]:
        off = Analyzer(
            bench.source, options=CompilerOptions(environment_trimming=False)
        ).analyze([bench.entry])
        on = Analyzer(
            bench.source, options=CompilerOptions(environment_trimming=True)
        ).analyze([bench.entry])
        assert table_map(off.table) == table_map(on.table)
