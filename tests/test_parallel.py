"""Tests for Independent And-Parallelism detection."""

import pytest

from repro.analysis import Analyzer
from repro.opt import annotate_parallelism
from repro.prolog import Program


def report_for(text, entry):
    program = Program.from_text(text)
    result = Analyzer(program).analyze([entry])
    return annotate_parallelism(program, result)


def pairs_of(report, name, arity):
    return [
        pair
        for annotated in report.clauses
        if annotated.indicator == (name, arity)
        for pair in annotated.pairs
    ]


class TestIndependent:
    def test_divide_and_conquer(self):
        text = """
        main :- work(4, _).
        work(0, leaf) :- !.
        work(N, node(L, R)) :- M is N - 1, work(M, L), work(M, R).
        """
        report = report_for(text, "main")
        pairs = pairs_of(report, "work", 2)
        assert len(pairs) == 1
        assert pairs[0].status == "independent"
        assert pairs[0].conditions == []

    def test_disjoint_goals(self):
        text = "main :- p(_), q(_). p(1). q(2)."
        report = report_for(text, "main")
        pairs = pairs_of(report, "main", 0)
        assert pairs[0].status == "independent"

    def test_ground_shared_var_is_independent(self):
        text = """
        main(X) :- use(X), use(X).
        use(_).
        """
        report = report_for(text, "main(g)")
        pairs = pairs_of(report, "main", 1)
        assert pairs[0].status == "independent"


class TestConditional:
    def test_shared_unbound_var(self):
        text = """
        main :- p(X), q(X).
        p(1).
        q(_).
        """
        report = report_for(text, "main")
        pairs = pairs_of(report, "main", 0)
        assert pairs[0].status == "conditional"
        assert pairs[0].conditions == ["ground(X)"]

    def test_qsort_recursive_calls(self):
        from repro.bench import get_benchmark

        bench = get_benchmark("qsort")
        report = report_for(bench.source, bench.entry)
        qsort_pairs = pairs_of(report, "qsort", 3)
        assert qsort_pairs, "qsort clause 2 must produce goal pairs"
        assert all(pair.status == "conditional" for pair in qsort_pairs)

    def test_sharing_through_list_elements(self):
        # split-style distribution: L1 and L2 may share elements of L,
        # so the two consumers need an indep check.
        text = """
        main(L) :- split(L, A, B), use(A), use(B).
        split([], [], []).
        split([X|T], [X|A], B) :- split(T, B, A).
        use(_).
        """
        report = report_for(text, "main(list(any))")
        use_pairs = [
            pair
            for pair in pairs_of(report, "main", 1)
            if pair.left_goal.name == "use" and pair.right_goal.name == "use"
        ]
        assert use_pairs
        assert use_pairs[0].status == "conditional"
        assert any(cond.startswith("indep(") for cond in use_pairs[0].conditions)

    def test_ground_input_split_is_safe(self):
        text = """
        main(L) :- split(L, A, B), use(A), use(B).
        split([], [], []).
        split([X|T], [X|A], B) :- split(T, B, A).
        use(_).
        """
        report = report_for(text, "main(glist)")
        use_pairs = [
            pair
            for pair in pairs_of(report, "main", 1)
            if pair.left_goal.name == "use" and pair.right_goal.name == "use"
        ]
        assert use_pairs
        assert use_pairs[0].status == "independent"


class TestReportShape:
    def test_counts(self):
        text = "main :- p(X), q(X), r(_). p(1). q(_). r(_)."
        report = report_for(text, "main")
        assert report.count("conditional") >= 1
        assert report.count("independent") >= 1

    def test_to_text(self):
        text = "main :- p(X), q(X). p(1). q(_)."
        report = report_for(text, "main")
        text_out = report.to_text()
        assert "conditional" in text_out
        assert "ground(X)" in text_out

    def test_builtins_not_parallelized(self):
        text = "main(X, Y) :- X is 1 + 1, Y is 2 + 2, p(X), p(Y). p(_)."
        report = report_for(text, "main(var, var)")
        pairs = pairs_of(report, "main", 2)
        # Only the two user calls form a pair.
        assert len(pairs) == 1
        assert pairs[0].left_goal.name == "p"

    def test_single_goal_clauses_skipped(self):
        text = "main :- p(1). p(_)."
        report = report_for(text, "main")
        assert pairs_of(report, "main", 0) == []

    def test_benchmarks_annotate_without_error(self):
        from repro.bench import BENCHMARKS

        for bench in BENCHMARKS[:6]:
            report = report_for(bench.source, bench.entry)
            assert report.count("unknown") == 0
