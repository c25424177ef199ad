"""Tests for dead-code detection."""

from repro.analysis import Analyzer
from repro.lint import find_dead_code
from repro.prolog import Program


def report_for(text, *entries):
    program = Program.from_text(text)
    result = Analyzer(program).analyze(list(entries))
    return find_dead_code(program, result)


class TestUnreachable:
    def test_never_called_predicate(self):
        report = report_for("main :- p. p. orphan.", "main")
        assert ("orphan", 0) in report.unreachable_predicates

    def test_called_predicates_not_flagged(self):
        report = report_for("main :- p. p.", "main")
        assert report.unreachable_predicates == []


class TestDeadClauses:
    def test_clause_with_unmatched_key(self):
        text = """
        main :- d(f(1)).
        d(f(_)).
        d(g(_)).
        """
        report = report_for(text, "main")
        dead = [(ind, idx) for ind, idx, _ in report.dead_clauses]
        assert (("d", 1), 1) in dead

    def test_constant_mismatch(self):
        # The domain has no singleton constants (paper §3): 'a' abstracts
        # to atom, so p(b) still matches; only the integer clause is dead.
        text = "main :- p(a). p(a). p(b). p(1)."
        report = report_for(text, "main")
        dead_indexes = {idx for _, idx, _ in report.dead_clauses}
        assert dead_indexes == {2}

    def test_general_pattern_keeps_all_clauses(self):
        report = report_for("main(X) :- p(X). p(a). p(b).", "main(any)")
        assert report.dead_clauses == []

    def test_var_heads_never_dead(self):
        report = report_for("main :- p(1). p(_). p(X).", "main")
        assert report.dead_clauses == []

    def test_list_pattern(self):
        text = "main(L) :- q(L). q([]). q([_|_]). q(f(_))."
        report = report_for(text, "main(glist)")
        dead = [idx for _, idx, _ in report.dead_clauses]
        assert dead == [2]  # the f/1 clause cannot match a list


class TestFailing:
    def test_failing_predicate_flagged(self):
        report = report_for("main :- w(3). w(X) :- atom(X).", "main")
        assert ("w", 1) in report.failing_predicates
        assert ("main", 0) in report.failing_predicates

    def test_succeeding_not_flagged(self):
        report = report_for("main :- p. p.", "main")
        assert report.failing_predicates == []


class TestReport:
    def test_clean_report(self):
        report = report_for("main :- p(1). p(_).", "main")
        assert report.is_clean
        assert "no dead code" in report.to_text()

    def test_report_text(self):
        report = report_for("main :- p. p. orphan.", "main")
        assert "unreachable: orphan/0" in report.to_text()

    def test_benchmarks_are_clean_modulo_drivers(self):
        from repro.bench import BENCHMARKS

        for bench in BENCHMARKS[:5]:
            program = Program.from_text(bench.source)
            result = Analyzer(program).analyze([bench.entry])
            report = find_dead_code(program, result)
            # The benchmark programs have no unreachable predicates.
            assert report.unreachable_predicates == []
