"""Tests for the compiled extension-table control scheme (paper Section 5,
Figure 5): call consults the table, proceed updates it and fails onward,
exhausted clauses return the summarized success pattern."""

from repro.analysis import AbstractMachine, Analyzer
from repro.analysis.driver import parse_entry_spec
from repro.prolog import Program
from repro.wam import compile_program


def machine_for(text):
    return AbstractMachine(compile_program(Program.from_text(text)))


class TestMemoization:
    def test_second_call_uses_table(self):
        # q is called twice with the same pattern; the clause bodies of q
        # must be explored once per iteration.
        text = """
        main :- q(X), q(Y).
        q(1).
        """
        machine = machine_for(text)
        spec = parse_entry_spec("main")
        machine.run_pattern(spec.indicator, spec.pattern)
        entries = machine.table.entries_for(("q", 1))
        assert len(entries) == 1
        # One exploration mark, one success: updates == 1 in the pass.
        assert entries[0].updates == 1

    def test_different_patterns_get_entries(self):
        text = """
        main :- p(a), p(X).
        p(_).
        """
        machine = machine_for(text)
        spec = parse_entry_spec("main")
        machine.run_pattern(spec.indicator, spec.pattern)
        assert len(machine.table.entries_for(("p", 1))) == 2

    def test_recursive_call_fails_first_iteration(self):
        # With no base case, the recursive call finds its own open pattern
        # and fails: the predicate has no success pattern at all.
        machine = machine_for("p(X) :- p(X).")
        spec = parse_entry_spec("p(var)")
        machine.run_pattern(spec.indicator, spec.pattern)
        entry = machine.table.entries_for(("p", 1))[0]
        assert entry.success is None

    def test_all_clauses_explored_per_pattern(self):
        text = """
        p(1).
        p(a).
        p([]).
        """
        machine = machine_for(text)
        spec = parse_entry_spec("p(var)")
        machine.run_pattern(spec.indicator, spec.pattern)
        entry = machine.table.entries_for(("p", 1))[0]
        # Three clause successes were lubbed in (three real updates).
        assert entry.updates >= 2
        assert entry.success is not None


class TestIterativeDeepening:
    def test_recursion_needs_multiple_iterations(self, append_nrev):
        analyzer = Analyzer(append_nrev)
        result = analyzer.analyze(["nrev(glist, var)"])
        assert result.iterations >= 2

    def test_nonrecursive_converges_fast(self):
        analyzer = Analyzer("p(a). p(b).")
        result = analyzer.analyze(["p(var)"])
        assert result.iterations == 1  # nothing read a changed summary

    def test_success_patterns_monotone_across_iterations(self):
        # The summarized success can only grow; here it grows from the
        # base case to include the recursive case's contribution.
        text = """
        t(leaf).
        t(n(L)) :- t(L).
        build(X) :- t(X).
        """
        result = Analyzer(text).analyze(["build(var)"])
        from repro.domain import tree_leq, ATOM_T

        success = result.success_types(("build", 1))[0]
        assert tree_leq(ATOM_T, success)


class TestDeterministicReturn:
    def test_lubbed_single_return(self):
        # Multiple clause successes return as ONE summarized pattern:
        # caller sees const, not separate atom/int alternatives.
        text = """
        main(X) :- pick(X), check(X).
        pick(a). pick(1).
        check(_).
        """
        result = Analyzer(text).analyze(["main(var)"])
        entries = result.table.entries_for(("check", 1))
        assert len(entries) == 1
        from repro.domain import tree_to_text
        from repro.analysis.patterns import pattern_to_trees

        assert tree_to_text(pattern_to_trees(entries[0].calling)[0]) == "const"

    def test_incompatible_success_fails_caller(self):
        # p succeeds only with an atom; the caller demands an integer
        # after return, so main can never succeed.
        text = """
        main :- p(X), integer(X).
        p(a).
        """
        result = Analyzer(text).analyze(["main"])
        assert not result.predicate(("main", 0)).can_succeed
