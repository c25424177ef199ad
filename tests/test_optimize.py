"""Tests for the WAM-code specializer (the analysis client)."""

import pytest

from repro.analysis import Analyzer
from repro.bench import BENCHMARKS
from repro.lint.dataflow import determinacy
from repro.opt import optimize_program, specialize
from repro.prolog import Program
from repro.wam import compile_program
from repro.wam.instructions import base_op


def specialization_for(text, entry):
    compiled = compile_program(Program.from_text(text))
    result = Analyzer(compiled).analyze([entry])
    return specialize(compiled, result)


class TestSpecialization:
    def test_ground_argument_annotations(self, append_nrev):
        report = specialization_for(append_nrev, "nrev(glist, var)")
        assert report.count("ground") > 0

    def test_write_only_annotations(self, append_nrev):
        # nrev's second argument is always unbound at call time.
        report = specialization_for(append_nrev, "nrev(glist, var)")
        assert report.count("write_only") > 0

    def test_no_annotations_without_information(self):
        report = specialization_for("p(f(X)).", "p(any)")
        assert report.count("ground") == 0
        assert report.count("write_only") == 0

    def test_nonvar_annotations(self):
        report = specialization_for("p(f(X)).", "p(nv)")
        assert report.count("nonvar") > 0

    def test_total_saving_positive(self, append_nrev):
        report = specialization_for(append_nrev, "nrev(glist, var)")
        assert report.total_saving > 0

    def test_deterministic_detection(self):
        text = """
        kind(a, 1).
        kind(b, 2).
        kind([], 3).
        main :- kind(a, _).
        """
        report = specialization_for(text, "main")
        assert ("kind", 2) in report.deterministic_predicates

    def test_var_clauses_not_deterministic(self):
        text = """
        p(a). p(X).
        main :- p(a).
        """
        report = specialization_for(text, "main")
        assert ("p", 1) not in report.deterministic_predicates

    def test_report_text(self, append_nrev):
        report = specialization_for(append_nrev, "nrev(glist, var)")
        text = report.to_text()
        assert "specialization" in text
        assert "ground" in text

    def test_instructions_seen_counts(self, append_nrev):
        report = specialization_for(append_nrev, "nrev(glist, var)")
        assert report.instructions_seen > 10
        assert len(report.annotations) <= report.instructions_seen


class TestOneDecision:
    """The report lists exactly the gets ``optimize_program`` rewrites."""

    @pytest.mark.parametrize("bench", BENCHMARKS, ids=lambda b: b.name)
    def test_report_matches_the_optimizer(self, bench):
        compiled = compile_program(Program.from_text(bench.source))
        result = Analyzer(compiled).analyze([bench.entry])
        report = specialize(compiled, result)
        totals = optimize_program(compiled, result).report
        assert report.count("ground") + report.count("nonvar") == totals.total(
            "nonvar_gets"
        )
        assert report.count("write_only") == totals.total("write_gets")
        assert set(report.deterministic_predicates) == {
            indicator
            for indicator, fact in determinacy(compiled, result).items()
            if fact.deterministic
        }

    def test_get_value_is_not_reported(self):
        # X3 holds the unbound first argument: get_value binds and
        # trails it although the second argument is ground.
        report = specialization_for("p(X, X).", "p(var, g)")
        assert report.count("ground") == 0
        assert not any(
            base_op(a.instruction.op) == "get_value" for a in report.annotations
        )

    def test_must_aliased_argument_is_not_write_only(self):
        report = specialization_for("p(f(a), f(b)). p(g, g).", "p(X, X)")
        assert report.count("write_only") == 0
