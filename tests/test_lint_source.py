"""Tests for the analysis-driven source linter (repro.lint).

One fixture program per rule code, plus unit tests for the shared
Diagnostic/LintReport machinery and the driver's error handling
(``E000`` analysis failures, ``E001`` syntax errors).
"""

import pytest

from repro.lint import LintOptions, lint_file, lint_program, lint_source
from repro.lint.diagnostics import Diagnostic, LintReport
from repro.lint.rules import RULES
from repro.prolog.program import Program


def lint(text, entries, **kwargs):
    return lint_program(text, entries, file="test.pl", **kwargs)


# ----------------------------------------------------------------------
# Rule fixtures, one per code.


class TestSingletons:
    def test_w002_fires(self):
        report = lint("p(X) :- q(X, Unused).\nq(a, b).\n", ["p(g)"])
        (diagnostic,) = report.by_code("W002")
        assert "'Unused'" in diagnostic.message
        assert diagnostic.predicate == ("p", 1)
        assert diagnostic.position == (1, 1)

    def test_underscore_prefix_is_silent(self):
        report = lint("p(X) :- q(X, _Unused).\nq(a, b).\n", ["p(g)"])
        assert report.by_code("W002") == []

    def test_repeated_variable_is_silent(self):
        report = lint("p(X, X).\n", ["p(g, g)"])
        assert report.by_code("W002") == []


class TestDeadCode:
    def test_w003_unreachable_predicate(self):
        report = lint("main.\norphan(a).\n", ["main"])
        (diagnostic,) = report.by_code("W003")
        assert diagnostic.predicate == ("orphan", 1)
        assert diagnostic.position == (2, 1)

    def test_w004_dead_clause(self):
        report = lint(
            "sel(f(X), X).\nsel(g(X), X).\nmain(R) :- sel(f(1), R).\n",
            ["main(var)"],
        )
        (diagnostic,) = report.by_code("W004")
        assert diagnostic.predicate == ("sel", 2)
        assert "clause 2" in diagnostic.message
        assert diagnostic.position == (2, 1)

    def test_w005_never_succeeds(self):
        report = lint("top :- never(1).\nnever(_) :- fail.\n", ["top"])
        # Failure propagates: never/1 can't succeed, so neither can top/0.
        assert {d.predicate for d in report.by_code("W005")} == {
            ("never", 1),
            ("top", 0),
        }


class TestArithmeticModes:
    def test_e006_unbound_operand(self):
        report = lint("bad(X) :- Y is X + 1, use(Y).\nuse(_).\n", ["bad(var)"])
        (diagnostic,) = report.by_code("E006")
        assert diagnostic.severity == "error"
        assert "'X'" in diagnostic.message
        assert report.has_errors

    def test_body_first_occurrence_is_free(self):
        report = lint("bad :- Y is Z + 1, use(Y, Z).\nuse(_, _).\n", ["bad"])
        (diagnostic,) = report.by_code("E006")
        assert "'Z'" in diagnostic.message

    def test_ground_call_pattern_is_silent(self):
        report = lint("ok(X) :- Y is X + 1, use(Y).\nuse(_).\n", ["ok(int)"])
        assert report.by_code("E006") == []

    def test_is_grounds_left_hand_side(self):
        report = lint(
            "ok(X) :- Y is X + 1, Z is Y + 1, use(Z).\nuse(_).\n",
            ["ok(int)"],
        )
        assert report.by_code("E006") == []

    def test_user_call_grounds_output(self):
        report = lint(
            "ok(X) :- len(X, N), M is N + 1, use(M).\n"
            "len([], 0).\nlen([_|T], N) :- len(T, M), N is M + 1.\n"
            "use(_).\n",
            ["ok(glist)"],
        )
        assert report.by_code("E006") == []


class TestFailingGoals:
    def test_w007_fires_at_call_site(self):
        report = lint("top :- never(1), write(done).\nnever(_) :- fail.\n", ["top"])
        (diagnostic,) = report.by_code("W007")
        assert diagnostic.predicate == ("top", 0)
        assert "never(1)" in diagnostic.message
        assert diagnostic.position == (1, 1)


class TestDeterminism:
    def test_i008_first_argument_indexing(self):
        report = lint(
            "det(f(X), X).\ndet(g(X), X).\nmain(R) :- det(f(1), R).\n",
            ["main(var)"],
        )
        (diagnostic,) = report.by_code("I008")
        assert diagnostic.severity == "info"
        assert diagnostic.predicate == ("det", 2)

    def test_no_hint_when_patterns_overlap(self):
        report = lint(
            "det(f(X), X).\ndet(g(X), X).\nmain(R) :- det(A, R), mk(A).\nmk(_).\n",
            ["main(var)"],
        )
        assert report.by_code("I008") == []


class TestUndefined:
    def test_w009_fires(self):
        report = lint("w(X) :- missing_predicate(X).\n", ["w(g)"])
        (diagnostic,) = report.by_code("W009")
        assert "missing_predicate/1" in diagnostic.message

    def test_builtins_are_known(self):
        report = lint("w(X) :- write(X), nl, X > 0.\n", ["w(int)"])
        assert report.by_code("W009") == []

    def test_control_constructs_are_walked(self):
        report = lint("w(X) :- ( X = a -> missing(X) ; true ).\n", ["w(g)"])
        assert [d.code for d in report.by_code("W009")] == ["W009"]


# ----------------------------------------------------------------------
# Driver error handling.


class TestDriver:
    def test_e000_analysis_failure(self):
        report = lint(
            "p :- q.\n", ["p"], options=LintOptions(on_undefined="error")
        )
        (diagnostic,) = report.by_code("E000")
        assert diagnostic.severity == "error"
        assert report.has_errors

    def test_e001_syntax_error(self, tmp_path):
        path = tmp_path / "broken.pl"
        path.write_text("p(a.\n")
        report = lint_file(str(path), ["p(g)"])
        (diagnostic,) = report.by_code("E001")
        assert diagnostic.severity == "error"
        assert diagnostic.file == str(path)
        assert report.has_errors

    def test_clean_program(self):
        report = lint(
            "nrev([], []).\nnrev([H|T], R) :- nrev(T, RT), app(RT, [H], R).\n"
            "app([], L, L).\napp([H|T], L, [H|R]) :- app(T, L, R).\n",
            ["nrev(glist, var)"],
        )
        assert report.diagnostics == []
        assert report.summary == "clean"
        assert not report.has_errors

    def test_no_source_flag(self):
        options = LintOptions(source=False)
        report = lint("main.\norphan(a).\n", ["main"], options=options)
        assert report.diagnostics == []

    def test_lint_source_without_result(self):
        program = Program.from_text("p(X) :- q(X, Unused).\nq(a, b).\n")
        diagnostics = lint_source(program, None, file="f.pl")
        assert {d.code for d in diagnostics} == {"W002"}


# ----------------------------------------------------------------------
# Diagnostic / LintReport machinery.


class TestDiagnostics:
    def test_to_text(self):
        diagnostic = Diagnostic(
            code="W002",
            severity="warning",
            message="singleton variable 'X'",
            file="f.pl",
            position=(3, 7),
            predicate=("p", 2),
        )
        assert (
            diagnostic.to_text()
            == "f.pl:3:7: warning: W002: singleton variable 'X' [p/2]"
        )

    def test_unknown_position_renders_question_marks(self):
        diagnostic = Diagnostic(code="E101", severity="error", message="m")
        assert diagnostic.location == "?:?:?"
        assert diagnostic.to_dict()["line"] is None

    def test_invalid_severity_rejected(self):
        with pytest.raises(ValueError):
            Diagnostic(code="X", severity="fatal", message="m")

    def test_report_sort_and_dedup(self):
        a = Diagnostic("W002", "warning", "a", file="f.pl", position=(2, 1))
        b = Diagnostic("W003", "warning", "b", file="f.pl", position=(1, 1))
        unplaced = Diagnostic("E101", "error", "c", file="f.pl")
        report = LintReport()
        report.extend([a, b, a, unplaced])
        assert len(report.diagnostics) == 3
        report.sort()
        assert report.diagnostics == [b, a, unplaced]

    def test_summary_counts(self):
        report = LintReport()
        report.extend(
            [
                Diagnostic("E101", "error", "x"),
                Diagnostic("W002", "warning", "y"),
                Diagnostic("W003", "warning", "z"),
                Diagnostic("I008", "info", "w"),
            ]
        )
        assert report.summary == "1 error, 2 warnings, 1 info"
        assert report.to_dict()["counts"] == {
            "info": 1,
            "warning": 2,
            "error": 1,
        }

    def test_registry_covers_all_source_codes(self):
        codes = {rule.code for rule in RULES}
        assert codes == {
            "W002", "W003", "W004", "W005", "E006", "W007", "I008", "W009",
        }


@pytest.mark.parametrize(
    "text,position", [("a('\\xg').\n", (1, 6)), ("x(²).\n", (1, 3))]
)
def test_e001_for_characters_int_rejects(tmp_path, text, position):
    # ``int`` rejects both (an empty ``\x`` escape, a superscript
    # digit); the clause must still be diagnosed, not end the lint run.
    path = tmp_path / "bad.pl"
    path.write_text(text, encoding="utf-8")
    report = lint_file(str(path), ["x(var)"])
    (diagnostic,) = report.by_code("E001")
    assert diagnostic.position == position
    assert report.has_errors
