"""Parser error recovery: collect every syntax error, keep good clauses.

The reader resynchronizes at the next clause-terminating ``.`` after a
syntax error, so one malformed clause costs exactly that clause — the
rest of the file still parses, analyzes, and lints.
"""

import pytest

from repro.errors import PrologSyntaxError
from repro.prolog.parser import read_terms, read_terms_with_recovery
from repro.prolog.program import Program
from repro.prolog.writer import term_to_text


class TestReadTermsWithRecovery:
    def test_clean_text_matches_read_terms(self):
        text = "foo(1).\nbar(X) :- foo(X).\n"
        strict = read_terms(text)
        recovered, errors = read_terms_with_recovery(text)
        assert errors == []
        assert [term_to_text(t) for t, _ in recovered] == [
            term_to_text(t) for t in strict
        ]

    def test_collects_every_error(self):
        text = "foo(1).\nbar(.\nbaz(2).\nqux(]].\nquux(3).\n"
        terms, errors = read_terms_with_recovery(text)
        names = [term_to_text(t) for t, _ in terms]
        assert names == ["foo(1)", "baz(2)", "quux(3)"]
        assert len(errors) == 2
        assert all(isinstance(e, PrologSyntaxError) for e in errors)

    def test_resync_does_not_swallow_following_clause(self):
        # The error for "bar(." consumes the terminator itself; the
        # resync must notice that and NOT skip ahead to baz's ".".
        terms, errors = read_terms_with_recovery("bar(.\nbaz(2).\n")
        assert [term_to_text(t) for t, _ in terms] == ["baz(2)"]
        assert len(errors) == 1

    def test_error_positions_reported(self):
        _, errors = read_terms_with_recovery("foo(1).\nbar(.\n")
        (error,) = errors
        assert error.line == 2

    def test_lexical_error_stops_the_read(self):
        # A tokenizer error poisons the whole text: no resync possible.
        terms, errors = read_terms_with_recovery("foo(1). 'unterminated\n")
        assert terms == []
        assert len(errors) == 1

    def test_missing_terminator_at_eof(self):
        terms, errors = read_terms_with_recovery("foo(1).\nbar(2)")
        assert [term_to_text(t) for t, _ in terms] == ["foo(1)"]
        assert len(errors) == 1


class TestProgramRecovery:
    def test_clean_program_no_errors(self):
        program, errors = Program.from_text_with_recovery("p(1).\np(2).\n")
        assert errors == []
        assert ("p", 1) in program.predicates

    def test_bad_clauses_dropped_good_kept(self):
        program, errors = Program.from_text_with_recovery(
            "p(1).\nq( :- broken.\np(2).\nr(X) :- p(X).\n"
        )
        assert len(errors) == 1
        assert ("p", 1) in program.predicates
        assert ("r", 1) in program.predicates
        assert len(program.predicates[("p", 1)].clauses) == 2

    def test_errors_sorted_by_position(self):
        _, errors = Program.from_text_with_recovery(
            "a(.\nb(1).\nc(]].\nd(2).\n"
        )
        assert len(errors) == 2
        assert [e.line for e in errors] == sorted(e.line for e in errors)

    def test_semantic_errors_carry_position(self):
        # A term that parses but is not a valid clause (e.g. a bare
        # number) is reported at its source position too.
        program, errors = Program.from_text_with_recovery("p(1).\n42.\np(2).\n")
        assert len(errors) == 1
        assert errors[0].line == 2
        assert len(program.predicates[("p", 1)].clauses) == 2

    def test_strict_from_text_still_raises(self):
        with pytest.raises(PrologSyntaxError):
            Program.from_text("p(.\n")


class TestLintFileRecovery:
    def test_one_e001_per_error_and_linting_continues(self, tmp_path):
        from repro.lint import LintOptions, lint_file

        source = tmp_path / "broken.pl"
        source.write_text(
            "p(1).\n"
            "q( :- nope.\n"
            "p(2).\n"
            "r(]].\n"
            "main :- p(X), write(X).\n"
        )
        report = lint_file(
            str(source), ["main"], options=LintOptions(on_undefined="top")
        )
        e001 = [d for d in report.diagnostics if d.code == "E001"]
        assert len(e001) == 2
        assert all(d.position is not None for d in e001)
        # the recovered remainder was still analyzed + linted
        assert report.has_errors

    @pytest.mark.parametrize("directive", [
        "op(0, xfy, ',')", "op(1300, xfx, foo)", "op(700, zzz, foo)",
    ])
    def test_bad_op_directive_is_e001(self, tmp_path, directive):
        # A bad op/3 directive is one E001 at the directive, and the
        # clauses after it still lint with ',' as an operator.
        from repro.lint import lint_file

        source = tmp_path / "ops.pl"
        source.write_text(f":- {directive}.\np(1).\nmain :- p(X), p(X).\n")
        report = lint_file(str(source), ["main"])
        errors = [d for d in report.diagnostics if d.severity == "error"]
        assert [(d.code, d.position) for d in errors] == [("E001", (1, 1))]

    def test_bar_without_semicolon_operator_is_e001(self, tmp_path):
        # '|' reads as ';'; once op/3 removed ';', a '|' in a body is a
        # syntax error at the '|'.
        from repro.lint import lint_file

        source = tmp_path / "bar.pl"
        source.write_text(":- op(0, xfy, ;).\np :- true | true.\nmain.\n")
        report = lint_file(str(source), ["main"])
        errors = [d for d in report.diagnostics if d.severity == "error"]
        assert [(d.code, d.position) for d in errors] == [("E001", (2, 11))]

    def test_all_errors_no_predicates(self, tmp_path):
        from repro.lint import lint_file

        source = tmp_path / "hopeless.pl"
        source.write_text("p(.\nq(]].\n")
        report = lint_file(str(source), ["main"])
        codes = {d.code for d in report.diagnostics}
        assert codes == {"E001"}
        assert len(report.diagnostics) == 2
