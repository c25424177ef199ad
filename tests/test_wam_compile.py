"""Tests for the Prolog-to-WAM compiler."""

import pytest

from repro.prolog import Clause, Program, parse_term
from repro.wam import CompilerOptions, compile_clause, compile_program
from repro.wam.compile.classify import analyze_clause, goal_kind
from repro.wam.compile.predicate import compile_predicate, first_argument_key
from repro.wam.instructions import Reg
from repro.wam.listing import format_unit


def clause(text):
    return Clause.from_term(parse_term(text))


def ops(instructions):
    return [i.op for i in instructions]


class TestGoalKind:
    def test_cut(self):
        assert goal_kind(parse_term("!")) == "cut"

    def test_builtin(self):
        assert goal_kind(parse_term("X is 1")) == "builtin"

    def test_user_call(self):
        assert goal_kind(parse_term("foo(X)")) == "call"


class TestClassification:
    def test_fact_no_environment(self):
        analysis = analyze_clause(clause("p(a)"))
        assert not analysis.needs_environment

    def test_chain_rule_no_environment(self):
        analysis = analyze_clause(clause("p(X) :- q(X)"))
        assert not analysis.needs_environment

    def test_two_calls_need_environment(self):
        analysis = analyze_clause(clause("p(X) :- q(X), r(X)"))
        assert analysis.needs_environment

    def test_permanent_detection(self):
        analysis = analyze_clause(clause("p(X, Y) :- q(X), r(Y)"))
        permanents = [
            use.var.name
            for use in analysis.variables.values()
            if use.is_permanent
        ]
        assert permanents == ["Y"]

    def test_builtins_do_not_split_chunks(self):
        analysis = analyze_clause(clause("p(X, Y) :- Y is X + 1, q(Y)"))
        assert analysis.chunk_count == 2
        assert not any(
            use.is_permanent for use in analysis.variables.values()
        )

    def test_permanent_ordering_later_dying_lower(self):
        analysis = analyze_clause(
            clause("p(A, B) :- q(A, B), r(B), s(A, B), t(B)")
        )
        uses = {
            use.var.name: use
            for use in analysis.variables.values()
            if use.is_permanent
        }
        assert uses["B"].register.index < uses["A"].register.index

    def test_trimming_counts_decrease(self):
        analysis = analyze_clause(
            clause("p(A, B, C) :- q(A, B, C), r(B, C), s(C)")
        )
        assert analysis.live_after_call == sorted(
            analysis.live_after_call, reverse=True
        )

    def test_neck_cut_flag(self):
        analysis = analyze_clause(clause("p :- !, q"))
        assert analysis.has_neck_cut
        assert not analysis.has_deep_cut

    def test_deep_cut_flag(self):
        analysis = analyze_clause(clause("p :- q, !, r"))
        assert analysis.has_deep_cut
        assert analysis.level_slot == 1

    def test_temp_start_above_arities(self):
        analysis = analyze_clause(clause("p(A) :- q(A, B, C, D, E)"))
        assert analysis.temp_start == 6


class TestClauseEmission:
    def test_fact_ends_with_proceed(self):
        code = compile_clause(clause("p(a)"))
        assert ops(code) == ["get_constant", "proceed"]

    def test_chain_rule_uses_execute(self):
        code = compile_clause(clause("p(X) :- q(X)"))
        assert ops(code)[-1] == "execute"
        assert "allocate" not in ops(code)

    def test_two_calls_allocate_deallocate(self):
        code = compile_clause(clause("p :- q, r"))
        assert ops(code) == ["allocate", "call", "deallocate", "execute"]

    def test_last_call_optimization(self):
        code = compile_clause(clause("p(X) :- q, r(X)"))
        names = ops(code)
        assert names[-1] == "execute"
        assert names[-2] == "deallocate"

    def test_builtin_last_ends_with_proceed(self):
        code = compile_clause(clause("p(X) :- q, X = 1"))
        assert ops(code)[-1] == "proceed"
        assert ops(code)[-2] == "deallocate"

    def test_head_constant(self):
        code = compile_clause(clause("p(a, 1)"))
        assert ops(code)[:2] == ["get_constant", "get_constant"]

    def test_head_nil(self):
        code = compile_clause(clause("p([])"))
        assert ops(code)[0] == "get_nil"

    def test_head_variable_first_then_value(self):
        code = compile_clause(clause("p(X, X)"))
        assert ops(code) == ["get_variable", "get_value", "proceed"]

    def test_anonymous_head_arg_no_code(self):
        code = compile_clause(clause("p(_, _)"))
        assert ops(code) == ["proceed"]

    def test_unify_void_merging(self):
        code = compile_clause(clause("p(f(_, _, X))"))
        names = ops(code)
        assert "unify_void" in names
        void = [i for i in code if i.op == "unify_void"][0]
        assert void.args[0] == 2

    def test_body_constant_args(self):
        code = compile_clause(clause("p :- q(a, 1)"))
        assert ops(code)[:2] == ["put_constant", "put_constant"]

    def test_body_structure_built_bottom_up(self):
        code = compile_clause(clause("p :- q(f(g(a)))"))
        names = ops(code)
        # g/1 must be built before f/1.
        first_ps = names.index("put_structure")
        instr = code[first_ps]
        assert instr.args[0] == ("g", 1)

    def test_body_list(self):
        code = compile_clause(clause("p(X) :- q([X])"))
        names = ops(code)
        assert "put_list" in names

    def test_neck_cut_emitted(self):
        code = compile_clause(clause("p :- !, q"))
        assert "neck_cut" in ops(code)

    def test_deep_cut_get_level(self):
        code = compile_clause(clause("p :- q, !, r"))
        names = ops(code)
        assert names[0] == "allocate"
        assert names[1] == "get_level"
        assert "cut" in names

    def test_trimming_in_call_operands(self):
        options = CompilerOptions(environment_trimming=True)
        code = compile_clause(
            clause("p(A, B) :- q(A, B), r(B), s"), options
        )
        calls = [i for i in code if i.op == "call"]
        lives = [i.args[1] for i in calls]
        assert lives == sorted(lives, reverse=True)

    def test_no_trimming_keeps_full_size(self):
        options = CompilerOptions(environment_trimming=False)
        code = compile_clause(clause("p(A, B) :- q(A, B), r(B), s"), options)
        calls = [i for i in code if i.op == "call"]
        assert all(c.args[1] == calls[0].args[1] for c in calls)


class TestFigure2:
    """The paper's Figure 2: the head of p(a, [f(V)|L])."""

    def test_exact_instruction_sequence(self):
        code = compile_clause(clause("p(a, [f(V)|L]) :- true"))
        names = ops(code)
        assert names == [
            "get_constant",   # get_const a, A1
            "get_list",       # get_list A2
            "unify_variable",  # unify_var X3 (the car)
            "unify_variable",  # unify_var L (the cdr)
            "get_structure",   # get_struct f/1, X3
            "unify_variable",  # unify_var V
            "proceed",
        ]

    def test_breadth_first_order(self):
        # The nested struct is processed after the whole list level.
        code = compile_clause(clause("p([f(a), g(b)])"))
        names = ops(code)
        structure_positions = [
            index
            for index, name in enumerate(names)
            if name == "get_structure"
        ]
        unify_positions = [
            index for index, name in enumerate(names) if name == "unify_variable"
        ]
        assert all(u < structure_positions[0] for u in unify_positions[:2])


class TestPredicateAssembly:
    def test_single_clause_no_chain(self):
        program = Program.from_text("p(a).")
        unit = compile_predicate(program.predicate(("p", 1)))
        assert "try_me_else" not in [i.op for i in unit.instructions]

    def test_chain_shape(self):
        program = Program.from_text("p(X). p(Y). p(Z).")
        unit = compile_predicate(program.predicate(("p", 1)))
        names = [i.op for i in unit.instructions if i.op != "label"]
        assert names.count("try_me_else") == 1
        assert names.count("retry_me_else") == 1
        assert names.count("trust_me") == 1

    def test_clause_labels_recorded(self):
        program = Program.from_text("p(a). p(b).")
        unit = compile_predicate(program.predicate(("p", 1)))
        assert len(unit.clause_labels) == 2

    def test_switch_emitted_for_distinct_keys(self):
        program = Program.from_text("p(a). p(b). p([]). p([X|Y]). p(f(Z)).")
        unit = compile_predicate(program.predicate(("p", 1)))
        names = [i.op for i in unit.instructions]
        assert "switch_on_term" in names
        assert "switch_on_constant" in names
        assert "switch_on_structure" in names

    def test_no_switch_with_var_clause(self):
        program = Program.from_text("p(a). p(X).")
        unit = compile_predicate(program.predicate(("p", 1)))
        assert "switch_on_term" not in [i.op for i in unit.instructions]

    def test_no_switch_when_disabled(self):
        program = Program.from_text("p(a). p(b).")
        unit = compile_predicate(
            program.predicate(("p", 1)), CompilerOptions(indexing=False)
        )
        assert "switch_on_term" not in [i.op for i in unit.instructions]

    def test_subchain_for_shared_key(self):
        program = Program.from_text("p([X|A]). p([Y|B]). p(a).")
        unit = compile_predicate(program.predicate(("p", 1)))
        names = [i.op for i in unit.instructions]
        assert "try" in names and "trust" in names

    def test_first_argument_keys(self):
        assert first_argument_key(parse_term("p(X)")) == "var"
        assert first_argument_key(parse_term("p([])")) == (
            "const",
            parse_term("[]"),
        )
        assert first_argument_key(parse_term("p([H|T])")) == "list"
        assert first_argument_key(parse_term("p(f(X))")) == ("struct", ("f", 1))
        assert first_argument_key(parse_term("p")) == "var"


class TestProgramCompilation:
    def test_entry_table(self, append_nrev):
        compiled = compile_program(Program.from_text(append_nrev))
        assert ("app", 3) in compiled.code.entry
        assert ("nrev", 2) in compiled.code.entry

    def test_service_instructions(self, append_nrev):
        compiled = compile_program(Program.from_text(append_nrev))
        assert compiled.code.at(0).op == "halt"
        assert compiled.code.at(1).op == "fail"
        assert compiled.code.at(2).op == "proceed"

    def test_size_of(self, append_nrev):
        compiled = compile_program(Program.from_text(append_nrev))
        total = compiled.total_size()
        assert total == sum(
            compiled.size_of(ind) for ind in compiled.code.entry
        )

    def test_clause_entries_point_past_chain(self, append_nrev):
        compiled = compile_program(Program.from_text(append_nrev))
        for address in compiled.clause_entries(("app", 3)):
            op = compiled.code.at(address).op
            assert op not in ("try_me_else", "retry_me_else", "trust_me")

    def test_cannot_redefine_builtin(self):
        from repro.errors import CompileError

        with pytest.raises(CompileError):
            compile_program(Program.from_text("is(X, Y)."))

    def test_normalization_applied(self):
        compiled = compile_program(Program.from_text("p :- (a ; b). a. b."))
        assert any(ind[0].startswith("$or") for ind in compiled.code.entry)

    def test_query_compilation(self, append_nrev):
        compiled = compile_program(Program.from_text(append_nrev))
        indicator, variables = compiled.compile_query(
            parse_term("app(X, Y, [1])")
        )
        assert indicator[1] == 2
        assert [v.name for v in variables] == ["X", "Y"]

    def test_format_unit_readable(self):
        program = Program.from_text("p(a). p(b).")
        unit = compile_predicate(program.predicate(("p", 1)))
        text = format_unit(unit.instructions, arity=1)
        assert "get_constant a, A1" in text
