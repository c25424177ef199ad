"""repro.fuzz generator and mutator: the by-construction guarantees.

Every generated program must be parseable, compilable, analyzable and
terminating within a step budget; generation and mutation must be
deterministic per seed; mutants must stay parseable and never introduce
the sort atoms the PrologAnalyzer baseline reserves.
"""

import random

import pytest

from repro.analysis.driver import Analyzer
from repro.fuzz.grammar import (
    CURATED_BUILTINS,
    MAX_CLAUSES,
    GenConfig,
    generate_program,
)
from repro.fuzz.mutate import (
    MUTATION_OPS,
    RESERVED_ATOMS,
    STRUCTURAL_OPS,
    Mutator,
    render_program,
)
from repro.prolog.parser import parse_term
from repro.prolog.program import Program
from repro.prolog.solver import Solver
from repro.prolog.terms import Atom, Struct
from repro.wam.compile import compile_program

SEEDS = range(20)


def _body_goal_names(program):
    for predicate in program.predicates.values():
        for clause in predicate.clauses:
            for goal in clause.body:
                if isinstance(goal, Struct):
                    yield goal.name
                elif isinstance(goal, Atom):
                    yield goal.name


class TestGenerator:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_parses_compiles_analyzes(self, seed):
        generated = generate_program(seed)
        program = Program.from_text(generated.source)
        compile_program(program)
        result = Analyzer(program).analyze(generated.entries)
        assert result.stable_dict()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_deterministic_per_seed(self, seed):
        first = generate_program(seed)
        second = generate_program(seed)
        assert first.source == second.source
        assert first.goals == second.goals
        assert first.entries == second.entries
        assert first.features == second.features

    def test_different_seeds_differ(self):
        sources = {generate_program(seed).source for seed in SEEDS}
        assert len(sources) > 1

    @pytest.mark.parametrize("seed", range(8))
    def test_goals_terminate_within_budget(self, seed):
        # Termination by construction: every query on ground inputs
        # finishes well inside the step budget on the SLD solver.
        generated = generate_program(seed)
        program = Program.from_text(generated.source)
        for goal_text in generated.goals:
            solver = Solver(program, max_steps=200_000)
            for count, _ in enumerate(solver.solve(parse_term(goal_text))):
                if count >= 30:
                    break

    @pytest.mark.parametrize("seed", SEEDS)
    def test_only_curated_builtins(self, seed):
        generated = generate_program(seed)
        program = Program.from_text(generated.source)
        defined = {name for name, _ in program.predicates}
        for name in _body_goal_names(program):
            assert name in defined or name in CURATED_BUILTINS \
                or name == ",", name

    @pytest.mark.parametrize("seed", SEEDS)
    def test_no_reserved_sort_atoms(self, seed):
        generated = generate_program(seed)
        program = Program.from_text(generated.source)
        for name, _ in program.predicates:
            assert name not in RESERVED_ATOMS

    def test_size_budget_bounds_clause_count(self):
        config = GenConfig(size_budget=12)
        for seed in range(10):
            generated = generate_program(seed, config)
            program = Program.from_text(generated.source)
            clauses = sum(
                len(p.clauses) for p in program.predicates.values()
            )
            # the budget caps helper emission; main adds one clause
            assert clauses <= 12 + MAX_CLAUSES + 1

    def test_entries_align_with_goals(self):
        for seed in range(6):
            generated = generate_program(seed)
            assert len(generated.goals) == len(generated.entries)
            for goal, entry in zip(generated.goals, generated.entries):
                assert goal.split("(", 1)[0] == entry.split("(", 1)[0]

    def test_features_reported(self):
        generated = generate_program(0)
        assert any(key.startswith("template.") for key in generated.features)


class TestMutator:
    PROGRAM = (
        "p(a).\n"
        "p(b) :- q(1), q(2).\n"
        "q(X) :- p(a).\n"
    )

    def test_deterministic_per_seed(self):
        for seed in range(10):
            first = Mutator(random.Random(f"m{seed}")).mutate_text(
                self.PROGRAM, count=3
            )
            second = Mutator(random.Random(f"m{seed}")).mutate_text(
                self.PROGRAM, count=3
            )
            assert first == second

    def test_mutants_stay_parseable(self):
        rng = random.Random("parseable")
        mutator = Mutator(rng)
        text = self.PROGRAM
        for _ in range(25):
            text, applied = mutator.mutate_text(text)
            assert applied
            Program.from_text(text)  # must not raise

    def test_mutants_never_introduce_reserved_atoms(self):
        rng = random.Random("reserved")
        mutator = Mutator(rng)
        text = self.PROGRAM
        for _ in range(50):
            text, _ = mutator.mutate_text(text)
        program = Program.from_text(text)
        for predicate in program.predicates.values():
            for clause in predicate.clauses:
                for atom_text in RESERVED_ATOMS:
                    rendered = render_program(program)
                    assert f"{atom_text}(" not in rendered

    def test_structural_ops_preserve_clause_sites(self):
        # structural edits never leave a predicate without clauses
        rng = random.Random("structural")
        mutator = Mutator(rng, ops=STRUCTURAL_OPS)
        text = self.PROGRAM
        for _ in range(20):
            text, applied = mutator.mutate_text(text)
            assert applied and set(applied) <= set(STRUCTURAL_OPS)
            program = Program.from_text(text)
            assert all(p.clauses for p in program.predicates.values())

    def test_every_registered_op_applies_somewhere(self):
        # a program rich enough that each operator finds a site
        rich = (
            "r(a, 1) :- !, s(b).\n"
            "r(b, 2) :- s(c), s(d).\n"
            "s(X).\n"
        )
        for name, (fn, safety) in MUTATION_OPS.items():
            assert safety in ("structural", "aggressive")
            program = Program.from_text(rich)
            assert fn(program, random.Random(name)) is True, name
            Program.from_text(render_program(program))

    def test_ops_decline_without_sites(self):
        # a single fact offers no delete/swap/goal sites
        program = Program.from_text("lone(x).\n")
        rng = random.Random("decline")
        for name in ("delete_clause", "swap_clauses", "drop_goal",
                     "swap_goals", "remove_cut", "tweak_int"):
            fn, _ = MUTATION_OPS[name]
            assert fn(program, rng) is False, name

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError):
            Mutator(random.Random(0), ops=("no_such_op",))

    def test_render_round_trip_preserves_analysis(self):
        program = Program.from_text(self.PROGRAM)
        rendered = render_program(program)
        first = Analyzer(Program.from_text(self.PROGRAM)).analyze(
            ["p(g)"]
        ).stable_dict()
        second = Analyzer(Program.from_text(rendered)).analyze(
            ["p(g)"]
        ).stable_dict()
        assert first == second
