"""The program-transformation baseline (paper Sections 1 and 5).

"Instead of direct interpretation, the transforming approach first
partially evaluates the programs over the abstract domain, and then runs
transformed programs to do the abstract interpretation."

:func:`transform_program` performs exactly the Section 5 rewrite, made
concrete:

* every source clause of ``p/n`` becomes a clause of ``p$exp/(n+1)`` whose
  head unification has been *partially evaluated* into explicit abstract
  unification goals (``absu/3``), whose body calls go through the
  ``q$call`` wrappers, and which ends with ``'$update'(...), fail`` — the
  paper's ``updateET(p(X)), fail``;
* a terminating clause per predicate plays the role of the paper's
  ``p(Lub) :- lookupET(p(Lub))``;
* the wrapper ``p$call/n`` is the artificially-introduced ``p'``: it
  computes the calling pattern, consults the extension table, and explores
  the clauses only when the pattern is new.

The transformed program is an ordinary Prolog program; it runs on the SLD
solver together with the abstract-domain support library of
:mod:`repro.baselines.prolog_analyzer` (``SUPPORT_SOURCE``) and the same
extension-table builtins.  Overhead relative to the compiled analyzer:
every abstract unification step is still resolution, plus the double
dispatch through the wrapper predicates — the "transforming overhead" the
paper describes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..analysis.driver import EntrySpec, parse_entry_spec
from ..analysis.table import ExtensionTable
from ..domain.concrete import DEFAULT_DEPTH
from ..errors import AnalysisError
from ..prolog.program import Clause, Program, normalize_program
from ..prolog.solver import Solver
from ..prolog.terms import (
    Atom,
    Indicator,
    Int,
    Struct,
    Term,
    Var,
    indicator_of,
    make_list,
)
from ..wam.builtins import MACHINE_BUILTIN_INDICATORS
from .prolog_analyzer import (
    SUPPORT_SOURCE,
    PrologAnalyzer,
    PrologBaselineResult,
    _tree_to_rep,
)

CUT = Atom("!")


def _call_name(indicator: Indicator) -> str:
    return f"{indicator[0]}$call"


def _exp_name(indicator: Indicator) -> str:
    return f"{indicator[0]}$exp"


def _goal(name: str, args: Sequence[Term]) -> Term:
    if not args:
        return Atom(name)
    return Struct(name, tuple(args))


def _transform_builtin(goal: Term) -> Optional[List[Term]]:
    """The partial evaluation of one builtin goal over the abstract domain.

    Returns the goal sequence to splice in, or None if ``goal`` is not a
    builtin (a user call, handled by the wrapper dispatch).
    """
    indicator = indicator_of(goal)
    if indicator not in MACHINE_BUILTIN_INDICATORS:
        return None
    name, _ = indicator
    args = list(goal.args) if isinstance(goal, Struct) else []
    fresh = Var("_")

    def absu(a: Term, b: Term) -> Term:
        return Struct("absu", (a, b, Var("_")))

    if name in ("true",):
        return []
    if name in ("fail", "false"):
        return [Atom("fail")]
    if name == "=":
        return [absu(args[0], args[1])]
    if name == "is":
        return [Struct("not_definite_var", (args[1],)), absu(args[0], Atom("int"))]
    if name in ("<", ">", "=<", ">=", "=:=", "=\\="):
        return [
            Struct("not_definite_var", (args[0],)),
            Struct("not_definite_var", (args[1],)),
        ]
    if name in ("\\=", "==", "\\==", "@<", "@>", "@=<", "@>="):
        return []
    if name == "compare":
        return [absu(args[0], Atom("atom"))]
    if name == "var":
        return [Struct("may_be_var", (args[0],))]
    if name in ("nonvar", "callable"):
        return [Struct("not_definite_var", (args[0],))]
    if name == "atom":
        return [Struct("type_possible", (args[0], Atom("atom")))]
    if name == "integer":
        return [Struct("type_possible", (args[0], Atom("int")))]
    if name in ("number", "float", "atomic"):
        return [Struct("type_possible", (args[0], Atom("const")))]
    if name == "compound":
        return [Struct("may_be_compound", (args[0],))]
    if name == "functor":
        return [absu(args[1], Atom("const")), absu(args[2], Atom("int"))]
    if name == "arg":
        return [Struct("not_definite_var", (args[0],))]
    if name == "=..":
        return [absu(args[1], Struct("list", (Atom("any"),)))]
    if name == "copy_term":
        a_var, m_var = Var("_A"), Var("_M")
        return [
            Struct("aterm", (args[0], Int(4), a_var)),
            Struct("materialize_one", (a_var, m_var)),
            absu(args[1], m_var),
        ]
    if name == "atom_length":
        return [
            Struct("type_possible", (args[0], Atom("atom"))),
            absu(args[1], Atom("int")),
        ]
    if name == "name":
        return [
            absu(args[0], Atom("const")),
            absu(args[1], Struct("list", (Atom("int"),))),
        ]
    if name in ("write", "writeq", "print", "nl", "tab"):
        return []
    raise AnalysisError(f"no abstract transformation for builtin {indicator}")


def transform_predicate(
    indicator: Indicator, clauses: Sequence[Clause]
) -> List[Clause]:
    """Transform one predicate per Section 5; see module docstring."""
    name, arity = indicator
    result: List[Clause] = []

    # The p' wrapper: calling-pattern computation and table consultation.
    wrapper_args = [Var(f"A{i}") for i in range(arity)]
    args_list = make_list(wrapper_args)
    cp_var, sp_var, m_var = Var("CP"), Var("SP"), Var("M")
    name_atom, arity_int = Atom(name), Int(arity)
    explore_goal = _goal(_exp_name(indicator), [m_var, cp_var])
    wrapper_body: List[Term] = [
        Struct("abstract_args", (args_list, cp_var)),
        Struct(
            ";",
            (
                Struct("->", (Struct("$explored", (name_atom, arity_int, cp_var)), Atom("true"))),
                Struct(
                    ",",
                    (
                        Struct("$mark", (name_atom, arity_int, cp_var)),
                        Struct(
                            ",",
                            (
                                Struct("materialize_args", (cp_var, m_var)),
                                explore_goal,
                            ),
                        ),
                    ),
                ),
            ),
        ),
        Struct("$lookup", (name_atom, arity_int, cp_var, sp_var)),
        Struct("apply_success", (args_list, sp_var)),
    ]
    result.append(Clause(_goal(_call_name(indicator), wrapper_args), wrapper_body))

    # One exploring clause per source clause, ending in updateET + fail.
    for clause in clauses:
        renamed = clause.rename()
        head_args = (
            list(renamed.head.args) if isinstance(renamed.head, Struct) else []
        )
        m_arg = Var("M")
        cp_arg = Var("CP")
        r_vars = [Var(f"R{i}") for i in range(arity)]
        body: List[Term] = [
            Struct(
                "absu_args",
                (m_arg, make_list(head_args), make_list(r_vars)),
            )
            if arity
            else Atom("true"),
        ]
        for goal in renamed.body:
            if goal == CUT:
                continue  # sound no-op, as everywhere in the analysis
            expansion = _transform_builtin(goal)
            if expansion is not None:
                body.extend(expansion)
            else:
                call_args = list(goal.args) if isinstance(goal, Struct) else []
                body.append(_goal(_call_name(indicator_of(goal)), call_args))
        sp_arg = Var("SP")
        body.append(Struct("abstract_args", (make_list(r_vars), sp_arg)))
        body.append(Struct("$update", (name_atom, arity_int, cp_arg, sp_arg)))
        body.append(Atom("fail"))
        result.append(
            Clause(_goal(_exp_name(indicator), [m_arg, cp_arg]), body)
        )

    # The terminator (the paper's "p(Lub) :- lookupET(p(Lub))" position).
    result.append(Clause(_goal(_exp_name(indicator), [Var("_"), Var("_")])))
    return result


def transform_program(program: Program) -> Program:
    """Apply the Section 5 transformation to a whole (normalized) program."""
    transformed = Program(program.operators)
    for predicate in program.predicates.values():
        for clause in transform_predicate(predicate.indicator, predicate.clauses):
            transformed.add_clause(clause)
    return transformed


class TransformAnalyzer(PrologAnalyzer):
    """Runs the transformed program on the SLD solver.

    Inherits the extension-table builtins from :class:`PrologAnalyzer`;
    the ``$clause`` builtin is never called (clause exploration is inlined
    by the transformation).
    """

    def __init__(
        self,
        program: Union[Program, str],
        depth: int = DEFAULT_DEPTH,
        budget=None,
        on_budget: str = "raise",
    ):
        super().__init__(
            program, depth=depth, budget=budget, on_budget=on_budget
        )
        transformed = transform_program(self.analyzed)
        support = normalize_program(Program.from_text(SUPPORT_SOURCE))
        merged = Program(transformed.operators)
        for predicate in transformed.predicates.values():
            for clause in predicate.clauses:
                merged.add_clause(clause)
        for predicate in support.predicates.values():
            for clause in predicate.clauses:
                merged.add_clause(clause)
        for term in Program.from_text(
            "'$run_entry'(G) :- call(G), !.\n'$run_entry'(_).\n"
        ).predicates.values():
            for clause in term.clauses:
                merged.add_clause(clause)
        self.analyzer_program = normalize_program(merged)

    def _entry_query(self, spec: EntrySpec) -> Term:
        from ..analysis.patterns import pattern_to_trees

        reps = [_tree_to_rep(tree) for tree in pattern_to_trees(spec.pattern)]
        goal = _goal(_call_name(spec.indicator), reps)
        # The wrapper fails when no success pattern exists; a pass is still
        # complete in that case, hence the $run_entry wrapping.
        return Struct("$run_entry", (goal,))
