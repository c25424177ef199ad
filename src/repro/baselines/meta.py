"""The meta-interpreting baseline analyzer (paper Section 1).

This is the implementation style the paper benchmarks against (the
Aquarius analyzer running under Quintus Prolog): a meta-circular
interpreter that walks source clauses with a redefined (abstract)
unification procedure and an extension table, paying

* AST interpretation on every head and body goal,
* a full store copy per clause trial (no destructive update),
* linear extension-table lookups,

while computing exactly the same analysis as the compiled abstract WAM —
the two produce identical fixpoint tables, which the test suite checks.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..analysis.driver import MAX_ITERATIONS, EntrySpec, parse_entry_spec
from ..analysis.patterns import Pattern
from ..analysis.table import ExtensionTable
from ..domain.concrete import DEFAULT_DEPTH
from ..domain.lattice import ANY_T, INTEGER_T
from ..domain.sorts import AbsSort, sort_glb
from ..errors import AnalysisError, PrologError
from ..robust import STATUS_DEGRADED, STATUS_EXACT, Budget
from ..prolog.program import Program, normalize_program
from ..prolog.terms import (
    Atom,
    Indicator,
    Struct,
    Term,
    format_indicator,
    indicator_of,
)
from ..wam.builtins import MACHINE_BUILTIN_INDICATORS
from .absterms import AbsStore

CUT = Atom("!")

MetaBuiltinFn = Callable[["MetaAnalyzer", AbsStore, List[int]], bool]


@dataclass
class MetaResult:
    """Outcome of a baseline analysis (same table shape as the fast path)."""

    table: ExtensionTable
    iterations: int
    seconds: float
    store_copies: int
    goals_interpreted: int
    #: "exact" at a true fixpoint; "degraded" when the run was cut short
    #: and the table soundly widened to ⊤ (see repro.robust).
    status: str = "exact"

    def to_text(self) -> str:
        return self.table.to_text()


class MetaAnalyzer:
    """Source-level abstract interpreter with an extension table.

    Accepts the compiled analyzer's budget knobs: a shared
    :class:`~repro.robust.Budget` (one abstract *step* is charged per
    interpreted goal — the closest baseline equivalent of an abstract
    WAM instruction) and ``on_budget`` selecting raise-vs-degrade.
    Without a budget a run stops after
    :data:`~repro.analysis.driver.MAX_ITERATIONS` passes.  In degrade
    mode an interrupted run returns a :class:`MetaResult` whose table
    was widened to ⊤ and whose ``status`` is ``"degraded"``; in raise
    mode the same widened result rides on the exception's
    ``partial_result`` instead of being discarded.
    """

    def __init__(
        self,
        program: Union[Program, str],
        depth: int = DEFAULT_DEPTH,
        budget: Optional[Budget] = None,
        on_budget: str = "raise",
    ):
        if on_budget not in ("raise", "degrade"):
            raise ValueError(
                f"on_budget must be 'raise' or 'degrade', not {on_budget!r}"
            )
        if isinstance(program, str):
            program = Program.from_text(program)
        self.program = normalize_program(program)
        self.depth = depth
        self.budget = budget
        self.on_budget = on_budget
        self.table = ExtensionTable(budget=budget)
        self.iteration = 0
        self.goals_interpreted = 0
        self.store_copies = 0
        self.builtins = dict(META_BUILTINS)
        #: The budget actively charged during analyze() (never None there).
        self._budget: Optional[Budget] = None

    # ------------------------------------------------------------------

    def analyze(
        self, entries: Sequence[Union[str, Term, EntrySpec]]
    ) -> MetaResult:
        specs = [parse_entry_spec(entry) for entry in entries]
        if not specs:
            raise AnalysisError("at least one entry spec is required")
        budget = self.budget
        if budget is None:
            budget = Budget(max_iterations=MAX_ITERATIONS)
        self._budget = budget.start()
        started = time.perf_counter()
        iterations = 0
        status = STATUS_EXACT
        try:
            while True:
                budget.charge_iteration()
                iterations += 1
                before = self.table.changes
                for spec in specs:
                    self.iteration += 1
                    store = AbsStore()
                    idents = store.materialize(spec.pattern)
                    self._call(store, spec.indicator, idents)
                if self.table.changes == before:
                    break
        except AnalysisError as exc:
            # Interrupted: the partial table may under-approximate, so
            # widen it to ⊤ — sound, merely imprecise — and either
            # return it (degrade) or attach it to the exception (raise).
            status = STATUS_DEGRADED
            self.table.widen_to_top(status)
            result = self._result(iterations, started, status)
            if self.on_budget == "raise":
                exc.partial_result = result
                raise
            return result
        finally:
            self._budget = None
        return self._result(iterations, started, status)

    def _result(
        self, iterations: int, started: float, status: str
    ) -> MetaResult:
        return MetaResult(
            table=self.table,
            iterations=iterations,
            seconds=time.perf_counter() - started,
            store_copies=self.store_copies,
            goals_interpreted=self.goals_interpreted,
            status=status,
        )

    # ------------------------------------------------------------------
    # The interpreter core.

    def _call(
        self, store: AbsStore, indicator: Indicator, arg_ids: List[int]
    ) -> Optional[AbsStore]:
        calling = store.abstract(arg_ids, self.depth)
        entry = self.table.entry(indicator, calling)
        if entry.explored_iteration == self.iteration:
            return self._apply_success(store, entry, arg_ids)
        entry.explored_iteration = self.iteration
        clauses = self.program.clauses(indicator)
        if not clauses:
            raise PrologError(
                "existence_error",
                f"unknown predicate {format_indicator(indicator)}",
            )
        for clause in clauses:
            trial = store.copy()
            self.store_copies += 1
            pattern_args = trial.materialize(calling)
            env: Dict[int, int] = {}
            head_args: List[Term] = (
                list(clause.head.args) if isinstance(clause.head, Struct) else []
            )
            matched = True
            for head_term, pattern_arg in zip(head_args, pattern_args):
                head_id = trial.from_term(head_term, env)
                if not trial.s_unify(head_id, pattern_arg):
                    matched = False
                    break
            if not matched:
                continue
            final = self._body(trial, clause.body, env)
            if final is None:
                continue
            success = final.abstract(pattern_args, self.depth)
            self.table.update(indicator, calling, success)
        return self._apply_success(store, entry, arg_ids)

    def _body(
        self, store: AbsStore, goals: Sequence[Term], env: Dict[int, int]
    ) -> Optional[AbsStore]:
        for goal in goals:
            self.goals_interpreted += 1
            if self._budget is not None:
                self._budget.charge_step()
            if goal == CUT:
                continue  # sound no-op, as in the abstract WAM
            indicator = indicator_of(goal)
            arg_terms = goal.args if isinstance(goal, Struct) else ()
            arg_ids = [store.from_term(term, env) for term in arg_terms]
            builtin = self.builtins.get(indicator)
            if builtin is not None:
                if not builtin(self, store, arg_ids):
                    return None
                continue
            result = self._call(store, indicator, arg_ids)
            if result is None:
                return None
            store = result
        return store

    def _apply_success(
        self, store: AbsStore, entry, arg_ids: List[int]
    ) -> Optional[AbsStore]:
        if entry.success is None:
            return None
        success_ids = store.materialize(entry.success)
        for caller_id, success_id in zip(arg_ids, success_ids):
            if not store.s_unify(caller_id, success_id):
                return None
        return store


# ----------------------------------------------------------------------
# Abstract builtins over the node store (same semantics as
# repro.analysis.builtins, re-expressed for the baseline substrate).

def _mb_true(analyzer, store, args) -> bool:
    return True


def _mb_fail(analyzer, store, args) -> bool:
    return False


def _mb_unify(analyzer, store, args) -> bool:
    return store.s_unify(args[0], args[1])


def _mb_succeed(analyzer, store, args) -> bool:
    return True


def _mb_type_test(target: AbsSort) -> MetaBuiltinFn:
    def builtin(analyzer, store, args) -> bool:
        return sort_glb(store._summary(args[0], set()), target) != AbsSort.EMPTY

    return builtin


def _mb_var(analyzer, store, args) -> bool:
    summary = store._summary(args[0], set())
    return summary in (AbsSort.VAR, AbsSort.ANY)


def _mb_nonvar(analyzer, store, args) -> bool:
    return store._summary(args[0], set()) != AbsSort.VAR


def _mb_compound(analyzer, store, args) -> bool:
    _, value = store.walk(args[0])
    if value[0] in ("struct", "list"):
        return True  # a list instance may be a cons cell
    if value[0] in ("var", "const"):
        return False
    return value[1] in (AbsSort.ANY, AbsSort.NV, AbsSort.GROUND)


def _mb_is(analyzer, store, args) -> bool:
    if store._summary(args[1], set()) == AbsSort.VAR:
        return False
    result = store.new_node(("sort", AbsSort.INTEGER))
    return store.s_unify(args[0], result)


def _mb_arith_compare(analyzer, store, args) -> bool:
    return (
        store._summary(args[0], set()) != AbsSort.VAR
        and store._summary(args[1], set()) != AbsSort.VAR
    )


def _mb_functor(analyzer, store, args) -> bool:
    name = store.new_node(("sort", AbsSort.CONST))
    arity = store.new_node(("sort", AbsSort.INTEGER))
    return store.s_unify(args[1], name) and store.s_unify(args[2], arity)


def _mb_arg(analyzer, store, args) -> bool:
    return store._summary(args[0], set()) != AbsSort.VAR


def _mb_univ(analyzer, store, args) -> bool:
    result = store.new_node(("list", ANY_T))
    return store.s_unify(args[1], result)


def _mb_copy_term(analyzer, store, args) -> bool:
    tree = store.tree_of(args[0], analyzer.depth)
    copy_id = store._node_for_tree(tree)
    return store.s_unify(args[1], copy_id)


def _mb_compare(analyzer, store, args) -> bool:
    result = store.new_node(("sort", AbsSort.ATOM))
    return store.s_unify(args[0], result)


def _mb_atom_length(analyzer, store, args) -> bool:
    if sort_glb(store._summary(args[0], set()), AbsSort.ATOM) == AbsSort.EMPTY:
        return False
    result = store.new_node(("sort", AbsSort.INTEGER))
    return store.s_unify(args[1], result)


def _mb_name(analyzer, store, args) -> bool:
    first = store.new_node(("sort", AbsSort.CONST))
    if not store.s_unify(args[0], first):
        return False
    second = store.new_node(("list", INTEGER_T))
    return store.s_unify(args[1], second)


def _mb_output(analyzer, store, args) -> bool:
    return True


META_BUILTINS: Dict[Indicator, MetaBuiltinFn] = {
    ("true", 0): _mb_true,
    ("fail", 0): _mb_fail,
    ("false", 0): _mb_fail,
    ("=", 2): _mb_unify,
    ("\\=", 2): _mb_succeed,
    ("==", 2): _mb_succeed,
    ("\\==", 2): _mb_succeed,
    ("@<", 2): _mb_succeed,
    ("@>", 2): _mb_succeed,
    ("@=<", 2): _mb_succeed,
    ("@>=", 2): _mb_succeed,
    ("compare", 3): _mb_compare,
    ("var", 1): _mb_var,
    ("nonvar", 1): _mb_nonvar,
    ("atom", 1): _mb_type_test(AbsSort.ATOM),
    ("number", 1): _mb_type_test(AbsSort.CONST),
    ("integer", 1): _mb_type_test(AbsSort.INTEGER),
    ("float", 1): _mb_type_test(AbsSort.CONST),
    ("atomic", 1): _mb_type_test(AbsSort.CONST),
    ("compound", 1): _mb_compound,
    ("callable", 1): _mb_type_test(AbsSort.NV),
    ("is", 2): _mb_is,
    ("=:=", 2): _mb_arith_compare,
    ("=\\=", 2): _mb_arith_compare,
    ("<", 2): _mb_arith_compare,
    (">", 2): _mb_arith_compare,
    ("=<", 2): _mb_arith_compare,
    (">=", 2): _mb_arith_compare,
    ("functor", 3): _mb_functor,
    ("arg", 3): _mb_arg,
    ("=..", 2): _mb_univ,
    ("copy_term", 2): _mb_copy_term,
    ("write", 1): _mb_output,
    ("writeq", 1): _mb_output,
    ("print", 1): _mb_output,
    ("nl", 0): _mb_output,
    ("tab", 1): _mb_output,
    ("atom_length", 2): _mb_atom_length,
    ("name", 2): _mb_name,
}

# The baseline must treat exactly the machine's builtin set as builtin.
assert set(META_BUILTINS) == set(MACHINE_BUILTIN_INDICATORS)
