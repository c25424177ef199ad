"""An SLD-resolution interpreter over AST terms.

This is the reference Prolog engine of the library.  It serves three
roles: an oracle the concrete WAM is tested against, the execution engine
for the program-transformation baseline analyzer, and a straightforward way
to run small programs in examples.

Execution is top-down, depth-first, with a binding trail for backtracking
and proper cut semantics: each predicate invocation opens a *cut barrier*;
executing ``!`` commits to the bindings and clause choices made since that
barrier.  Cut is implemented by converting ``!`` atoms in a renamed clause
body into barrier tokens and unwinding with a targeted exception.

Builtins are provided by :mod:`repro.prolog.builtins`; extra builtins can
be registered per solver, which the transformation baseline uses to install
its extension-table primitives.
"""

from __future__ import annotations

import itertools
import sys
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: Deep conjunctions build deep generator chains; Python's default limit
#: of 1000 is far too small for meta-level programs (see PrologAnalyzer).
_MIN_RECURSION_LIMIT = 100_000


def _ensure_recursion_limit(minimum: int = _MIN_RECURSION_LIMIT) -> None:
    """Raise the process-wide recursion limit to at least ``minimum``.

    SIDE EFFECT: ``sys.setrecursionlimit`` is process-global and this
    deliberately leaks past the Solver's lifetime — shrinking it back
    could break concurrently-running solvers, and re-raising it is
    idempotent.  The guard only ever *raises* the limit, so constructing
    a Solver after the embedding application chose a higher limit never
    lowers it.
    """
    if sys.getrecursionlimit() < minimum:
        sys.setrecursionlimit(minimum)


from ..errors import PrologError
from .program import Clause, Program
from .terms import (
    Atom,
    Float,
    Indicator,
    Int,
    Struct,
    Term,
    Var,
    format_indicator,
    indicator_of,
    rename_term,
    term_vars,
)

CUT_ATOM = Atom("!")

#: Control constructs the solver interprets natively.
_CONTROL = frozenset([(",", 2), (";", 2), ("->", 2), ("\\+", 1)])


class _CutToken:
    """A cut belonging to the predicate frame ``frame``."""

    __slots__ = ("frame",)

    def __init__(self, frame: int):
        self.frame = frame


class _CutSignal(Exception):
    """Raised when backtracking crosses a cut; unwinds to its frame."""

    def __init__(self, frame: int):
        self.frame = frame
        super().__init__(f"cut to frame {frame}")


GoalItem = object  # Term or _CutToken
BuiltinFn = Callable[["Solver", Tuple[Term, ...], int], Iterator[None]]


class Bindings:
    """Variable bindings with a trail for chronological backtracking."""

    def __init__(self) -> None:
        self._map: Dict[Var, Term] = {}
        self._trail: List[Var] = []

    def mark(self) -> int:
        return len(self._trail)

    def undo_to(self, mark: int) -> None:
        while len(self._trail) > mark:
            variable = self._trail.pop()
            del self._map[variable]

    def bind(self, variable: Var, value: Term) -> None:
        self._map[variable] = value
        self._trail.append(variable)

    def walk(self, term: Term) -> Term:
        """Follow variable bindings to the representative term (shallow)."""
        while isinstance(term, Var):
            bound = self._map.get(term)
            if bound is None:
                return term
            term = bound
        return term

    def resolve(self, term: Term) -> Term:
        """Deep copy of ``term`` with all bound variables substituted."""
        term = self.walk(term)
        if isinstance(term, Struct):
            return Struct(term.name, tuple(self.resolve(a) for a in term.args))
        return term

    def __len__(self) -> int:
        return len(self._map)


def unify(left: Term, right: Term, bindings: Bindings) -> bool:
    """Unify two terms, extending ``bindings``; no occurs check."""
    stack: List[Tuple[Term, Term]] = [(left, right)]
    while stack:
        a, b = stack.pop()
        a = bindings.walk(a)
        b = bindings.walk(b)
        if a is b:
            continue
        if isinstance(a, Var):
            bindings.bind(a, b)
            continue
        if isinstance(b, Var):
            bindings.bind(b, a)
            continue
        if isinstance(a, Atom) and isinstance(b, Atom):
            if a.name != b.name:
                return False
            continue
        if isinstance(a, Int) and isinstance(b, Int):
            if a.value != b.value:
                return False
            continue
        if isinstance(a, Float) and isinstance(b, Float):
            if a.value != b.value:
                return False
            continue
        if isinstance(a, Struct) and isinstance(b, Struct):
            if a.name != b.name or len(a.args) != len(b.args):
                return False
            stack.extend(zip(a.args, b.args))
            continue
        return False
    return True


def _term_order_key(term: Term, bindings: Bindings):
    """Key for the standard order of terms: Var < Number < Atom < Struct."""
    term = bindings.walk(term)
    if isinstance(term, Var):
        return (0, term.ordinal)
    if isinstance(term, (Int, Float)):
        return (1, term.value)
    if isinstance(term, Atom):
        return (2, term.name)
    assert isinstance(term, Struct)
    return (3, len(term.args), term.name)


def compare_terms(left: Term, right: Term, bindings: Bindings) -> int:
    """Three-way comparison in the standard order of terms."""
    left = bindings.walk(left)
    right = bindings.walk(right)
    key_left = _term_order_key(left, bindings)
    key_right = _term_order_key(right, bindings)
    if key_left < key_right:
        return -1
    if key_left > key_right:
        return 1
    if isinstance(left, Struct) and isinstance(right, Struct):
        for a, b in zip(left.args, right.args):
            result = compare_terms(a, b, bindings)
            if result != 0:
                return result
    return 0


class Solver:
    """Depth-first SLD resolution over a :class:`Program`."""

    def __init__(
        self,
        program: Program,
        max_steps: int = 10_000_000,
        budget=None,
        max_depth: Optional[int] = None,
    ):
        from .builtins import STANDARD_BUILTINS

        _ensure_recursion_limit()
        self.program = program
        self.bindings = Bindings()
        self.builtins: Dict[Indicator, BuiltinFn] = dict(STANDARD_BUILTINS)
        self.max_steps = max_steps
        #: Optional cap on predicate-call nesting.  The resolution core
        #: is a chain of generators, so call depth costs C stack on
        #: every resume: past a few thousand levels CPython dies on a
        #: stack overflow *before* RecursionError can fire (the guard
        #: above raises the recursion limit).  Untrusted/fuzzed
        #: programs should set this; it raises the same resource_error
        #: as the step limit.
        self.max_depth = max_depth
        self.steps = 0
        self.output: List[str] = []
        #: Optional repro.robust.Budget whose armed *deadline* the
        #: resolution loop probes every 2048 steps (other dimensions are
        #: analysis-side; the solver keeps its own max_steps).
        self.budget = budget
        self._frame_counter = itertools.count(1)

    # ------------------------------------------------------------------
    # Public API.

    def register_builtin(self, indicator: Indicator, function: BuiltinFn) -> None:
        """Install or replace a builtin (used by the transform baseline)."""
        self.builtins[indicator] = function

    def solve(self, goal: Term) -> Iterator[Dict[str, Term]]:
        """Yield solutions of ``goal`` as name → resolved-term maps."""
        variables = [v for v in term_vars(goal) if v.name and v.name != "_"]
        for _ in self._solve([goal], 0):
            yield {v.name: self.bindings.resolve(v) for v in variables}

    def solve_once(self, goal: Term) -> Optional[Dict[str, Term]]:
        """First solution of ``goal``, or None if it fails."""
        for solution in self.solve(goal):
            return solution
        return None

    def count_solutions(self, goal: Term, limit: int = 1_000_000) -> int:
        count = 0
        for _ in self.solve(goal):
            count += 1
            if count >= limit:
                break
        return count

    # ------------------------------------------------------------------
    # The resolution core.

    def _solve(self, goals: Sequence[GoalItem], depth: int) -> Iterator[None]:
        if not goals:
            yield
            return
        self.steps += 1
        if self.steps > self.max_steps:
            raise PrologError("resource_error", "step limit exceeded")
        if self.budget is not None and not (self.steps & 2047):
            self.budget.check_deadline()
        goal, rest = goals[0], goals[1:]
        if isinstance(goal, _CutToken):
            yield from self._solve(rest, depth)
            raise _CutSignal(goal.frame)
        assert isinstance(goal, Term)
        goal = self.bindings.walk(goal)
        if isinstance(goal, Var):
            raise PrologError("instantiation_error", "unbound goal")
        if not goal.is_callable():
            raise PrologError("type_error", f"goal is not callable: {goal}")
        if goal == CUT_ATOM:
            # A cut with no enclosing user predicate (e.g. in a query):
            # behaves as true.
            yield from self._solve(rest, depth)
            return
        indicator = indicator_of(goal)
        if indicator in _CONTROL:
            yield from self._solve_control(goal, indicator, rest, depth)
            return
        builtin = self.builtins.get(indicator)
        if builtin is not None:
            yield from self._call_builtin(builtin, goal, rest, depth)
            return
        yield from self._call_predicate(goal, indicator, rest, depth)

    def _solve_control(
        self,
        goal: Struct,
        indicator: Indicator,
        rest: Sequence[GoalItem],
        depth: int,
    ) -> Iterator[None]:
        """Conjunction, disjunction, if-then-else and negation as failure."""
        if indicator == (",", 2):
            yield from self._solve(
                [goal.args[0], goal.args[1]] + list(rest), depth
            )
            return
        if indicator == ("\\+", 1):
            mark = self.bindings.mark()
            succeeded = False
            for _ in self._solve([goal.args[0]], depth + 1):
                succeeded = True
                break
            self.bindings.undo_to(mark)
            if not succeeded:
                yield from self._solve(rest, depth)
            return
        if indicator == ("->", 2):
            goal = Struct(";", (goal, Atom("fail")))
        left, right = goal.args
        left = self.bindings.walk(left)
        if isinstance(left, Struct) and left.indicator == ("->", 2):
            condition, then_branch = left.args
            mark = self.bindings.mark()
            committed = False
            for _ in self._solve([condition], depth + 1):
                committed = True
                break  # commit to the first condition solution
            if committed:
                yield from self._solve([then_branch] + list(rest), depth)
                return
            self.bindings.undo_to(mark)
            yield from self._solve([right] + list(rest), depth)
            return
        mark = self.bindings.mark()
        yield from self._solve([left] + list(rest), depth)
        self.bindings.undo_to(mark)
        yield from self._solve([right] + list(rest), depth)

    def _call_builtin(
        self,
        builtin: BuiltinFn,
        goal: Term,
        rest: Sequence[GoalItem],
        depth: int,
    ) -> Iterator[None]:
        args = goal.args if isinstance(goal, Struct) else ()
        mark = self.bindings.mark()
        try:
            for _ in builtin(self, args, depth):
                yield from self._solve(rest, depth)
                # Builtins may leave different bindings per solution; undo
                # between alternatives happens inside the builtin itself.
        finally:
            pass
        self.bindings.undo_to(mark)

    def _call_predicate(
        self,
        goal: Term,
        indicator: Indicator,
        rest: Sequence[GoalItem],
        depth: int,
    ) -> Iterator[None]:
        predicate = self.program.predicate(indicator)
        if predicate is None:
            raise PrologError(
                "existence_error",
                f"unknown predicate {format_indicator(indicator)}",
            )
        if self.max_depth is not None and depth >= self.max_depth:
            raise PrologError("resource_error", "depth limit exceeded")
        frame = next(self._frame_counter)
        entry_mark = self.bindings.mark()
        try:
            for clause in predicate.clauses:
                mark = self.bindings.mark()
                renamed = clause.rename()
                if unify(goal, renamed.head, self.bindings):
                    body: List[GoalItem] = [
                        _CutToken(frame) if g == CUT_ATOM else g
                        for g in renamed.body
                    ]
                    yield from self._solve(list(body) + list(rest), depth + 1)
                self.bindings.undo_to(mark)
        except _CutSignal as signal:
            self.bindings.undo_to(entry_mark)
            if signal.frame != frame:
                raise
