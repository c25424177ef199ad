"""Source-level lint rules driven by the dataflow analysis.

Each rule is a function from a :class:`LintContext` to an iterable of
:class:`~repro.lint.diagnostics.Diagnostic`; the :data:`RULES` registry
pairs every rule with its stable code and one-line description (the docs
catalogue and the CLI's ``--explain`` output both come from it).

Codes:

* ``W002`` — singleton variable: a named variable occurring exactly once
  in its clause (almost always a typo; prefix with ``_`` to silence);
* ``W003`` — unreachable predicate: defined but absent from the extension
  table, i.e. never called from any analyzed entry point;
* ``W004`` — dead clause: the clause head abstractly unifies with no
  recorded calling pattern of its predicate, so it can never be selected;
* ``W005`` — predicate can never succeed: every recorded calling pattern
  has an empty success pattern;
* ``E006`` — arithmetic mode violation: an ``is/2`` or arithmetic
  comparison whose operand contains a variable that is abstractly free
  under every recorded calling pattern (a guaranteed
  ``instantiation_error`` at run time);
* ``W007`` — goal always fails: a body goal calls a predicate the table
  proves can never succeed, making the rest of the clause unreachable;
* ``I008`` — determinism hint: every recorded calling pattern of a
  multi-clause predicate selects exactly one clause (first-argument
  indexing makes it deterministic, no choice point needed);
* ``W009`` — call to a predicate that is neither defined in the program
  nor a builtin (an ``existence_error`` at run time).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from ..analysis.results import AnalysisResult
from ..domain.lattice import VAR_T, tree_is_ground, tree_leq
from ..prolog.builtins import BUILTIN_INDICATORS
from ..prolog.program import Clause, Program
from ..prolog.terms import (
    Atom,
    Indicator,
    Struct,
    Term,
    Var,
    format_indicator,
    indicator_of,
    term_vars,
)
from ..prolog.writer import term_to_text
from ..wam.builtins import MACHINE_BUILTIN_INDICATORS
from .deadcode import clause_matches, find_dead_code
from .diagnostics import Diagnostic

#: Control constructs; their subgoals are walked, the constructs
#: themselves are never "undefined predicates".
CONTROL_INDICATORS = frozenset(
    [(",", 2), (";", 2), ("->", 2), ("\\+", 1), ("!", 0)]
)

#: Goals whose operands are evaluated as arithmetic: ``is/2`` evaluates
#: its right operand, comparisons evaluate both.
ARITHMETIC_GOALS: Dict[Indicator, Tuple[int, ...]] = {
    ("is", 2): (1,),
    ("<", 2): (0, 1),
    (">", 2): (0, 1),
    ("=<", 2): (0, 1),
    (">=", 2): (0, 1),
    ("=:=", 2): (0, 1),
    ("=\\=", 2): (0, 1),
}

_KNOWN_INDICATORS = (
    MACHINE_BUILTIN_INDICATORS | BUILTIN_INDICATORS | CONTROL_INDICATORS
)


@dataclass
class LintContext:
    """Everything a source rule may consult."""

    program: Program
    result: Optional[AnalysisResult]
    file: str = "?"

    def diagnostic(
        self,
        code: str,
        severity: str,
        message: str,
        clause: Optional[Clause] = None,
        predicate: Optional[Indicator] = None,
    ) -> Diagnostic:
        return Diagnostic(
            code=code,
            severity=severity,
            message=message,
            file=self.file,
            position=clause.position if clause is not None else None,
            predicate=predicate,
        )

    def is_internal(self, indicator: Indicator) -> bool:
        """Compiler-synthesized predicates are not user-facing."""
        return indicator[0].startswith("$")

    @property
    def trusted(self) -> Optional[AnalysisResult]:
        """The analysis result, but only when it is globally *exact*.

        Precision-dependent rules (dead code, failing goals, determinism,
        arithmetic modes) reason from "every recorded calling pattern".
        Once any entry spec degraded, the set of recorded calling
        patterns is incomplete — even predicates whose own entries look
        exact may be missing patterns the interrupted exploration would
        have added — so those rules must not fire at all.  Rules that
        only need the program text (singletons, undefined predicates)
        keep working from ``program``.
        """
        result = self.result
        if result is None or result.status != "exact":
            return None
        return result


# ----------------------------------------------------------------------
# W002: singleton variables.

def _count_vars(term: Term, counts: Dict[int, Tuple[Var, int]]) -> None:
    stack = [term]
    while stack:
        current = stack.pop()
        if isinstance(current, Var):
            existing = counts.get(id(current))
            counts[id(current)] = (current, existing[1] + 1 if existing else 1)
        elif isinstance(current, Struct):
            stack.extend(current.args)


def check_singletons(context: LintContext) -> Iterator[Diagnostic]:
    for indicator, predicate in context.program.predicates.items():
        if context.is_internal(indicator):
            continue
        for clause in predicate.clauses:
            counts: Dict[int, Tuple[Var, int]] = {}
            for term in [clause.head] + clause.body:
                _count_vars(term, counts)
            for variable, count in counts.values():
                name = variable.name
                if count != 1 or not name or name.startswith("_"):
                    continue
                yield context.diagnostic(
                    "W002",
                    "warning",
                    f"singleton variable '{name}' "
                    "(prefix with _ if intentional)",
                    clause=clause,
                    predicate=indicator,
                )


# ----------------------------------------------------------------------
# W003/W004/W005: the dead-code report re-emitted as located diagnostics.

def _first_position(context: LintContext, indicator: Indicator):
    predicate = context.program.predicate(indicator)
    if predicate is not None and predicate.clauses:
        return predicate.clauses[0]
    return None


def check_dead_code(context: LintContext) -> Iterator[Diagnostic]:
    result = context.trusted
    if result is None:
        return
    report = find_dead_code(context.program, result)
    for indicator in report.unreachable_predicates:
        if context.is_internal(indicator):
            continue
        yield context.diagnostic(
            "W003",
            "warning",
            f"unreachable predicate {format_indicator(indicator)} "
            "(never called from the analyzed entry points)",
            clause=_first_position(context, indicator),
            predicate=indicator,
        )
    for indicator, index, clause in report.dead_clauses:
        if context.is_internal(indicator):
            continue
        yield context.diagnostic(
            "W004",
            "warning",
            f"dead clause {index + 1} of {format_indicator(indicator)}: "
            "head matches no recorded calling pattern",
            clause=clause,
            predicate=indicator,
        )
    for indicator in report.failing_predicates:
        if context.is_internal(indicator):
            continue
        yield context.diagnostic(
            "W005",
            "warning",
            f"predicate {format_indicator(indicator)} can never succeed "
            "(every recorded calling pattern has an empty success pattern)",
            clause=_first_position(context, indicator),
            predicate=indicator,
        )


# ----------------------------------------------------------------------
# E006: arithmetic mode violations, via a clause-local binding walk.

#: Abstract binding states: ``free`` is *definitely* an unbound variable
#: (under every recorded calling pattern), ``ground`` definitely ground,
#: ``unknown`` anything else.  Only ``free`` triggers E006.
_FREE, _GROUND, _UNKNOWN = "free", "ground", "unknown"


def _head_states(
    context: LintContext, indicator: Indicator, clause: Clause
) -> Dict[int, str]:
    """Initial binding states of head variables from the call types."""
    states: Dict[int, str] = {}
    trusted = context.trusted
    info = trusted.predicate(indicator) if trusted is not None else None
    if not isinstance(clause.head, Struct):
        return states
    for position, argument in enumerate(clause.head.args):
        call_type = (
            info.arguments[position].call_type
            if info is not None and position < len(info.arguments)
            else None
        )
        if isinstance(argument, Var):
            if argument.name == "_":
                continue
            if call_type is None:
                state = _UNKNOWN
            elif tree_leq(call_type, VAR_T):
                state = _FREE
            elif tree_is_ground(call_type):
                state = _GROUND
            else:
                state = _UNKNOWN
            existing = states.get(id(argument))
            states[id(argument)] = (
                state if existing in (None, state) else _UNKNOWN
            )
        else:
            inner = (
                _GROUND
                if call_type is not None and tree_is_ground(call_type)
                else _UNKNOWN
            )
            for variable in term_vars(argument):
                states[id(variable)] = inner
    return states


def _success_state(context: LintContext, indicator: Indicator, position: int):
    trusted = context.trusted
    if trusted is None:
        return _UNKNOWN
    info = trusted.predicate(indicator)
    if info is None or position >= len(info.arguments):
        return _UNKNOWN
    success = info.arguments[position].success_type
    if success is None:
        return None  # the call cannot succeed; state does not matter
    if tree_is_ground(success):
        return _GROUND
    if tree_leq(success, VAR_T):
        return _FREE
    return _UNKNOWN


def check_arithmetic_modes(context: LintContext) -> Iterator[Diagnostic]:
    for indicator, predicate in context.program.predicates.items():
        if context.is_internal(indicator):
            continue
        for clause in predicate.clauses:
            yield from _walk_clause_arithmetic(context, indicator, clause)


def _walk_clause_arithmetic(
    context: LintContext, indicator: Indicator, clause: Clause
) -> Iterator[Diagnostic]:
    states = _head_states(context, indicator, clause)

    def state_of(variable: Var) -> str:
        # A variable not seen yet has its first occurrence here: free.
        return states.get(id(variable), _FREE)

    def set_all(term: Term, state: str) -> None:
        for variable in term_vars(term):
            states[id(variable)] = state

    for goal in clause.body:
        if isinstance(goal, Atom):
            continue
        if not isinstance(goal, Struct):
            continue
        goal_indicator = goal.indicator
        if goal_indicator in ARITHMETIC_GOALS:
            for position in ARITHMETIC_GOALS[goal_indicator]:
                operand = goal.args[position]
                for variable in term_vars(operand):
                    if state_of(variable) == _FREE:
                        yield context.diagnostic(
                            "E006",
                            "error",
                            f"arithmetic goal '{term_to_text(goal)}' "
                            f"evaluates '{variable}', which is unbound "
                            "under every recorded calling pattern "
                            "(guaranteed instantiation_error)",
                            clause=clause,
                            predicate=indicator,
                        )
                # On success every evaluated variable is a number.
                set_all(operand, _GROUND)
            if goal_indicator == ("is", 2) and isinstance(goal.args[0], Var):
                states[id(goal.args[0])] = _GROUND
            continue
        if goal_indicator in CONTROL_INDICATORS:
            if goal_indicator == ("\\+", 1):
                continue  # \+/1 never exports bindings
            set_all(goal, _UNKNOWN)
            continue
        callee = context.program.predicate(goal_indicator)
        if callee is None:
            set_all(goal, _UNKNOWN)
            continue
        # A user call: refine argument variables from the success types.
        for position, argument in enumerate(goal.args):
            if isinstance(argument, Var):
                after = _success_state(context, goal_indicator, position)
                if after is None:
                    continue
                if after == _FREE:
                    continue  # provably still unbound: state unchanged
                states[id(argument)] = after
            else:
                set_all(argument, _UNKNOWN)


# ----------------------------------------------------------------------
# W007: goals that are proven to always fail.

def check_failing_goals(context: LintContext) -> Iterator[Diagnostic]:
    result = context.trusted
    if result is None:
        return
    failing: Set[Indicator] = set()
    for indicator in result.predicates():
        entries = result.table.entries_for(indicator)
        if entries and all(entry.success is None for entry in entries):
            failing.add(indicator)
    if not failing:
        return
    for indicator, predicate in context.program.predicates.items():
        if context.is_internal(indicator):
            continue
        for clause in predicate.clauses:
            for goal in clause.body:
                if not goal.is_callable():
                    continue
                goal_indicator = indicator_of(goal)
                if goal_indicator in failing and not context.is_internal(
                    goal_indicator
                ):
                    yield context.diagnostic(
                        "W007",
                        "warning",
                        f"goal '{term_to_text(goal)}' can never succeed; "
                        "the rest of the clause is unreachable",
                        clause=clause,
                        predicate=indicator,
                    )


# ----------------------------------------------------------------------
# I008: determinism hints.

def check_determinism(context: LintContext) -> Iterator[Diagnostic]:
    result = context.trusted
    if result is None:
        return
    for indicator, predicate in context.program.predicates.items():
        if context.is_internal(indicator) or len(predicate.clauses) < 2:
            continue
        entries = result.table.entries_for(indicator)
        if not entries:
            continue
        if all(
            sum(
                1
                for clause in predicate.clauses
                if clause_matches(entry.calling, clause)
            )
            == 1
            for entry in entries
        ):
            yield context.diagnostic(
                "I008",
                "info",
                f"{format_indicator(indicator)} is deterministic: every "
                "recorded calling pattern selects exactly one clause",
                clause=predicate.clauses[0],
                predicate=indicator,
            )


# ----------------------------------------------------------------------
# W009: calls to undefined predicates.

def _body_goals(goal: Term) -> Iterator[Term]:
    """The goal and, for control constructs, its subgoals."""
    if isinstance(goal, Struct) and goal.indicator in CONTROL_INDICATORS:
        for argument in goal.args:
            yield from _body_goals(argument)
        return
    yield goal


def check_undefined(context: LintContext) -> Iterator[Diagnostic]:
    defined = set(context.program.predicates.keys())
    for indicator, predicate in context.program.predicates.items():
        if context.is_internal(indicator):
            continue
        for clause in predicate.clauses:
            for goal in clause.body:
                for sub in _body_goals(goal):
                    if isinstance(sub, Var) or not sub.is_callable():
                        continue
                    sub_indicator = indicator_of(sub)
                    if (
                        sub_indicator in defined
                        or sub_indicator in _KNOWN_INDICATORS
                        or sub_indicator[0] in ("true", "fail", "!")
                    ):
                        continue
                    yield context.diagnostic(
                        "W009",
                        "warning",
                        f"call to undefined predicate "
                        f"{format_indicator(sub_indicator)} "
                        "(existence_error at run time)",
                        clause=clause,
                        predicate=indicator,
                    )


# ----------------------------------------------------------------------
# The registry.

@dataclass(frozen=True)
class Rule:
    """One lint rule with its stable code."""

    code: str
    severity: str
    name: str
    description: str
    check: object  # Callable[[LintContext], Iterable[Diagnostic]]


RULES: List[Rule] = [
    Rule(
        "W002",
        "warning",
        "singleton-variable",
        "named variable occurring exactly once in its clause",
        check_singletons,
    ),
    Rule(
        "W003",
        "warning",
        "unreachable-predicate",
        "predicate never called from the analyzed entry points",
        check_dead_code,
    ),
    Rule(
        "W004",
        "warning",
        "dead-clause",
        "clause head matches no recorded calling pattern",
        check_dead_code,
    ),
    Rule(
        "W005",
        "warning",
        "never-succeeds",
        "predicate with an empty success pattern for every call",
        check_dead_code,
    ),
    Rule(
        "E006",
        "error",
        "arithmetic-instantiation",
        "arithmetic over a variable that is unbound under every calling pattern",
        check_arithmetic_modes,
    ),
    Rule(
        "W007",
        "warning",
        "failing-goal",
        "body goal that the table proves can never succeed",
        check_failing_goals,
    ),
    Rule(
        "I008",
        "info",
        "deterministic",
        "every recorded calling pattern selects exactly one clause",
        check_determinism,
    ),
    Rule(
        "W009",
        "warning",
        "undefined-predicate",
        "call to a predicate that is neither defined nor a builtin",
        check_undefined,
    ),
]

#: Distinct check functions, in registry order (check_dead_code appears
#: once even though it implements three codes).
RULE_CHECKS = list(dict.fromkeys(rule.check for rule in RULES))
