"""Clause-level program representation shared by the solver, the WAM
compiler and the analyzers.

A :class:`Clause` is a head plus a flat list of body goals (the comma
conjunction is flattened; ``true`` bodies become the empty list).  A
:class:`Program` groups clauses into :class:`Predicate` objects by functor
indicator, preserving clause order.

:func:`normalize_program` rewrites the control constructs that the WAM
compiler does not handle directly — disjunction ``;/2``, if-then-else
``-> ;``, and negation-as-failure ``\\+/1`` — into auxiliary predicates
with cut, which is the classic source-to-source preprocessing used by WAM
compilers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from ..errors import PrologSyntaxError
from .operators import OperatorTable
from .terms import (
    FAIL,
    TRUE,
    Atom,
    Indicator,
    Struct,
    Term,
    Var,
    format_indicator,
    indicator_of,
    rename_term,
)


def flatten_conjunction(term: Term) -> List[Term]:
    """Flatten nested ``,/2`` into a goal list; ``true`` vanishes."""
    goals: List[Term] = []
    stack = [term]
    while stack:
        current = stack.pop()
        if isinstance(current, Struct) and current.name == "," and current.arity == 2:
            stack.append(current.args[1])
            stack.append(current.args[0])
        elif current == TRUE:
            continue
        else:
            goals.append(current)
    return goals


@dataclass
class Clause:
    """One program clause ``head :- goal1, ..., goaln``.

    ``position`` is the (line, column) of the clause's first token in the
    source text, or None for clauses built programmatically; diagnostics
    print ``?:?`` in the latter case.
    """

    head: Term
    body: List[Term] = field(default_factory=list)
    position: Optional[Tuple[int, int]] = None

    @property
    def indicator(self) -> Indicator:
        return indicator_of(self.head)

    @property
    def position_text(self) -> str:
        """``line:column`` of the clause, or ``?:?`` when unknown."""
        if self.position is None:
            return "?:?"
        return f"{self.position[0]}:{self.position[1]}"

    def rename(self) -> "Clause":
        """A copy with fresh variables (used at each resolution step)."""
        mapping: Dict[int, Var] = {}
        head = rename_term(self.head, mapping)
        body = [rename_term(goal, mapping) for goal in self.body]
        return Clause(head, body, position=self.position)

    def to_term(self) -> Term:
        """Back to a single ``:-/2`` term (or the bare head for facts)."""
        if not self.body:
            return self.head
        body: Term = self.body[-1]
        for goal in reversed(self.body[:-1]):
            body = Struct(",", (goal, body))
        return Struct(":-", (self.head, body))

    @staticmethod
    def from_term(
        term: Term, position: Optional[Tuple[int, int]] = None
    ) -> "Clause":
        """Build a clause from a parsed ``:-/2`` term or a fact."""
        if isinstance(term, Struct) and term.name == ":-" and term.arity == 2:
            head, body = term.args
        else:
            head, body = term, TRUE
        if not head.is_callable():
            raise PrologSyntaxError(f"clause head is not callable: {head}")
        return Clause(head, flatten_conjunction(body), position=position)

    def __str__(self) -> str:
        from .writer import term_to_text

        return term_to_text(self.to_term()) + "."


@dataclass
class Predicate:
    """All clauses for one functor indicator, in source order."""

    indicator: Indicator
    clauses: List[Clause] = field(default_factory=list)

    @property
    def name(self) -> str:
        return self.indicator[0]

    @property
    def arity(self) -> int:
        return self.indicator[1]

    def __str__(self) -> str:
        return format_indicator(self.indicator)


class Program:
    """An ordered collection of predicates plus non-op directives."""

    def __init__(self, operators: Optional[OperatorTable] = None):
        self.predicates: Dict[Indicator, Predicate] = {}
        self.directives: List[Term] = []
        self.operators = operators if operators is not None else OperatorTable()
        #: True for the output of :func:`normalize_program`.
        self.normalized = False

    # ------------------------------------------------------------------

    def add_clause(self, clause: Clause) -> None:
        indicator = clause.indicator
        predicate = self.predicates.get(indicator)
        if predicate is None:
            predicate = Predicate(indicator)
            self.predicates[indicator] = predicate
        predicate.clauses.append(clause)

    def add_term(
        self, term: Term, position: Optional[Tuple[int, int]] = None
    ) -> None:
        if isinstance(term, Struct) and term.name == ":-" and term.arity == 1:
            self.directives.append(term.args[0])
            return
        if isinstance(term, Struct) and term.indicator == ("-->", 2):
            from .dcg import translate_dcg

            clause = translate_dcg(term)
            clause.position = position
            self.add_clause(clause)
            return
        self.add_clause(Clause.from_term(term, position=position))

    def predicate(self, indicator: Indicator) -> Optional[Predicate]:
        return self.predicates.get(indicator)

    def clauses(self, indicator: Indicator) -> List[Clause]:
        predicate = self.predicates.get(indicator)
        return predicate.clauses if predicate is not None else []

    def indicators(self) -> List[Indicator]:
        return list(self.predicates.keys())

    def clause_count(self) -> int:
        return sum(len(p.clauses) for p in self.predicates.values())

    # ------------------------------------------------------------------

    @staticmethod
    def from_text(text: str) -> "Program":
        """Parse a whole program text (clauses and directives)."""
        from .parser import read_terms_with_positions

        operators = OperatorTable()
        program = Program(operators)
        for term, position in read_terms_with_positions(text, operators):
            program.add_term(term, position=position)
        return program

    @staticmethod
    def from_text_with_recovery(
        text: str,
    ) -> Tuple["Program", List[PrologSyntaxError]]:
        """Fault-tolerant :meth:`from_text`: parse what parses, collect
        every syntax error instead of stopping at the first.

        The parser resynchronizes after each error at the next clause
        terminator (``.``); malformed clause *heads* are likewise
        skipped.  Returns the program built from the well-formed clauses
        plus the errors in source order — callers decide whether a
        non-empty error list is fatal.
        """
        from .parser import read_terms_with_recovery

        program = Program(OperatorTable())
        terms, errors = read_terms_with_recovery(text, program.operators)
        for term, position in terms:
            try:
                program.add_term(term, position=position)
            except PrologSyntaxError as exc:
                if not exc.line and position is not None:
                    exc = PrologSyntaxError(str(exc), *position)
                errors.append(exc)
        errors.sort(key=lambda e: (e.line, e.column))
        return program, errors

    def to_text(self) -> str:
        from .writer import term_to_text

        lines: List[str] = []
        for directive in self.directives:
            lines.append(":- " + term_to_text(directive) + ".")
        for predicate in self.predicates.values():
            for clause in predicate.clauses:
                lines.append(str(clause))
            lines.append("")
        return "\n".join(lines)

    def __str__(self) -> str:
        names = ", ".join(format_indicator(i) for i in self.predicates)
        return f"Program({names})"


# ----------------------------------------------------------------------
# Normalization of control constructs.

_CONTROL_INDICATORS = {(";", 2), ("->", 2), ("\\+", 1)}


def _contains_control(goal: Term) -> bool:
    if isinstance(goal, Struct):
        return goal.indicator in _CONTROL_INDICATORS
    return False


class _Normalizer:
    """Rewrites control constructs into auxiliary predicates."""

    def __init__(self, program: Program):
        self.source = program
        self.result = Program(program.operators)
        self.result.directives = list(program.directives)
        self.counter = 0
        #: position of the clause being rewritten; auxiliary predicates
        #: synthesized from its control constructs inherit it.
        self.position: Optional[Tuple[int, int]] = None

    def run(self) -> Program:
        for predicate in self.source.predicates.values():
            for clause in predicate.clauses:
                self.position = clause.position
                body = [self._normalize_goal(g) for g in clause.body]
                self.result.add_clause(
                    Clause(clause.head, body, position=clause.position)
                )
        self.result.normalized = True
        return self.result

    def _fresh_name(self, hint: str) -> str:
        self.counter += 1
        return f"${hint}_{self.counter}"

    def _aux_head(self, hint: str, variables: List[Var]) -> Term:
        name = self._fresh_name(hint)
        if not variables:
            return Atom(name)
        return Struct(name, tuple(variables))

    def _normalize_goal(self, goal: Term) -> Term:
        if not _contains_control(goal):
            return goal
        assert isinstance(goal, Struct)
        from .terms import term_vars

        if goal.indicator == ("\\+", 1):
            inner = goal.args[0]
            variables = term_vars(inner)
            head = self._aux_head("not", variables)
            body_goal = self._normalize_goal(inner)
            self.result.add_clause(
                Clause(
                    head,
                    flatten_conjunction(body_goal) + [Atom("!"), FAIL],
                    position=self.position,
                )
            )
            self.result.add_clause(Clause.from_term(head, position=self.position))
            return head
        if goal.indicator == (";", 2):
            left, right = goal.args
            variables = term_vars(goal)
            head = self._aux_head("or", variables)
            if isinstance(left, Struct) and left.indicator == ("->", 2):
                condition, then_part = left.args
                self.result.add_clause(
                    Clause(
                        head,
                        flatten_conjunction(self._normalize_goal(condition))
                        + [Atom("!")]
                        + flatten_conjunction(self._normalize_goal(then_part)),
                        position=self.position,
                    )
                )
                self.result.add_clause(
                    Clause(
                        head,
                        flatten_conjunction(self._normalize_goal(right)),
                        position=self.position,
                    )
                )
            else:
                for branch in (left, right):
                    self.result.add_clause(
                        Clause(
                            head,
                            flatten_conjunction(self._normalize_goal(branch)),
                            position=self.position,
                        )
                    )
            return head
        if goal.indicator == ("->", 2):
            # A bare if-then is (C -> T ; fail).
            return self._normalize_goal(Struct(";", (goal, FAIL)))
        return goal


def normalize_program(program: Program) -> Program:
    """Rewrite ``;``, ``->`` and ``\\+`` into auxiliary predicates with cut.

    The returned program contains only conjunction, cut and plain goals, so
    the WAM compiler and the analyzers need no special control handling.
    A program this function returned is returned as it is.
    """
    if program.normalized:
        return program
    return _Normalizer(program).run()
