"""Dead-code detection from the analysis results.

With every reachable calling pattern recorded in the extension table, a
clause whose head cannot abstractly unify with *any* calling pattern of
its predicate can never be selected, and a predicate with no table entry
is never called at all.  Both are safe to remove (for the analyzed entry
points) — the classic "dead code elimination enabled by global
analysis".  The lint rules report these facts (``W003``-``W005``,
``I008``) and :mod:`repro.opt` drops the dead clauses.

The check replays head unification only (no bodies): for each (predicate,
calling pattern), materialize the pattern and ``s_unify`` it against each
clause head.  A clause alive under no pattern is dead.  Clauses whose
body is proven to fail (the head matches but the table records no success
and the pattern was explored) are reported separately as *failing*.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from ..analysis.patterns import materialize_pattern
from ..analysis.aunify import s_unify
from ..analysis.results import AnalysisResult
from ..prolog.program import Clause, Program, normalize_program
from ..prolog.terms import Indicator, Struct, format_indicator
from ..wam.cells import Heap


@dataclass
class DeadCodeReport:
    """Unreachable predicates and dead clauses."""

    #: predicates defined in the program but absent from the table.
    unreachable_predicates: List[Indicator] = field(default_factory=list)
    #: (indicator, clause index, clause): head matches no calling pattern.
    dead_clauses: List[Tuple[Indicator, int, Clause]] = field(
        default_factory=list
    )
    #: predicates that are called but never succeed.
    failing_predicates: List[Indicator] = field(default_factory=list)

    @property
    def is_clean(self) -> bool:
        return not (
            self.unreachable_predicates
            or self.dead_clauses
            or self.failing_predicates
        )

    def to_text(self) -> str:
        if self.is_clean:
            return "% no dead code found"
        lines = ["% dead code report"]
        for indicator in self.unreachable_predicates:
            lines.append(f"unreachable: {format_indicator(indicator)}")
        for indicator, index, clause in self.dead_clauses:
            lines.append(
                f"dead clause: {format_indicator(indicator)} "
                f"clause {index + 1}: {clause}"
            )
        for indicator in self.failing_predicates:
            lines.append(f"never succeeds: {format_indicator(indicator)}")
        return "\n".join(lines)


def clause_matches(pattern, clause: Clause) -> bool:
    """Can the clause head abstractly unify with the calling pattern?

    The dead-clause diagnostics and determinism hints of
    :mod:`repro.lint.rules` read it too.
    """
    heap = Heap()
    cells = materialize_pattern(heap, pattern)
    if not isinstance(clause.head, Struct):
        return True  # zero-arity heads always match
    shared: Dict[int, object] = {}
    for head_arg, cell in zip(clause.head.args, cells):
        head_cell = heap.encode(head_arg, shared)
        if not s_unify(heap, head_cell, cell):
            return False
    return True


def find_dead_code(program: Program, result: AnalysisResult) -> DeadCodeReport:
    """Compute the dead-code report for the analyzed entry points."""
    normalized = normalize_program(program)
    report = DeadCodeReport()
    analyzed: Set[Indicator] = set(result.predicates())
    for indicator, predicate in normalized.predicates.items():
        if indicator not in analyzed:
            report.unreachable_predicates.append(indicator)
            continue
        entries = result.table.entries_for(indicator)
        if entries and all(entry.success is None for entry in entries):
            report.failing_predicates.append(indicator)
        for index, clause in enumerate(predicate.clauses):
            if not any(
                clause_matches(entry.calling, clause) for entry in entries
            ):
                report.dead_clauses.append((indicator, index, clause))
    return report
