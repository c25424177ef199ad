"""Analysis results: modes, types and aliasing per predicate.

:class:`AnalysisResult` wraps the final extension table with the
derived dataflow facts a compiler client wants:

* per argument: the lubbed *call type* (what the argument looks like at
  every call) and *success type* (after success), plus a conventional
  mode symbol: ``+`` definitely instantiated at call, ``-`` definitely a
  free variable, ``?`` unknown, with ``g`` appended when ground;
* per predicate: possible aliasing between argument positions on call and
  on success (must-aliasing from patterns, may-aliasing accumulated over
  lubbed success patterns);
* whether any call of the predicate can succeed at all (empty success =
  the analysis proved failure).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..domain.lattice import (
    EMPTY_T,
    Tree,
    tree_is_ground,
    tree_leq,
    tree_lub,
    tree_to_text,
    GROUND_T,
    NV_T,
    VAR_T,
)
from ..prolog.terms import Indicator, format_indicator
from ..wam.compile import CompiledProgram
from .patterns import Pattern, pattern_to_trees, share_pairs
from .table import ExtensionTable, TableEntry


@dataclass
class ArgumentInfo:
    """Dataflow facts for one argument position (0-based)."""

    position: int
    call_type: Tree
    success_type: Optional[Tree]

    @property
    def mode(self) -> str:
        """Conventional mode symbol: ``+``/``-``/``?`` (+``g`` if ground)."""
        if tree_leq(self.call_type, VAR_T):
            return "-"
        if tree_is_ground(self.call_type):
            return "+g"
        if tree_leq(self.call_type, NV_T):
            return "+"
        return "?"

    @property
    def call_class(self) -> Optional[str]:
        """``'ground'``, ``'nonvar'``, ``'var'`` or None: the
        instantiation every call guarantees.  The optimizer's get
        specialization and the first-argument determinacy fact read it."""
        if tree_leq(self.call_type, GROUND_T):
            return "ground"
        if tree_leq(self.call_type, VAR_T):
            return "var"
        if tree_leq(self.call_type, NV_T):
            return "nonvar"
        return None

    def to_text(self) -> str:
        success = (
            tree_to_text(self.success_type)
            if self.success_type is not None
            else "fail"
        )
        return f"{self.mode}:{tree_to_text(self.call_type)}->{success}"


@dataclass
class PredicateInfo:
    """Aggregated facts for one predicate."""

    indicator: Indicator
    calling_patterns: List[Pattern]
    success_patterns: List[Optional[Pattern]]
    arguments: List[ArgumentInfo]
    call_aliasing: FrozenSet[Tuple[int, int]]
    success_aliasing: FrozenSet[Tuple[int, int]]
    #: "exact" normally; "degraded"/"failed" when any of this predicate's
    #: table entries was widened to ⊤ after an interrupted exploration.
    status: str = "exact"

    @property
    def can_succeed(self) -> bool:
        return any(pattern is not None for pattern in self.success_patterns)

    def to_text(self) -> str:
        name = format_indicator(self.indicator)
        if not self.arguments:
            status = "succeeds" if self.can_succeed else "fails"
            if self.status != "exact":
                status += f" ({self.status})"
            return f"{name}: {status}"
        parts = ", ".join(arg.to_text() for arg in self.arguments)
        line = f"{name}({parts})"
        notes = []
        if self.status != "exact":
            notes.append(self.status)
        if self.call_aliasing:
            pairs = ",".join(f"{i + 1}~{j + 1}" for i, j in sorted(self.call_aliasing))
            notes.append(f"call-alias {pairs}")
        if self.success_aliasing:
            pairs = ",".join(
                f"{i + 1}~{j + 1}" for i, j in sorted(self.success_aliasing)
            )
            notes.append(f"may-alias {pairs}")
        if not self.can_succeed:
            notes.append("never succeeds")
        if notes:
            line += "   % " + "; ".join(notes)
        return line


@dataclass
class AnalysisResult:
    """The outcome of one fixpoint analysis."""

    table: ExtensionTable
    compiled: CompiledProgram
    entries: Sequence[object]
    iterations: int
    instructions_executed: int
    seconds: float
    depth: int
    #: One repro.analysis.driver.EntryReport per entry spec, recording
    #: whether the spec's analysis was exact, degraded or failed.
    entry_reports: Sequence[object] = ()
    _info: Dict[Indicator, PredicateInfo] = field(default_factory=dict)

    # ------------------------------------------------------------------

    @property
    def status(self) -> str:
        """Overall status: the worst status among the entry specs
        (``"exact"`` when every spec reached its fixpoint untripped)."""
        from ..robust import worse_status

        status = "exact"
        for report in self.entry_reports:
            status = worse_status(status, report.status)
        return status

    def predicate_status(self, indicator: Indicator) -> str:
        """Per-predicate status: worst among the predicate's table
        entries (``"exact"`` for predicates the table never saw)."""
        return self.table.worst_status(indicator)

    def degraded_predicates(self) -> List[Indicator]:
        """Predicates whose facts were widened to ⊤ (non-exact)."""
        return [
            indicator
            for indicator in self.predicates()
            if self.table.worst_status(indicator) != "exact"
        ]

    def predicates(self) -> List[Indicator]:
        """Analyzed predicates, excluding synthetic query stubs."""
        return [
            indicator
            for indicator in self.table.predicates()
            if not indicator[0].startswith("$query")
        ]

    def predicate(self, indicator: Indicator) -> Optional[PredicateInfo]:
        """Aggregated dataflow facts for one predicate (cached)."""
        cached = self._info.get(indicator)
        if cached is not None:
            return cached
        entries = self.table.entries_for(indicator)
        if not entries:
            return None
        info = self._aggregate(indicator, entries)
        self._info[indicator] = info
        return info

    def _aggregate(
        self, indicator: Indicator, entries: List[TableEntry]
    ) -> PredicateInfo:
        arity = indicator[1]
        call_types: List[Optional[Tree]] = [None] * arity
        success_types: List[Optional[Tree]] = [None] * arity
        call_alias: set = set()
        success_alias: set = set()
        for entry in entries:
            call_alias |= share_pairs(entry.calling)
            for position, tree in enumerate(pattern_to_trees(entry.calling)):
                existing = call_types[position]
                call_types[position] = (
                    tree if existing is None else tree_lub(existing, tree)
                )
            if entry.success is None:
                continue
            success_alias |= entry.may_share
            for position, tree in enumerate(pattern_to_trees(entry.success)):
                existing = success_types[position]
                success_types[position] = (
                    tree if existing is None else tree_lub(existing, tree)
                )
        arguments = [
            ArgumentInfo(
                position=index,
                call_type=call_types[index] if call_types[index] is not None else EMPTY_T,
                success_type=success_types[index],
            )
            for index in range(arity)
        ]
        from ..robust import worse_status

        status = "exact"
        for entry in entries:
            status = worse_status(status, entry.status)
        return PredicateInfo(
            indicator=indicator,
            calling_patterns=[entry.calling for entry in entries],
            success_patterns=[entry.success for entry in entries],
            arguments=arguments,
            call_aliasing=frozenset(call_alias),
            success_aliasing=frozenset(success_alias),
            status=status,
        )

    # ------------------------------------------------------------------

    def modes(self, indicator: Indicator) -> List[str]:
        """Mode symbols per argument, e.g. ``['+g', '-']``."""
        info = self.predicate(indicator)
        if info is None:
            return []
        return [argument.mode for argument in info.arguments]

    def call_types(self, indicator: Indicator) -> List[Tree]:
        info = self.predicate(indicator)
        if info is None:
            return []
        return [argument.call_type for argument in info.arguments]

    def success_types(self, indicator: Indicator) -> List[Optional[Tree]]:
        info = self.predicate(indicator)
        if info is None:
            return []
        return [argument.success_type for argument in info.arguments]

    def to_text(self) -> str:
        """The full report: header, one line per predicate, the table."""
        lines = [
            f"% analysis: {self.iterations} iteration(s), "
            f"{self.instructions_executed} abstract WAM instructions, "
            f"{self.seconds * 1000.0:.2f} ms, depth {self.depth}",
        ]
        if self.status != "exact":
            degraded = [
                f"{report.spec} {report.status}"
                + (f" ({report.reason})" if report.reason else "")
                for report in self.entry_reports
                if report.status != "exact"
            ]
            lines.append(
                "% status: "
                + self.status
                + " — precision lost for: "
                + "; ".join(degraded)
            )
        for indicator in sorted(self.predicates()):
            info = self.predicate(indicator)
            assert info is not None
            lines.append(info.to_text())
        return "\n".join(lines)

    def table_text(self) -> str:
        """The raw (calling, success) pattern pairs."""
        return self.table.to_text()

    def to_dict(self) -> dict:
        """A JSON-serializable view of the analysis (for tooling)."""
        predicates = {}
        for indicator in sorted(self.predicates()):
            info = self.predicate(indicator)
            assert info is not None
            predicates[format_indicator(indicator)] = {
                "modes": [argument.mode for argument in info.arguments],
                "call_types": [
                    tree_to_text(argument.call_type)
                    for argument in info.arguments
                ],
                "success_types": [
                    tree_to_text(argument.success_type)
                    if argument.success_type is not None
                    else None
                    for argument in info.arguments
                ],
                "can_succeed": info.can_succeed,
                "call_aliasing": sorted(
                    [list(pair) for pair in info.call_aliasing]
                ),
                "may_alias": sorted(
                    [list(pair) for pair in info.success_aliasing]
                ),
                "calling_patterns": [
                    str(pattern) for pattern in info.calling_patterns
                ],
                "status": info.status,
            }
        return {
            "iterations": self.iterations,
            "instructions_executed": self.instructions_executed,
            "seconds": self.seconds,
            "depth": self.depth,
            "status": self.status,
            "entry_reports": [
                report.to_dict() for report in self.entry_reports
            ],
            "predicates": predicates,
        }

    def stable_dict(self) -> dict:
        """:meth:`to_dict` minus everything that varies between two runs
        that proved the same dataflow facts: timing, sweep and
        instruction counts, and the raw calling-pattern list.  The last
        one is exploration *history*, not a fact — a run keeps every
        pattern some sweep explored, transient ones recorded before the
        fixpoint converged included (e.g. a call seen only while a
        callee's success was still ⊥-ish), while a run from seeds or a
        resumed checkpoint starts from the planted values, so it meets
        fewer of them, and drops the planted ones it never reached.  The
        per-argument lattice aggregates (modes, call and success types,
        aliasing, can_succeed) coincide either way, by monotonicity:
        every transient pattern and its recorded success are ⊑ some
        surviving final entry, so they never move a lub.  This is the
        form the serve cache stores and compares."""
        data = self.to_dict()
        del data["seconds"]
        del data["iterations"]
        del data["instructions_executed"]
        for report in data["entry_reports"]:
            del report["iterations"]
        for info in data["predicates"].values():
            del info["calling_patterns"]
        return data
