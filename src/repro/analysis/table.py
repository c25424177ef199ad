"""The extension table (paper Sections 2.2 and 5).

A memo structure mapping (predicate, calling pattern) to the lubbed success
pattern found so far, with per-iteration *explored* marks.  Multiple calling
patterns are kept per predicate; the success patterns of one calling
pattern are summarized by least upper bound, so every invocation returns
deterministically (at most one success pattern), exactly as the paper
prescribes.

The ``changes`` counter increases whenever an update actually changes the
table; the fixpoint driver iterates until one whole pass leaves it
untouched.

Resource governance (see :mod:`repro.robust`): a table may carry a
``budget`` (its growth charges the ``table`` dimension) and a
``fault_plan`` (every ``updateET`` fires the ``table`` site).  Each entry
carries a ``status`` — ``exact`` normally, ``degraded`` once the entry
has been widened to ⊤ because its exploration was interrupted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple

from ..prolog.terms import Indicator, format_indicator
from .patterns import Pattern, pattern_lub, share_pairs


@dataclass
class TableEntry:
    """State of one calling pattern."""

    calling: Pattern
    success: Optional[Pattern] = None
    #: argument-position pairs that may share on success (union over all
    #: summarized success patterns).
    may_share: FrozenSet[Tuple[int, int]] = frozenset()
    #: iteration in which this pattern was last explored (0 = never).
    explored_iteration: int = 0
    #: how many times updateET changed this entry (diagnostics).
    updates: int = 0
    #: "exact" normally; "degraded" once widened to ⊤ after an
    #: interrupted exploration (see repro.robust).
    status: str = "exact"


class ExtensionTable:
    """The global memo table of the analysis."""

    def __init__(self, budget=None, fault_plan=None, metrics=None) -> None:
        self._entries: Dict[Indicator, Dict[Pattern, TableEntry]] = {}
        self.changes = 0
        self.lookups = 0
        self.updates = 0
        #: Lubs that strictly grew an existing success summary (the
        #: widening steps of the fixpoint).  Kept as a plain counter —
        #: like ``changes`` — so state dumps (docs/tracing.md) can show
        #: it without a metrics registry.
        self.widenings = 0
        self.size = 0
        #: Optional repro.robust.Budget charged for table growth.
        self.budget = budget
        #: Optional repro.robust.FaultPlan fired on every update.
        self.fault_plan = fault_plan
        #: repro.obs: the hot-site counters are bound once here, so the
        #: per-lookup cost with metrics on is one attribute increment.
        #: With metrics off (the default) each site is one None check.
        if metrics is not None:
            self._m_lookups = metrics.counter("table.lookups")
            self._m_hits = metrics.counter("table.hits")
            self._m_misses = metrics.counter("table.misses")
            self._m_updates = metrics.counter("table.updates")
            self._m_widenings = metrics.counter("table.widenings")
            self._m_created = metrics.counter("table.entries.created")
        else:
            self._m_lookups = None
            self._m_hits = None
            self._m_misses = None
            self._m_updates = None
            self._m_widenings = None
            self._m_created = None

    def disarm(self) -> None:
        """Drop the governor hooks (used before sound widening, which
        must never trip a budget or fire a fault itself)."""
        self.budget = None
        self.fault_plan = None

    # ------------------------------------------------------------------

    def entry(self, indicator: Indicator, calling: Pattern) -> TableEntry:
        """The entry for a calling pattern, created on first use."""
        by_pattern = self._entries.setdefault(indicator, {})
        entry = by_pattern.get(calling)
        if entry is None:
            if self.budget is not None:
                self.budget.charge_table(self.size + 1)
            entry = TableEntry(calling)
            by_pattern[calling] = entry
            self.size += 1
            self.changes += 1
            if self._m_created is not None:
                self._m_created.inc()
        return entry

    def find(self, indicator: Indicator, calling: Pattern) -> Optional[TableEntry]:
        self.lookups += 1
        by_pattern = self._entries.get(indicator)
        entry = by_pattern.get(calling) if by_pattern is not None else None
        if self._m_lookups is not None:
            self._m_lookups.inc()
            (self._m_misses if entry is None else self._m_hits).inc()
        return entry

    def update(
        self,
        indicator: Indicator,
        calling: Pattern,
        success: Pattern,
        extra_share=frozenset(),
    ) -> bool:
        """``updateET``: lub a new success pattern in; True if it changed.

        ``extra_share`` carries may-share pairs the pattern itself cannot
        express (sharing through summarized list elements).
        """
        if self.fault_plan is not None:
            self.fault_plan.fire("table")
        self.updates += 1
        if self._m_updates is not None:
            self._m_updates.inc()
        entry = self.entry(indicator, calling)
        new_share = entry.may_share | share_pairs(success) | extra_share
        if entry.success is None:
            merged = success
        else:
            merged = pattern_lub(entry.success, success)
        success_changed = merged != entry.success
        changed = success_changed or new_share != entry.may_share
        if changed:
            # A lub that strictly grew an existing summary is a widening
            # step of the fixpoint (table.widenings); first successes and
            # share-only growth are not.
            if entry.success is not None and success_changed:
                self.widenings += 1
                if self._m_widenings is not None:
                    self._m_widenings.inc()
            entry.success = merged
            entry.may_share = new_share
            entry.updates += 1
            self.changes += 1
        return changed

    # ------------------------------------------------------------------
    # Robustness: sound widening and cross-table merging.

    def widen_to_top(self, status: str = "degraded") -> None:
        """Widen every entry to ⊤ and stamp ``status`` (sound degradation).

        Called after an interrupted fixpoint: any recorded summary may be
        an under-approximation that further passes would still have
        grown, so the only sound summary left per entry is "may succeed
        with anything, aliasing anything".  Bypasses the governor hooks —
        degrading must never itself trip a budget.
        """
        from ..robust import widen_entry_to_top

        self.disarm()
        for indicator, entry in self.all_entries():
            widen_entry_to_top(indicator, entry, status)

    def merge(self, other: "ExtensionTable") -> None:
        """Lub ``other``'s entries into this table (used to combine the
        isolated per-entry-spec tables into the final result table).

        Successes lub, may-share unions, statuses take the worse value;
        the diagnostics counters accumulate.  Soundness: the lub of two
        sound summaries over-approximates both.
        """
        from ..robust import worse_status

        for indicator, entry in other.all_entries():
            mine = self.entry(indicator, entry.calling)
            if entry.success is not None:
                if mine.success is None:
                    mine.success = entry.success
                else:
                    mine.success = pattern_lub(mine.success, entry.success)
            mine.may_share = mine.may_share | entry.may_share
            mine.updates += entry.updates
            mine.status = worse_status(mine.status, entry.status)
        self.changes += other.changes
        self.lookups += other.lookups
        self.updates += other.updates
        self.widenings += other.widenings

    # ------------------------------------------------------------------
    # Planting known summaries (cache seeds, resumed checkpoints) and
    # dropping what the final pass no longer reaches.

    def seed(
        self,
        indicator: Indicator,
        calling: Pattern,
        success: Optional[Pattern],
        may_share: FrozenSet[Tuple[int, int]] = frozenset(),
    ) -> TableEntry:
        """Install a known summary as an ordinary, not yet explored entry.

        Seeding bypasses the governor hooks: reusing a cached result
        must never trip a budget.  The ``changes`` counter still
        advances, so convergence snapshots taken *after* seeding see a
        consistent baseline.
        """
        by_pattern = self._entries.setdefault(indicator, {})
        entry = by_pattern.get(calling)
        if entry is None:
            entry = TableEntry(calling)
            by_pattern[calling] = entry
            self.size += 1
            self.changes += 1
        entry.success = success
        entry.may_share = may_share
        entry.status = "exact"
        return entry

    def drop_unexplored(self, since: int) -> int:
        """Drop every entry last explored before pass ``since``; returns
        how many were dropped.

        A pass explores each entry it reaches exactly once, so after a
        run's final pass this keeps exactly that pass's reach: planted
        summaries the program no longer reaches (and transient patterns
        of earlier passes) go.  ``since=1`` drops only the planted
        entries no pass ever reached."""
        dropped = 0
        for indicator in list(self._entries):
            by_pattern = self._entries[indicator]
            for calling in list(by_pattern):
                if by_pattern[calling].explored_iteration < since:
                    del by_pattern[calling]
                    dropped += 1
            if not by_pattern:
                del self._entries[indicator]
        self.size -= dropped
        return dropped

    def worst_status(self, indicator: Indicator) -> str:
        """The most damaged status among ``indicator``'s entries
        (``"exact"`` when the predicate has no entries)."""
        from ..robust import worse_status

        status = "exact"
        for entry in self.entries_for(indicator):
            status = worse_status(status, entry.status)
        return status

    # ------------------------------------------------------------------

    def predicates(self) -> List[Indicator]:
        return list(self._entries.keys())

    def entries_for(self, indicator: Indicator) -> List[TableEntry]:
        return list(self._entries.get(indicator, {}).values())

    def all_entries(self) -> Iterator[Tuple[Indicator, TableEntry]]:
        for indicator, by_pattern in self._entries.items():
            for entry in by_pattern.values():
                yield indicator, entry

    def state_dump(self, max_entries: Optional[int] = None) -> dict:
        """A JSON-safe snapshot of the table for trace state dumps.

        One dict per entry (key, calling, success, status, updates)
        plus the aggregate counters; ``truncated`` appears when
        ``max_entries`` cut the listing.  Used by the ``--trace-states``
        time-travel view (docs/tracing.md) — never on the default path.
        """
        entries = []
        truncated = 0
        for indicator, entry in self.all_entries():
            if max_entries is not None and len(entries) >= max_entries:
                truncated += 1
                continue
            entries.append({
                "key": f"{format_indicator(indicator)}{entry.calling}",
                "calling": str(entry.calling),
                "success": (
                    str(entry.success) if entry.success is not None else None
                ),
                "status": entry.status,
                "updates": entry.updates,
            })
        dump = {
            "entries": entries,
            "size": self.size,
            "changes": self.changes,
            "widenings": self.widenings,
        }
        if truncated:
            dump["truncated"] = truncated
        return dump

    def __len__(self) -> int:
        return sum(len(v) for v in self._entries.values())

    def to_text(self) -> str:
        """A human-readable dump, one line per (calling, success) pair."""
        lines: List[str] = []
        for indicator, entry in self.all_entries():
            name = format_indicator(indicator)
            success = str(entry.success) if entry.success is not None else "FAIL"
            lines.append(f"{name}{entry.calling} -> {success}")
        return "\n".join(lines)
