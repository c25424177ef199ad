"""The extension table (paper Sections 2.2 and 5).

A memo structure mapping (predicate, calling pattern) to the lubbed success
pattern found so far, with per-sweep *explored* marks.  Multiple calling
patterns are kept per predicate; the success patterns of one calling
pattern are summarized by least upper bound, so every invocation returns
deterministically (at most one success pattern), exactly as the paper
prescribes.

Each entry also records its *readers*: the entries whose runs read its
summary.  An update that changes an entry marks those readers *dirty*,
and the fixpoint driver sweeps until no explored entry is dirty (see
:mod:`repro.analysis.driver`).  The same relation, forwards, is each
entry's *reads*: the (predicate, calling pattern) of every entry its
last run read.  A planted summary that carries its reads is *trusted*
when the closure of its reads is planted and trusted too: it is
answered from the table and never runs.  The ``changes`` counter increases
whenever an update actually changes the table; the baselines, which
keep the paper's whole passes, iterate until one pass leaves it
untouched.

Resource governance (see :mod:`repro.robust`): a table may carry a
``budget`` (its growth charges the ``table`` dimension) and a
``fault_plan`` (every ``updateET`` fires the ``table`` site).  Each entry
carries a ``status`` — ``exact`` normally, ``degraded`` once the entry
has been widened to ⊤ because its exploration was interrupted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple,
)

from ..prolog.terms import Indicator, format_indicator
from ..robust import widen_entry_to_top, worse_status
from .patterns import Pattern, pattern_lub, share_pairs


@dataclass(eq=False)
class TableEntry:
    """State of one calling pattern (hashed by identity)."""

    calling: Pattern
    success: Optional[Pattern] = None
    #: argument-position pairs that may share on success (union over all
    #: summarized success patterns).
    may_share: FrozenSet[Tuple[int, int]] = frozenset()
    #: sweep in which this pattern was last explored (0 = never).
    explored_iteration: int = 0
    #: True when the entry must run again: a summary its last run read
    #: has changed since, or it was planted and has not run yet.
    dirty: bool = False
    #: Entries whose runs read this summary since it last changed.
    readers: Set[TableEntry] = field(default_factory=set)
    #: (predicate, calling pattern) of each entry the last run of this
    #: one read; reset when its frame opens.
    reads: Set[Tuple[Indicator, Pattern]] = field(default_factory=set)
    #: Planted with its reads and not reached yet: a call takes the
    #: summary from the table without running it (see ``trust``).
    trusted: bool = False
    #: how many times updateET changed this entry (diagnostics).
    updates: int = 0
    #: "exact" normally; "degraded" once widened to ⊤ after an
    #: interrupted exploration (see repro.robust).
    status: str = "exact"


class ExtensionTable:
    """The global memo table of the analysis."""

    def __init__(self, budget=None, fault_plan=None) -> None:
        self._entries: Dict[Indicator, Dict[Pattern, TableEntry]] = {}
        self.changes = 0
        #: Plain counters, reported as ``table.*`` metrics by the
        #: driver's record_metrics; a miss is a lookup that is not a hit.
        self.lookups = 0
        self.hits = 0
        self.created = 0
        self.updates = 0
        #: Lubs that strictly grew an existing success summary (the
        #: widening steps of the fixpoint); state dumps show it too.
        self.widenings = 0
        self.size = 0
        #: Optional repro.robust.Budget charged for table growth.
        self.budget = budget
        #: Optional repro.robust.FaultPlan fired on every update.
        self.fault_plan = fault_plan

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
            self.created += 1
        return entry

    def get(self, indicator: Indicator, calling: Pattern) -> Optional[TableEntry]:
        """The entry for a calling pattern, if any, counting no lookup."""
        by_pattern = self._entries.get(indicator)
        return by_pattern.get(calling) if by_pattern is not None else None

    def find(self, indicator: Indicator, calling: Pattern) -> Optional[TableEntry]:
        self.lookups += 1
        by_pattern = self._entries.get(indicator)
        entry = by_pattern.get(calling) if by_pattern is not None else None
        if entry is not None:
            self.hits += 1
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
        express (sharing through summarized list elements).  A success
        equal to the stored one (most updates) costs no lub, and its
        share pairs are the stored pattern's, computed once.  A change
        marks every reader of the entry dirty.
        """
        if self.fault_plan is not None:
            self.fault_plan.fire("table")
        self.updates += 1
        entry = self.entry(indicator, calling)
        stored = entry.success
        if stored is None:
            merged = success
        elif success == stored:
            merged = success = stored
        else:
            merged = pattern_lub(stored, success)
        new_share = entry.may_share | share_pairs(success) | extra_share
        success_changed = merged != stored
        changed = success_changed or new_share != entry.may_share
        if changed:
            # A lub that strictly grew an existing summary is a widening
            # step of the fixpoint (table.widenings); first successes and
            # share-only growth are not.
            if stored is not None and success_changed:
                self.widenings += 1
            entry.success = merged
            entry.may_share = new_share
            entry.updates += 1
            self.changes += 1
            for reader in entry.readers:
                reader.dirty = True
            entry.readers.clear()
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
        self.disarm()
        for indicator, entry in self.all_entries():
            widen_entry_to_top(indicator, entry, status)

    def merge(self, other: "ExtensionTable") -> None:
        """Lub ``other``'s entries into this table (used to combine the
        isolated per-entry-spec tables into the final result table).

        Successes lub, may-share and reads union, statuses take the
        worse value; the diagnostics counters accumulate.  Soundness: the
        lub of two sound summaries over-approximates both.
        """
        for indicator, entry in other.all_entries():
            mine = self.entry(indicator, entry.calling)
            if entry.success is not None:
                if mine.success is None:
                    mine.success = entry.success
                else:
                    mine.success = pattern_lub(mine.success, entry.success)
            mine.may_share = mine.may_share | entry.may_share
            mine.reads |= entry.reads
            mine.updates += entry.updates
            mine.status = worse_status(mine.status, entry.status)
        self.changes += other.changes
        self.lookups += other.lookups
        self.hits += other.hits
        self.updates += other.updates
        self.widenings += other.widenings

    # ------------------------------------------------------------------
    # Planting known summaries (cache seeds, resumed checkpoints) and
    # dropping the planted ones no sweep reached.

    def seed(
        self,
        indicator: Indicator,
        calling: Pattern,
        success: Optional[Pattern],
        may_share: FrozenSet[Tuple[int, int]] = frozenset(),
        reads: Optional[Iterable[Tuple[Indicator, Pattern]]] = None,
    ) -> TableEntry:
        """Install a known summary as an ordinary, not yet explored,
        dirty entry: the first call that reaches it runs it once.  A
        summary planted with its ``reads`` may instead be trusted once
        every summary is planted (:meth:`trust`).

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
        entry.dirty = True
        entry.trusted = reads is not None
        entry.reads = set(reads) if reads is not None else set()
        return entry

    def trust(self) -> int:
        """Settle which planted summaries are trusted; returns how many.

        A summary planted with its reads stays trusted only while every
        entry its reads name is planted and trusted as well, so trust is
        withdrawn from each summary whose read closure reaches a missing
        or untrusted entry, which then runs once like any other seed.
        The trusted ones are clean: a call answers them from the table.
        """
        candidates = [entry for _, entry in self.all_entries() if entry.trusted]
        withdrawn = True
        while withdrawn:
            withdrawn = False
            for entry in candidates:
                if entry.trusted and not all(
                    target is not None and target.trusted
                    for target in (self.get(*read) for read in entry.reads)
                ):
                    entry.trusted = False
                    withdrawn = True
        trusted = [entry for entry in candidates if entry.trusted]
        for entry in trusted:
            entry.dirty = False
        return len(trusted)

    def drop_unexplored(self) -> int:
        """Drop every entry no sweep explored or adopted; returns how
        many were dropped.  Every other entry is created by an
        exploration, so this drops exactly the planted summaries the
        program no longer reaches."""
        dropped = 0
        for indicator in list(self._entries):
            by_pattern = self._entries[indicator]
            for calling in list(by_pattern):
                if not by_pattern[calling].explored_iteration:
                    del by_pattern[calling]
                    dropped += 1
            if not by_pattern:
                del self._entries[indicator]
        self.size -= dropped
        return dropped

    def worst_status(self, indicator: Indicator) -> str:
        """The most damaged status among ``indicator``'s entries
        (``"exact"`` when the predicate has no entries)."""
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
