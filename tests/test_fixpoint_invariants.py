"""Invariants of the dependency-directed fixpoint, checked on the golden
cases (the 11 Table 1 programs and both examples) and on the fuzz-slice
programs (``repro.fuzz.grammar.generate_program``, seeds 0-39):

* every ``updateET`` that changes an entry only grows it;
* the result is a post-fixpoint: planted back as seeds, its own entries
  take exactly one sweep, change nothing and give the same result;
* a seeded run runs every planted entry it keeps at least once, so a
  seed is confirmed, never trusted.
"""

from __future__ import annotations

import pytest

from repro.analysis import driver
from repro.analysis.driver import Analyzer
from repro.analysis.machine import AbstractMachine
from repro.analysis.patterns import pattern_lub
from repro.analysis.table import ExtensionTable
from repro.fuzz.grammar import generate_program

from .test_golden import CASES, FUZZ_SLICE_SEEDS


def _cases():
    cases = [(name, text, entries) for name, text, entries in CASES]
    for seed in FUZZ_SLICE_SEEDS:
        program = generate_program(seed)
        cases.append((f"fuzz_{seed}", program.source, program.entries))
    return cases


ALL_CASES = _cases()


class GrowthCheckingTable(ExtensionTable):
    """A table that checks every changing update grows its entry and
    counts the changing updates."""

    changed = 0

    def update(self, indicator, calling, success, extra_share=frozenset()):
        entry = self.entry(indicator, calling)
        stored, stored_share = entry.success, entry.may_share
        changed = super().update(indicator, calling, success, extra_share)
        if changed:
            GrowthCheckingTable.changed += 1
            assert stored is None or pattern_lub(stored, entry.success) == \
                entry.success, (indicator, calling, stored, entry.success)
            assert stored_share <= entry.may_share
        return changed


class RunRecordingMachine(AbstractMachine):
    """A machine that records every (predicate, calling pattern) whose
    clauses it started to run."""

    ran = set()

    def _enter_clause(self, frame):
        if frame.clause_index == 0:
            RunRecordingMachine.ran.add((frame.indicator, frame.calling))
        super()._enter_clause(frame)


@pytest.fixture
def checked(monkeypatch):
    """Analyzers built while this fixture is active use the checking
    table and the recording machine."""
    monkeypatch.setattr(driver, "ExtensionTable", GrowthCheckingTable)
    monkeypatch.setattr(driver, "AbstractMachine", RunRecordingMachine)
    GrowthCheckingTable.changed = 0
    RunRecordingMachine.ran = set()


def _own_seeds(result):
    return [
        (indicator, entry.calling, entry.success, entry.may_share)
        for indicator, entry in result.table.all_entries()
    ]


@pytest.mark.parametrize(
    "name,text,entries", ALL_CASES, ids=[case[0] for case in ALL_CASES]
)
def test_updates_only_grow_entries(name, text, entries, checked):
    result = Analyzer(text).analyze(entries)
    assert result.status == "exact"
    assert GrowthCheckingTable.changed > 0


@pytest.mark.parametrize(
    "name,text,entries", ALL_CASES, ids=[case[0] for case in ALL_CASES]
)
def test_result_is_a_post_fixpoint(name, text, entries, checked):
    cold = Analyzer(text).analyze(entries)
    seeds = _own_seeds(cold)
    GrowthCheckingTable.changed = 0
    RunRecordingMachine.ran = set()
    again = Analyzer(text).analyze(entries, seeds=seeds)
    assert [report.iterations for report in again.entry_reports] == \
        [1] * len(again.entry_reports)
    assert GrowthCheckingTable.changed == 0
    assert again.stable_dict() == cold.stable_dict()
    # Every planted entry the result keeps ran in this run.
    planted = {(indicator, calling) for indicator, calling, _, _ in seeds}
    kept = {
        (indicator, entry.calling)
        for indicator, entry in again.table.all_entries()
    }
    assert kept <= planted
    assert kept <= RunRecordingMachine.ran


@pytest.mark.parametrize(
    "name,text,entries", ALL_CASES, ids=[case[0] for case in ALL_CASES]
)
def test_seeds_below_the_fixpoint_run_and_rise(name, text, entries, checked):
    # The result's calling patterns planted with no success at all: every
    # seed sits below the fixpoint, so each kept one must run and rise.
    cold = Analyzer(text).analyze(entries)
    seeds = [
        (indicator, calling, None, frozenset())
        for indicator, calling, _, _ in _own_seeds(cold)
    ]
    RunRecordingMachine.ran = set()
    low = Analyzer(text).analyze(entries, seeds=seeds)
    assert low.stable_dict() == cold.stable_dict()
    planted = {(indicator, calling) for indicator, calling, _, _ in seeds}
    kept = {
        (indicator, entry.calling)
        for indicator, entry in low.table.all_entries()
    }
    assert kept & planted <= RunRecordingMachine.ran
