"""End-to-end chaos: crash recovery, store abuse, the campaign itself.

The acceptance contract: whatever is killed, corrupted, or truncated,
the service restarts/continues successfully, damaged cache entries are
quarantined (a performance cost, never a soundness one), and every
served result equals a from-scratch ``analyze()`` of the same text.
"""

import json
import os

import pytest

from repro.analysis.driver import Analyzer
from repro.prolog.program import Program
from repro.robust import FaultPlan
from repro.serve import (
    HIT,
    AnalysisService,
    ServiceConfig,
    Supervisor,
    SupervisorConfig,
)

NREV = """
nrev([], []).
nrev([H|T], R) :- nrev(T, RT), append(RT, [H], R).
append([], L, L).
append([H|T], L, [H|R]) :- append(T, L, R).
"""

QSORT = """
qsort([], R, R).
qsort([X|L], R, R0) :-
    partition(L, X, L1, L2),
    qsort(L2, R1, R0),
    qsort(L1, R, [X|R1]).
partition([], _, [], []).
partition([X|L], Y, [X|L1], L2) :- X =< Y, !, partition(L, Y, L1, L2).
partition([X|L], Y, L1, [X|L2]) :- partition(L, Y, L1, L2).
"""

PROGRAMS = [
    ("nrev", NREV, "nrev(glist, var)"),
    ("qsort", QSORT, "qsort(glist, var, g)"),
]


def _scratch(text, entry):
    return Analyzer(Program.from_text(text)).analyze([entry]).stable_dict()


def _supervisor(store_dir, fault_plan=None):
    return Supervisor(
        ServiceConfig(store_dir=store_dir, journal=True),
        SupervisorConfig(max_retries=2, backoff_base=0.01, grace=0.2),
        fault_plan=fault_plan,
    )


# ----------------------------------------------------------------------
# Satellite: crash recovery property — kill a worker mid-analysis,
# restart the service on the same store directory, warm-start results
# must equal from-scratch analysis.


@pytest.mark.parametrize("name,text,entry", PROGRAMS)
def test_kill_mid_analysis_then_warm_restart_equals_scratch(
    tmp_path, name, text, entry
):
    store = str(tmp_path / "store")
    request = {"op": "analyze", "text": text, "entries": [entry]}
    expected = _scratch(text, entry)
    # First service: the worker is SIGKILLed mid-analysis (chaos fires
    # on receipt of the very first request), retried on a fresh worker.
    first = _supervisor(store, fault_plan=FaultPlan(kill_worker_at_request=1))
    try:
        response = first.handle(dict(request))
        assert response["ok"] and response["result"] == expected
        assert first.stats()["crashes_survived"] == 1
    finally:
        first.close()
    # Second service, same store directory: must start (journal replay,
    # quarantine — not a crash) and answer warm with the exact result.
    second = _supervisor(store)
    try:
        warm = second.handle(dict(request))
    finally:
        second.close()
    assert warm["ok"] and warm["result"] == expected
    assert warm["status"] == "exact"
    assert warm["cache"]["outcome"] == HIT


def test_kill_exhausting_retries_leaves_store_consistent(tmp_path):
    """Even when the crash wins (retries exhausted), the store left
    behind yields only correct answers."""
    store = str(tmp_path / "store")
    request = {"op": "analyze", "text": NREV, "entries": ["nrev(glist, var)"]}
    first = Supervisor(
        ServiceConfig(store_dir=store, journal=True),
        SupervisorConfig(max_retries=0, backoff_base=0.01),
        fault_plan=FaultPlan(kill_worker_at_request=1),
    )
    try:
        failed = first.handle(dict(request))
        assert failed["ok"] is False and failed["retriable"] is True
    finally:
        first.close()
    second = _supervisor(store)
    try:
        response = second.handle(dict(request))
    finally:
        second.close()
    assert response["ok"]
    assert response["result"] == _scratch(NREV, "nrev(glist, var)")


# ----------------------------------------------------------------------
# Acceptance: store recovery — truncated journal + corrupt entry file.


def test_truncated_journal_and_corrupt_entry_recover(tmp_path):
    store = str(tmp_path / "store")
    request = {"op": "analyze", "text": NREV, "entries": ["nrev(glist, var)"]}
    expected = _scratch(NREV, "nrev(glist, var)")
    service = AnalysisService(ServiceConfig(store_dir=store, journal=True))
    assert service.handle(dict(request))["ok"]
    service.store.disk.close()
    # Corrupt one entry file...
    names = [n for n in os.listdir(store) if n.endswith(".json")]
    assert names
    victim = os.path.join(store, sorted(names)[0])
    with open(victim, "rb") as handle:
        blob = bytearray(handle.read())
    blob[len(blob) // 2] ^= 0xFF
    with open(victim, "wb") as handle:
        handle.write(blob)
    # ...and truncate the journal mid-byte.
    journal = os.path.join(store, "journal.jsonl")
    size = os.path.getsize(journal)
    with open(journal, "ab") as handle:
        handle.truncate(max(1, size // 2))
    # Startup must succeed; requests must be correct; the damaged entry
    # is either healed (journal) or quarantined (checksum), never served.
    revived = AnalysisService(ServiceConfig(store_dir=store, journal=True))
    response = revived.handle(dict(request))
    assert response["ok"] and response["result"] == expected
    assert response["status"] == "exact"
    disk = revived.store.disk.stats()
    assert disk["journal_replayed"] + disk["quarantined"] >= 1


def test_quarantined_entry_costs_performance_not_soundness(tmp_path):
    """Corrupting every entry file degrades the cache to cold misses —
    the responses stay exactly right."""
    store = str(tmp_path / "store")
    request = {"op": "analyze", "text": QSORT, "entries": ["qsort(glist, var, g)"]}
    expected = _scratch(QSORT, "qsort(glist, var, g)")
    service = AnalysisService(ServiceConfig(store_dir=store))  # no journal
    assert service.handle(dict(request))["ok"]
    for name in os.listdir(store):
        if name.endswith(".json"):
            with open(os.path.join(store, name), "w") as handle:
                handle.write("{half a rec")
    revived = AnalysisService(ServiceConfig(store_dir=store))
    response = revived.handle(dict(request))
    assert response["ok"] and response["result"] == expected
    assert response["cache"]["outcome"] != HIT  # nothing corrupt served
    assert revived.store.disk.quarantined >= 1


# ----------------------------------------------------------------------
# The campaign, scaled down: every chaos mode in one deterministic run.


def test_chaos_campaign_small():
    from repro.bench.chaos import run

    document = run(
        requests=24, kill_every=7, corrupt_every=9,
        request_timeout=30.0, delay_index=11,
    )
    assert document["requests_served"] == 24
    assert document["kills_survived"] == document["kills_injected"] == 3
    assert document["timeouts"] == 1
    assert document["structured_errors"] == 1  # the timeout; kills retried
    assert document["exact_responses"] == 23
    assert document["store_corruptions"] >= 1
    assert document["latency"]["isolated"]["p50_ms"] > 0
    assert document["latency"]["in_process"]["p50_ms"] > 0
