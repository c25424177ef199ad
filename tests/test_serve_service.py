"""The analysis service (repro.serve.service) and its seeded runs.

The contract under test everywhere: whatever the cache state, a served
result equals a from-scratch ``analyze()`` (compared via
``stable_dict``), and a full-result hit answers without running any
fixpoint at all.
"""

import io
import json

import pytest

from repro.analysis.driver import Analyzer, parse_entry_spec
from repro.analysis.patterns import Pattern
from repro.bench.stress import _sound_against
from repro.domain.lattice import ANY_T
from repro.domain.sorts import AbsSort
from repro.errors import BudgetExceeded
from repro.prolog.program import Program
from repro.robust import Budget, FaultPlan
from repro.serve import (
    HIT,
    INCREMENTAL,
    MISS,
    AnalysisService,
    SCCScheduler,
    ServiceConfig,
    run_batch,
    serve_loop,
)

NREV = """
nrev([], []).
nrev([H|T], R) :- nrev(T, RT), append(RT, [H], R).
append([], L, L).
append([H|T], L, [H|R]) :- append(T, L, R).
"""

ENTRY = "nrev(glist, var)"


def _scratch(text, entries):
    return Analyzer(Program.from_text(text)).analyze(entries).stable_dict()


def _service(**kwargs):
    return AnalysisService(ServiceConfig(**kwargs))


# ----------------------------------------------------------------------
# The scheduler alone: equivalence with the plain driver.


def test_scheduler_matches_driver_without_seeds():
    analyzer = Analyzer(Program.from_text(NREV))
    result, stats = SCCScheduler(analyzer).analyze([parse_entry_spec(ENTRY)])
    assert result.stable_dict() == _scratch(NREV, [ENTRY])
    assert result.status == "exact"
    # One pass discovers, the final unchanged one verifies, and the
    # rest stabilize: together the driver's own pass count.
    assert stats.discovery_passes == stats.verification_passes == 1
    assert stats.stabilization_passes == result.iterations - 2
    plain = Analyzer(Program.from_text(NREV)).analyze([ENTRY])
    assert result.iterations == plain.iterations


def test_scheduler_matches_driver_multiple_entries():
    text = NREV + "\nmain :- nrev([1,2], R).\n"
    entries = ["main", ENTRY, "append(glist, glist, var)"]
    analyzer = Analyzer(Program.from_text(text))
    specs = [parse_entry_spec(entry) for entry in entries]
    result, _ = SCCScheduler(analyzer).analyze(specs)
    assert result.stable_dict() == _scratch(text, entries)
    # reports come back in input order, not schedule order
    assert [str(r.spec) for r in result.entry_reports] == \
        [str(spec) for spec in specs]


def test_scheduler_budget_degrades_like_driver():
    analyzer = Analyzer(
        Program.from_text(NREV), budget=Budget(max_iterations=1),
        on_budget="degrade",
    )
    result, _ = SCCScheduler(analyzer).analyze([parse_entry_spec(ENTRY)])
    assert result.status == "degraded"
    # degraded is sound: ⊤ success patterns, not missing entries
    info = result.predicate(("nrev", 2))
    assert info is not None and info.status == "degraded"


def test_scheduler_budget_raise_mode():
    analyzer = Analyzer(
        Program.from_text(NREV), budget=Budget(max_iterations=1),
        on_budget="raise",
    )
    with pytest.raises(BudgetExceeded):
        SCCScheduler(analyzer).analyze([parse_entry_spec(ENTRY)])


def test_scheduler_fault_injection_degrades():
    analyzer = Analyzer(
        Program.from_text(NREV), fault_plan=FaultPlan(at_table_update=2),
        on_budget="degrade",
    )
    result, _ = SCCScheduler(analyzer).analyze([parse_entry_spec(ENTRY)])
    assert result.status == "degraded"


def test_scheduler_wrong_seed_is_corrected():
    # A seed *below* the fixpoint (nrev "fails" on glist) is raised to
    # it: the seeded run ends at the from-scratch result.
    analyzer = Analyzer(Program.from_text(NREV))
    spec = parse_entry_spec(ENTRY)
    wrong = [(spec.indicator, spec.pattern, None, frozenset())]
    result, _ = SCCScheduler(analyzer).analyze([spec], seeds=wrong)
    assert result.stable_dict() == _scratch(NREV, [ENTRY])


def test_scheduler_seed_above_fixpoint_survives_sound():
    # A seed *above* the fixpoint (nrev succeeds with anything) is not
    # lowered: the run stays exact but coarser, never unsound.  Exact
    # answers rest on the cache's fingerprint keys and checksums.
    analyzer = Analyzer(Program.from_text(NREV))
    spec = parse_entry_spec(ENTRY)
    top = Pattern((("i", AbsSort.ANY, 0), ("i", AbsSort.ANY, 1)))
    seeded, _ = SCCScheduler(analyzer).analyze(
        [spec], seeds=[(spec.indicator, spec.pattern, top, frozenset())]
    )
    scratch = Analyzer(Program.from_text(NREV)).analyze([ENTRY])
    assert seeded.status == "exact"
    assert _sound_against(scratch, seeded) == []
    assert seeded.success_types(("nrev", 2)) == [ANY_T, ANY_T]
    assert scratch.success_types(("nrev", 2)) != [ANY_T, ANY_T]


# ----------------------------------------------------------------------
# The service: cache outcomes and equivalence.


def test_cold_warm_and_equivalence():
    service = _service()
    request = {"op": "analyze", "text": NREV, "entries": [ENTRY]}
    cold = service.handle(request)
    warm = service.handle(request)
    scratch = _scratch(NREV, [ENTRY])
    assert cold["ok"] and cold["cache"]["outcome"] == MISS
    assert warm["ok"] and warm["cache"]["outcome"] == HIT
    assert cold["result"] == scratch and warm["result"] == scratch
    # the full-result hit never ran a fixpoint
    assert "timing" not in warm


def test_incremental_edit_reuses_clean_sccs():
    service = _service()
    service.handle({"op": "analyze", "text": NREV, "entries": [ENTRY]})
    edited = NREV + "\nnrev([x], [x]).\n"
    response = service.handle(
        {"op": "analyze", "text": edited, "entries": [ENTRY]}
    )
    assert response["cache"]["outcome"] == INCREMENTAL
    assert response["cache"]["sccs_seeded"] >= 1
    assert response["result"] == _scratch(edited, [ENTRY])


def test_edit_outside_reachable_code_still_full_hits():
    service = _service()
    service.handle({"op": "analyze", "text": NREV, "entries": [ENTRY]})
    edited = NREV + "\nunrelated(x) :- unrelated(x).\n"
    response = service.handle(
        {"op": "analyze", "text": edited, "entries": [ENTRY]}
    )
    assert response["cache"]["outcome"] == HIT


def test_degraded_results_are_not_cached():
    service = _service()
    tight = {
        "op": "analyze", "text": NREV, "entries": [ENTRY],
        "budget": {"max_iterations": 1},
    }
    degraded = service.handle(tight)
    assert degraded["status"] == "degraded"
    # No *result* or SCC summary is cached — only a checkpoint snapshot
    # (a different namespace: pre-widening fixpoint progress, kept so
    # the healthy follow-up resumes instead of re-deriving).
    assert not [
        key for key in service.store._data if not key.startswith("checkpoint:")
    ]
    assert [
        key for key in service.store._data if key.startswith("checkpoint:")
    ]
    # a healthy request afterwards recomputes and gets the exact result
    healthy = service.handle({"op": "analyze", "text": NREV, "entries": [ENTRY]})
    assert healthy["status"] == "exact"
    assert healthy["cache"]["outcome"] == MISS
    assert healthy["result"] == _scratch(NREV, [ENTRY])
    # ...and the checkpoint was garbage-collected on exact completion.
    assert not [
        key for key in service.store._data if key.startswith("checkpoint:")
    ]


def test_per_request_budget_tightens_server_budget():
    service = _service(budget=Budget(max_iterations=2))
    effective = service._budget_for({"budget": {"max_iterations": 50}})
    assert effective.max_iterations == 2  # server cap wins
    effective = service._budget_for({"budget": {"max_iterations": 1}})
    assert effective.max_iterations == 1  # request may ask for less
    # fresh object per request: counters independent
    assert effective is not service.config.budget
    assert effective.iterations_used == 0


def test_budget_exhaustion_in_one_request_does_not_leak():
    # checkpoint_every=None isolates the budget-accounting contract;
    # with checkpointing on, the second request would legitimately
    # resume and finish (see test below).
    service = _service(budget=Budget(max_iterations=2), checkpoint_every=None)
    first = service.handle({"op": "analyze", "text": NREV, "entries": [ENTRY]})
    assert first["status"] == "degraded"  # 2 iterations is not enough cold
    again = service.handle({"op": "analyze", "text": NREV, "entries": [ENTRY]})
    # the second request gets its own allowance, not the leftovers
    assert again["status"] == "degraded"
    assert again["cache"]["outcome"] == MISS


def test_budget_trips_make_cumulative_progress_via_checkpoints():
    # With checkpointing on, each degraded attempt banks its fixpoint
    # progress: repeated identical requests under the same insufficient
    # per-request budget eventually complete exactly — and the exact
    # result equals a from-scratch run.
    service = _service(budget=Budget(max_iterations=2), checkpoint_every=1)
    request = {"op": "analyze", "text": NREV, "entries": [ENTRY]}
    statuses = []
    for _ in range(8):
        response = service.handle(dict(request))
        statuses.append(response["status"])
        if response["status"] == "exact":
            break
    assert statuses[0] == "degraded"
    assert statuses[-1] == "exact"
    assert response["result"] == _scratch(NREV, [ENTRY])
    snapshot = service.metrics.snapshot()
    assert snapshot["resume.attempts"]["value"] >= 1
    assert snapshot["checkpoint.gc"]["value"] >= 1


def test_config_change_misses():
    service = _service()
    service.handle({"op": "analyze", "text": NREV, "entries": [ENTRY]})
    other = _service(depth=3)
    other.store = service.store  # same store, different config
    response = other.handle({"op": "analyze", "text": NREV, "entries": [ENTRY]})
    assert response["cache"]["outcome"] == MISS


def test_lint_op_uses_cache_and_reports():
    service = _service(on_undefined="top")
    request = {"op": "lint", "text": NREV, "entries": [ENTRY]}
    first = service.handle(request)
    second = service.handle(request)
    assert first["ok"] and second["ok"]
    assert second["cache"]["outcome"] == HIT
    assert first["lint"] == second["lint"]


def test_error_requests_are_answered_not_raised():
    service = _service()
    assert service.handle({"op": "analyze"})["ok"] is False
    assert service.handle({"op": "analyze", "text": "p(a)."})["ok"] is False
    assert service.handle({"op": "nope"})["ok"] is False
    bad_syntax = service.handle(
        {"op": "analyze", "text": "p(", "entries": ["p"]}
    )
    assert bad_syntax["ok"] is False and "error" in bad_syntax


def test_disk_store_survives_service_restart(tmp_path):
    directory = str(tmp_path / "cache")
    first = _service(store_dir=directory)
    first.handle({"op": "analyze", "text": NREV, "entries": [ENTRY]})
    second = _service(store_dir=directory)
    response = second.handle(
        {"op": "analyze", "text": NREV, "entries": [ENTRY]}
    )
    assert response["cache"]["outcome"] == HIT


# ----------------------------------------------------------------------
# The request loop and batch mode.


def test_serve_loop_protocol():
    service = _service()
    stdin = io.StringIO("\n".join([
        json.dumps({"op": "analyze", "text": NREV, "entries": [ENTRY], "id": 7}),
        "",  # blank lines are skipped
        "this is not json",
        json.dumps([1, 2, 3]),
        json.dumps({"op": "stats"}),
        json.dumps({"op": "shutdown"}),
        json.dumps({"op": "analyze", "text": NREV, "entries": [ENTRY]}),
    ]) + "\n")
    stdout = io.StringIO()
    assert serve_loop(service, stdin, stdout) == 0
    responses = [json.loads(line) for line in stdout.getvalue().splitlines()]
    assert len(responses) == 5  # nothing after shutdown
    assert responses[0]["id"] == 7 and responses[0]["ok"]
    assert responses[1]["ok"] is False  # bad JSON
    assert responses[2]["ok"] is False  # non-object
    assert responses[3]["stats"]["requests_served"] >= 1
    assert responses[4]["shutdown"] is True


def test_serve_loop_oversized_line_is_answered_and_survived():
    service = _service()
    good = json.dumps({"op": "analyze", "text": NREV, "entries": [ENTRY]})
    stdin = io.StringIO(
        '{"op": "analyze", "text": "' + "x" * 4096 + '"}\n'
        + good + "\n"
        + json.dumps({"op": "shutdown"}) + "\n"
    )
    stdout = io.StringIO()
    assert serve_loop(service, stdin, stdout, max_line_bytes=1024) == 0
    responses = [json.loads(line) for line in stdout.getvalue().splitlines()]
    assert len(responses) == 3
    assert responses[0]["ok"] is False
    assert "exceeds" in responses[0]["error"]
    assert responses[1]["ok"] is True  # the loop kept serving
    assert responses[1]["result"] == _scratch(NREV, [ENTRY])
    assert responses[2]["shutdown"] is True


def test_serve_loop_oversized_line_never_buffered_whole():
    """The oversized line is drained in bounded chunks, not held."""
    class CountingIO(io.StringIO):
        def __init__(self, text, cap):
            super().__init__(text)
            self.cap = cap

        def readline(self, size=-1):
            assert 0 < size <= self.cap + 1
            return super().readline(size)

    cap = 64
    stdin = CountingIO('{"pad": "' + "y" * 1000 + '"}\n', cap)
    stdout = io.StringIO()
    assert serve_loop(_service(), stdin, stdout, max_line_bytes=cap) == 0
    [response] = [json.loads(l) for l in stdout.getvalue().splitlines()]
    assert response["ok"] is False


def test_serve_loop_eof_mid_line_exits_cleanly():
    service = _service()
    # The stream ends without a trailing newline, mid-request.
    stdin = io.StringIO('{"op": "stats"')
    stdout = io.StringIO()
    assert serve_loop(service, stdin, stdout) == 0
    [response] = [json.loads(l) for l in stdout.getvalue().splitlines()]
    assert response["ok"] is False  # answered, not crashed


def test_run_batch_second_pass_hits(tmp_path):
    path = tmp_path / "nrev.pl"
    path.write_text(NREV)
    service = _service()
    summary = run_batch(service, [str(path)], [ENTRY], passes=2)
    assert summary["passes"][0][MISS] == 1
    assert summary["passes"][1][HIT] == 1
    assert summary["passes"][1]["error"] == 0


def test_serve_loop_counts_oversized_and_malformed_in_metrics():
    service = _service()
    stdin = io.StringIO(
        '{"op": "analyze", "text": "' + "x" * 4096 + '"}\n'
        + "this is not json\n"
        + json.dumps([1, 2, 3]) + "\n"
        + json.dumps({"op": "shutdown"}) + "\n"
    )
    stdout = io.StringIO()
    assert serve_loop(service, stdin, stdout, max_line_bytes=1024) == 0
    snapshot = service.metrics.snapshot()
    assert snapshot["serve.input.oversized"]["value"] == 1
    assert snapshot["serve.input.malformed"]["value"] == 2
