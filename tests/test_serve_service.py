"""The analysis service (repro.serve.service) and its seeded runs.

The contract under test everywhere: whatever the cache state, a served
result equals a from-scratch ``analyze()`` (compared via
``stable_dict``), and a full-result hit answers without running any
fixpoint at all.
"""

import io
import json
import os
import subprocess
import sys

import pytest

import repro.serve.service as service_module
import repro.wam.compile.program as compile_module
from repro.analysis.driver import Analyzer, parse_entry_spec
from repro.analysis.patterns import Pattern
from repro.bench.programs import BENCHMARKS
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
from repro.serve.service import MEMO_ENTRIES

from .test_golden import CASES as GOLDEN_CASES

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


@pytest.mark.parametrize("text", [
    ":- op(0, xfy, ',').\np(X) :- q(X), q(X).\nq(1).\n",
    ":- op(0, xfy, ;).\np(X) :- q(X) | q(X).\nq(1).\n",
])
def test_operator_directive_errors_are_answered(text):
    # A program whose op/3 directives unmake ',' or ';' is a syntax
    # error answered inline; the service keeps serving.
    service = _service()
    response = service.handle(
        {"op": "analyze", "text": text, "entries": ["p(var)"]}
    )
    assert response["ok"] is False and "at line" in response["error"]
    good = {"op": "analyze", "text": "q(b).", "entries": ["q(var)"]}
    assert service.handle(good)["ok"]


def test_error_requests_are_answered_not_raised():
    service = _service()
    assert service.handle({"op": "analyze"})["ok"] is False
    assert service.handle({"op": "analyze", "text": "p(a)."})["ok"] is False
    assert service.handle({"op": "nope"})["ok"] is False
    bad_syntax = service.handle(
        {"op": "analyze", "text": "p(", "entries": ["p"]}
    )
    assert bad_syntax["ok"] is False and "error" in bad_syntax
    # Entries that are not text, also with the spec memo holding one.
    good = {"op": "analyze", "text": "q(b).", "entries": ["q(var)"]}
    assert service.handle(dict(good))["ok"]
    for entries in ([5], [{}], ["q(var)", 5]):
        response = service.handle(dict(good, entries=entries))
        assert response["ok"] is False and "entry spec" in response["error"]
    # A program field that is not text, also with the text memo warm.
    for field, value in (
        ("text", 5), ("text", None), ("text", ["q(b)."]), ("text", {}),
        ("file", 5), ("file", None),
    ):
        request = {"op": "analyze", field: value, "entries": ["q(var)"]}
        for op in ("analyze", "lint"):
            response = service.handle(dict(request, op=op))
            assert response["ok"] is False
            assert response["error"].endswith(f"{field!r} must be a string")


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


def test_serve_loop_answers_malformed_fields_and_keeps_serving():
    # A non-object budget (decoded on a cache miss), a non-text entry
    # spec and non-text program text are request errors, not crashes
    # of the loop.
    service = _service()
    stdin = io.StringIO("\n".join([
        json.dumps({"op": "analyze", "text": "q(b).",
                    "entries": ["q(var)"], "budget": 5}),
        json.dumps({"op": "analyze", "text": "q(b).", "entries": [5]}),
        json.dumps({"op": "analyze", "text": 5, "entries": ["q(var)"]}),
        json.dumps({"op": "analyze", "text": None, "entries": ["q(var)"]}),
        json.dumps({"op": "analyze", "text": NREV, "entries": [ENTRY]}),
    ]) + "\n")
    stdout = io.StringIO()
    assert serve_loop(service, stdin, stdout) == 0
    responses = [json.loads(line) for line in stdout.getvalue().splitlines()]
    assert len(responses) == 5
    assert responses[0]["ok"] is False and "budget" in responses[0]["error"]
    assert responses[1]["ok"] is False and "entry spec" in responses[1]["error"]
    for response in responses[2:4]:
        assert response["ok"] is False and "'text'" in response["error"]
    assert responses[4]["ok"] and responses[4]["result"] == _scratch(
        NREV, [ENTRY]
    )


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


# ----------------------------------------------------------------------
# The warm path: a repeated text is answered from the memos.

#: ``p``'s first clause fails before calling ``q``, so ``q`` and ``r``
#: are statically reachable but never analyzed: a hit counts 2 of its
#: 4 reachable SCCs as stored.
DEAD_BRANCH = """
main :- p(a).
p(X) :- fail, q(X).
p(_).
q(Y) :- r(Y).
r(_).
"""


def _counting(monkeypatch, owner, name):
    """Wrap ``owner.name`` so each call is recorded; returns the list."""
    calls = []
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def _prepared(service, source):
    return service.metrics.snapshot().get(
        f"serve.prepare{{source={source}}}", {}
    ).get("value", 0)


def _units(service, source):
    return service.metrics.snapshot().get(
        f"serve.compile.units{{source={source}}}", {}
    ).get("value", 0)


def test_repeated_request_parses_and_decodes_nothing(monkeypatch):
    service = _service()
    request = {"op": "analyze", "text": NREV, "entries": [ENTRY]}
    service.handle(dict(request))
    parses = _counting(monkeypatch, Program, "from_text")
    specs = _counting(monkeypatch, service_module, "parse_entry_spec")
    decodes = _counting(monkeypatch, service_module, "entry_from_json")
    response = service.handle(dict(request))
    assert response["cache"]["outcome"] == HIT
    assert parses == [] and specs == [] and decodes == []
    assert _prepared(service, "text") == 1
    assert _prepared(service, "parse") == 1


def test_comment_only_edit_hits_without_compiling(monkeypatch):
    service = _service()
    service.handle({"op": "analyze", "text": NREV, "entries": [ENTRY]})
    compiles = _counting(monkeypatch, compile_module, "compile_predicate")
    edited = "% reversed, naively\n" + NREV.replace("RT", "Rev")
    response = service.handle(
        {"op": "analyze", "text": edited, "entries": [ENTRY]}
    )
    assert compiles == []
    assert _units(service, "compiled") == 2
    assert _prepared(service, "program") == 1
    assert response["cache"]["outcome"] == HIT
    assert response["result"] == _scratch(NREV, [ENTRY])


def test_invalidate_empties_every_memo():
    service = _service()
    request = {"op": "analyze", "text": NREV, "entries": [ENTRY]}
    service.handle(dict(request))
    assert service._units
    service.handle({"op": "invalidate"})
    assert not service._by_text and not service._by_program
    assert not service._units and not service._specs
    response = service.handle(dict(request))
    assert response["cache"]["outcome"] == MISS
    assert _prepared(service, "parse") == 2
    assert _prepared(service, "text") == 0


def test_memos_are_lru_at_their_bound():
    service = _service()

    def send(i):
        return service.handle({
            "op": "analyze", "text": f"p{i}(a).\n", "entries": [f"p{i}(var)"],
        })

    for i in range(MEMO_ENTRIES):
        send(i)
    send(0)  # now the most recently used, so it outlives 1..6
    for i in range(MEMO_ENTRIES, 70):
        send(i)
    for memo in (service._by_text, service._by_program, service._specs):
        assert len(memo) == MEMO_ENTRIES
    before = _prepared(service, "text")
    assert send(0)["cache"]["outcome"] == HIT
    assert _prepared(service, "text") == before + 1
    send(1)  # evicted: parsed again
    assert _prepared(service, "parse") == 71


#: Reachable SCCs per Table 1 program; a hit of each finds all stored.
BENCHMARK_SCCS = {
    "log10": 2, "ops8": 2, "times10": 2, "divide10": 2, "tak": 2,
    "nreverse": 3, "qsort": 3, "query": 5, "zebra": 5, "serialise": 7,
    "queens_8": 7,
}


@pytest.mark.parametrize(
    "text, entries, sccs_total, sccs_seeded",
    [
        (b.source, [b.entry], BENCHMARK_SCCS[b.name], BENCHMARK_SCCS[b.name])
        for b in BENCHMARKS
    ] + [
        (DEAD_BRANCH, ["main"], 4, 2),
        (DEAD_BRANCH, ["main", "q(g)"], 4, 4),
    ],
    ids=[b.name for b in BENCHMARKS] + ["dead_branch", "two_entries"],
)
def test_hit_answers_as_before(text, entries, sccs_total, sccs_seeded):
    # The counts are those the service reported before hits stopped
    # reading SCC summaries; the hit now counts them by membership.
    service = _service()
    request = {"op": "analyze", "text": text, "entries": entries}
    service.handle(dict(request))
    hit = service.handle(dict(request))
    assert sorted(hit) == ["cache", "elapsed_ms", "ok", "op", "result",
                           "status"]
    assert hit["cache"] == {
        "outcome": HIT, "sccs_total": sccs_total, "sccs_seeded": sccs_seeded,
    }
    assert hit["status"] == "exact"
    assert hit["result"] == _scratch(text, entries)


def test_lint_reads_its_file_once(tmp_path, monkeypatch):
    path = tmp_path / "nrev.pl"
    path.write_text(NREV)
    service = _service(on_undefined="top")
    opened = []

    def counting_open(file, *args, **kwargs):
        opened.append(file)
        return open(file, *args, **kwargs)

    monkeypatch.setattr(service_module, "open", counting_open, raising=False)
    response = service.handle(
        {"op": "lint", "file": str(path), "entries": [ENTRY]}
    )
    assert response["ok"]
    assert opened == [str(path)]


def test_lint_reports_the_text_it_analyzed():
    # A layout-and-renaming edit shares the first text's compiled code,
    # but its diagnostics carry its own lines and variable names.
    service = _service()
    first = "p(X, Y) :- q(X).\nq(a).\n"
    moved = "\n\n% moved down\np(A, B) :- q(A).\nq(a).\n"
    reports = [
        service.handle(
            {"op": "lint", "text": text, "entries": ["p(var, var)"]}
        )["lint"]["diagnostics"]
        for text in (first, moved)
    ]
    assert [(d["code"], d["line"]) for d in reports[0]] == [("W002", 1)]
    assert [(d["code"], d["line"]) for d in reports[1]] == [("W002", 4)]
    assert "'B'" in reports[1][0]["message"]
    assert _prepared(service, "program") == 1


def test_lint_locates_verifier_diagnostics_in_the_text_it_analyzed(
    monkeypatch,
):
    # The moved text shares the first text's compiled code; the
    # verifier still takes its clause positions from the moved text.
    from repro.lint import verifier

    located = []
    original = verifier.verify_code

    def recording(code, file="?", positions=None):
        located.append(positions)
        return original(code, file=file, positions=positions)

    monkeypatch.setattr(verifier, "verify_code", recording)
    service = _service()
    for text in (
        "p(X, Y) :- q(X).\nq(a).\n",
        "\n\n% moved down\np(A, B) :- q(A).\nq(a).\n",
    ):
        service.handle({"op": "lint", "text": text, "entries": ["p(var, var)"]})
    assert [positions[("p", 2)][0] for positions in located] == [1, 4]
    assert _prepared(service, "program") == 1


def test_hit_counts_a_damaged_scc_file_until_seeds_are_read(tmp_path):
    # A hit tests SCC keys by membership, which on disk is the file's
    # existence: a damaged SCC file still counts as seeded, and stays
    # put. The next request that decodes seeds (a lint) quarantines it
    # and recomputes and stores that SCC again.
    directory = tmp_path / "cache"
    request = {"op": "analyze", "text": NREV, "entries": [ENTRY]}
    _service(store_dir=str(directory)).handle(dict(request))
    damaged = sorted(directory.glob("scc_*.json"))[0]
    damaged.write_text("{")
    service = _service(store_dir=str(directory))
    hit = service.handle(dict(request))
    assert hit["cache"] == {"outcome": HIT, "sccs_total": 2, "sccs_seeded": 2}
    assert hit["result"] == _scratch(NREV, [ENTRY])
    assert damaged.exists()
    lint = service.handle(dict(request, op="lint"))
    assert lint["ok"] and lint["cache"]["sccs_seeded"] == 1
    assert (directory / "quarantine" / damaged.name).read_text() == "{"
    assert json.loads(damaged.read_text())["value"]


def test_close_releases_the_journal(tmp_path):
    service = _service(store_dir=str(tmp_path / "cache"), journal=True)
    service.handle({"op": "analyze", "text": NREV, "entries": [ENTRY]})
    journal = service.store.disk._journal_handle
    assert journal is not None and not journal.closed
    service.close()
    assert journal.closed and service.store.disk._journal_handle is None
    service.close()  # a second close is harmless
    _service().close()  # so is closing a service without a disk store


def test_unterminated_hex_escape_is_answered(tmp_path):
    # The deadline limits only the fixpoint, so a tokenizer that never
    # returned would wedge the in-process server; the child process and
    # its timeout turn such a hang into a failure, not a stuck suite.
    requests = [
        {"op": "analyze", "text": "p('\\x", "entries": ["p(var)"],
         "budget": {"deadline": 1.0}},
        {"op": "analyze", "text": "q(b).", "entries": ["q(var)"]},
        {"op": "shutdown"},
    ]
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-m", "repro.serve"],
        input="".join(json.dumps(r) + "\n" for r in requests),
        capture_output=True, text=True, env=env, timeout=60, cwd=tmp_path,
    )
    assert completed.returncode == 0, completed.stderr
    responses = [json.loads(line) for line in completed.stdout.splitlines()]
    assert [r["ok"] for r in responses] == [False, True, True]
    assert "unterminated quoted token" in responses[0]["error"]


def test_malformed_budget_is_refused_on_a_hit_too():
    # The budget is decoded before the result lookup, so the answer to
    # a malformed one does not depend on what the cache holds.
    request = {"op": "analyze", "text": "q(b).", "entries": ["q(var)"]}
    for budget in (5, {"deadline": -1}):
        cold, warm = _service(), _service()
        assert warm.handle(dict(request))["ok"]
        answers = [
            service.handle(dict(request, budget=budget))
            for service in (cold, warm)
        ]
        assert [answer["ok"] for answer in answers] == [False, False]
        assert answers[0]["error"] == answers[1]["error"]
        assert warm.handle(dict(request))["cache"]["outcome"] == HIT


@pytest.fixture
def default_recursion_limit():
    """The limit a fresh ``repro-serve`` process runs at; the solver
    raises it process-wide, so an earlier test may have left it higher."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    yield
    sys.setrecursionlimit(limit)


def test_recursion_depth_is_answered_and_the_loop_serves_on(
    default_recursion_limit,
):
    # A cyclic term and a long list literal each exceed the recursion
    # limit of some walk; the request fails, the next one is served.
    long_list = "[" + ", ".join(["a"] * 2000) + "]"
    requests = [
        {"op": "analyze", "text": "p(X, Y) :- X = [Y|X], Y = f(X).",
         "entries": ["p(var, var)"]},
        {"op": "analyze", "text": f"p(X) :- X = {long_list}.",
         "entries": ["p(var)"]},
        {"op": "analyze", "text": "q(b).", "entries": ["q(var)"]},
        {"op": "shutdown"},
    ]
    stdin = io.StringIO("".join(json.dumps(r) + "\n" for r in requests))
    stdout = io.StringIO()
    assert serve_loop(_service(), stdin, stdout) == 0
    responses = [json.loads(line) for line in stdout.getvalue().splitlines()]
    assert [r["ok"] for r in responses] == [False, False, True, True]
    assert all("recursion" in r["error"] for r in responses[:2])
    assert responses[2]["result"] == _scratch("q(b).", ["q(var)"])


@pytest.mark.parametrize(
    "name,text,entries", GOLDEN_CASES, ids=[case[0] for case in GOLDEN_CASES]
)
def test_lint_on_a_full_hit_runs_one_instruction_per_spec(name, text, entries):
    cold = _service().handle({"op": "lint", "text": text, "entries": entries})
    service = _service()
    service.handle({"op": "analyze", "text": text, "entries": entries})

    def instructions():
        return service.metrics.snapshot().get(
            "wam.instructions", {}
        ).get("value", 0)

    before = instructions()
    warm = service.handle({"op": "lint", "text": text, "entries": entries})
    assert warm["cache"]["outcome"] == HIT
    assert warm["cache"]["schedule"]["seeds_trusted"] > 0
    assert instructions() - before <= len(entries)
    assert warm["lint"] == cold["lint"]
