"""Crash isolation (repro.serve.pool + repro.serve.supervisor).

The contract under test: a worker death — SIGKILL mid-request, injected
chaos, timeout — costs at most one structured error response, never the
service; results that do come back equal a from-scratch ``analyze()``.
"""

import itertools
import json
import os
import signal
import time

import pytest

from repro.analysis.driver import Analyzer
from repro.prolog.program import Program
from repro.robust import Budget, FaultPlan
from repro.serve import (
    HIT,
    AnalysisService,
    ServiceConfig,
    Supervisor,
    SupervisorConfig,
    run_batch,
    serve_loop,
)
from repro.serve.worker import config_from_wire, config_to_wire

NREV = """
nrev([], []).
nrev([H|T], R) :- nrev(T, RT), append(RT, [H], R).
append([], L, L).
append([H|T], L, [H|R]) :- append(T, L, R).
"""

ENTRY = "nrev(glist, var)"

REQUEST = {"op": "analyze", "text": NREV, "entries": [ENTRY]}

#: Budget deadlines no kill timer can wait for: beyond
#: ``threading.TIMEOUT_MAX``, infinite, and NaN.
UNWAITABLE = (1e300, float("inf"), float("nan"))


def _scratch(text=NREV, entries=(ENTRY,)):
    return Analyzer(Program.from_text(text)).analyze(list(entries)).stable_dict()


def _supervisor(fault_plan=None, service_config=None, **kwargs):
    kwargs.setdefault("max_retries", 2)
    kwargs.setdefault("backoff_base", 0.01)
    kwargs.setdefault("grace", 0.2)
    return Supervisor(
        service_config if service_config is not None else ServiceConfig(),
        SupervisorConfig(**kwargs),
        fault_plan=fault_plan,
    )


# ----------------------------------------------------------------------
# Config wire format.


def test_config_round_trips_through_wire():
    config = ServiceConfig(
        depth=3, subsumption=True, on_undefined="top", library=True,
        store_dir="/tmp/x", journal=True,
        budget=Budget(max_steps=100, deadline=1.5),
    )
    back = config_from_wire(json.loads(json.dumps(config_to_wire(config))))
    assert back.depth == 3 and back.subsumption and back.library
    assert back.on_undefined == "top"
    assert back.store_dir == "/tmp/x" and back.journal
    assert back.budget.max_steps == 100
    assert back.budget.deadline == 1.5
    plain = config_from_wire(config_to_wire(ServiceConfig()))
    assert plain.budget is None


# ----------------------------------------------------------------------
# The happy path through a worker.


def test_worker_answers_like_in_process():
    with _supervisor() as supervisor:
        cold = supervisor.handle(dict(REQUEST))
        warm = supervisor.handle(dict(REQUEST))
    assert cold["ok"] and cold["result"] == _scratch()
    assert warm["ok"] and warm["cache"]["outcome"] == HIT
    assert cold["status"] == "exact"


def test_request_errors_still_structured_through_worker():
    with _supervisor() as supervisor:
        response = supervisor.handle({"op": "analyze", "text": "p("})
        # A non-numeric deadline cannot arm the kill timer; the worker
        # answers it as a bad request.
        bad_deadline = supervisor.handle(
            {**REQUEST, "budget": {"deadline": "soon"}}
        )
    assert response["ok"] is False and "error" in response
    assert bad_deadline["ok"] is False and "error" in bad_deadline


def test_config_knobs_reach_the_worker():
    config = ServiceConfig(budget=Budget(max_iterations=1))
    with _supervisor(service_config=config) as supervisor:
        response = supervisor.handle(dict(REQUEST))
    assert response["ok"] and response["status"] == "degraded"


# ----------------------------------------------------------------------
# Crash isolation: SIGKILL mid-request.


def test_injected_kill_is_retried_transparently():
    plan = FaultPlan(kill_worker_at_request=1)
    with _supervisor(fault_plan=plan) as supervisor:
        response = supervisor.handle(dict(REQUEST))
        after = supervisor.handle(dict(REQUEST))
        stats = supervisor.stats()
    assert response["ok"] and response["result"] == _scratch()
    assert response["attempts"] == 2
    assert after["ok"]  # the next request on the same service succeeds
    assert stats["crashes_survived"] == 1 and stats["retries"] == 1
    assert stats["pool"]["spawned"] == 2  # a fresh worker replaced the corpse


def test_kill_beyond_retries_is_structured_retriable_error():
    # With max_retries=0 the one crash is final: the response is the
    # structured retriable error, not an exception — and the service
    # keeps serving.
    plan = FaultPlan(kill_worker_at_request=1)
    with _supervisor(fault_plan=plan, max_retries=0) as supervisor:
        response = supervisor.handle({**REQUEST, "id": 9})
        after = supervisor.handle(dict(REQUEST))
    assert response["ok"] is False
    assert response["error_kind"] == "worker-crash"
    assert response["retriable"] is True
    assert response["attempts"] == 1
    assert response["id"] == 9
    assert after["ok"] and after["result"] == _scratch()


def _failing_spawns(monkeypatch, failures=None):
    """Make the first ``failures`` worker spawns raise like a refused
    fork (``None``: every spawn fails until the patch is undone)."""
    from repro.serve import supervisor

    real = supervisor.Worker
    calls = itertools.count()

    def spawn(*args, **kwargs):
        if failures is None or next(calls) < failures:
            raise BlockingIOError("fork: resource temporarily unavailable")
        return real(*args, **kwargs)

    monkeypatch.setattr(supervisor, "Worker", spawn)


def test_failed_spawn_is_retried_like_a_crash(monkeypatch):
    _failing_spawns(monkeypatch, 1)
    with _supervisor() as supervisor:
        response = supervisor.handle(dict(REQUEST))
        stats = supervisor.stats()
    assert response["ok"] and response["result"] == _scratch()
    assert response["attempts"] == 2
    assert stats["retries"] == 1 and stats["pool"]["crashes"] == 1


def test_failed_spawns_beyond_retries_are_structured_not_quarantined(
    monkeypatch,
):
    # Two requests with every spawn failing: four failures, past the
    # crash-loop threshold if they counted, but the request never
    # reached a worker, so each answer is a retriable worker-crash.
    _failing_spawns(monkeypatch)
    with _supervisor(max_retries=1) as supervisor:
        refused = [
            supervisor.handle({**REQUEST, "id": index}) for index in (1, 2)
        ]
        monkeypatch.undo()
        after = supervisor.handle(dict(REQUEST))
        stats = supervisor.stats()
    for index, response in enumerate(refused, start=1):
        assert response["ok"] is False
        assert response["error_kind"] == "worker-crash"
        assert response["retriable"] is True
        assert response["attempts"] == 2
        assert response["id"] == index
    assert after["ok"] and after["result"] == _scratch()
    assert stats["quarantined"] == 0


def test_invalidate_when_no_worker_can_start_is_structured(monkeypatch):
    # invalidate is retried like any other request, so every spawn of
    # its chain must fail for the error to reach the client.
    _failing_spawns(monkeypatch)
    with _supervisor() as supervisor:
        response = supervisor.handle({"op": "invalidate", "id": 3})
        monkeypatch.undo()
        after = supervisor.handle(dict(REQUEST))
    assert response["ok"] is False
    assert response["error_kind"] == "worker-crash"
    assert response["retriable"] is True and response["id"] == 3
    assert after["ok"] and after["result"] == _scratch()


def test_external_sigkill_between_requests_is_survived():
    with _supervisor() as supervisor:
        first = supervisor.handle(dict(REQUEST))
        assert first["ok"]
        worker = supervisor.worker
        os.kill(worker.pid, signal.SIGKILL)
        worker.process.wait(timeout=10)
        second = supervisor.handle(dict(REQUEST))
    assert second["ok"] and second["result"] == _scratch()


def test_worker_python_exception_does_not_cost_the_worker():
    """A catchable failure is answered in-process: same worker, no
    respawn."""
    with _supervisor() as supervisor:
        supervisor.handle(dict(REQUEST))
        spawned = supervisor.spawned
        bad = supervisor.handle({"op": "nope"})
        again = supervisor.handle(dict(REQUEST))
        assert supervisor.spawned == spawned
    assert bad["ok"] is False and again["ok"] is True


# ----------------------------------------------------------------------
# The wall-clock kill.


def test_delayed_response_is_killed_nonretriable():
    plan = FaultPlan(delay_response_at_request=1, delay_seconds=5.0)
    with _supervisor(
        fault_plan=plan, request_timeout=0.3, grace=0.2
    ) as supervisor:
        started = time.monotonic()
        response = supervisor.handle(dict(REQUEST))
        elapsed = time.monotonic() - started
        after = supervisor.handle(dict(REQUEST))
        stats = supervisor.stats()
    assert response["ok"] is False
    assert response["error_kind"] == "timeout"
    assert response["retriable"] is False
    assert elapsed < 4.0  # killed at deadline + grace, not after the sleep
    assert stats["timeouts"] == 1 and stats["pool"]["kills"] == 1
    assert after["ok"]  # a fresh worker took over


def test_request_budget_deadline_arms_the_kill_timer():
    supervisor = _supervisor(grace=0.25)
    try:
        assert supervisor._timeout_for({}) is None
        assert supervisor._timeout_for(
            {"budget": {"deadline": 1.0}}
        ) == pytest.approx(1.25)
        # Deadlines no timer can wait for arm none.
        for deadline in UNWAITABLE:
            assert supervisor._timeout_for(
                {"budget": {"deadline": deadline}}
            ) is None
    finally:
        supervisor.close()


def test_tightest_deadline_wins():
    config = ServiceConfig(budget=Budget(deadline=5.0))
    supervisor = _supervisor(
        service_config=config, request_timeout=3.0, grace=0.5
    )
    try:
        assert supervisor._timeout_for({}) == pytest.approx(3.5)
        assert supervisor._timeout_for(
            {"budget": {"deadline": 0.5}}
        ) == pytest.approx(1.0)
        for deadline in UNWAITABLE:
            assert supervisor._timeout_for(
                {"budget": {"deadline": deadline}}
            ) == pytest.approx(3.5)
    finally:
        supervisor.close()


@pytest.mark.parametrize(
    "deadline, ok", zip(UNWAITABLE, (True, True, False)),
    ids=["1e300", "Infinity", "NaN"],
)
def test_unwaitable_deadline_answered_alike_in_and_out_of_process(
    deadline, ok
):
    # Through the JSON wire form, which accepts Infinity and NaN.  A
    # deadline the kill timer cannot wait for is no kill timer: the
    # worker answers, exactly as the in-process service does.
    request = json.loads(
        json.dumps(dict(REQUEST, budget={"deadline": deadline}))
    )
    in_process = AnalysisService(ServiceConfig()).handle(dict(request))
    with _supervisor() as supervisor:
        supervised = supervisor.handle(dict(request))
        timeouts = supervisor.timeouts
    assert timeouts == 0
    for response in (in_process, supervised):
        assert response["ok"] is ok
        if ok:
            assert response["result"] == _scratch()
        else:
            assert "error_kind" not in response
            assert "deadline" in response["error"]


def test_refused_deadline_arms_no_kill_timer():
    # A budget the service refuses (a negative deadline) is the worker's
    # to answer; it must not arm a kill timer that SIGKILLs the worker
    # and loses its warm cache.
    request = dict(REQUEST, budget={"deadline": -1})
    in_process = AnalysisService(ServiceConfig())
    in_process.handle(dict(REQUEST))
    expected = in_process.handle(dict(request))
    with _supervisor() as supervisor:
        supervisor.handle(dict(REQUEST))
        refused = supervisor.handle(dict(request))
        repeat = supervisor.handle(dict(REQUEST))
        kills = supervisor.kills
    assert kills == 0
    assert refused["ok"] is expected["ok"] and "error_kind" not in refused
    assert repeat["cache"]["outcome"] == HIT


# ----------------------------------------------------------------------
# Protocol plumbing: shutdown, stats, invalidate, serve_loop, batch.


def test_shutdown_closes_the_pool():
    supervisor = _supervisor()
    first = supervisor.handle(dict(REQUEST))
    worker = supervisor.worker
    response = supervisor.handle({"op": "shutdown", "id": 3})
    assert first["ok"] and response["shutdown"] and response["id"] == 3
    assert supervisor.closed and supervisor.worker is None
    assert not worker.alive


def test_stats_carry_supervisor_block():
    with _supervisor() as supervisor:
        supervisor.handle(dict(REQUEST))
        response = supervisor.handle({"op": "stats"})
    assert response["ok"]
    assert response["stats"]["requests_served"] >= 1  # the worker's view
    assert response["supervisor"]["pool"]["size"] == 1


def test_one_worker_keeps_one_cache_until_invalidate():
    with _supervisor() as supervisor:
        first = supervisor.handle(dict(REQUEST))
        second = supervisor.handle(dict(REQUEST))
        response = supervisor.handle({"op": "invalidate"})
        cold = supervisor.handle(dict(REQUEST))
    assert first["ok"] and first["cache"]["outcome"] != HIT
    assert second["ok"] and second["cache"]["outcome"] == HIT
    assert response["ok"] and response.get("invalidated")
    assert cold["ok"] and cold["cache"]["outcome"] != HIT


def test_serve_loop_over_supervisor_survives_a_crash():
    plan = FaultPlan(kill_worker_at_request=2)
    supervisor = _supervisor(fault_plan=plan, max_retries=0)
    import io

    lines = [
        json.dumps({**REQUEST, "id": 1}),
        json.dumps({**REQUEST, "id": 2}),  # killed, retries exhausted
        json.dumps({**REQUEST, "id": 3}),
        json.dumps({"op": "shutdown"}),
    ]
    stdout = io.StringIO()
    status = serve_loop(
        supervisor, io.StringIO("\n".join(lines) + "\n"), stdout
    )
    responses = [json.loads(line) for line in stdout.getvalue().splitlines()]
    assert status == 0 and len(responses) == 4
    assert responses[0]["ok"] is True
    assert responses[1]["ok"] is False
    assert responses[1]["retriable"] is True
    assert responses[2]["ok"] is True  # the service survived the crash
    assert responses[3]["shutdown"] is True


def test_run_batch_through_supervisor(tmp_path):
    path = tmp_path / "nrev.pl"
    path.write_text(NREV)
    with _supervisor() as supervisor:
        summary = run_batch(supervisor, [str(path)], [ENTRY], passes=2)
    assert summary["passes"][0]["miss"] == 1
    assert summary["passes"][1]["hit"] == 1
    assert summary["store"]["pool"]["size"] == 1  # supervisor stats block


# ----------------------------------------------------------------------
# Satellite: the backoff discipline around crashes and slow successes.


def test_backoff_resets_after_healthy_request(monkeypatch):
    # A crash strikes the backoff, a success resets it, and a deliberate
    # timeout kill strikes nothing: the respawn after it is immediate.
    from repro.serve import supervisor as supervisor_module

    backoffs = []
    monkeypatch.setattr(
        supervisor_module, "respawn_backoff",
        lambda strikes, base: backoffs.append(strikes),
    )
    plan = FaultPlan(kill_worker_at_request=1)
    with _supervisor(fault_plan=plan) as supervisor:
        assert supervisor.handle(dict(REQUEST))["ok"]
        assert backoffs == [0, 1]  # first spawn, then the respawn
        assert supervisor.consecutive_failures == 0
        killed = supervisor.handle({
            **REQUEST, "budget": {"deadline": 0.1},
            "_chaos": {"delay": 5.0},
        })
        assert killed["error_kind"] == "timeout"
        assert supervisor.consecutive_failures == 0
        assert supervisor.handle(dict(REQUEST))["ok"]
        stats = supervisor.stats()["pool"]
    assert backoffs == [0, 1, 0]
    assert stats["crashes"] == 1 and stats["kills"] == 1
    assert stats["spawned"] == 3


def test_kill_timer_grace_waits_out_a_slow_success():
    # The response is injected to arrive 0.4s late — past the 0.2s
    # request timeout but inside its 0.6s grace window.  The kill
    # timer must NOT fire: a slow-but-successful response wins the
    # race and is served, with no timeout recorded and no kill.
    plan = FaultPlan(delay_response_at_request=[1], delay_seconds=0.4)
    supervisor = _supervisor(
        fault_plan=plan, request_timeout=0.2, grace=0.6
    )
    try:
        response = supervisor.handle(dict(REQUEST))
        assert response["ok"], response
        assert response["result"] == _scratch()
        assert supervisor.timeouts == 0
        assert supervisor.kills == 0
    finally:
        supervisor.close()


def test_kill_timer_starts_after_the_worker_is_up():
    # A 0.1 s kill window is far shorter than a worker's start-up, but
    # the spawn waits for the worker's ready line before the request's
    # timer runs: the answer arrives, and the worker that gave it stays
    # up to answer the repeat from its cache.
    request = {"op": "analyze", "text": "p(a).", "entries": ["p(var)"]}
    with _supervisor(request_timeout=0.05, grace=0.05) as supervisor:
        first = supervisor.handle(dict(request))
        second = supervisor.handle(dict(request))
    assert first["ok"], first
    assert second["ok"] and second["cache"]["outcome"] == HIT


def test_worker_without_a_ready_line_is_a_failed_spawn():
    from repro.serve.pool import Worker, WorkerCrashed

    # The worker refuses the config and exits instead of getting ready.
    with pytest.raises(WorkerCrashed, match="did not start"):
        Worker({"budget": "not a budget"})
