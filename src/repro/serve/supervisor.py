"""The supervisor: crash-isolated request execution with retry policy.

:class:`Supervisor` is a drop-in ``handle(request) -> response`` front
for :class:`~repro.serve.service.AnalysisService` (same protocol, same
``serve_loop``/``run_batch`` compatibility) that executes every request
in a worker subprocess from a :class:`~repro.serve.pool.WorkerPool`:

* **Hard wall-clock kill.**  Each request gets a deadline — the tighter
  of the request/server budget ``deadline`` and ``request_timeout`` —
  plus ``grace`` seconds for serialization overhead.  A worker that
  blows it is SIGKILLed and the request answered with a structured
  *non-retriable* error: a cooperative budget should have tripped
  first, so a deadline overrun means the worker is wedged somewhere
  budgets cannot see (C-level loop, pathological GC), and rerunning the
  same request would wedge the replacement too.

* **Bounded retry with backoff.**  A worker that *dies* (segfault, OOM
  kill, injected SIGKILL) before responding is retriable: analysis is a
  pure function of the request, so the supervisor respawns and retries
  up to ``max_retries`` times with exponential backoff, then answers
  with a structured *retriable* error.  Either way the next request
  finds a fresh worker — a crash never takes the service down.

* **Resume-on-retry.**  Workers ship interim
  ``{"_interim": "checkpoint", ...}`` lines while a fixpoint runs (see
  :mod:`repro.serve.worker`); the supervisor retains the newest
  snapshot per request key and attaches it as ``"resume"`` on every
  crash retry, so each attempt continues from the last checkpointed
  pass instead of re-deriving everything.  The key hashes the request
  minus ``id``/``_chaos``/``resume``, so a resubmitted identical
  request also picks up where the crashed one stopped.

* **Crash-loop containment.**  A request whose workers keep dying
  *without advancing the checkpoint cursor* is a poison pill, not bad
  luck: after ``crash_loop_threshold`` consecutive no-progress crashes
  the request is quarantined and answered — now and on every identical
  resubmission — with a structured *non-retriable* ``"crash-loop"``
  error instead of burning more forks.  Any cursor advance or success
  resets the strike count; ``invalidate`` clears the quarantine.

Error responses carry machine-readable classification::

    {"ok": false, "error": "...", "error_kind": "worker-crash",
     "retriable": true, "attempts": 3}

``error_kind`` is ``"worker-crash"``, ``"timeout"`` or ``"crash-loop"``;
``retriable`` tells the client whether resubmitting the identical
request can succeed.

Deadline semantics under retry: each attempt gets a **fresh**
per-attempt kill timer (`_timeout_for`), because the budget deadline it
mirrors is re-armed inside each worker attempt; the whole retry chain
is additionally bounded by ``cumulative_timeout`` — once the chain has
consumed that much wall clock, no further retry is attempted and the
request is answered with a non-retriable ``"timeout"`` error.

Chaos injection: a :class:`~repro.robust.FaultPlan` with serve sites
armed makes the supervisor attach ``"_chaos"`` directives to outgoing
requests — ``kill_worker_at_request`` ordinals SIGKILL the worker on
receipt, ``delay_response_at_request`` ordinals stall the response past
the deadline.  Directives are stripped on retry, so an injected kill
exercises exactly one crash.  See :mod:`repro.bench.chaos`.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from typing import Dict, Optional

from ..robust import FaultPlan
from ..robust.checkpoint import cursor_iterations
from .pool import WorkerCrashed, WorkerPool, WorkerTimeout
from .service import ServiceConfig
from .worker import config_to_wire


@dataclass
class SupervisorConfig:
    """Pool and retry policy knobs (see module docstring)."""

    workers: int = 2
    #: Server-wide per-request wall-clock cap in seconds (None: only
    #: budget deadlines arm the kill timer).
    request_timeout: Optional[float] = None
    #: Slack added on top of the deadline before the SIGKILL: budget
    #: deadlines are checked cooperatively inside the worker, so a
    #: healthy worker answers (degraded) just after the deadline; only
    #: a wedged one reaches deadline + grace.
    grace: float = 1.0
    #: Crash retries per request (0 = fail fast on the first crash).
    max_retries: int = 2
    backoff_base: float = 0.05
    backoff_cap: float = 1.0
    #: Wall-clock bound on a request's *whole retry chain* (all attempts
    #: plus backoff), while ``request_timeout`` bounds each attempt.
    #: None: the chain is bounded only by max_retries.
    cumulative_timeout: Optional[float] = None
    #: Consecutive worker crashes *without checkpoint-cursor advance*
    #: before a request is quarantined as a crash loop.
    crash_loop_threshold: int = 3


class Supervisor:
    """Crash-isolated, self-healing front for the analysis service."""

    def __init__(
        self,
        service_config: Optional[ServiceConfig] = None,
        config: Optional[SupervisorConfig] = None,
        fault_plan: Optional[FaultPlan] = None,
        tracer=None,
    ):
        self.service_config = (
            service_config if service_config is not None else ServiceConfig()
        )
        self.config = config if config is not None else SupervisorConfig()
        self.fault_plan = fault_plan
        self.pool = WorkerPool(
            config_to_wire(self.service_config),
            size=self.config.workers,
            backoff_base=self.config.backoff_base,
            backoff_cap=self.config.backoff_cap,
        )
        self.requests_served = 0
        self.retries = 0
        self.timeouts = 0
        self.crashes_survived = 0
        #: repro.obs: the supervisor's aggregate registry.  Workers ship
        #: a "_metrics" delta on every response; it is popped off the
        #: wire here and merged (counters add, gauges max), so a
        #: ``metrics`` request answers with the whole fleet's view even
        #: though each worker only ever saw its own requests.
        from ..obs.metrics import MetricsRegistry

        self.metrics = MetricsRegistry()
        #: Optional process-named repro.obs.Tracer: the supervisor's
        #: own spans (one ``supervisor.execute`` per request, one
        #: ``worker.attempt`` per attempt) plus every worker's shipped
        #: ``_spans`` block, re-emitted verbatim so one request yields
        #: one stitched tree (docs/tracing.md).  ``None`` (the default)
        #: keeps every trace site a single identity check.
        self.tracer = tracer
        #: Newest checkpoint snapshot per request key, fed by workers'
        #: interim wire lines; attached as ``"resume"`` on crash retry.
        self._resume: Dict[str, dict] = {}
        #: Consecutive no-progress crash strikes per request key.
        self._strikes: Dict[str, int] = {}
        #: Quarantined request keys → the crash-loop error message.
        self._quarantine: Dict[str, str] = {}

    # ------------------------------------------------------------------
    # Request identity (for resume and crash-loop bookkeeping).

    @staticmethod
    def _request_key(request: dict) -> str:
        """A stable key for 'the same work': the request minus delivery
        metadata (``id``), injection (``_chaos``) and any snapshot a
        client attached (``resume``)."""
        bare = {
            key: value for key, value in request.items()
            if key not in ("id", "_chaos", "resume", "_trace")
        }
        canonical = json.dumps(
            bare, sort_keys=True, separators=(",", ":"), default=str
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    # ------------------------------------------------------------------
    # Deadlines.

    def _timeout_for(self, request: dict) -> Optional[float]:
        """The wall-clock kill limit for one request: the tightest of
        the request budget deadline, the server budget deadline and the
        configured request_timeout, plus grace; None = no kill timer."""
        candidates = []
        spec = request.get("budget")
        if isinstance(spec, dict) and spec.get("deadline") is not None:
            candidates.append(float(spec["deadline"]))
        server = self.service_config.budget
        if server is not None and server.deadline is not None:
            candidates.append(server.deadline)
        if self.config.request_timeout is not None:
            candidates.append(self.config.request_timeout)
        if not candidates:
            return None
        return min(candidates) + self.config.grace

    # ------------------------------------------------------------------
    # Request handling.

    def handle(self, request: dict) -> dict:
        """Execute one request in an isolated worker; mirrors
        :meth:`AnalysisService.handle` — never raises for request-level
        failures, and a dead worker is a request-level failure here."""
        started = time.perf_counter()
        op = request.get("op", "analyze")
        if op == "shutdown":
            response = {"ok": True, "shutdown": True, "op": "shutdown"}
            if "id" in request:
                response["id"] = request["id"]
            self.close()
            self.requests_served += 1
            return response
        if op == "metrics":
            # Answered from the aggregate: any single worker would only
            # report its own share of the fleet's work.
            response = {"ok": True, "metrics": self.metrics.snapshot()}
            if "id" in request:
                response["id"] = request["id"]
            response["op"] = "metrics"
        elif op == "invalidate":
            # A changed world also voids retained snapshots and any
            # quarantine verdicts — the "poison" may have been fixed.
            self._resume.clear()
            self._strikes.clear()
            self._quarantine.clear()
            response = self._broadcast(request)
        else:
            response = self._execute(request)
        if op == "stats" and response.get("ok"):
            response["supervisor"] = self.stats()
        self.requests_served += 1
        response["elapsed_total_ms"] = round(
            (time.perf_counter() - started) * 1000.0, 3
        )
        return response

    def _execute(self, request: dict) -> dict:
        tracer = self.tracer
        if tracer is None:
            return self._execute_supervised(request)
        context = request.get("_trace")
        tracer.begin(
            "supervisor.execute",
            _parent_ref=(
                context.get("parent")
                if isinstance(context, dict) else None
            ),
            op=str(request.get("op", "analyze")),
        )
        try:
            return self._execute_supervised(request)
        finally:
            tracer.end()

    def _execute_supervised(self, request: dict) -> dict:
        timeout = self._timeout_for(request)
        key = self._request_key(request)
        quarantined = self._quarantine.get(key)
        if quarantined is not None:
            # Crash-loop containment: a quarantined request is answered
            # immediately — no fork is burned on a known poison pill.
            self.metrics.counter("serve.worker.crash_loop_rejects").inc()
            return self._error_response(
                request,
                kind="crash-loop",
                retriable=False,
                attempts=0,
                message=quarantined,
            )
        payload = dict(request)
        if self.fault_plan is not None:
            chaos = dict(payload.get("_chaos") or {})
            if self.fault_plan.probe("request"):
                chaos["kill"] = True
            if self.fault_plan.probe("response"):
                chaos["delay"] = self.fault_plan.delay_seconds
            if chaos:
                payload["_chaos"] = chaos
        attempts = 0
        chain_started = time.monotonic()
        self.metrics.counter(
            "serve.worker.requests", op=str(request.get("op", "analyze"))
        ).inc()

        # Forward-progress clock: crash-loop detection must see the
        # cursor move when an attempt covered new ground, and retention
        # keeps the snapshot with the furthest cursor.
        progress = {"cursor": cursor_iterations(self._resume.get(key))}

        def note_interim(line: dict) -> None:
            snap = line.get("checkpoint")
            cursor = cursor_iterations(snap)
            if cursor > progress["cursor"]:
                progress["cursor"] = cursor
            if cursor >= cursor_iterations(self._resume.get(key)):
                self._resume[key] = snap

        while True:
            attempts += 1
            snapshot = self._resume.get(key)
            if snapshot is not None:
                payload["resume"] = snapshot
                self.metrics.counter("resume.wire_attached").inc()
            cursor_before = progress["cursor"]
            slot, worker = self.pool.checkout()
            tracer = self.tracer
            if tracer is not None:
                # One span per attempt.  A worker that answers ships its
                # own spans (absorbed below) nested under this one; a
                # worker that dies ships nothing, and ending the attempt
                # span ``aborted`` is the explicit tombstone that keeps
                # the stitched tree whole (docs/tracing.md).
                tracer.begin("worker.attempt", attempt=attempts, slot=slot)
                payload["_trace"] = tracer.current_context()
            try:
                response = worker.request(
                    payload, timeout, on_interim=note_interim
                )
            except WorkerTimeout:
                if tracer is not None:
                    tracer.end(aborted=True, error_kind="timeout")
                    self.metrics.counter("trace.aborted.synthesized").inc()
                self.timeouts += 1
                self.metrics.counter("serve.worker.timeouts").inc()
                self.metrics.counter("serve.worker.respawns").inc()
                self.pool.report_kill(slot)
                return self._error_response(
                    request,
                    kind="timeout",
                    retriable=False,
                    attempts=attempts,
                    message=(
                        f"no response within {timeout:.3f}s; "
                        "worker killed (SIGKILL)"
                    ),
                )
            except WorkerCrashed as error:
                if tracer is not None:
                    tracer.end(aborted=True, error_kind="worker-crash")
                    self.metrics.counter("trace.aborted.synthesized").inc()
                self.crashes_survived += 1
                self.metrics.counter("serve.worker.crashes").inc()
                self.metrics.counter("serve.worker.respawns").inc()
                self.pool.report_crash(slot)
                # An injected kill fired; the retry must run clean.
                payload.pop("_chaos", None)
                if progress["cursor"] > cursor_before:
                    # The crashed attempt still moved the fixpoint
                    # forward — that is not a loop, it is progress.
                    self._strikes[key] = 0
                else:
                    strikes = self._strikes.get(key, 0) + 1
                    self._strikes[key] = strikes
                    if strikes >= self.config.crash_loop_threshold:
                        message = (
                            f"crash loop: {strikes} consecutive worker "
                            "crashes with no fixpoint progress; request "
                            "quarantined"
                        )
                        self._quarantine[key] = message
                        self.metrics.counter("serve.worker.crash_loops").inc()
                        return self._error_response(
                            request,
                            kind="crash-loop",
                            retriable=False,
                            attempts=attempts,
                            message=message,
                        )
                cumulative = self.config.cumulative_timeout
                if (
                    cumulative is not None
                    and time.monotonic() - chain_started >= cumulative
                ):
                    self.metrics.counter("serve.worker.timeouts").inc()
                    return self._error_response(
                        request,
                        kind="timeout",
                        retriable=False,
                        attempts=attempts,
                        message=(
                            f"retry chain exceeded cumulative timeout "
                            f"{cumulative:.3f}s"
                        ),
                    )
                if attempts <= self.config.max_retries:
                    self.retries += 1
                    self.metrics.counter("serve.worker.retries").inc()
                    continue  # pool backoff throttles the respawn
                return self._error_response(
                    request,
                    kind="worker-crash",
                    retriable=True,
                    attempts=attempts,
                    message=str(error),
                )
            else:
                self.pool.report_success(slot)
                self._absorb_metrics(response)
                self._absorb_spans(response)
                if tracer is not None:
                    tracer.end()
                self._strikes.pop(key, None)
                self._resume.pop(key, None)  # the work is done; GC
                response["worker"] = slot
                if attempts > 1:
                    response["attempts"] = attempts
                return response

    def _absorb_metrics(self, response: dict) -> None:
        """Pop a worker's shipped "_metrics" delta and fold it in; a
        malformed delta is dropped, never fatal (the worker already
        answered the actual request)."""
        delta = response.pop("_metrics", None)
        if not isinstance(delta, dict):
            return
        try:
            self.metrics.merge(delta)
        except (ValueError, KeyError, TypeError, IndexError):
            pass

    def _absorb_spans(self, response: dict) -> None:
        """Pop a worker's shipped "_spans" block and re-emit the records
        into this supervisor's trace sink; without a tracer the block is
        dropped (it must never reach the client either way)."""
        spans = response.pop("_spans", None)
        if not isinstance(spans, list) or self.tracer is None:
            return
        try:
            absorbed = self.tracer.emit_foreign(spans)
        except (OSError, ValueError, TypeError):
            return
        if absorbed:
            self.metrics.counter("trace.spans.absorbed").inc(absorbed)

    def _error_response(
        self, request, kind: str, retriable: bool, attempts: int, message: str
    ) -> dict:
        response = {
            "ok": False,
            "error": message,
            "error_kind": kind,
            "retriable": retriable,
            "attempts": attempts,
            "op": request.get("op", "analyze"),
        }
        if "id" in request:
            response["id"] = request["id"]
        return response

    def _broadcast(self, request: dict) -> dict:
        """Send one request to every live worker (cache invalidation
        must reach each worker's in-memory store; the shared disk store
        is cleared by whichever worker gets there first)."""
        response = {"ok": True, "op": request.get("op")}
        workers = self.pool.workers()
        if not workers:
            workers = [self.pool.checkout()]
        for slot, worker in workers:
            try:
                answer = worker.request(dict(request), self._timeout_for(request))
            except (WorkerCrashed, WorkerTimeout):
                self.pool.report_crash(slot)
                self.metrics.counter("serve.worker.respawns").inc()
                continue
            self.pool.report_success(slot)
            self._absorb_metrics(answer)
            self._absorb_spans(answer)
            response.update(
                (key, value) for key, value in answer.items()
                if key not in ("elapsed_ms",)
            )
        if "id" in request:
            response["id"] = request["id"]
        return response

    # ------------------------------------------------------------------

    def stats(self) -> dict:
        return {
            "requests_served": self.requests_served,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "crashes_survived": self.crashes_survived,
            "quarantined": len(self._quarantine),
            "retained_checkpoints": len(self._resume),
            "pool": self.pool.stats(),
            "metrics": self.metrics.snapshot(),
        }

    def close(self) -> None:
        self.pool.close()
        if self.tracer is not None:
            # Ends anything still open (marked aborted) and flushes the
            # shared sink; the sink itself belongs to whoever opened it.
            self.tracer.close()

    def __enter__(self) -> "Supervisor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


__all__ = ["Supervisor", "SupervisorConfig"]
