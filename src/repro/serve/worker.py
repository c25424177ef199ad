"""The worker-subprocess side of the supervisor.

``python -m repro.serve.worker`` is spawned by the supervisor's one
:class:`repro.serve.pool.Worker`.  Protocol, all JSON lines on
stdin/stdout: the first line is the wire-encoded
:class:`~repro.serve.service.ServiceConfig`, answered by one ready line
once the service is built; every later line is one request, answered by
exactly one response line.  The worker is the crash-isolation boundary
— a segfault, OOM kill, or runaway recursion takes down this process,
never the service: the supervisor reaps the corpse, spawns a
replacement, and retries or answers with a structured error.

Requests may carry a ``"_chaos"`` directive (injected by the
supervisor's :class:`~repro.robust.FaultPlan`, or by a test driving the
protocol directly); it is stripped before the request reaches the
service:

* ``{"kill": true}`` — SIGKILL *this* process on receipt, before any
  response: the deterministic stand-in for a segfault mid-request;
* ``{"delay": seconds}`` — compute the response, then sleep before
  writing it: the stand-in for a runaway request that must be killed by
  the supervisor's wall-clock timer;
* ``{"exit": code}`` — exit immediately with ``code``;
* ``{"kill_at_iteration": m}`` — SIGKILL this process at the m-th
  fixpoint pass of the request, *after* that pass's checkpoint
  decision: the deterministic stand-in for a crash mid-fixpoint, used
  by the chaos campaign to prove checkpointed resume.

Besides the one response line per request, the worker may emit
**interim lines** ``{"_interim": "checkpoint", "checkpoint": {...}}``
— one per snapshot the service's
:class:`~repro.robust.checkpoint.CheckpointPolicy` emits.  The
supervisor retains the newest one per request key and attaches it as
``"resume"`` when it retries after a crash, so a killed worker's
fixpoint progress survives even without a shared disk store.  The
worker trusts its pipe: it pops ``"resume"`` and hands it to the
service as an argument, while the service ignores the field in a
request.

Requests may also carry a ``"_trace"`` context (see docs/tracing.md):
``{"trace": "<id>", "parent": "<process>:<span>"}``.  The worker then
opens its root span *under* the supervisor's span — a per-request
:class:`~repro.obs.Tracer` buffers the request's spans in memory and
the completed records ship up as a ``"_spans"`` block next to
``"_metrics"``.  A worker that dies mid-request ships nothing; the
supervisor synthesizes an explicitly aborted attempt span instead, so
the stitched tree stays well formed.  Without ``"_trace"`` the cost is
one dict ``pop`` per request.

Python-level failures that *can* be caught (a bug in the analyzer, a
``RecursionError`` that unwound cleanly) are answered in-process as
``{"ok": false, ...}`` — only genuinely fatal events cost a worker.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time
from typing import Optional

from ..robust import Budget
from .pool import READY_LINE
from .service import AnalysisService, ServiceConfig

# ----------------------------------------------------------------------
# ServiceConfig over the wire.  Budgets flatten to a plain dict; every
# field is JSON-native already.

_CONFIG_FIELDS = (
    "depth",
    "subsumption",
    "on_undefined",
    "environment_trimming",
    "library",
    "max_entries",
    "max_bytes",
    "store_dir",
    "journal",
    "checkpoint_every",
)


def config_to_wire(config: ServiceConfig) -> dict:
    """A JSON-safe dict that :func:`config_from_wire` reverses."""
    wire = {name: getattr(config, name) for name in _CONFIG_FIELDS}
    budget = config.budget
    wire["budget"] = budget.to_wire() if budget is not None else None
    return wire


def config_from_wire(wire: dict) -> ServiceConfig:
    return ServiceConfig(
        budget=Budget.from_wire(wire.get("budget")),
        **{name: wire[name] for name in _CONFIG_FIELDS if name in wire},
    )


# ----------------------------------------------------------------------
# The request loop.


def _apply_chaos_on_receipt(chaos: Optional[dict]) -> None:
    if not chaos:
        return
    if chaos.get("exit") is not None:
        os._exit(int(chaos["exit"]))
    if chaos.get("kill"):
        os.kill(os.getpid(), signal.SIGKILL)


class _SpanBuffer:
    """A Tracer sink that keeps the request's records in memory."""

    __slots__ = ("lines",)

    def __init__(self):
        self.lines = []

    def write(self, line: str) -> None:
        self.lines.append(line)

    def flush(self) -> None:
        pass

    def records(self):
        return [json.loads(line) for line in self.lines]


def worker_loop(stdin, stdout) -> int:
    """Config line, then request/response lines until EOF or shutdown."""
    first = stdin.readline()
    if not first.strip():
        return 0
    try:
        config = config_from_wire(json.loads(first))
    except (ValueError, TypeError) as error:
        stdout.write(json.dumps(
            {"ok": False, "error": f"bad worker config: {error}"}
        ) + "\n")
        stdout.flush()
        return 2
    service = AnalysisService(config)
    stdout.write(READY_LINE + "\n")
    stdout.flush()

    def ship_checkpoint(snap: dict) -> None:
        stdout.write(json.dumps(
            {"_interim": "checkpoint", "checkpoint": snap}, sort_keys=True
        ) + "\n")
        stdout.flush()

    service.checkpoint_wire_sink = ship_checkpoint
    #: Per-request trace sequence: each traced request gets a fresh
    #: span-id namespace ("worker-<pid>.<seq>"), so a worker reused
    #: across requests never reuses a stitched span id.
    trace_seq = 0
    for line in stdin:
        line = line.strip()
        if not line:
            continue
        chaos = None
        try:
            request = json.loads(line)
        except ValueError as error:
            response = {"ok": False, "error": f"bad JSON: {error}"}
        else:
            if isinstance(request, dict):
                chaos = request.pop("_chaos", None)
                _apply_chaos_on_receipt(chaos)
                if chaos and chaos.get("kill_at_iteration") is not None:
                    service.kill_at_iteration = int(chaos["kill_at_iteration"])
                trace_context = request.pop("_trace", None)
                buffer = None
                if isinstance(trace_context, dict):
                    from ..obs.trace import Tracer

                    trace_seq += 1
                    buffer = _SpanBuffer()
                    service.tracer = Tracer(
                        buffer,
                        process=f"worker-{os.getpid()}.{trace_seq}",
                        context=trace_context,
                    )
                resume = request.pop("resume", None)
                try:
                    response = service.handle(request, resume=resume)
                except Exception as error:  # the isolation boundary
                    response = {
                        "ok": False,
                        "error": f"worker exception: {error!r}",
                    }
                finally:
                    service.kill_at_iteration = None
                if buffer is not None:
                    # close() ends anything a caught failure left open
                    # (marked aborted), so the shipped block is always
                    # a complete per-process trace.
                    service.tracer.close()
                    service.tracer = None
                    spans = buffer.records()
                    if spans:
                        response["_spans"] = spans
                        service.metrics.counter(
                            "trace.spans.shipped"
                        ).inc(len(spans))
                # Ship what this request changed in the worker's
                # registry; the supervisor pops "_metrics" and merges
                # it into its aggregate (see docs/observability.md).
                delta = service.metrics.delta()
                if delta:
                    response["_metrics"] = delta
            else:
                response = {"ok": False, "error": "request must be an object"}
        if chaos and chaos.get("delay"):
            time.sleep(float(chaos["delay"]))
        stdout.write(json.dumps(response, sort_keys=True) + "\n")
        stdout.flush()
        if response.get("shutdown"):
            break
    service.close()
    return 0


def main() -> int:
    return worker_loop(sys.stdin, sys.stdout)


if __name__ == "__main__":
    sys.exit(main())
