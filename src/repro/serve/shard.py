"""One gateway shard: a bounded queue in front of an owned backend.

A :class:`Shard` is the unit of horizontal partitioning behind
:class:`~repro.serve.gateway.Gateway`.  It owns exactly one *backend* —
a :class:`~repro.serve.supervisor.Supervisor` with its own worker and
journaled store, or an in-process
:class:`~repro.serve.service.AnalysisService` — and a single dispatch
thread that feeds the backend from a **bounded** queue.  The asyncio
event loop never talks to the backend directly: it enqueues
``(request, future)`` pairs and the dispatch thread resolves each
future via ``loop.call_soon_threadsafe``, so a slow or wedged backend
can never stall the gateway's event loop.

Robustness contract:

* **Bounded admission.**  :meth:`Shard.submit` refuses work beyond
  ``queue_depth`` with :class:`ShardSaturated` — the gateway turns that
  into a structured shed response instead of queueing unboundedly.
* **Deadline shedding at dequeue.**  A request whose deadline lapsed
  while it sat in the queue is answered with a shed response without
  ever running — late work is refused, not amplified.
* **Self-healing backend.**  A backend that *raises* out of ``handle``
  (a closed supervisor, an interpreter-level fault — request-level
  failures come back as ``{"ok": false}`` and don't count) marks the
  shard unhealthy; the dispatch thread rebuilds the backend before the
  next request after :func:`~repro.serve.pool.respawn_backoff` (the
  same restart policy the supervisor spawns its worker under, driven
  by the shard's own strike count), replays the gateway's hot requests
  through the fresh backend so hot fingerprints are served warm again,
  and keeps going.  Strikes reset on the next healthy response.
* **Graceful drain.**  :meth:`Shard.close` with ``drain=True`` lets
  every already-admitted request finish before the backend is closed;
  ``drain=False`` sheds the queue instead.
"""

from __future__ import annotations

import queue
import threading
import time
from typing import Callable, List, Optional

from ..errors import ReproError
from ..obs.metrics import MetricsRegistry
from .pool import respawn_backoff


class ShardSaturated(ReproError):
    """The shard's bounded queue is full (admission refused)."""


#: Sentinel that tells the dispatch thread to exit once reached.
_CLOSE = object()

#: Seconds to wait for the dispatch thread on close.
CLOSE_TIMEOUT = 30.0

#: EWMA smoothing for per-request latency (deadline estimation).
LATENCY_ALPHA = 0.2


def shed_response(
    request: dict,
    reason: str,
    shard: Optional[int] = None,
    retry_after_ms: Optional[float] = None,
) -> dict:
    """The structured load-shedding refusal for one request.

    ``retriable`` is always true: shedding is a statement about the
    service's load right now, never about the request itself.
    ``retry_after_ms``, when the shedder can estimate one (queue-full
    sheds use the shard's smoothed wait estimate), tells a well-behaved
    client how long to back off before resubmitting — blind immediate
    retries against a saturated shard only deepen the overload.
    """
    response = {
        "ok": False,
        "error": f"request shed: {reason}",
        "error_kind": "shed",
        "shed": True,
        "reason": reason,
        "retriable": True,
        "op": request.get("op", "analyze"),
    }
    if retry_after_ms is not None:
        response["retry_after_ms"] = round(float(retry_after_ms), 3)
    if shard is not None:
        response["shard"] = shard
    if "id" in request:
        response["id"] = request["id"]
    return response


class Shard:
    """A bounded-queue, self-healing front for one backend."""

    def __init__(
        self,
        shard_id: int,
        backend_factory: Callable[[int], object],
        queue_depth: int,
        warm_requests: Optional[Callable[[int], List[dict]]] = None,
        metrics=None,
        tracer=None,
    ):
        self.shard_id = shard_id
        #: Hard admission cap: requests beyond this depth are shed.
        self.queue_depth = queue_depth
        self._backend_factory = backend_factory
        #: Gateway-provided provider of hot requests to replay through a
        #: freshly respawned backend (store warm-up).
        self.warm_requests = warm_requests
        #: The MetricsRegistry the gateway shares (a private one when
        #: none is given); the dispatch thread only increments counters,
        #: which is safe.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: Optional process-named repro.obs.Tracer, used only on the
        #: dispatch thread (single-threaded, so its span stack stays
        #: LIFO).  A ``shard.dispatch`` span brackets each *traced*
        #: request — one that carries a ``_trace`` context from the
        #: gateway — and the context is re-pointed at that span before
        #: the backend sees it (docs/tracing.md).
        self.tracer = tracer
        self._queue: "queue.Queue" = queue.Queue(maxsize=queue_depth)
        self._backend = None
        self._healthy = False
        self._strikes = 0
        self._draining = False
        self._shed_on_close = False
        # Counters (dispatch-thread writes, event-loop reads; plain ints
        # are fine under the GIL and they are only observability).
        self.served = 0
        self.shed_lapsed = 0
        self.shed_closing = 0
        self.failures = 0
        self.respawns = 0
        self.spawned = 0
        self.warmed = 0
        self.ewma_seconds = 0.0
        self._thread = threading.Thread(
            target=self._dispatch, daemon=True,
            name=f"repro-shard-{shard_id}",
        )
        self._thread.start()

    # ------------------------------------------------------------------
    # The event-loop side.

    def depth(self) -> int:
        """Queued (not yet started) requests."""
        return self._queue.qsize()

    @property
    def healthy(self) -> bool:
        return self._healthy or self._backend is None  # lazy first spawn

    def estimated_wait(self, depth: Optional[int] = None) -> float:
        """Pessimistic seconds until a newly admitted request starts:
        queue depth times the smoothed per-request latency."""
        if depth is None:
            depth = self.depth()
        return depth * self.ewma_seconds

    def submit(self, request: dict, future, loop, deadline_at=None) -> None:
        """Enqueue one request; the dispatch thread will resolve
        ``future`` on ``loop``.  Raises :class:`ShardSaturated` when the
        bounded queue is full and :class:`ReproError` after close."""
        if self._draining:
            raise ReproError(f"shard {self.shard_id} is draining")
        try:
            self._queue.put_nowait((request, future, loop, deadline_at))
        except queue.Full:
            raise ShardSaturated(
                f"shard {self.shard_id} queue is full "
                f"({self.queue_depth} deep)"
            ) from None

    def close(self, drain: bool = True) -> None:
        """Stop the dispatch thread and the backend.

        ``drain=True`` serves everything already queued first;
        ``drain=False`` answers queued requests with shed responses.
        Blocking — call it off the event loop (``run_in_executor``)."""
        if self._draining:
            return
        self._draining = True
        self._shed_on_close = not drain
        self._queue.put(_CLOSE)
        self._thread.join(timeout=CLOSE_TIMEOUT)
        self._close_backend()

    # ------------------------------------------------------------------
    # The dispatch thread.

    def _dispatch(self) -> None:
        while True:
            item = self._queue.get()
            if item is _CLOSE:
                break
            request, future, loop, deadline_at = item
            if self._shed_on_close:
                self.shed_closing += 1
                self._resolve(future, loop, shed_response(
                    request, "shutting-down", shard=self.shard_id
                ))
                continue
            if deadline_at is not None and time.monotonic() > deadline_at:
                # The deadline lapsed while the request sat in the
                # queue; running it now could only waste capacity.
                self.shed_lapsed += 1
                self.metrics.counter("gateway.shard.shed_lapsed").inc()
                self._resolve(future, loop, shed_response(
                    request, "deadline-lapsed", shard=self.shard_id
                ))
                continue
            if not self._ensure_backend():
                self._resolve(future, loop, shed_response(
                    request, "shard-respawning", shard=self.shard_id
                ))
                continue
            context = request.get("_trace")
            traced = self.tracer is not None and isinstance(context, dict)
            if traced:
                self.tracer.begin(
                    "shard.dispatch",
                    _parent_ref=context.get("parent"),
                    shard=self.shard_id,
                    op=str(request.get("op", "analyze")),
                )
                request = dict(request)
                request["_trace"] = self.tracer.current_context()
            started = time.perf_counter()
            try:
                response = self._backend.handle(request)
            except Exception as error:  # noqa: BLE001 — survival boundary
                # Request-level failures come back as {"ok": false};
                # an *exception* means the backend itself is broken.
                if traced:
                    self.tracer.end(aborted=True, error_kind="shard-failure")
                self.failures += 1
                self._strikes += 1
                self._healthy = False
                self.metrics.counter("gateway.shard.failures").inc()
                self._resolve(future, loop, {
                    "ok": False,
                    "error": f"shard {self.shard_id} backend failed: "
                             f"{error!r}",
                    "error_kind": "shard-failure",
                    "retriable": True,
                    "shard": self.shard_id,
                    "op": request.get("op", "analyze"),
                    **({"id": request["id"]} if "id" in request else {}),
                })
                continue
            if traced:
                self.tracer.end()
                # A supervisor backend already absorbed its workers'
                # ``_spans`` blocks; pop defensively so the wire block
                # never reaches a client whatever the backend was.
                if isinstance(response, dict):
                    response.pop("_spans", None)
            elapsed = time.perf_counter() - started
            self.ewma_seconds = (
                elapsed if self.served == 0
                else (1.0 - LATENCY_ALPHA) * self.ewma_seconds
                + LATENCY_ALPHA * elapsed
            )
            self.served += 1
            self._strikes = 0
            if not isinstance(response, dict):
                response = {
                    "ok": False,
                    "error": "backend returned a non-object response",
                    "op": request.get("op", "analyze"),
                }
            response.setdefault("shard", self.shard_id)
            if "id" in request:
                response.setdefault("id", request["id"])
            self._resolve(future, loop, response)

    def _resolve(self, future, loop, response: dict) -> None:
        if future is None or loop is None:
            return  # internal (warm-up) submission: nobody is waiting
        def _set() -> None:
            if not future.cancelled():
                future.set_result(response)
        try:
            loop.call_soon_threadsafe(_set)
        except RuntimeError:
            pass  # the loop is gone (shutdown race); nothing to tell

    # ------------------------------------------------------------------
    # Backend lifecycle (dispatch thread only).

    def _ensure_backend(self) -> bool:
        if self._healthy and self._backend is not None:
            return True
        respawning = self._backend is not None or self.spawned > 0
        respawn_backoff(self._strikes)
        self._close_backend()
        try:
            self._backend = self._backend_factory(self.shard_id)
        except Exception:  # noqa: BLE001 — keep the thread alive
            self._strikes += 1
            return False
        self._healthy = True
        self.spawned += 1
        if respawning:
            self.respawns += 1
            self.metrics.counter("gateway.shard.respawns").inc()
            self._warm_up()
        return True

    def _warm_up(self) -> None:
        """Replay the gateway's hot requests through the fresh backend
        so a respawned shard re-serves hot fingerprints without cold
        re-analysis (the journaled disk store already survives; this
        re-primes the in-memory layers and full-result keys)."""
        if self.warm_requests is None:
            return
        try:
            hot = self.warm_requests(self.shard_id)
        except Exception:  # noqa: BLE001
            return
        for payload in hot:
            try:
                self._backend.handle(dict(payload))
                self.warmed += 1
                self.metrics.counter("gateway.shard.warmed").inc()
            except Exception:  # noqa: BLE001 — warm-up is best-effort
                return

    def _close_backend(self) -> None:
        backend, self._backend = self._backend, None
        self._healthy = False
        if backend is None:
            return
        close = getattr(backend, "close", None)
        if close is not None:
            try:
                close()
            except Exception:  # noqa: BLE001
                pass

    # ------------------------------------------------------------------

    def stats(self) -> dict:
        return {
            "shard": self.shard_id,
            "depth": self.depth(),
            "healthy": self._healthy,
            "served": self.served,
            "shed_lapsed": self.shed_lapsed,
            "shed_closing": self.shed_closing,
            "failures": self.failures,
            "spawned": self.spawned,
            "respawns": self.respawns,
            "warmed": self.warmed,
            "strikes": self._strikes,
            "ewma_ms": round(self.ewma_seconds * 1000.0, 3),
        }


__all__ = ["Shard", "ShardSaturated", "shed_response"]
