"""The network-facing sharded gateway: asyncio TCP, JSON lines, N shards.

``repro-serve --listen PORT --shards N`` runs a :class:`Gateway`: an
asyncio TCP server speaking the same JSON-lines request protocol as the
stdin loop, fronting ``N`` :class:`~repro.serve.shard.Shard` backends.
Each shard owns its own :class:`~repro.serve.supervisor.Supervisor`
(one worker + journaled store partition) or in-process service, and
every request is routed to exactly one shard by **consistent hashing of
its program fingerprint** — the same program always lands on the same
shard, so per-shard tables and stores stay warm and partitioned instead
of every shard cold-missing on every program.

Overload behaviour is the design center — *degrade, don't die*:

1. **Admission control.**  A request routed to a shard whose bounded
   queue is full, or whose estimated wait (queue depth × smoothed
   latency) already exceeds the request's deadline, is refused
   *immediately* with a structured shed response
   (``{"ok": false, "error_kind": "shed", "reason": ...}``) — the
   event loop never queues unboundedly and never blocks.
2. **Budget-based load shedding.**  Between the soft and hard depth
   thresholds the gateway still admits the request but tightens its
   budget (:meth:`repro.robust.Budget.tightened` with the fixed
   degrade budget), so the analysis completes as a sound ⊤-widened
   ``degraded`` response instead of stalling the queue — PR-2's
   degradation contract applied as a load-shedding valve.
3. **Shard self-healing.**  A shard whose backend breaks respawns after
   the shared restart backoff and is warmed up by replaying the
   gateway's hot request set (see :mod:`repro.serve.shard`); while it
   rebuilds, its requests shed instead of erroring unstructured.
4. **Graceful drain.**  Shutdown stops accepting connections, lets
   every admitted request finish (up to ``drain`` policy), then closes
   the shards.

Protocol notes: responses on one connection come back **in completion
order**, not submission order (requests pipeline across shards) — use
``"id"`` for correlation.  ``stats`` / ``metrics`` / ``invalidate``
fan out to every shard and aggregate; ``shutdown`` drains the whole
gateway.  Oversized request lines are drained in bounded chunks and
answered with a structured error, counted in the metrics registry.  A
connection's requests lose their ``_chaos`` and ``resume`` fields: fault
injection and checkpoint planting are for the process's own callers,
never for a network client.
"""

from __future__ import annotations

import asyncio
import bisect
import hashlib
import json
import os
import time
from collections import OrderedDict
from dataclasses import dataclass, replace
from threading import Lock
from typing import Dict, List, Optional, Sequence, Tuple

from ..robust import Budget
from .service import MAX_REQUEST_LINE, ServiceConfig
from .shard import Shard, ShardSaturated, shed_response

#: Budget forced onto requests admitted at or above the degrade depth —
#: tight enough that an overloaded shard answers with a sound ⊤-widened
#: degraded result instead of queueing real work.
DEGRADE_MAX_STEPS = 2048
DEGRADE_MAX_ITERATIONS = 4
DEGRADE_DEADLINE = 1.0

#: Virtual points per shard on the hash ring.
HASH_REPLICAS = 64

#: Hot analyze requests remembered for shard warm-up.
WARM_SET_SIZE = 32

#: Wall-clock bound in seconds for fan-out ops (stats/metrics/invalidate).
FANOUT_TIMEOUT = 30.0


# ----------------------------------------------------------------------
# Consistent hashing.


class ConsistentHashRing:
    """A classic consistent-hash ring over shard ids.

    Each shard contributes :data:`HASH_REPLICAS` virtual points placed by
    SHA-256 (stable across processes and ``PYTHONHASHSEED``); a key is
    owned by the first point clockwise from its own hash.  With one
    shard added or removed only ~1/N of the keyspace moves — the
    property that keeps per-shard stores warm across topology changes.
    """

    def __init__(self, shard_ids: Sequence[int]):
        if not shard_ids:
            raise ValueError("ring needs at least one shard")
        points: List[Tuple[int, int]] = []
        for shard_id in shard_ids:
            for replica in range(HASH_REPLICAS):
                points.append(
                    (self._hash(f"shard:{shard_id}:{replica}"), shard_id)
                )
        points.sort()
        self._hashes = [point for point, _ in points]
        self._owners = [owner for _, owner in points]

    @staticmethod
    def _hash(key: str) -> int:
        return int(
            hashlib.sha256(key.encode("utf-8")).hexdigest()[:16], 16
        )

    def route(self, key: str) -> int:
        """The shard id owning ``key``."""
        index = bisect.bisect_right(self._hashes, self._hash(key))
        return self._owners[index % len(self._owners)]


def route_key(request: dict) -> str:
    """The routing key of one request: its program content when inline,
    else the file path (the per-shard service fingerprints the actual
    text, so routing only needs to be *stable*, not content-perfect)."""
    if "text" in request:
        return "text:" + str(request["text"])
    if "file" in request:
        return "file:" + str(request["file"])
    return "op:" + str(request.get("op", "analyze"))


# ----------------------------------------------------------------------
# Trace plumbing.


class _LockedTraceSink:
    """A lock-protected writer over one shared trace file.

    The gateway tracer writes on the event loop, each shard tracer on
    its dispatch thread, and each supervisor re-emits worker spans on
    that same thread — per-*tracer* single-threadedness keeps span
    stacks LIFO, but the shared file handle needs serialized writes.
    """

    __slots__ = ("_handle", "_lock")

    def __init__(self, handle):
        self._handle = handle
        self._lock = Lock()

    def write(self, line: str) -> None:
        with self._lock:
            self._handle.write(line)

    def flush(self) -> None:
        with self._lock:
            self._handle.flush()

    def close(self) -> None:
        with self._lock:
            try:
                self._handle.flush()
            except (OSError, ValueError):
                pass
            self._handle.close()


# ----------------------------------------------------------------------
# Configuration.


@dataclass
class GatewayConfig:
    """Network, sharding, and overload-policy knobs."""

    host: str = "127.0.0.1"
    #: Port to bind (0 = ephemeral; read :attr:`Gateway.address` after
    #: :meth:`Gateway.start`).
    port: int = 0
    shards: int = 2
    #: 1: each shard runs requests in one supervised worker subprocess;
    #: 0: in the gateway process.
    workers: int = 1
    #: Hard per-shard admission cap (queue depth beyond which requests
    #: are shed with ``reason: "queue-full"``).
    queue_depth: int = 64
    #: Soft threshold: at this queued depth and above, admitted
    #: requests get the degrade budget (None = queue_depth // 2).
    degrade_depth: Optional[int] = None
    #: Longest accepted request line; longer lines are drained and
    #: answered with a structured error.
    max_line_bytes: int = MAX_REQUEST_LINE
    #: Per-request timeout forwarded to each shard's supervisor.
    request_timeout: Optional[float] = None
    max_retries: int = 2

    def __post_init__(self):
        if self.workers not in (0, 1):
            raise ValueError(
                f"workers must be 0 (in-process) or 1 (supervised), "
                f"not {self.workers!r}"
            )


class Gateway:
    """The asyncio front end over consistent-hashed shards."""

    def __init__(
        self,
        config: Optional[GatewayConfig] = None,
        service_config: Optional[ServiceConfig] = None,
        fault_plans: Optional[Dict[int, object]] = None,
        backend_factory=None,
        trace_path: Optional[str] = None,
    ):
        from ..obs.metrics import MetricsRegistry

        self.config = config if config is not None else GatewayConfig()
        if self.config.shards < 1:
            raise ValueError("gateway needs at least one shard")
        self.service_config = (
            service_config if service_config is not None else ServiceConfig()
        )
        self._fault_plans = fault_plans or {}
        self._backend_factory = backend_factory or self._default_backend
        self.metrics = MetricsRegistry()
        self.tracer = None
        #: Cross-process trace plumbing (docs/tracing.md): with
        #: ``trace_path`` set, every layer — gateway event loop, each
        #: shard's dispatch thread, each shard's supervisor — gets its
        #: own process-named Tracer over one locked shared sink, and
        #: workers' spans arrive via the ``_spans`` wire block.  One
        #: request then yields one stitched tree in one file.
        self._trace_sink: Optional[_LockedTraceSink] = None
        self._trace_id: Optional[str] = None
        self._shard_tracers: List = []
        #: Backend generation per shard: a respawned supervisor gets a
        #: fresh process name ("supervisor-<shard>g<gen>"), so its span
        #: ids never collide with its predecessor's in the stitched
        #: trace.
        self._backend_generation: Dict[int, int] = {}
        if trace_path is not None:
            from ..obs.trace import Tracer, new_trace_id

            self._trace_sink = _LockedTraceSink(
                open(trace_path, "w", encoding="utf-8")
            )
            self._trace_id = new_trace_id()
            self.tracer = Tracer(
                self._trace_sink, process="gateway",
                trace_id=self._trace_id,
            )
            self._shard_tracers = [
                Tracer(
                    self._trace_sink, process=f"shard-{shard_id}",
                    trace_id=self._trace_id,
                )
                for shard_id in range(self.config.shards)
            ]
        self.requests_served = 0
        self.connections = 0
        self._server = None
        self._stopping = False
        #: Created lazily inside the running loop (asyncio primitives
        #: bind their loop at construction on Python 3.9).
        self._stopped: Optional[asyncio.Event] = None
        self._conn_tasks: set = set()
        #: LRU of hot exact analyze requests (route key → payload),
        #: replayed into respawned shards; guarded by a lock because
        #: dispatch threads read it during warm-up.
        self._hot: "OrderedDict[str, dict]" = OrderedDict()
        self._hot_lock = Lock()
        self.ring = ConsistentHashRing(range(self.config.shards))
        self.shards = [
            Shard(
                shard_id,
                self._backend_factory,
                queue_depth=self.config.queue_depth,
                warm_requests=self._hot_requests_for,
                metrics=self.metrics,
                tracer=(
                    self._shard_tracers[shard_id]
                    if self._shard_tracers else None
                ),
            )
            for shard_id in range(self.config.shards)
        ]

    # ------------------------------------------------------------------
    # Shard construction.

    def _default_backend(self, shard_id: int):
        """One backend per shard: a Supervisor with its own worker and
        store partition, or an in-process service when workers=0."""
        service_config = self.service_config
        if service_config.store_dir:
            # Partition the store by shard: consistent hashing sends a
            # program to one shard, so shards never contend on entries
            # and a respawn only re-reads its own partition.
            service_config = replace(
                service_config,
                store_dir=os.path.join(
                    service_config.store_dir, f"shard-{shard_id}"
                ),
            )
        tracer = None
        if self._trace_sink is not None:
            from ..obs.trace import Tracer

            generation = self._backend_generation.get(shard_id, 0) + 1
            self._backend_generation[shard_id] = generation
            tracer = Tracer(
                self._trace_sink,
                process=f"supervisor-{shard_id}g{generation}",
                trace_id=self._trace_id,
            )
        if self.config.workers:
            from .supervisor import Supervisor, SupervisorConfig

            return Supervisor(
                service_config,
                SupervisorConfig(
                    request_timeout=self.config.request_timeout,
                    max_retries=self.config.max_retries,
                ),
                fault_plan=self._fault_plans.get(shard_id),
                tracer=tracer,
            )
        from .service import AnalysisService

        return AnalysisService(service_config, tracer=tracer)

    def _hot_requests_for(self, shard_id: int) -> List[dict]:
        with self._hot_lock:
            items = list(self._hot.items())
        return [
            dict(payload) for key, payload in items
            if self.ring.route(key) == shard_id
        ]

    def _remember_hot(self, key: str, request: dict) -> None:
        if "text" not in request:
            return  # file contents may change under us; don't replay
        payload = {
            "op": "analyze",
            "text": request["text"],
            "entries": list(request.get("entries") or []),
        }
        with self._hot_lock:
            self._hot[key] = payload
            self._hot.move_to_end(key)
            while len(self._hot) > WARM_SET_SIZE:
                self._hot.popitem(last=False)

    # ------------------------------------------------------------------
    # Lifecycle.

    def _stopped_event(self) -> asyncio.Event:
        if self._stopped is None:
            self._stopped = asyncio.Event()
        return self._stopped

    async def start(self) -> Tuple[str, int]:
        """Bind the socket; returns ``(host, port)`` actually bound."""
        self._stopped_event()
        self._server = await asyncio.start_server(
            self._on_connection,
            host=self.config.host,
            port=self.config.port,
            limit=self.config.max_line_bytes + 2,
        )
        return self.address

    @property
    def address(self) -> Tuple[str, int]:
        assert self._server is not None, "gateway not started"
        sock = self._server.sockets[0]
        name = sock.getsockname()
        return name[0], name[1]

    async def serve_until_stopped(self) -> None:
        await self._stopped_event().wait()

    async def stop(self, drain: bool = True) -> None:
        """Stop accepting, drain (or shed) the shards, close backends."""
        stopped = self._stopped_event()
        if self._stopping:
            await stopped.wait()
            return
        self._stopping = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        loop = asyncio.get_running_loop()
        await asyncio.gather(*(
            loop.run_in_executor(None, shard.close, drain)
            for shard in self.shards
        ))
        # The shards have answered (or shed) everything they admitted;
        # let the in-flight answer tasks flush those responses to their
        # connections before anything is cancelled.  stop() may itself
        # run inside an answer task (a routed shutdown op), which must
        # not await or cancel itself.
        current = asyncio.current_task()
        tasks = [task for task in self._conn_tasks if task is not current]
        if drain and tasks:
            try:
                await asyncio.wait_for(
                    asyncio.gather(*tasks, return_exceptions=True),
                    FANOUT_TIMEOUT,
                )
            except asyncio.TimeoutError:
                pass
        for task in tasks:
            task.cancel()
        # Supervisor tracers close with their backends (Shard.close →
        # Supervisor.close); the gateway owns the rest of the family
        # and the shared handle.
        for tracer in [self.tracer, *self._shard_tracers]:
            if tracer is not None:
                tracer.close()
        if self._trace_sink is not None:
            self._trace_sink.close()
        stopped.set()

    # ------------------------------------------------------------------
    # Connections.

    async def _on_connection(self, reader, writer) -> None:
        self.connections += 1
        self.metrics.counter("gateway.connections").inc()
        write_lock = asyncio.Lock()
        pending: set = set()
        try:
            while not self._stopping:
                line = await self._read_line(reader)
                if line is None:
                    break  # EOF (including mid-line: drop the partial)
                if line is OVERSIZED:
                    self.metrics.counter("gateway.shed", reason="oversized").inc()
                    self.metrics.counter("serve.input.oversized").inc()
                    await self._write(writer, write_lock, {
                        "ok": False,
                        "error": (
                            "request line exceeds "
                            f"{self.config.max_line_bytes} bytes"
                        ),
                        "error_kind": "shed",
                        "shed": True,
                        "reason": "oversized",
                        "retriable": False,
                    })
                    continue
                if not line.strip():
                    continue
                try:
                    request = json.loads(line)
                except ValueError as error:
                    self.metrics.counter("serve.input.malformed").inc()
                    await self._write(writer, write_lock, {
                        "ok": False, "error": f"bad JSON: {error}",
                    })
                    continue
                if not isinstance(request, dict):
                    self.metrics.counter("serve.input.malformed").inc()
                    await self._write(writer, write_lock, {
                        "ok": False, "error": "request must be an object",
                    })
                    continue
                request.pop("_chaos", None)
                request.pop("resume", None)
                if request.get("op") == "shutdown":
                    await self._write(writer, write_lock, {
                        "ok": True, "shutdown": True, "op": "shutdown",
                        **({"id": request["id"]} if "id" in request else {}),
                    })
                    asyncio.ensure_future(self.stop(drain=True))
                    break
                # Pipelining: each request runs concurrently; responses
                # are written in completion order under the lock.
                task = asyncio.ensure_future(
                    self._answer(request, writer, write_lock)
                )
                pending.add(task)
                self._conn_tasks.add(task)
                task.add_done_callback(pending.discard)
                task.add_done_callback(self._conn_tasks.discard)
        except (ConnectionError, asyncio.CancelledError):
            pass  # client vanished mid-line/mid-write: their loss only
        finally:
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_line(self, reader):
        """One request line, ``None`` on EOF, ``OVERSIZED`` after an
        overlong line has been drained in bounded chunks.

        The drain discards exactly the separator-free prefix the reader
        reported (``LimitOverrunError.consumed``), so the terminating
        newline — and the next, well-behaved request after it — is
        never swallowed along with the oversized line.
        """
        oversized = False
        while True:
            try:
                line = await reader.readuntil(b"\n")
            except asyncio.IncompleteReadError:
                return None  # EOF; a torn partial line is dropped
            except asyncio.LimitOverrunError as error:
                oversized = True
                try:
                    await reader.readexactly(max(1, error.consumed))
                except (asyncio.IncompleteReadError, ConnectionError):
                    return None
                continue
            except ConnectionError:
                return None
            return OVERSIZED if oversized else line

    async def _write(self, writer, lock: asyncio.Lock, response: dict) -> None:
        data = (json.dumps(response, sort_keys=True) + "\n").encode("utf-8")
        async with lock:
            writer.write(data)
            await writer.drain()

    async def _answer(self, request: dict, writer, lock) -> None:
        try:
            response = await self.handle_request(request)
        except asyncio.CancelledError:
            raise
        except Exception as error:  # noqa: BLE001 — must answer something
            response = {
                "ok": False,
                "error": f"gateway failure: {error!r}",
                "op": request.get("op", "analyze"),
            }
            if "id" in request:
                response["id"] = request["id"]
        try:
            await self._write(writer, lock, response)
        except (ConnectionError, OSError):
            # Connection dropped mid-request: the work completed, the
            # client just is not there to read it.
            self.metrics.counter("gateway.responses_dropped").inc()

    # ------------------------------------------------------------------
    # Request handling (also usable without a socket, e.g. in tests).

    async def handle_request(self, request: dict) -> dict:
        started = time.perf_counter()
        op = str(request.get("op", "analyze"))
        self.metrics.counter("gateway.requests", op=op).inc()
        try:
            if op == "stats":
                response = await self._stats(request)
            elif op == "metrics":
                response = await self._merged_metrics(request)
            elif op == "invalidate":
                response = await self._broadcast(request)
            elif op == "shutdown":
                asyncio.ensure_future(self.stop(drain=True))
                response = {"ok": True, "shutdown": True, "op": "shutdown"}
                if "id" in request:
                    response["id"] = request["id"]
            else:
                response = await self._routed(request)
        except asyncio.CancelledError:
            raise
        except (ValueError, KeyError, TypeError) as error:
            response = {"ok": False, "error": f"bad request: {error}"}
            if "id" in request:
                response["id"] = request["id"]
            response["op"] = op
        self.requests_served += 1
        elapsed = time.perf_counter() - started
        self.metrics.histogram("gateway.request.seconds").observe(elapsed)
        if not response.get("ok", True) and not response.get("shed"):
            self.metrics.counter("gateway.errors").inc()
        response.setdefault(
            "gateway_ms", round(elapsed * 1000.0, 3)
        )
        return response

    @staticmethod
    def _deadline_of(request: dict) -> Optional[float]:
        """The request's budget deadline; None for a budget
        :meth:`Budget.from_wire` refuses, which the service answers."""
        try:
            requested = Budget.from_wire(request.get("budget"))
        except (TypeError, ValueError):
            return None
        return requested.deadline if requested is not None else None

    def _degrade_depth(self) -> int:
        if self.config.degrade_depth is not None:
            return self.config.degrade_depth
        return max(1, self.config.queue_depth // 2)

    @staticmethod
    def _tighten_for_shedding(request: dict) -> dict:
        """The request with its budget tightened to the degrade budget
        (per-dimension minimum — a request can only get *stricter*).
        Raises ``ValueError`` for a budget that is not an object."""
        payload = dict(request)
        degrade = Budget(
            max_steps=DEGRADE_MAX_STEPS,
            max_iterations=DEGRADE_MAX_ITERATIONS,
            deadline=DEGRADE_DEADLINE,
        )
        effective = degrade.tightened(Budget.from_wire(payload.get("budget")))
        payload["budget"] = effective.to_wire()
        payload.setdefault("on_budget", "degrade")
        return payload

    def _shed(
        self, request: dict, reason: str, shard=None, retry_after_ms=None
    ) -> dict:
        self.metrics.counter("gateway.shed", reason=reason).inc()
        return shed_response(
            request, reason, shard=shard, retry_after_ms=retry_after_ms
        )

    async def _routed(self, request: dict) -> dict:
        """Admission control, budget shedding, and the shard round-trip
        for one analyze/lint (or unknown — the service answers those
        with its own structured error) request."""
        key = route_key(request)
        shard_id = self.ring.route(key)
        shard = self.shards[shard_id]
        if self.tracer is not None:
            # The admission decision is synchronous (no awaits), so the
            # span stays strictly nested even under pipelining.
            self.tracer.begin("gateway.admit", op=str(
                request.get("op", "analyze")), shard=shard_id)
        try:
            depth = shard.depth()
            if depth >= self.config.queue_depth:
                # Hint how long the backlog ahead is expected to take:
                # a client that honors it retries once the queue has
                # plausibly drained instead of hammering a full shard.
                return self._shed(
                    request, "queue-full", shard=shard_id,
                    retry_after_ms=shard.estimated_wait(depth) * 1000.0,
                )
            deadline = self._deadline_of(request)
            if deadline is not None and shard.estimated_wait(depth) > deadline:
                # The queue ahead of this request is already expected
                # to outlast its deadline: refuse now, cheaply, instead
                # of shedding at dequeue after the wait.
                return self._shed(
                    request, "deadline-unreachable", shard=shard_id
                )
            payload = dict(request)
            if self.tracer is not None:
                payload["_trace"] = self.tracer.current_context()
                self.metrics.counter("trace.contexts_issued").inc()
            degraded_by_gateway = False
            if depth >= self._degrade_depth():
                payload = self._tighten_for_shedding(payload)
                degraded_by_gateway = True
                self.metrics.counter("gateway.degrade_applied").inc()
            loop = asyncio.get_running_loop()
            future = loop.create_future()
            deadline_at = (
                time.monotonic() + deadline if deadline is not None else None
            )
            try:
                shard.submit(payload, future, loop, deadline_at)
            except ShardSaturated:
                return self._shed(
                    request, "queue-full", shard=shard_id,
                    retry_after_ms=shard.estimated_wait() * 1000.0,
                )
        finally:
            if self.tracer is not None:
                self.tracer.end()
        response = await future
        if degraded_by_gateway:
            response["degraded_by_gateway"] = True
        if (
            response.get("ok")
            and response.get("status") == "exact"
            and str(request.get("op", "analyze")) == "analyze"
        ):
            self._remember_hot(key, request)
        return response

    # ------------------------------------------------------------------
    # Fan-out ops.

    async def _ask_shard(self, shard: Shard, request: dict):
        """One fan-out request to one shard, bounded by the fan-out
        timeout; ``None`` when the shard cannot answer in time."""
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        try:
            shard.submit(
                dict(request), future, loop, time.monotonic() + FANOUT_TIMEOUT
            )
        except Exception:  # noqa: BLE001 — saturated or draining
            return None
        try:
            return await asyncio.wait_for(future, FANOUT_TIMEOUT + 1.0)
        except asyncio.TimeoutError:
            return None

    async def _stats(self, request: dict) -> dict:
        answers = await asyncio.gather(*(
            self._ask_shard(shard, {"op": "stats"})
            for shard in self.shards
        ))
        shards = []
        for shard, answer in zip(self.shards, answers):
            block = shard.stats()
            if isinstance(answer, dict) and answer.get("ok"):
                block["backend"] = {
                    key: answer[key]
                    for key in ("stats", "supervisor")
                    if key in answer
                }
            shards.append(block)
        response = {
            "ok": True,
            "op": "stats",
            "stats": {
                "gateway": self.stats(),
                "shards": shards,
            },
        }
        if "id" in request:
            response["id"] = request["id"]
        return response

    async def _merged_metrics(self, request: dict) -> dict:
        from ..obs.metrics import MetricsRegistry

        merged = MetricsRegistry()
        merged.merge(self.metrics.snapshot())
        answers = await asyncio.gather(*(
            self._ask_shard(shard, {"op": "metrics"})
            for shard in self.shards
        ))
        for answer in answers:
            if isinstance(answer, dict) and isinstance(
                answer.get("metrics"), dict
            ):
                try:
                    merged.merge(answer["metrics"])
                except (ValueError, KeyError, TypeError):
                    pass  # one shard's bad delta must not hide the rest
        response = {"ok": True, "op": "metrics", "metrics": merged.snapshot()}
        if "id" in request:
            response["id"] = request["id"]
        return response

    async def _broadcast(self, request: dict) -> dict:
        answers = await asyncio.gather(*(
            self._ask_shard(shard, dict(request)) for shard in self.shards
        ))
        with self._hot_lock:
            self._hot.clear()
        reached = sum(
            1 for answer in answers
            if isinstance(answer, dict) and answer.get("ok")
        )
        response = {
            "ok": reached == len(self.shards),
            "op": request.get("op"),
            "invalidated": True,
            "shards_reached": reached,
        }
        if reached < len(self.shards):
            # A saturated or respawning shard could not take the
            # broadcast: structured and retriable, like any other
            # overload refusal (the hot set is already cleared, so a
            # retry only has to reach the shards, not redo work).
            response["error"] = (
                f"invalidate reached {reached}/{len(self.shards)} shards"
            )
            response["error_kind"] = "partial-fanout"
            response["retriable"] = True
            # The unreached shards were saturated or respawning; hint
            # the longest expected drain among them as the backoff.
            response["retry_after_ms"] = round(max(
                (shard.estimated_wait() for shard in self.shards),
                default=0.0,
            ) * 1000.0, 3)
        if "id" in request:
            response["id"] = request["id"]
        return response

    # ------------------------------------------------------------------

    def stats(self) -> dict:
        return {
            "shards": self.config.shards,
            "workers_per_shard": self.config.workers,
            "requests_served": self.requests_served,
            "connections": self.connections,
            "queue_depth": self.config.queue_depth,
            "degrade_depth": self._degrade_depth(),
            "hot_set": len(self._hot),
            "metrics": self.metrics.snapshot(),
        }


#: Marker returned by :meth:`Gateway._read_line` for drained overlong
#: lines (distinct from both data and EOF).
OVERSIZED = object()


async def serve_gateway(gateway: Gateway) -> None:
    """Start and run ``gateway`` until a shutdown request stops it."""
    await gateway.start()
    try:
        await gateway.serve_until_stopped()
    finally:
        await gateway.stop()


__all__ = [
    "ConsistentHashRing",
    "Gateway",
    "GatewayConfig",
    "route_key",
    "serve_gateway",
]
