"""The sharded gateway (repro.serve.gateway + repro.serve.shard).

The contract under test: routing is deterministic and stable, every
served (non-shed) response equals a from-scratch ``analyze()``, overload
is answered with *structured* shed responses instead of unbounded
queues, degraded-under-load responses are explicitly marked, a dead
backend costs at most one structured error before the shard respawns
and is warmed up, and protocol abuse (oversized lines, torn
connections) never takes the gateway down.
"""

import asyncio
import json
import threading
import time

import pytest

from repro.analysis.driver import Analyzer
from repro.bench.load import _Client
from repro.prolog.program import Program
from repro.serve import (
    ConsistentHashRing,
    Gateway,
    GatewayConfig,
    ServiceConfig,
    ShardSaturated,
    route_key,
    shed_response,
)
from repro.serve.gateway import DEGRADE_MAX_ITERATIONS, DEGRADE_MAX_STEPS
from repro.serve.service import AnalysisService
from repro.serve.shard import Shard

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
    (NREV, "nrev(glist, var)"),
    (QSORT, "qsort(glist, var, g)"),
]


def _scratch(text, entry):
    return Analyzer(Program.from_text(text)).analyze([entry]).stable_dict()


async def _connect(gateway):
    host, port = gateway.address
    return await asyncio.open_connection(host, port)


async def _ask(reader, writer, payload):
    writer.write((json.dumps(payload) + "\n").encode("utf-8"))
    await writer.drain()
    return json.loads(await reader.readline())


# ----------------------------------------------------------------------
# Consistent hashing.


def test_ring_is_deterministic_and_uses_every_shard():
    keys = [f"text:program-{index}" for index in range(200)]
    first = ConsistentHashRing(range(4))
    second = ConsistentHashRing(range(4))
    owners = [first.route(key) for key in keys]
    assert owners == [second.route(key) for key in keys]
    assert set(owners) == {0, 1, 2, 3}


def test_ring_moves_few_keys_when_a_shard_joins():
    keys = [f"text:program-{index}" for index in range(500)]
    before = ConsistentHashRing(range(4))
    after = ConsistentHashRing(range(5))
    moved = sum(
        1 for key in keys if before.route(key) != after.route(key)
    )
    # Consistent hashing: ~1/5 of the keyspace moves, not most of it.
    assert moved < len(keys) // 2


def test_route_key_prefers_text_then_file():
    assert route_key({"text": "a(x).", "file": "f.pl"}) == "text:a(x)."
    assert route_key({"file": "f.pl"}) == "file:f.pl"
    assert route_key({"op": "stats"}) == "op:stats"


def test_shed_response_is_structured_and_retriable():
    response = shed_response(
        {"op": "analyze", "id": 7}, "queue-full", shard=1
    )
    assert response["ok"] is False
    assert response["error_kind"] == "shed"
    assert response["shed"] is True
    assert response["reason"] == "queue-full"
    assert response["retriable"] is True
    assert response["shard"] == 1
    assert response["id"] == 7
    assert "retry_after_ms" not in response  # only when estimable


def test_shed_response_carries_retry_after_hint():
    response = shed_response(
        {"op": "analyze"}, "queue-full", retry_after_ms=123.4567
    )
    assert response["retry_after_ms"] == 123.457


# ----------------------------------------------------------------------
# Correctness through the socket: served == from-scratch.


def test_gateway_round_trip_equals_scratch():
    async def scenario():
        gateway = Gateway(
            GatewayConfig(shards=2, workers=0), ServiceConfig()
        )
        await gateway.start()
        reader, writer = await _connect(gateway)
        try:
            shards_seen = set()
            for text, entry in PROGRAMS:
                response = await _ask(reader, writer, {
                    "op": "analyze", "text": text, "entries": [entry],
                })
                assert response["ok"], response
                assert response["status"] == "exact"
                assert response["result"] == _scratch(text, entry)
                shards_seen.add(response["shard"])
            # Same program again: same shard (stable routing), warm.
            response = await _ask(reader, writer, {
                "op": "analyze", "text": NREV,
                "entries": ["nrev(glist, var)"],
            })
            assert response["cache"]["outcome"] == "hit"
        finally:
            writer.close()
            await gateway.stop()

    asyncio.run(scenario())


def test_responses_correlate_by_id_when_pipelined():
    async def scenario():
        gateway = Gateway(
            GatewayConfig(shards=2, workers=0), ServiceConfig()
        )
        await gateway.start()
        reader, writer = await _connect(gateway)
        try:
            for index, (text, entry) in enumerate(PROGRAMS * 2):
                writer.write((json.dumps({
                    "op": "analyze", "text": text, "entries": [entry],
                    "id": index,
                }) + "\n").encode("utf-8"))
            await writer.drain()
            answers = {}
            for _ in range(len(PROGRAMS) * 2):
                response = json.loads(await reader.readline())
                answers[response["id"]] = response
            assert sorted(answers) == list(range(len(PROGRAMS) * 2))
            for index, (text, entry) in enumerate(PROGRAMS * 2):
                assert answers[index]["ok"]
                assert answers[index]["result"] == _scratch(text, entry)
        finally:
            writer.close()
            await gateway.stop()

    asyncio.run(scenario())


# ----------------------------------------------------------------------
# Admission control and load shedding (controlled fake backends).


class _BlockingBackend:
    """A backend whose handle() blocks until released; records payloads."""

    def __init__(self):
        self.release = threading.Event()
        self.payloads = []

    def handle(self, request):
        self.payloads.append(dict(request))
        assert self.release.wait(timeout=30.0), "test never released backend"
        return {"ok": True, "status": "exact", "echo": True}

    def close(self):
        self.release.set()


async def _wait_for_pickup(backends, count=1, shard_id=0, timeout=10.0):
    """Until the (lazily spawned) backend exists and the dispatch
    thread has handed it ``count`` requests (they then block on its
    release event).  Returns the backend."""
    deadline = time.monotonic() + timeout
    while (
        shard_id not in backends
        or len(backends[shard_id].payloads) < count
    ):
        assert time.monotonic() < deadline, "backend never picked up work"
        await asyncio.sleep(0.01)
    return backends[shard_id]


def test_queue_full_requests_are_shed_not_queued():
    async def scenario():
        backends = {}

        def factory(shard_id):
            backends[shard_id] = _BlockingBackend()
            return backends[shard_id]

        gateway = Gateway(
            GatewayConfig(shards=1, workers=0, queue_depth=2,
                          degrade_depth=2),
            backend_factory=factory,
        )
        await gateway.start()
        reader, writer = await _connect(gateway)
        try:
            # One request occupies the backend, two fill the queue;
            # everything past that must shed immediately.
            writer.write((json.dumps({
                "op": "analyze", "text": "a(x).", "id": 0,
            }) + "\n").encode("utf-8"))
            await writer.drain()
            await _wait_for_pickup(backends)
            for index in range(1, 6):
                writer.write((json.dumps({
                    "op": "analyze", "text": "a(x).", "id": index,
                }) + "\n").encode("utf-8"))
            await writer.drain()
            shed = []
            served = []
            # The 3 overflow responses arrive while the backend is
            # still blocked — shedding never waits on the backend.
            for _ in range(3):
                response = json.loads(await reader.readline())
                assert response["shed"] is True, response
                assert response["reason"] == "queue-full"
                assert response["error_kind"] == "shed"
                # Queue-full sheds carry the backoff hint (the smoothed
                # wait estimate; 0.0 here — nothing served yet).
                assert response["retry_after_ms"] >= 0.0
                shed.append(response["id"])
            backends[0].release.set()
            for _ in range(3):
                response = json.loads(await reader.readline())
                assert response.get("echo") is True
                served.append(response["id"])
            assert len(set(shed) | set(served)) == 6
        finally:
            writer.close()
            await gateway.stop()

    asyncio.run(scenario())


class _GatedService(_BlockingBackend):
    """An in-process service that holds each request until released."""

    def __init__(self):
        super().__init__()
        self.service = AnalysisService(ServiceConfig())

    def handle(self, request):
        super().handle(request)
        return self.service.handle(request)


def _gated_gateway(config, open_shards=()):
    """A gateway over gated in-process services, and its backends by
    shard id; each is spawned at its shard's first request, released
    for good when its shard is in ``open_shards``."""
    backends = {}

    def factory(shard_id):
        backends[shard_id] = backend = _GatedService()
        if shard_id in open_shards:
            backend.release.set()
        return backend

    return Gateway(config, backend_factory=factory), backends


def _nrev_on_shard(gateway, shard_id):
    """NREV, with a comment that routes it to ``shard_id``."""
    for salt in range(1000):
        text = f"{NREV}% {salt}\n"
        if gateway.ring.route(route_key({"text": text})) == shard_id:
            return text
    raise AssertionError(f"no comment routes NREV to shard {shard_id}")


def _analyze_nrev(text):
    return {"op": "analyze", "text": text, "entries": ["nrev(glist, var)"]}


async def _saturate_shard_0(gateway, backends, client, text, timeout=10.0):
    """Serve one request on shard 0, which gives it a latency estimate,
    then hold one in its gated backend and one in its queue, one deep;
    returns the tasks of the two held."""
    served = asyncio.ensure_future(client.request(_analyze_nrev(text)))
    backend = await _wait_for_pickup(backends)
    backend.release.set()
    assert (await served)["ok"]
    backend.release.clear()
    held = [asyncio.ensure_future(client.request(_analyze_nrev(text)))]
    await _wait_for_pickup(backends, count=2)
    held.append(asyncio.ensure_future(client.request(_analyze_nrev(text))))
    deadline = time.monotonic() + timeout
    while gateway.shards[0].depth() < 1:
        assert time.monotonic() < deadline, "request never queued"
        await asyncio.sleep(0.01)
    return held


def test_burst_gets_one_answer_per_request_and_sheds_without_waiting():
    # Shedding never waits on the backend, so under overload a refused
    # request costs a round trip, not a queue wait: that is what keeps
    # the gateway's tail latency bounded.
    async def scenario():
        # degrade_depth=queue_depth: no admitted request is degraded.
        gateway, backends = _gated_gateway(GatewayConfig(
            shards=2, workers=0, queue_depth=2, degrade_depth=2,
        ))
        host, port = await gateway.start()
        clients = [await _Client.connect(host, port) for _ in range(3)]
        texts = [_nrev_on_shard(gateway, shard_id) for shard_id in (0, 1)]
        try:
            # Occupy each shard's backend, then burst: per shard two
            # requests fill the queue and seven are shed.
            sent = []  # (client number, task)
            for shard_id, text in enumerate(texts):
                sent.append((0, asyncio.ensure_future(
                    clients[0].request(_analyze_nrev(text))
                )))
                await _wait_for_pickup(backends, shard_id=shard_id)
            burst = []
            for index in range(6):
                for number, client in enumerate(clients):
                    task = asyncio.ensure_future(client.request({
                        "op": ("analyze", "lint")[index // 2 % 2],
                        "text": texts[index % 2],
                        "entries": ["nrev(glist, var)"],
                    }))
                    burst.append(task)
                    sent.append((number, task))
            deadline = time.monotonic() + 10.0
            while sum(task.done() for task in burst) < 14:
                assert time.monotonic() < deadline, "sheds never arrived"
                await asyncio.sleep(0.01)
            await asyncio.sleep(0.1)  # nothing else comes back meanwhile
            assert not any(b.release.is_set() for b in backends.values())
            shed = [task.result() for task in burst if task.done()]
            assert sorted(r["shard"] for r in shed) == [0] * 7 + [1] * 7
            for response in shed:
                assert response["ok"] is False
                assert response["error_kind"] == "shed"
                assert response["reason"] == "queue-full"
                assert response["retriable"] is True
            for backend in backends.values():
                backend.release.set()
            answers = await asyncio.gather(*(task for _, task in sent))
            assert None not in answers
            served = [r for r in answers if not r.get("shed")]
            assert len(served) == 6 and all(r["ok"] for r in served)
            scratch = _scratch(NREV, "nrev(glist, var)")
            for response in served:
                if response["op"] == "analyze":
                    assert response["result"] == scratch
            # One answer per request: each client's ids came back once.
            for number in range(len(clients)):
                ids = sorted(
                    task.result()["id"] for owner, task in sent
                    if owner == number
                )
                assert ids == list(range(1, len(ids) + 1))
            assert gateway.requests_served == len(sent)
        finally:
            for backend in backends.values():
                backend.release.set()
            for client in clients:
                await client.close()
            await gateway.stop()

    asyncio.run(scenario())


def test_queue_full_shed_hints_a_wait_after_which_a_retry_is_served():
    async def scenario():
        gateway, backends = _gated_gateway(
            GatewayConfig(shards=1, workers=0, queue_depth=1)
        )
        host, port = await gateway.start()
        client = await _Client.connect(host, port)
        try:
            held = await _saturate_shard_0(gateway, backends, client, NREV)
            shed = await client.request(_analyze_nrev(NREV))
            assert shed["reason"] == "queue-full"
            assert shed["retriable"] is True
            # The hint: the queue ahead times the served request's latency.
            assert shed["retry_after_ms"] > 0
            backends[0].release.set()
            await asyncio.sleep(shed["retry_after_ms"] / 1000.0)
            # The backlog the hint estimated has drained (awaited, so
            # the test does not race the dispatch thread).
            assert all(r["ok"] for r in await asyncio.gather(*held))
            retried = await client.request(_analyze_nrev(NREV))
            assert retried["ok"], retried
            assert retried["result"] == _scratch(NREV, "nrev(glist, var)")
        finally:
            for backend in backends.values():
                backend.release.set()
            await client.close()
            await gateway.stop()

    asyncio.run(scenario())


def test_invalidate_reports_the_shard_it_missed_and_a_retry_reaches_both():
    async def scenario():
        gateway, backends = _gated_gateway(
            GatewayConfig(shards=2, workers=0, queue_depth=1),
            open_shards={1},
        )
        host, port = await gateway.start()
        client = await _Client.connect(host, port)
        text = _nrev_on_shard(gateway, 0)
        try:
            held = await _saturate_shard_0(gateway, backends, client, text)
            partial = await client.request({"op": "invalidate"})
            assert partial["ok"] is False
            assert partial["error_kind"] == "partial-fanout"
            assert partial["retriable"] is True
            assert partial["shards_reached"] == 1
            assert partial["retry_after_ms"] > 0
            backends[0].release.set()
            assert all(r["ok"] for r in await asyncio.gather(*held))
            retried = await client.request({"op": "invalidate"})
            assert retried["ok"] is True
            assert retried["shards_reached"] == 2
        finally:
            for backend in backends.values():
                backend.release.set()
            await client.close()
            await gateway.stop()

    asyncio.run(scenario())


def test_degrade_budget_applied_above_soft_threshold():
    async def scenario():
        backends = {}

        def factory(shard_id):
            backends[shard_id] = _BlockingBackend()
            return backends[shard_id]

        gateway = Gateway(
            GatewayConfig(shards=1, workers=0, queue_depth=8,
                          degrade_depth=2),
            backend_factory=factory,
        )
        await gateway.start()
        reader, writer = await _connect(gateway)
        try:
            for index in range(4):
                writer.write((json.dumps({
                    "op": "analyze", "text": "a(x).", "id": index,
                }) + "\n").encode("utf-8"))
            await writer.drain()
            await asyncio.sleep(0.3)  # let the queue build up
            backends[0].release.set()
            answers = {}
            for _ in range(4):
                response = json.loads(await reader.readline())
                answers[response["id"]] = response
            degraded = [
                index for index, response in answers.items()
                if response.get("degraded_by_gateway")
            ]
            assert degraded, "no request got the degrade budget"
            # The backend saw the tightened budget on those requests.
            tight = [
                payload for payload in backends[0].payloads
                if payload.get("budget")
            ]
            assert tight
            for payload in tight:
                assert payload["budget"]["max_steps"] == DEGRADE_MAX_STEPS
                assert (
                    payload["budget"]["max_iterations"]
                    == DEGRADE_MAX_ITERATIONS
                )
                assert payload["on_budget"] == "degrade"
        finally:
            writer.close()
            await gateway.stop()

    asyncio.run(scenario())


def test_deadline_unreachable_requests_shed_at_admission():
    async def scenario():
        backends = {}

        def factory(shard_id):
            backends[shard_id] = _BlockingBackend()
            return backends[shard_id]

        gateway = Gateway(
            GatewayConfig(shards=1, workers=0, queue_depth=64),
            backend_factory=factory,
        )
        await gateway.start()
        reader, writer = await _connect(gateway)
        try:
            # Pretend the shard is slow (smoothed latency 10s/request);
            # occupy the backend and park one filler in the queue so
            # estimated_wait = depth × ewma is 10s at admission time.
            gateway.shards[0].ewma_seconds = 10.0
            writer.write((json.dumps({
                "op": "analyze", "text": "a(x).", "id": 0,
            }) + "\n").encode("utf-8"))
            await writer.drain()
            await _wait_for_pickup(backends)
            writer.write((json.dumps({
                "op": "analyze", "text": "a(x).", "id": 1,
            }) + "\n").encode("utf-8"))
            writer.write((json.dumps({
                "op": "analyze", "text": "a(x).", "id": 2,
                "budget": {"deadline": 0.5},
            }) + "\n").encode("utf-8"))
            await writer.drain()
            response = json.loads(await reader.readline())
            assert response["id"] == 2  # shed immediately, first out
            assert response["shed"] is True
            assert response["reason"] == "deadline-unreachable"
            backends[0].release.set()
            answers = {}
            for _ in range(2):
                response = json.loads(await reader.readline())
                answers[response["id"]] = response
            assert answers[0].get("echo") and answers[1].get("echo")
        finally:
            writer.close()
            await gateway.stop()

    asyncio.run(scenario())


def test_lapsed_deadline_is_shed_at_dequeue():
    async def scenario():
        backends = {}

        def factory(shard_id):
            backends[shard_id] = _BlockingBackend()
            return backends[shard_id]

        gateway = Gateway(
            GatewayConfig(shards=1, workers=0, queue_depth=8),
            backend_factory=factory,
        )
        await gateway.start()
        reader, writer = await _connect(gateway)
        try:
            writer.write((json.dumps({
                "op": "analyze", "text": "a(x).", "id": 0,
            }) + "\n").encode("utf-8"))
            writer.write((json.dumps({
                "op": "analyze", "text": "a(x).", "id": 1,
                "budget": {"deadline": 0.2},
            }) + "\n").encode("utf-8"))
            await writer.drain()
            await asyncio.sleep(0.5)  # id=1 lapses while queued
            backends[0].release.set()
            answers = {}
            for _ in range(2):
                response = json.loads(await reader.readline())
                answers[response["id"]] = response
            assert answers[0].get("echo")
            assert answers[1]["shed"] is True
            assert answers[1]["reason"] == "deadline-lapsed"
        finally:
            writer.close()
            await gateway.stop()

    asyncio.run(scenario())


def test_refused_deadline_is_answered_not_shed():
    # A negative deadline is a malformed budget, not an unreachable
    # one: the service answers it, and a retrying client stops.
    async def scenario():
        gateway = Gateway(GatewayConfig(shards=1, workers=0))
        try:
            return await gateway.handle_request({
                "op": "analyze", "text": NREV,
                "entries": ["nrev(glist, var)"], "budget": {"deadline": -1},
            })
        finally:
            await gateway.stop()

    response = asyncio.run(scenario())
    assert "shed" not in response and "retriable" not in response
    assert response["ok"] is False and "deadline" in response["error"]


# ----------------------------------------------------------------------
# Self-healing: backend death → structured error → respawn → warm.


class _Breakable:
    def __init__(self, service):
        self.service = service
        self.broken = False

    def handle(self, request):
        if self.broken:
            raise RuntimeError("backend died")
        return self.service.handle(request)


def test_shard_respawns_and_warms_up_after_backend_death():
    async def scenario():
        created = []

        def factory(shard_id):
            backend = _Breakable(AnalysisService(ServiceConfig()))
            created.append(backend)
            return backend

        gateway = Gateway(
            GatewayConfig(shards=1, workers=0),
            backend_factory=factory,
        )
        await gateway.start()
        reader, writer = await _connect(gateway)
        try:
            request = {
                "op": "analyze", "text": NREV,
                "entries": ["nrev(glist, var)"],
            }
            first = await _ask(reader, writer, dict(request))
            assert first["ok"] and first["status"] == "exact"
            created[-1].broken = True
            # The dead backend costs exactly one structured error...
            failed = await _ask(reader, writer, dict(request))
            assert failed["ok"] is False
            assert failed["error_kind"] == "shard-failure"
            assert failed["retriable"] is True
            # ...then the shard respawns, warm-replays the hot set,
            # and serves the same answer as a from-scratch analyze.
            healed = await _ask(reader, writer, dict(request))
            assert healed["ok"], healed
            assert healed["result"] == _scratch(NREV, "nrev(glist, var)")
            stats = gateway.shards[0].stats()
            assert stats["respawns"] == 1
            assert stats["warmed"] >= 1
            assert len(created) == 2
            # The warm replay primed the fresh backend's cache.
            assert healed["cache"]["outcome"] == "hit"
        finally:
            writer.close()
            await gateway.stop()

    asyncio.run(scenario())


def test_shard_strikes_back_off_a_failing_backend_factory():
    # The shard's own strike count is the only backoff when the factory
    # itself raises (an in-process backend's DiskStore cannot create
    # its partition, say): no supervisor is there to see the failure.
    async def scenario():
        calls = []

        def factory(shard_id):
            calls.append(shard_id)
            if len(calls) <= 2:
                raise OSError("store partition unavailable")
            return AnalysisService(ServiceConfig())

        gateway = Gateway(
            GatewayConfig(shards=1, workers=0), backend_factory=factory
        )
        await gateway.start()
        reader, writer = await _connect(gateway)
        try:
            request = {
                "op": "analyze", "text": NREV,
                "entries": ["nrev(glist, var)"],
            }
            for strikes in (1, 2):
                shed = await _ask(reader, writer, dict(request))
                assert shed["ok"] is False
                assert shed["reason"] == "shard-respawning"
                assert gateway.shards[0].stats()["strikes"] == strikes
            served = await _ask(reader, writer, dict(request))
            assert served["ok"], served
            assert served["result"] == _scratch(NREV, "nrev(glist, var)")
            assert gateway.shards[0].stats()["strikes"] == 0
            assert len(calls) == 3
        finally:
            writer.close()
            await gateway.stop()

    asyncio.run(scenario())


# ----------------------------------------------------------------------
# Protocol abuse over the socket.


def test_gateway_runs_at_most_one_worker_per_shard():
    from repro.cli import main_serve

    with pytest.raises(ValueError, match="workers"):
        GatewayConfig(workers=2)
    with pytest.raises(SystemExit) as exit_info:
        main_serve(["--workers", "2"])
    assert exit_info.value.code == 2


def test_gateway_drops_chaos_from_clients():
    # A network client must not reach the worker's fault injection: a
    # 6 s delay directive would stall the shard's only dispatch thread.
    async def scenario():
        gateway = Gateway(
            GatewayConfig(shards=1, workers=1), ServiceConfig()
        )
        await gateway.start()
        reader, writer = await _connect(gateway)
        try:
            started = time.monotonic()
            response = await _ask(reader, writer, {
                "op": "analyze", "text": NREV,
                "entries": ["nrev(glist, var)"],
                "_chaos": {"delay": 6.0},
            })
            return response, time.monotonic() - started
        finally:
            writer.close()
            await gateway.stop()

    response, elapsed = asyncio.run(scenario())
    assert response["ok"], response
    assert response["result"] == _scratch(NREV, "nrev(glist, var)")
    assert elapsed < 4.0


def test_oversized_line_is_shed_and_next_request_survives():
    async def scenario():
        gateway = Gateway(
            GatewayConfig(shards=1, workers=0, max_line_bytes=4096),
            ServiceConfig(),
        )
        await gateway.start()
        reader, writer = await _connect(gateway)
        try:
            writer.write(b"y" * 9000 + b"\n")
            writer.write((json.dumps({
                "op": "analyze", "text": NREV,
                "entries": ["nrev(glist, var)"], "id": 1,
            }) + "\n").encode("utf-8"))
            await writer.drain()
            oversized = json.loads(await reader.readline())
            assert oversized["shed"] is True
            assert oversized["reason"] == "oversized"
            assert oversized["retriable"] is False
            survivor = json.loads(await reader.readline())
            assert survivor["id"] == 1 and survivor["ok"]
            snapshot = gateway.metrics.snapshot()
            assert snapshot["serve.input.oversized"]["value"] == 1
        finally:
            writer.close()
            await gateway.stop()

    asyncio.run(scenario())


def test_malformed_lines_get_structured_errors_and_are_counted():
    async def scenario():
        gateway = Gateway(
            GatewayConfig(shards=1, workers=0), ServiceConfig()
        )
        await gateway.start()
        reader, writer = await _connect(gateway)
        try:
            writer.write(b"this is not json\n[1, 2]\n")
            await writer.drain()
            bad_json = json.loads(await reader.readline())
            assert bad_json["ok"] is False and "bad JSON" in bad_json["error"]
            non_object = json.loads(await reader.readline())
            assert non_object["ok"] is False
            snapshot = gateway.metrics.snapshot()
            assert snapshot["serve.input.malformed"]["value"] == 2
        finally:
            writer.close()
            await gateway.stop()

    asyncio.run(scenario())


def test_connection_drop_mid_line_leaves_gateway_serving():
    async def scenario():
        gateway = Gateway(
            GatewayConfig(shards=1, workers=0), ServiceConfig()
        )
        await gateway.start()
        torn_reader, torn_writer = await _connect(gateway)
        torn_writer.write(b'{"op": "analyze", "text": "never finis')
        await torn_writer.drain()
        torn_writer.transport.abort()
        reader, writer = await _connect(gateway)
        try:
            response = await _ask(reader, writer, {
                "op": "analyze", "text": NREV,
                "entries": ["nrev(glist, var)"],
            })
            assert response["ok"]
            assert response["result"] == _scratch(NREV, "nrev(glist, var)")
        finally:
            writer.close()
            await gateway.stop()

    asyncio.run(scenario())


# ----------------------------------------------------------------------
# Fan-out ops and shutdown.


def test_stats_and_metrics_fan_out_across_shards():
    async def scenario():
        gateway = Gateway(
            GatewayConfig(shards=2, workers=0), ServiceConfig()
        )
        await gateway.start()
        reader, writer = await _connect(gateway)
        try:
            for text, entry in PROGRAMS:
                await _ask(reader, writer, {
                    "op": "analyze", "text": text, "entries": [entry],
                })
            stats = await _ask(reader, writer, {"op": "stats"})
            assert stats["ok"]
            assert len(stats["stats"]["shards"]) == 2
            assert stats["stats"]["gateway"]["shards"] == 2
            metrics = await _ask(reader, writer, {"op": "metrics"})
            assert metrics["ok"]
            names = set(metrics["metrics"])
            assert "gateway.requests{op=analyze}" in names
            # Shard-side counters merged into the same snapshot.
            assert any(name.startswith("serve.") for name in names)
        finally:
            writer.close()
            await gateway.stop()

    asyncio.run(scenario())


def test_shutdown_answers_then_drains():
    async def scenario():
        gateway = Gateway(
            GatewayConfig(shards=2, workers=0), ServiceConfig()
        )
        host, port = await gateway.start()
        reader, writer = await _connect(gateway)
        response = await _ask(reader, writer, {"op": "shutdown"})
        assert response["ok"] and response["shutdown"] is True
        await asyncio.wait_for(gateway.serve_until_stopped(), 30.0)
        writer.close()
        with pytest.raises((ConnectionError, OSError)):
            second = await asyncio.open_connection(host, port)
            second[1].close()

    asyncio.run(scenario())


def test_stop_with_drain_serves_already_admitted_requests():
    async def scenario():
        backends = {}

        def factory(shard_id):
            backends[shard_id] = _BlockingBackend()
            return backends[shard_id]

        gateway = Gateway(
            GatewayConfig(shards=1, workers=0, queue_depth=8),
            backend_factory=factory,
        )
        await gateway.start()
        reader, writer = await _connect(gateway)
        for index in range(3):
            writer.write((json.dumps({
                "op": "analyze", "text": "a(x).", "id": index,
            }) + "\n").encode("utf-8"))
        await writer.drain()
        await asyncio.sleep(0.2)
        backends[0].release.set()
        await gateway.stop(drain=True)
        answers = [json.loads(await reader.readline()) for _ in range(3)]
        assert all(answer.get("echo") for answer in answers)
        writer.close()

    asyncio.run(scenario())


# ----------------------------------------------------------------------
# The shard in isolation: saturation and drain-free close.


def test_shard_submit_raises_when_saturated():
    backend = _BlockingBackend()
    shard = Shard(0, lambda shard_id: backend, queue_depth=1)
    try:
        loop = asyncio.new_event_loop()
        try:
            # No loop running: futures are never resolved, which is
            # fine — only admission behaviour is under test.
            shard.submit({"op": "analyze"}, loop.create_future(), loop)
            time.sleep(0.2)  # let the dispatch thread pick up the first
            shard.submit({"op": "analyze"}, loop.create_future(), loop)
            with pytest.raises(ShardSaturated):
                shard.submit(
                    {"op": "analyze"}, loop.create_future(), loop
                )
        finally:
            loop.close()
    finally:
        backend.release.set()
        shard.close()


def test_shard_close_without_drain_sheds_queue():
    backend = _BlockingBackend()
    shard = Shard(0, lambda shard_id: backend, queue_depth=8)
    loop = asyncio.new_event_loop()
    try:
        shard.submit({"op": "analyze"}, loop.create_future(), loop)
        deadline = time.monotonic() + 10.0
        while not backend.payloads and time.monotonic() < deadline:
            time.sleep(0.01)  # dispatch thread now blocked in handle()
        for _ in range(3):
            shard.submit({"op": "analyze"}, loop.create_future(), loop)
        # close() flags shed-on-close *before* the backend is released,
        # so the three queued requests must be shed, not served.
        closer = threading.Thread(target=shard.close, args=(False,))
        closer.start()
        time.sleep(0.2)
        backend.release.set()
        closer.join(timeout=30.0)
        assert not closer.is_alive()
        assert shard.stats()["shed_closing"] == 3
    finally:
        loop.close()
