"""Load benchmark for the sharded gateway: concurrency, overload, shed.

``python -m repro.bench.load --out BENCH_load.json`` stands up a
:class:`~repro.serve.gateway.Gateway` on an ephemeral port and drives
thousands of concurrent JSON-line requests at it over real TCP
connections, in three phases:

* **warmup** — prime every shard's caches with the benchmark corpus;
* **steady** — sustained mixed traffic (analyze / lint / invalidate /
  stats) at a concurrency the gateway can absorb;
* **overload** — deliberately more in-flight requests than the shards'
  bounded queues can hold, so admission control *must* shed and the
  degrade valve *must* tighten budgets.  The point of the phase is not
  throughput; it is that the gateway answers everything — fast,
  structured shed responses included — instead of queueing unboundedly
  or stalling the event loop.

Every request is accounted for: a request that never got a response
("unserved") is a contract violation and fails the run (exit 1), as is
an unstructured error.  Shed responses are retried once; the document
records how many retries succeeded.  The emitted JSON carries per-phase
p50/p95/p99 latency, saturation throughput (completed requests per
second during overload), and shed / degraded / retry / respawn counts —
the numbers the CI ``load`` job gates on.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time
from typing import Dict, List, Optional, Sequence

from ..serve.gateway import Gateway, GatewayConfig
from ..serve.service import ServiceConfig
from .chaos import _percentile
from .programs import BENCHMARKS

#: Small programs that cycle fast enough to sustain thousands of
#: requests (matches the chaos campaign's selection).
PROGRAM_NAMES = ("log10", "ops8", "times10", "divide10", "nreverse", "qsort")


class _Client:
    """One TCP connection with id-correlated pipelining.

    The gateway answers in completion order, so the reader task routes
    each response to its request's future by ``id``.
    """

    def __init__(self, reader, writer):
        self._reader = reader
        self._writer = writer
        self._pending: Dict[int, asyncio.Future] = {}
        self._next_id = 0
        self._reader_task = asyncio.ensure_future(self._read_loop())

    @classmethod
    async def connect(cls, host: str, port: int) -> "_Client":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    async def _read_loop(self) -> None:
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    break
                response = json.loads(line)
                future = self._pending.pop(response.get("id"), None)
                if future is not None and not future.done():
                    future.set_result(response)
        except (ConnectionError, asyncio.CancelledError, ValueError):
            pass
        finally:
            for future in self._pending.values():
                if not future.done():
                    future.set_result(None)
            self._pending.clear()

    async def request(self, payload: dict, timeout: float = 60.0):
        """Send one request; returns the response dict, or ``None`` if
        the connection died first."""
        self._next_id += 1
        request_id = self._next_id
        payload = dict(payload)
        payload["id"] = request_id
        future = asyncio.get_event_loop().create_future()
        self._pending[request_id] = future
        try:
            self._writer.write(
                (json.dumps(payload) + "\n").encode("utf-8")
            )
            await self._writer.drain()
        except (ConnectionError, OSError):
            self._pending.pop(request_id, None)
            return None
        try:
            return await asyncio.wait_for(future, timeout)
        except asyncio.TimeoutError:
            self._pending.pop(request_id, None)
            return None

    async def close(self) -> None:
        self._reader_task.cancel()
        try:
            self._writer.close()
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass


def _mixed_op(index: int) -> str:
    """The deterministic op mix: mostly analyze, a steady trickle of
    lint, and periodic invalidate / stats control traffic."""
    if index % 23 == 0:
        return "invalidate"
    if index % 17 == 0:
        return "stats"
    if index % 5 == 0:
        return "lint"
    return "analyze"


async def _drive_phase(
    clients: List[_Client],
    benchmarks,
    count: int,
    concurrency: int,
    tally: dict,
    samples: List[float],
    retry_shed: bool,
) -> float:
    """Issue ``count`` mixed requests across ``clients`` with at most
    ``concurrency`` in flight; returns the phase wall-clock seconds."""
    semaphore = asyncio.Semaphore(concurrency)

    async def one(index: int) -> None:
        async with semaphore:
            client = clients[index % len(clients)]
            op = _mixed_op(index)
            benchmark = benchmarks[index % len(benchmarks)]
            if op in ("analyze", "lint"):
                payload = {
                    "op": op,
                    "text": benchmark.source,
                    "entries": [benchmark.entry],
                }
            else:
                payload = {"op": op}
            started = time.perf_counter()
            response = await client.request(payload)
            elapsed = time.perf_counter() - started
            if response is None:
                tally["unserved"] += 1
                return
            samples.append(elapsed)
            if response.get("shed"):
                tally["shed"] += 1
                tally["shed_reasons"][response.get("reason", "?")] = (
                    tally["shed_reasons"].get(response.get("reason", "?"), 0)
                    + 1
                )
                if retry_shed and response.get("retriable"):
                    tally["retries"] += 1
                    # Honor the gateway's backoff hint (capped so a
                    # pessimistic estimate cannot stall the bench): a
                    # well-behaved client waits out the backlog instead
                    # of re-hitting a saturated shard immediately.
                    hint = response.get("retry_after_ms")
                    if hint:
                        tally["retry_after_honored"] += 1
                        await asyncio.sleep(
                            min(float(hint) / 1000.0, _RETRY_AFTER_CAP)
                        )
                    retried = await client.request(payload)
                    if retried is None:
                        tally["unserved"] += 1
                    elif retried.get("shed"):
                        tally["retries_shed_again"] += 1
                    elif retried.get("ok"):
                        tally["retries_succeeded"] += 1
                return
            if not response.get("ok"):
                tally["errors"] += 1
                kind = response.get("error_kind")
                if not kind:
                    tally["unstructured_errors"] += 1
                else:
                    tally["error_kinds"][kind] = (
                        tally["error_kinds"].get(kind, 0) + 1
                    )
                    if kind not in KNOWN_ERROR_KINDS:
                        tally["unknown_error_kinds"] += 1
                return
            tally["completed"] += 1
            if response.get("degraded_by_gateway") or (
                response.get("status") == "degraded"
            ):
                tally["degraded"] += 1

    started = time.perf_counter()
    await asyncio.gather(*(one(index) for index in range(count)))
    return time.perf_counter() - started


#: Every error_kind the serving stack may legitimately answer with
#: under load; anything else is a classification gap and fails the run.
KNOWN_ERROR_KINDS = frozenset({
    "shed",            # admission control refused (retriable, hinted)
    "partial-fanout",  # a broadcast missed saturated shards (retriable)
    "timeout",         # wall-clock kill / cumulative retry bound
    "worker-crash",    # worker died, retries exhausted (retriable)
    "crash-loop",      # poison-pill quarantine (non-retriable)
})

#: Cap on honoring a retry_after_ms hint, seconds.
_RETRY_AFTER_CAP = 2.0


def _fresh_tally() -> dict:
    return {
        "completed": 0,
        "shed": 0,
        "shed_reasons": {},
        "degraded": 0,
        "errors": 0,
        "error_kinds": {},
        "unknown_error_kinds": 0,
        "unstructured_errors": 0,
        "unserved": 0,
        "retries": 0,
        "retries_succeeded": 0,
        "retries_shed_again": 0,
        "retry_after_honored": 0,
    }


def _latency_block(samples: Sequence[float]) -> dict:
    return {
        "requests": len(samples),
        "p50_ms": round(_percentile(samples, 0.50) * 1000.0, 3),
        "p95_ms": round(_percentile(samples, 0.95) * 1000.0, 3),
        "p99_ms": round(_percentile(samples, 0.99) * 1000.0, 3),
        "mean_ms": round(
            sum(samples) * 1000.0 / max(1, len(samples)), 3
        ),
    }


async def _run(
    requests: int,
    overload_requests: int,
    connections: int,
    shards: int,
    workers: int,
    queue_depth: int,
    steady_concurrency: int,
    overload_concurrency: int,
) -> dict:
    benchmarks = [b for b in BENCHMARKS if b.name in PROGRAM_NAMES]
    if not benchmarks:
        raise SystemExit("no load benchmarks found")
    gateway = Gateway(
        GatewayConfig(
            shards=shards,
            workers=workers,
            queue_depth=queue_depth,
            # Overload must trip the degrade valve well before the
            # hard cap so the phase exercises both.
            degrade_depth=max(1, queue_depth // 2),
        ),
        ServiceConfig(),
    )
    host, port = await gateway.start()
    clients = [
        await _Client.connect(host, port) for _ in range(connections)
    ]
    phases = {}
    try:
        # -- warmup: every program through every shard's cache once --
        warm_tally = _fresh_tally()
        warm_samples: List[float] = []
        await _drive_phase(
            clients, benchmarks, len(benchmarks) * 4,
            concurrency=4, tally=warm_tally, samples=warm_samples,
            retry_shed=False,
        )
        phases["warmup"] = {
            "latency": _latency_block(warm_samples), **warm_tally,
        }

        # -- steady: sustained mixed traffic below saturation ---------
        steady_tally = _fresh_tally()
        steady_samples: List[float] = []
        steady_seconds = await _drive_phase(
            clients, benchmarks, requests,
            concurrency=steady_concurrency,
            tally=steady_tally, samples=steady_samples, retry_shed=True,
        )
        phases["steady"] = {
            "latency": _latency_block(steady_samples),
            "wall_seconds": round(steady_seconds, 3),
            "throughput_rps": round(
                (steady_tally["completed"] + steady_tally["shed"])
                / max(1e-9, steady_seconds), 1,
            ),
            **steady_tally,
        }

        # -- overload: more in flight than the queues can hold --------
        overload_tally = _fresh_tally()
        overload_samples: List[float] = []
        overload_seconds = await _drive_phase(
            clients, benchmarks, overload_requests,
            concurrency=overload_concurrency,
            tally=overload_tally, samples=overload_samples,
            retry_shed=False,
        )
        phases["overload"] = {
            "latency": _latency_block(overload_samples),
            "wall_seconds": round(overload_seconds, 3),
            "saturation_throughput_rps": round(
                overload_tally["completed"] / max(1e-9, overload_seconds),
                1,
            ),
            **overload_tally,
        }

        # -- backoff: past saturation again, but with a well-behaved
        # client that retries sheds after sleeping out the gateway's
        # retry_after_ms hint — queue-full refusals should convert
        # into delayed successes instead of shed-retry spin ----------
        backoff_tally = _fresh_tally()
        backoff_samples: List[float] = []
        backoff_seconds = await _drive_phase(
            clients, benchmarks, max(1, overload_requests // 2),
            concurrency=overload_concurrency,
            tally=backoff_tally, samples=backoff_samples,
            retry_shed=True,
        )
        phases["backoff"] = {
            "latency": _latency_block(backoff_samples),
            "wall_seconds": round(backoff_seconds, 3),
            **backoff_tally,
        }
        stats = gateway.stats()
        shard_stats = [shard.stats() for shard in gateway.shards]
    finally:
        for client in clients:
            await client.close()
        await gateway.stop()

    total_unserved = sum(
        phases[name]["unserved"] for name in phases
    )
    total_unstructured = sum(
        phases[name]["unstructured_errors"] for name in phases
    )
    return {
        "suite": "repro.bench.load",
        "config": {
            "shards": shards,
            "workers_per_shard": workers,
            "queue_depth": queue_depth,
            "connections": connections,
            "steady_requests": requests,
            "steady_concurrency": steady_concurrency,
            "overload_requests": overload_requests,
            "overload_concurrency": overload_concurrency,
        },
        "phases": phases,
        "unserved": total_unserved,
        "unstructured_errors": total_unstructured,
        "unknown_error_kinds": sum(
            phases[name]["unknown_error_kinds"] for name in phases
        ),
        "error_kinds": {
            kind: sum(
                phases[name]["error_kinds"].get(kind, 0) for name in phases
            )
            for kind in sorted(
                set().union(*(phases[name]["error_kinds"] for name in phases))
            )
        },
        "respawns": sum(s["respawns"] for s in shard_stats),
        "shed_total": sum(phases[name]["shed"] for name in phases),
        "degraded_total": sum(phases[name]["degraded"] for name in phases),
        "requests_served_by_gateway": stats["requests_served"],
        "shards": shard_stats,
    }


def run(
    requests: int = 600,
    overload_requests: int = 600,
    connections: int = 8,
    shards: int = 2,
    workers: int = 0,
    queue_depth: int = 16,
    steady_concurrency: int = 8,
    overload_concurrency: int = 128,
) -> dict:
    """Run the load campaign; returns the result document.  Exits
    non-zero (SystemExit) when any request went unanswered or any error
    came back unstructured — the gateway's answer-everything contract."""
    document = asyncio.run(_run(
        requests=requests,
        overload_requests=overload_requests,
        connections=connections,
        shards=shards,
        workers=workers,
        queue_depth=queue_depth,
        steady_concurrency=steady_concurrency,
        overload_concurrency=overload_concurrency,
    ))
    violations = []
    if document["unserved"]:
        violations.append(
            f"{document['unserved']} requests went unanswered"
        )
    if document["unstructured_errors"]:
        violations.append(
            f"{document['unstructured_errors']} unstructured errors"
        )
    if document["unknown_error_kinds"]:
        violations.append(
            f"{document['unknown_error_kinds']} errors with an "
            f"unclassified error_kind (saw {document['error_kinds']}; "
            f"known: {sorted(KNOWN_ERROR_KINDS)})"
        )
    if document["phases"]["overload"]["shed"] == 0 and (
        overload_concurrency > queue_depth * shards
    ):
        violations.append(
            "overload phase shed nothing — admission control never fired"
        )
    if violations:
        for violation in violations:
            print(f"load violation: {violation}", file=sys.stderr)
        raise SystemExit(1)
    return document


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.bench.load",
        description=(
            "Concurrent load benchmark against the sharded gateway, "
            "with a deliberate overload phase that must shed"
        ),
    )
    parser.add_argument(
        "--out", default="BENCH_load.json", metavar="FILE",
        help="output file (default BENCH_load.json; '-' for stdout)",
    )
    parser.add_argument(
        "--requests", type=int, default=600,
        help="steady-phase requests (default 600)",
    )
    parser.add_argument(
        "--overload-requests", type=int, default=600,
        help="overload-phase requests (default 600)",
    )
    parser.add_argument(
        "--connections", type=int, default=8,
        help="concurrent TCP connections (default 8)",
    )
    parser.add_argument(
        "--shards", type=int, default=2, help="gateway shards (default 2)"
    )
    parser.add_argument(
        "--workers", type=int, default=0, choices=(0, 1),
        help="1: a supervised worker per shard; 0: in-process "
        "backends, the default",
    )
    parser.add_argument(
        "--queue-depth", type=int, default=16,
        help="per-shard admission cap (default 16 — small on purpose, "
        "so the overload phase actually overloads)",
    )
    parser.add_argument(
        "--steady-concurrency", type=int, default=8,
        help="in-flight cap during the steady phase (default 8)",
    )
    parser.add_argument(
        "--overload-concurrency", type=int, default=128,
        help="in-flight cap during the overload phase (default 128)",
    )
    parser.add_argument(
        "--max-p95-ms", type=float, default=None,
        help="fail (exit 1) when the overload-phase p95 exceeds this "
        "(the CI gate: shed responses keep tail latency bounded)",
    )
    arguments = parser.parse_args(argv)
    document = run(
        requests=arguments.requests,
        overload_requests=arguments.overload_requests,
        connections=arguments.connections,
        shards=arguments.shards,
        workers=arguments.workers,
        queue_depth=arguments.queue_depth,
        steady_concurrency=arguments.steady_concurrency,
        overload_concurrency=arguments.overload_concurrency,
    )
    status = 0
    if arguments.max_p95_ms is not None:
        p95 = document["phases"]["overload"]["latency"]["p95_ms"]
        if p95 > arguments.max_p95_ms:
            print(
                f"load violation: overload p95 {p95}ms exceeds the "
                f"{arguments.max_p95_ms}ms gate",
                file=sys.stderr,
            )
            status = 1
    text = json.dumps(document, indent=2, sort_keys=True) + "\n"
    if arguments.out == "-":
        sys.stdout.write(text)
    else:
        with open(arguments.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        overload = document["phases"]["overload"]
        print(
            f"wrote {arguments.out}: steady p95 "
            f"{document['phases']['steady']['latency']['p95_ms']}ms, "
            f"overload p95 {overload['latency']['p95_ms']}ms, "
            f"saturation {overload['saturation_throughput_rps']} rps, "
            f"{document['shed_total']} shed, "
            f"{document['degraded_total']} degraded, "
            f"{document['phases']['backoff']['retry_after_honored']} "
            f"retry hints honored, "
            f"{document['unserved']} unserved"
        )
    return status


if __name__ == "__main__":
    sys.exit(main())
