"""The gateway under test and the loops that drive it over TCP.

The gateway runs as ``python -m repro.serve --listen 127.0.0.1:0
--shards 1 --workers 1`` — one gateway process and one worker process.
The client is the repo's own id-correlated JSON-lines client,
:class:`repro.bench.load._Client`, over two connections from one asyncio
loop in the benchmark process.  :func:`open_loop` sends on a fixed
schedule whatever the responses do, and times each request from when it
was *due*, so a stall also charges the requests queued behind it;
:func:`closed_window` keeps a fixed number of requests in flight.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from repro.bench.load import _Client

from common import canonical_json

CONNECTIONS = 2
#: Seconds a request may go unanswered before it counts as a timeout.
TIMEOUT = 30.0
#: Longest response line the client reads; a result is one JSON line
#: and can outgrow asyncio's 64 KiB default.
LINE_LIMIT = 64 * 1024 * 1024


class GatewayProcess:
    """Start, address and stop one ``repro.serve --listen`` process."""

    def __init__(self, src_dir: str, trace_path: Optional[str] = None):
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        command = [
            sys.executable, "-m", "repro.serve", "--listen", "127.0.0.1:0",
            "--shards", "1", "--workers", "1",
        ]
        if trace_path is not None:
            command += ["--trace-out", trace_path]
        # A session of its own, so stop() can reap the worker too.
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, env=env, text=True,
            start_new_session=True,
        )
        banner = self.process.stdout.readline()
        if not banner:
            self.stop()
            raise RuntimeError("gateway exited before printing its banner")
        host, _, port = json.loads(banner)["listening"].rpartition(":")
        self.address: Tuple[str, int] = (host, int(port))

    def stop(self) -> None:
        """Ask for a drained shutdown; kill whatever is left after it."""
        if self.process.poll() is None and hasattr(self, "address"):
            try:
                request_sync(self.address, [{"op": "shutdown"}])
                self.process.wait(timeout=15)
            except (OSError, subprocess.TimeoutExpired):
                pass
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        self.process.wait()
        self.process.stdout.close()


@dataclass
class Sent:
    due: float
    payload: dict
    expected: Optional[str]  # canonical answer, None for stats
    lag: float = 0.0
    latency: Optional[float] = None
    response: Optional[dict] = None


def check_response(item: Sent) -> Optional[str]:
    """None when the response is correct, else why not."""
    response = item.response
    if response is None:
        return "timeout"
    if not response.get("ok"):
        return f"error: {response.get('error_kind') or response.get('error')}"
    if item.expected is not None and (
        canonical_json(response.get("result")) != item.expected
    ):
        return "answer differs from the from-scratch analysis"
    return None


def latencies(sent: List[Sent]) -> List[float]:
    return [s.latency for s in sent if s.latency is not None]


def timed(sent: List[Sent]) -> List[Tuple[float, float]]:
    """``(due, latency)`` of every request; an unanswered one counts as
    infinitely late, so it misses any limit."""
    return [
        (s.due, float("inf") if s.latency is None else s.latency)
        for s in sent
    ]


async def _session(address, drive, connections: int = CONNECTIONS):
    """Run ``drive(loop, clients)`` over fresh connections, then close
    them."""
    clients = []
    try:
        for _ in range(connections):
            reader, writer = await asyncio.open_connection(
                *address, limit=LINE_LIMIT
            )
            clients.append(_Client(reader, writer))
        return await drive(asyncio.get_running_loop(), clients)
    finally:
        for client in clients:
            await client.close()


async def _send(client: _Client, item: Sent, loop) -> None:
    item.response = await client.request(item.payload, TIMEOUT)
    if item.response is not None:
        item.latency = loop.time() - item.due


def request_sync(address, payloads: List[dict]) -> List[dict]:
    """Send ``payloads`` one at a time on one connection; an unanswered
    one comes back as an error response."""
    async def drive(loop, clients):
        return [await clients[0].request(p, TIMEOUT) for p in payloads]

    responses = asyncio.run(_session(address, drive, connections=1))
    return [
        {"ok": False, "error": "no response"} if r is None else r
        for r in responses
    ]


def open_loop(address, rate: float, items) -> List[Sent]:
    """Send ``items`` — (payload, expected answer) pairs — at ``rate``
    per second, alternating connections; wait for every answer."""
    async def drive(loop, clients):
        start = loop.time() + 0.02
        sent = [
            Sent(start + index / rate, payload, expected)
            for index, (payload, expected) in enumerate(items)
        ]

        async def one(index: int, item: Sent) -> None:
            await asyncio.sleep(item.due - loop.time())
            item.lag = max(0.0, loop.time() - item.due)
            await _send(clients[index % len(clients)], item, loop)

        await asyncio.gather(*(one(i, item) for i, item in enumerate(sent)))
        return sent

    return asyncio.run(_session(address, drive))


def closed_window(address, items: Iterator, window: int,
                  seconds: float) -> Tuple[List[Sent], float]:
    """``window`` callers, each sending the next of ``items`` as soon as
    its last one is answered, for ``seconds``.  Returns what was sent and
    the loop-clock start."""
    async def drive(loop, clients):
        sent: List[Sent] = []
        start = loop.time()

        async def caller(index: int) -> None:
            while loop.time() < start + seconds:
                payload, expected = next(items)
                item = Sent(loop.time(), payload, expected)
                sent.append(item)
                await _send(clients[index % len(clients)], item, loop)

        await asyncio.gather(*(caller(i) for i in range(window)))
        return sent, start

    return asyncio.run(_session(address, drive))
