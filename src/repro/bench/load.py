"""The gateway's JSON-lines client and the request mix it is driven with.

:class:`_Client` is one pipelined TCP connection to a
:class:`~repro.serve.gateway.Gateway`; the chaos campaign's gateway leg,
the gateway tests and perfbench's ``gateway-open-loop`` workload drive
the gateway through it.  :func:`_mixed_op` is the deterministic op mix
that perfbench's request traffic cites as its source.
"""

from __future__ import annotations

import asyncio
import json
from typing import Dict


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
