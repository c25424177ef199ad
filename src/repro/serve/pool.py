"""Crash-isolated worker subprocesses: spawn, talk, time out, kill.

This module is the *mechanics* layer of the supervisor — process
lifecycle and the JSON-lines pipe protocol; the *policy* layer (retry,
backoff, error classification, chaos injection) lives in
:mod:`repro.serve.supervisor`.

A :class:`Worker` wraps one ``python -m repro.serve.worker`` subprocess:
the service config goes down the pipe first and the constructor blocks
until the worker's ready line comes back, so interpreter start-up is
paid by the spawn and never by a request's kill timer.  Then one
request line per :meth:`Worker.request` call, which blocks for the
matching response line up to a wall-clock timeout.  A background reader
thread owns the subprocess's stdout, so a timeout costs nothing but a
queue wait and the caller can SIGKILL the worker at any moment without
deadlocking on a half-written pipe.

:func:`respawn_backoff` is the serve stack's one restart policy: the
supervisor sleeps through it before spawning a worker, and
:class:`~repro.serve.shard.Shard` before rebuilding its backend.

Failure surface, as exceptions (both :class:`~repro.errors.ReproError`
subclasses so CLI guards already catch them):

* :class:`WorkerCrashed` — the subprocess died (signal, OOM kill,
  interpreter abort) before responding, or never wrote its ready line.
  Retriable: the request never completed, analysis is a pure function,
  running it again is safe.
* :class:`WorkerTimeout` — no response within the limit.  The caller
  must assume the worker is wedged and kill it; retrying the same
  request would wedge the replacement too.
"""

from __future__ import annotations

import json
import os
import queue
import subprocess
import sys
import threading
import time
from typing import Optional

from ..errors import ReproError


#: Longest respawn backoff in seconds, whatever the strike count.
BACKOFF_CAP = 1.0

#: Seconds a new worker may take to start, import the analyzer and
#: build its service before the spawn counts as failed.
SPAWN_TIMEOUT = 30.0

#: The line a worker writes once its service is built.
READY_LINE = '{"ready": true}'


def respawn_backoff(strikes: int, base: float = 0.05) -> None:
    """Sleep before a respawn that follows ``strikes`` consecutive
    failures: ``base * 2^(strikes-1)`` seconds, capped at
    :data:`BACKOFF_CAP`; no sleep at zero strikes.  Callers keep their
    own strike counts and reset them on success."""
    if strikes:
        time.sleep(min(BACKOFF_CAP, base * 2 ** (strikes - 1)))


class WorkerCrashed(ReproError):
    """The worker subprocess died before answering or never got ready
    (retriable)."""


class WorkerTimeout(ReproError):
    """The worker did not answer within the wall-clock limit
    (non-retriable; the worker must be killed)."""


def _worker_environment() -> dict:
    """The subprocess environment, with this repro package importable
    even when the parent was launched via PYTHONPATH rather than an
    installed distribution."""
    environment = dict(os.environ)
    package_root = os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    )
    existing = environment.get("PYTHONPATH")
    environment["PYTHONPATH"] = (
        package_root if not existing
        else package_root + os.pathsep + existing
    )
    return environment


class Worker:
    """One supervised subprocess speaking the JSON-lines protocol.

    The constructor returns once the worker is ready to serve; a worker
    that exits, garbles or stays silent for :data:`SPAWN_TIMEOUT`
    instead is killed and raises :class:`WorkerCrashed`."""

    def __init__(self, config_wire: dict):
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.serve.worker"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            encoding="utf-8",
            env=_worker_environment(),
        )
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self._reader = threading.Thread(
            target=self._drain_stdout, daemon=True
        )
        self._reader.start()
        try:
            self._send_line(json.dumps(config_wire, sort_keys=True))
            try:
                ready = self._lines.get(timeout=SPAWN_TIMEOUT) or ""
            except queue.Empty:
                ready = ""
            if ready.strip() != READY_LINE:
                raise WorkerCrashed(
                    f"worker did not start: {ready.strip() or 'no ready line'}"
                )
        except WorkerCrashed:
            self.kill()
            raise

    # ------------------------------------------------------------------

    def _drain_stdout(self) -> None:
        try:
            for line in self.process.stdout:
                self._lines.put(line)
        except (OSError, ValueError):
            pass
        self._lines.put(None)  # EOF marker: the worker is gone

    def _send_line(self, text: str) -> None:
        try:
            self.process.stdin.write(text + "\n")
            self.process.stdin.flush()
        except (OSError, ValueError) as error:
            raise WorkerCrashed(
                f"worker pipe closed: {error}"
            ) from error

    @property
    def alive(self) -> bool:
        return self.process.poll() is None

    @property
    def pid(self) -> int:
        return self.process.pid

    # ------------------------------------------------------------------

    def request(
        self,
        payload: dict,
        timeout: Optional[float] = None,
        on_interim=None,
    ) -> dict:
        """Send one request, block for its response line.

        The worker may write **interim lines** (objects carrying an
        ``"_interim"`` key — currently checkpoint snapshots) before the
        response proper; each is handed to ``on_interim`` (ignored when
        None) and the wait continues against the *same* wall-clock
        deadline, so a wedged worker cannot stay alive by trickling
        checkpoints.

        Raises :class:`WorkerTimeout` when no response arrives in
        ``timeout`` seconds (the worker is *not* killed here — that is
        the caller's policy decision) and :class:`WorkerCrashed` when
        the pipe breaks or EOF arrives instead of a response."""
        self._send_line(json.dumps(payload, sort_keys=True))
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            remaining = (
                None if deadline is None
                else max(0.0, deadline - time.monotonic())
            )
            try:
                line = self._lines.get(timeout=remaining)
            except queue.Empty:
                raise WorkerTimeout(
                    f"worker gave no response within {timeout}s"
                ) from None
            if line is None:
                status = self.process.poll()
                raise WorkerCrashed(
                    f"worker died (exit status {status}) "
                    "before responding"
                )
            try:
                response = json.loads(line)
            except ValueError as error:
                raise WorkerCrashed(
                    f"worker wrote a garbled response: {error}"
                ) from error
            if not isinstance(response, dict):
                raise WorkerCrashed(
                    "worker wrote a non-object response"
                )
            if "_interim" in response:
                if on_interim is not None:
                    try:
                        on_interim(response)
                    except Exception:
                        pass  # a bad observer must not break the protocol
                continue
            return response

    def kill(self) -> None:
        """SIGKILL the subprocess and reap it; safe to call twice."""
        try:
            self.process.kill()
        except OSError:
            pass
        try:
            self.process.wait(timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            pass
        for stream in (self.process.stdin, self.process.stdout):
            try:
                if stream is not None:
                    stream.close()
            except OSError:
                pass


__all__ = [
    "Worker",
    "WorkerCrashed",
    "WorkerTimeout",
    "respawn_backoff",
]
