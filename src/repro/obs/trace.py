"""Structured tracing: nested spans and events as JSON lines.

A :class:`Tracer` writes one JSON object per line to a file or stderr.
Timestamps come from ``time.monotonic()`` (re-based so the first record
is at ~0), which never goes backwards — trace durations are real even
across NTP steps.  The record schema (see docs/observability.md):

``{"ts": 0.00123, "kind": "begin", "span": 2, "parent": 1,
   "name": "entry_spec", "attrs": {...}}``
``{"ts": ..., "kind": "event", "span": 2, "name": "iteration", "attrs": {...}}``
``{"ts": ..., "kind": "end",   "span": 2, "name": "entry_spec",
   "elapsed": 0.004}``

Invariants (checked by :func:`validate_nesting`, pinned by the tests):

* spans strictly nest — ``end`` always closes the most recently opened
  span, and a span's ``parent`` is the span open at its ``begin``;
* every ``begin`` has exactly one matching ``end`` (``Tracer.close``
  ends anything left open, so a crashed trace is still well formed up
  to its tail);
* events carry the id of the innermost open span (or ``null`` at top
  level).

**Cross-process stitching** (see docs/tracing.md).  A tracer created
with a ``process`` name participates in a *stitched* trace: every
record carries ``"process"``, root spans carry the ``"trace"`` id, a
wall-clock ``"epoch"`` anchor, and — when the tracer was created under
an upstream :func:`Tracer.current_context` — a ``"parent_ref"`` naming
the remote parent as ``"<process>:<span>"``.  The context travels on
the wire as a ``traceparent``-style dict::

    {"trace": "9f2ab4e61c03d5f7", "parent": "supervisor-0:3"}

:func:`stitch` merges records from any number of processes into one
tree with globally-qualified span ids and a shared time base;
:func:`validate_stitched` is the multi-process-aware checker —
per-process LIFO discipline plus resolvable, acyclic cross-process
parent edges.  Single-process traces (``process=None``) are unchanged
byte-for-byte, and :func:`validate_nesting` keeps its strict contract.

The tracer is for the *structural* layers — request → entry spec →
fixpoint iteration.  Per-instruction tracing stays the job of the
Figure-3 style :mod:`repro.wam.trace` machinery.
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import Dict, IO, Iterable, List, Optional, Union

#: Wire key carrying the trace context on serve requests (stripped
#: before the request reaches analysis, like ``_chaos``).
TRACE_CONTEXT_KEY = "_trace"

#: Wire key carrying a worker's completed span records on its response
#: (popped and re-emitted by the supervisor, like ``_metrics``).
SPANS_WIRE_KEY = "_spans"


def new_trace_id() -> str:
    """A fresh 64-bit hex trace id."""
    return os.urandom(8).hex()


class Tracer:
    """Writes nested spans and point events as JSON lines.

    ``sink`` is a path (opened for append-less overwrite), ``"-"``
    for stderr, or any file-like object with ``write``.

    ``process`` (optional) names this tracer's track in a stitched
    multi-process trace; ``context`` (optional) is an upstream
    :meth:`current_context` dict — the root spans of this tracer then
    carry a ``parent_ref`` edge to the remote parent.  ``trace_id``
    pins the trace id (defaults to the context's, else a fresh one).
    """

    def __init__(
        self,
        sink: Union[str, IO[str]],
        process: Optional[str] = None,
        context: Optional[dict] = None,
        trace_id: Optional[str] = None,
    ):
        if isinstance(sink, str):
            if sink == "-":
                self._handle: IO[str] = sys.stderr
                self._owns_handle = False
            else:
                self._handle = open(sink, "w", encoding="utf-8")
                self._owns_handle = True
        else:
            self._handle = sink
            self._owns_handle = False
        self._epoch = time.monotonic()
        self._next_id = 1
        #: (span id, name, start time) of every open span, outermost first.
        self._stack: List[tuple] = []
        self.records_written = 0
        self.process = process
        self._context_parent = (context or {}).get("parent")
        if process is not None:
            self.trace_id = (
                trace_id
                or (context or {}).get("trace")
                or new_trace_id()
            )
            #: Wall-clock anchor for cross-process time alignment:
            #: unix seconds at this tracer's ts=0.
            self._epoch_unix = time.time()
        else:
            self.trace_id = trace_id
            self._epoch_unix = None

    # ------------------------------------------------------------------

    def _now(self) -> float:
        return round(time.monotonic() - self._epoch, 6)

    def _write(self, record: dict) -> None:
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")
        self.records_written += 1

    # ------------------------------------------------------------------

    def begin(self, name: str, _parent_ref: Optional[str] = None, **attrs) -> int:
        """Open a span; returns its id.  Prefer :meth:`span`.

        ``_parent_ref`` (a ``"<process>:<span>"`` string) records a
        cross-process parent edge on a *root* span — ignored for nested
        spans, whose parent is the local innermost open span.
        """
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        record = {
            "ts": self._now(),
            "kind": "begin",
            "span": span_id,
            "parent": parent,
            "name": name,
        }
        if self.process is not None:
            record["process"] = self.process
            if parent is None:
                record["trace"] = self.trace_id
                record["epoch"] = round(self._epoch_unix + record["ts"], 6)
                ref = _parent_ref if _parent_ref is not None else self._context_parent
                if ref is not None:
                    record["parent_ref"] = ref
        elif parent is None and _parent_ref is not None:
            record["parent_ref"] = _parent_ref
        if attrs:
            record["attrs"] = attrs
        self._write(record)
        self._stack.append((span_id, name, time.monotonic()))
        return span_id

    def end(self, **attrs) -> None:
        """Close the innermost open span."""
        if not self._stack:
            raise ValueError("no open span to end")
        span_id, name, started = self._stack.pop()
        record = {
            "ts": self._now(),
            "kind": "end",
            "span": span_id,
            "name": name,
            "elapsed": round(time.monotonic() - started, 6),
        }
        if self.process is not None:
            record["process"] = self.process
        if attrs:
            record["attrs"] = attrs
        self._write(record)

    def span(self, name: str, **attrs) -> "_Span":
        """``with tracer.span("request", op="analyze"): ...``"""
        return _Span(self, name, attrs)

    def event(self, name: str, **attrs) -> None:
        record = {
            "ts": self._now(),
            "kind": "event",
            "span": self._stack[-1][0] if self._stack else None,
            "name": name,
        }
        if self.process is not None:
            record["process"] = self.process
        if attrs:
            record["attrs"] = attrs
        self._write(record)

    # ------------------------------------------------------------------
    # Cross-process context.

    def current_context(self) -> Optional[dict]:
        """The wire context for work dispatched *under* the innermost
        open span: ``{"trace": ..., "parent": "<process>:<span>"}``.
        ``None`` unless this tracer has a ``process`` name."""
        if self.process is None:
            return None
        parent = (
            f"{self.process}:{self._stack[-1][0]}" if self._stack else None
        )
        return {"trace": self.trace_id, "parent": parent}

    def emit_foreign(self, records: Iterable[dict]) -> int:
        """Re-emit pre-formed records from another process verbatim
        (the supervisor absorbing a worker's ``_spans`` block).  The
        records never touch this tracer's span stack or clock; returns
        the number written."""
        count = 0
        for record in records:
            if isinstance(record, dict):
                self._write(record)
                count += 1
        return count

    def close(self) -> None:
        """End any spans still open, flush, and release the sink."""
        while self._stack:
            self.end(aborted=True)
        try:
            self._handle.flush()
        except (OSError, ValueError, AttributeError):
            pass
        if self._owns_handle:
            self._handle.close()

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class _Span:
    __slots__ = ("_tracer", "_name", "_attrs")

    def __init__(self, tracer: Tracer, name: str, attrs: dict):
        self._tracer = tracer
        self._name = name
        self._attrs = attrs

    def __enter__(self) -> "_Span":
        self._tracer.begin(self._name, **self._attrs)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self._tracer.end(error=repr(exc))
        else:
            self._tracer.end()


# ----------------------------------------------------------------------
# Reading traces back (tests and tooling).


def read_trace(path: str) -> List[dict]:
    """Parse a trace file back into its records, in order."""
    records: List[dict] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def validate_nesting(records: List[dict]) -> Dict[int, dict]:
    """Check the span invariants; returns ``{span id: begin record}``.

    Raises :class:`ValueError` on the first violation: an ``end`` for a
    span that is not innermost, an event pointing at a closed span, a
    ``parent`` that was not open at begin time, an unclosed span, or a
    non-monotonic timestamp.

    This is the *strict single-process* checker.  Records from more
    than one process interleave freely in a shared sink, so a stitched
    trace must be checked with :func:`validate_stitched` instead.
    """
    stack: List[int] = []
    begun: Dict[int, dict] = {}
    last_ts = float("-inf")
    for record in records:
        ts = record["ts"]
        if ts < last_ts:
            raise ValueError(f"timestamps went backwards at {record}")
        last_ts = ts
        kind = record["kind"]
        if kind == "begin":
            expected_parent = stack[-1] if stack else None
            if record["parent"] != expected_parent:
                raise ValueError(
                    f"span {record['span']} parent {record['parent']} != "
                    f"open span {expected_parent}"
                )
            if record["span"] in begun:
                raise ValueError(f"span id {record['span']} reused")
            begun[record["span"]] = record
            stack.append(record["span"])
        elif kind == "end":
            if not stack or stack[-1] != record["span"]:
                raise ValueError(
                    f"end of span {record['span']} but open stack is {stack}"
                )
            stack.pop()
        elif kind == "event":
            expected = stack[-1] if stack else None
            if record["span"] != expected:
                raise ValueError(
                    f"event {record['name']} points at span {record['span']} "
                    f"but innermost open span is {expected}"
                )
        else:
            raise ValueError(f"unknown record kind {kind!r}")
    if stack:
        raise ValueError(f"unclosed spans at EOF: {stack}")
    return begun


# ----------------------------------------------------------------------
# Cross-process stitching.


def _process_of(record: dict) -> str:
    return record.get("process", "main")


def _qualify(process: str, span) -> str:
    return f"{process}:{span}"


def stitch(records: Iterable[dict]) -> List[dict]:
    """Merge raw multi-process records into one stitched record list.

    Input records may interleave processes arbitrarily (a shared sink)
    as long as each process's own records stay in order — which a
    per-process tracer guarantees.  Output records have:

    * string span ids ``"<process>:<span>"`` (already-stitched records
      pass through unchanged);
    * ``parent`` resolved — local parents qualified with the process,
      process roots linked through their ``parent_ref``;
    * timestamps re-based onto a shared origin using each process's
      wall-clock ``epoch`` anchor (processes without one keep their own
      relative clock at the shared origin).
    """
    records = list(records)
    # Wall-clock anchor per process: epoch_unix - ts at the anchor record.
    origin: Dict[str, float] = {}
    for record in records:
        if record.get("epoch") is not None:
            process = _process_of(record)
            if process not in origin:
                origin[process] = float(record["epoch"]) - float(record["ts"])
    base = min(origin.values()) if origin else 0.0
    stitched: List[dict] = []
    for record in records:
        if isinstance(record.get("span"), str):
            stitched.append(dict(record))  # already stitched
            continue
        process = _process_of(record)
        out = {
            "ts": round(
                float(record["ts"]) + origin.get(process, base) - base, 6
            ),
            "kind": record["kind"],
            "name": record["name"],
            "process": process,
        }
        span = record.get("span")
        out["span"] = _qualify(process, span) if span is not None else None
        if record["kind"] == "begin":
            if record.get("parent") is not None:
                out["parent"] = _qualify(process, record["parent"])
            else:
                out["parent"] = record.get("parent_ref")
            if record.get("trace") is not None:
                out["trace"] = record["trace"]
        for key in ("elapsed", "attrs"):
            if key in record:
                out[key] = record[key]
        stitched.append(out)
    stitched.sort(key=lambda record: record["ts"])
    return stitched


def validate_stitched(records: List[dict]) -> Dict[str, dict]:
    """The multi-process-aware checker; returns ``{span id: begin}``.

    Per process: strict LIFO span discipline, no span-id reuse, events
    point at the process's innermost open span, one ``end`` per
    ``begin``, no unclosed spans.  Across processes: every non-local
    parent edge must resolve to a span that exists somewhere in the
    trace, and the parent graph must be acyclic.  Raises
    :class:`ValueError` on the first violation.

    Accepts raw multi-process records too (they are stitched first).
    """
    if any(not isinstance(record.get("span"), (str, type(None)))
           for record in records):
        records = stitch(records)
    stacks: Dict[str, List[str]] = {}
    begun: Dict[str, dict] = {}
    ended: Dict[str, bool] = {}
    for record in records:
        process = _process_of(record)
        stack = stacks.setdefault(process, [])
        kind = record["kind"]
        span = record["span"]
        if kind == "begin":
            if span in begun:
                raise ValueError(f"span id {span!r} reused")
            expected = stack[-1] if stack else None
            parent = record.get("parent")
            local = isinstance(parent, str) and parent.rpartition(":")[0] == process
            if local and parent != expected:
                raise ValueError(
                    f"span {span!r} parent {parent!r} != innermost open "
                    f"span {expected!r} of process {process!r}"
                )
            if not local and stack:
                raise ValueError(
                    f"span {span!r} has non-local parent {parent!r} but "
                    f"process {process!r} already has open spans {stack}"
                )
            begun[span] = record
            ended[span] = False
            stack.append(span)
        elif kind == "end":
            if not stack or stack[-1] != span:
                raise ValueError(
                    f"end of span {span!r} but open stack of process "
                    f"{process!r} is {stack}"
                )
            stack.pop()
            ended[span] = True
        elif kind == "event":
            expected = stack[-1] if stack else None
            if span != expected:
                raise ValueError(
                    f"event {record['name']} points at span {span!r} but "
                    f"innermost open span of {process!r} is {expected!r}"
                )
        else:
            raise ValueError(f"unknown record kind {kind!r}")
    open_spans = [span for process, stack in stacks.items() for span in stack]
    if open_spans:
        raise ValueError(f"unclosed spans at EOF: {open_spans}")
    # Cross-process parent edges must resolve, and the graph be acyclic.
    for span, record in begun.items():
        parent = record.get("parent")
        if parent is not None and parent not in begun:
            raise ValueError(
                f"span {span!r} parent {parent!r} does not exist in the trace"
            )
        seen = {span}
        walk = parent
        while walk is not None:
            if walk in seen:
                raise ValueError(f"parent cycle through span {span!r}")
            seen.add(walk)
            walk = begun[walk].get("parent")
    return begun


def trace_summary(records: List[dict]) -> dict:
    """Shape of a (valid) stitched trace: processes, spans, roots,
    events, and spans that ended ``aborted``."""
    stitched = stitch(records)
    begun = validate_stitched(stitched)
    aborted = {
        record["span"]
        for record in stitched
        if record["kind"] == "end"
        and isinstance(record.get("attrs"), dict)
        and record["attrs"].get("aborted")
    }
    roots = [
        span for span, record in begun.items() if record.get("parent") is None
    ]
    return {
        "processes": sorted({_process_of(r) for r in stitched}),
        "spans": len(begun),
        "events": sum(1 for r in stitched if r["kind"] == "event"),
        "roots": sorted(roots),
        "aborted": sorted(aborted),
        "traces": sorted({
            record["trace"] for record in begun.values()
            if record.get("trace") is not None
        }),
    }


__all__ = [
    "SPANS_WIRE_KEY",
    "TRACE_CONTEXT_KEY",
    "Tracer",
    "new_trace_id",
    "read_trace",
    "stitch",
    "trace_summary",
    "validate_nesting",
    "validate_stitched",
]
