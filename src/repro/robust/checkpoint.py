"""Crash-consistent extension-table checkpoints (resume-don't-redo).

PR 2 made interrupted analyses *sound* (widen to ⊤, degrade-don't-die)
and PR 4 made crashed workers *survivable* (respawn and retry) — but
both recovery paths discard fixpoint progress: the retry starts from
scratch and a budget trip throws away every pass already run.  This
module turns repeated faults into cumulative forward progress by
snapshotting the extension table mid-fixpoint and re-planting it on the
next attempt.

**Why resuming is sound.**  The tabled fixpoint is a Kleene iteration:
every intermediate table is ⊑ the least fixpoint, and ``updateET`` only
lubs summaries upward.  Re-planting an intermediate table and iterating
therefore converges to the *same* least fixpoint a from-scratch run
reaches — a checkpoint can only shift where the iteration starts, never
where it ends.  That argument needs every planted summary to sit below
the fixpoint: the loop raises low summaries but keeps high ones, so a
snapshot from another program version or configuration would leave a
sound but possibly coarser result.  :func:`load` therefore refuses a
snapshot whose identity fingerprints or checksum do not match, and
snapshots capture only ``exact``-status entries: ⊤-widened (degraded)
summaries are sound but *above* the fixpoint, and resuming from them
would pin the imprecision forever.

**Snapshot format** (``repro.checkpoint/1``): a plain-JSON dict —

* ``format`` — version tag, refused when unknown;
* ``config`` / ``key`` — caller-chosen identity fingerprints (the serve
  layer uses its config and request fingerprints); :func:`load` refuses
  a snapshot whose identity does not match;
* ``entries`` — the sorted entry-spec strings of the run;
* ``cursor`` — fixpoint progress: cumulative ``iterations`` (passes,
  summed across resumed attempts), ``steps`` spent and the ``attempts``
  count; resumes prefer the snapshot with the furthest cursor, and the
  supervisor's crash-loop containment watches it;
* ``table`` — the canonical sorted entry list
  (:func:`repro.analysis.codec.entry_to_json`);
* ``sha256`` — checksum over the canonical serialization of everything
  above; a torn or tampered snapshot fails :func:`load`.

Everything serializes through :mod:`repro.analysis.codec`, so snapshots
are ``PYTHONHASHSEED``-independent and byte-deterministic for a given
table state.
"""

from __future__ import annotations

import hashlib
import json
from typing import Callable, Iterable, List, Optional, Sequence, Union

from ..analysis.codec import entry_from_json, entry_to_json
from ..analysis.table import ExtensionTable
from . import STATUS_EXACT, Budget

#: The (only) snapshot format this build writes and accepts.
CHECKPOINT_FORMAT = "repro.checkpoint/1"

#: Default cadence: one snapshot every this many fixpoint passes.
DEFAULT_CHECKPOINT_EVERY = 16

#: Default deadline-proximity trigger: snapshot once when less than this
#: fraction of the budget's deadline window remains.
DEFAULT_DEADLINE_FRACTION = 0.25


def _canonical(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def checkpoint_checksum(body: dict) -> str:
    """SHA-256 over the canonical serialization of ``body`` minus its
    own ``sha256`` field."""
    bare = {key: value for key, value in body.items() if key != "sha256"}
    return hashlib.sha256(_canonical(bare).encode("utf-8")).hexdigest()


Tables = Union[ExtensionTable, Sequence[ExtensionTable]]


def snapshot(
    tables: Tables,
    *,
    config: str = "",
    key: str = "",
    entries: Iterable = (),
    iterations: int = 0,
    steps: int = 0,
    attempts: int = 1,
) -> dict:
    """Serialize the exact-status entries of ``tables`` (lub-merged)
    into one checksummed, canonical snapshot dict."""
    if isinstance(tables, ExtensionTable):
        tables = (tables,)
    merged = ExtensionTable()
    for table in tables:
        merged.merge(table)
    items: List[dict] = [
        entry_to_json(indicator, entry)
        for indicator, entry in merged.all_entries()
        if entry.status == STATUS_EXACT  # never resume from ⊤-widened
    ]
    items.sort(key=lambda item: (item["predicate"], json.dumps(item["calling"])))
    body = {
        "format": CHECKPOINT_FORMAT,
        "config": config,
        "key": key,
        "entries": sorted(str(entry) for entry in entries),
        "cursor": {
            "iterations": int(iterations),
            "steps": int(steps),
            "attempts": int(attempts),
        },
        "table": items,
    }
    body["sha256"] = checkpoint_checksum(body)
    return body


def load(
    data,
    *,
    config: Optional[str] = None,
    key: Optional[str] = None,
    metrics=None,
) -> Optional[dict]:
    """Validate a snapshot read back from storage or the wire.

    Returns the snapshot dict when its format is known, its checksum
    verifies, and — when ``config``/``key`` are given — its identity
    matches; None otherwise.  Resume is best-effort by design: an
    invalid checkpoint is *ignored* (counted under ``checkpoint.invalid``
    when ``metrics`` is given), never an error, because a from-scratch
    run is always a correct fallback."""
    reason = None
    if not isinstance(data, dict):
        reason = "not-an-object"
    elif data.get("format") != CHECKPOINT_FORMAT:
        reason = "format"
    elif not isinstance(data.get("table"), list) or not isinstance(
        data.get("cursor"), dict
    ):
        reason = "shape"
    elif checkpoint_checksum(data) != data.get("sha256"):
        reason = "checksum"
    elif config is not None and data.get("config") != config:
        reason = "config-mismatch"
    elif key is not None and data.get("key") != key:
        reason = "key-mismatch"
    if reason is not None:
        if metrics is not None:
            metrics.counter("checkpoint.invalid", reason=reason).inc()
        return None
    return data


def cursor_iterations(data) -> int:
    """The cumulative fixpoint-pass count recorded in a snapshot (0 for
    anything malformed) — the forward-progress cursor the supervisor's
    crash-loop containment watches."""
    if isinstance(data, dict):
        cursor = data.get("cursor")
        if isinstance(cursor, dict):
            try:
                return int(cursor.get("iterations", 0))
            except (TypeError, ValueError):
                return 0
    return 0


def plant(data: dict, table: ExtensionTable, *, metrics=None) -> int:
    """Install a snapshot's entries into ``table`` via ``table.seed``;
    returns the number of entries planted.  The resumed run is a Kleene
    restart from the recorded iterate and converges to the same
    fixpoint it always would."""
    planted = 0
    for item in data.get("table", ()):
        try:
            indicator, calling, success, may_share = entry_from_json(item)
        except (KeyError, TypeError, ValueError, IndexError):
            continue  # one damaged entry must not void the rest
        table.seed(indicator, calling, success, may_share)
        planted += 1
    if planted and metrics is not None:
        metrics.counter("resume.entries_planted").inc(planted)
    return planted


class CheckpointPolicy:
    """When to snapshot, and where snapshots go.

    One policy instance governs one analysis run.  The fixpoint layers
    call :meth:`note_pass` once per charged iteration; the policy emits
    a snapshot every ``every`` passes and — once per run — when the
    budget's deadline window is nearly spent
    (:meth:`Budget.deadline_imminent`), so the work survives the trip
    that is about to happen.  :meth:`flush` emits a final snapshot at a
    degrade boundary (called *before* the table is widened to ⊤).

    ``sink`` receives each snapshot dict (the service writes it to the
    checkpoint store namespace and, in a worker, also ships it up the
    wire).  A sink failure is swallowed: checkpointing must never be
    the thing that breaks an analysis.  ``on_pass`` is an extra
    per-pass hook (the chaos harness arms its kill-at-iteration site
    there, *after* the emit decision, so an injected kill always lands
    on a checkpointed pass boundary).
    """

    def __init__(
        self,
        sink: Optional[Callable[[dict], None]] = None,
        *,
        every: Optional[int] = DEFAULT_CHECKPOINT_EVERY,
        budget: Optional[Budget] = None,
        deadline_fraction: float = DEFAULT_DEADLINE_FRACTION,
        config: str = "",
        key: str = "",
        entries: Iterable = (),
        base_iterations: int = 0,
        attempts: int = 1,
        metrics=None,
        on_pass: Optional[Callable[[int], None]] = None,
    ):
        if every is not None and every < 1:
            raise ValueError(f"checkpoint cadence must be >= 1, not {every!r}")
        if not (0.0 < deadline_fraction < 1.0):
            raise ValueError("deadline_fraction must be in (0, 1)")
        self.sink = sink
        self.every = every
        self.budget = budget
        self.deadline_fraction = deadline_fraction
        self.config = config
        self.key = key
        self.entries = tuple(str(entry) for entry in entries)
        #: Cursor base: iterations already banked by prior attempts
        #: (from the resumed checkpoint), so emitted cursors are
        #: cumulative across the whole retry chain.
        self.base_iterations = base_iterations
        self.attempts = attempts
        self.metrics = metrics
        self.on_pass = on_pass
        self.passes = 0
        self.emitted = 0
        #: The most recent snapshot emitted (the degrade path persists
        #: this after widening destroyed the live table).
        self.last: Optional[dict] = None
        self._last_emit_pass = -1
        self._proximity_fired = False

    # ------------------------------------------------------------------

    @property
    def cursor(self) -> int:
        """Cumulative iteration cursor: banked base + this run's passes."""
        return self.base_iterations + self.passes

    def note_pass(self, tables: Tables) -> None:
        """One fixpoint pass completed over ``tables``; maybe snapshot."""
        self.passes += 1
        due = self.every is not None and self.passes % self.every == 0
        if not due and not self._proximity_fired and self.budget is not None:
            if self.budget.deadline_imminent(self.deadline_fraction):
                due = True
                self._proximity_fired = True
                if self.metrics is not None:
                    self.metrics.counter("checkpoint.deadline_proximity").inc()
        if due:
            self._emit(tables)
        if self.on_pass is not None:
            self.on_pass(self.passes)

    def flush(self, tables: Tables) -> Optional[dict]:
        """Emit a final snapshot unless this pass is already covered;
        returns the latest snapshot either way."""
        if self.passes and self._last_emit_pass != self.passes:
            self._emit(tables)
        return self.last

    def _emit(self, tables: Tables) -> None:
        budget = self.budget
        snap = snapshot(
            tables,
            config=self.config,
            key=self.key,
            entries=self.entries,
            iterations=self.cursor,
            steps=budget.steps_used if budget is not None else 0,
            attempts=self.attempts,
        )
        self.last = snap
        self._last_emit_pass = self.passes
        self.emitted += 1
        if self.metrics is not None:
            self.metrics.counter("checkpoint.emitted").inc()
        if self.sink is not None:
            try:
                self.sink(snap)
            except (OSError, ValueError):
                pass  # a full disk must never fail the analysis itself


__all__ = [
    "CHECKPOINT_FORMAT",
    "DEFAULT_CHECKPOINT_EVERY",
    "DEFAULT_DEADLINE_FRACTION",
    "CheckpointPolicy",
    "checkpoint_checksum",
    "cursor_iterations",
    "load",
    "plant",
    "snapshot",
]
