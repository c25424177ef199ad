"""Resource governance and fault tolerance for the analysis stack.

The paper's pitch is that compiled analysis is fast enough to live inside
a production compiler.  Production also means *bounded*: a pathological
or adversarial program must not be able to spin the fixpoint engine
forever, and a failure in one entry point must not wipe out every other
result.  This module provides the two shared primitives:

* :class:`Budget` — a multi-dimensional resource budget (abstract-machine
  steps, fixpoint iterations, extension-table entries, wall-clock
  deadline) threaded through the abstract WAM, the fixpoint drivers, the
  extension table and the baseline analyzers.  Any dimension left as
  ``None`` is unlimited.  When a dimension trips, the charging call
  raises :class:`~repro.errors.BudgetExceeded`.

* :class:`FaultPlan` — deterministic fault injection: raise
  :class:`~repro.errors.InjectedFault` at exactly the Nth occurrence of
  an instrumented event (abstract step, abstract unification, table
  update, fixpoint iteration).  The test suite uses it to prove that
  every degradation path is exercised and sound.

Degradation contract (``on_budget="degrade"``): when a budget trips or a
fault fires inside the analysis of one entry spec, the driver widens
every extension-table entry that spec touched to ⊤ (success pattern all
``any``, every argument pair may-share) and marks it ``degraded``.  A
widened entry over-approximates every concrete behaviour, so the overall
result stays *sound* — merely less precise — and the remaining entry
specs are analyzed in isolation, unaffected.  :func:`widen_entry_to_top`
and :func:`top_success_pattern` implement the widening.
"""

from __future__ import annotations

import time
from typing import FrozenSet, List, Optional, Tuple

from ..errors import BudgetExceeded, InjectedFault

#: Ordered per-entry / per-spec statuses, least to most damaged.
STATUS_EXACT = "exact"
STATUS_DEGRADED = "degraded"
STATUS_FAILED = "failed"
_STATUS_RANK = {STATUS_EXACT: 0, STATUS_DEGRADED: 1, STATUS_FAILED: 2}


def worse_status(left: str, right: str) -> str:
    """The more damaged of two statuses (``failed`` > ``degraded`` > ``exact``)."""
    return left if _STATUS_RANK[left] >= _STATUS_RANK[right] else right


#: The limit dimensions of a :class:`Budget`, in wire order.
_LIMITS = ("max_steps", "max_iterations", "max_table_entries", "deadline")

#: How many charged steps pass between wall-clock probes; checking
#: ``time.monotonic`` on every abstract instruction would dominate the
#: dispatch loop.
DEADLINE_STRIDE = 256


class Budget:
    """A resource budget shared by one analysis run.

    Dimensions (each ``None`` = unlimited):

    * ``max_steps`` — abstract-machine instructions (baselines charge one
      step per interpreted goal, the closest equivalent);
    * ``max_iterations`` — fixpoint passes, summed over all entry specs;
    * ``max_table_entries`` — distinct (predicate, calling-pattern)
      extension-table entries;
    * ``deadline`` — wall-clock seconds for the whole run, armed by
      :meth:`start`.

    A Budget is mutable bookkeeping for **one run at a time**: the
    analyzer calls :meth:`start` at the beginning of every run, which
    resets the used counters and (re)arms the deadline.  After the run
    the ``steps_used`` / ``iterations_used`` counters are left readable
    for observability.  Do not share one Budget between concurrent runs.

    **Deadline semantics under retry** (see
    :mod:`repro.serve.supervisor`): the ``deadline`` is **per attempt**,
    not cumulative across retries.  Every worker attempt reconstructs
    its Budget from the wire and calls :meth:`start`, re-arming a fresh
    deadline — so a retry that resumes from a checkpoint gets the full
    deadline window to extend the previous attempt's work instead of
    inheriting an already-spent clock.  The *cumulative* bound on a
    request is the supervisor's ``cumulative_timeout`` (and the
    gateway's admission deadline), which caps the whole retry chain in
    wall-clock terms regardless of how many per-attempt deadlines it
    contains.
    """

    __slots__ = (
        "max_steps",
        "max_iterations",
        "max_table_entries",
        "deadline",
        "steps_used",
        "iterations_used",
        "_deadline_at",
    )

    def __init__(
        self,
        max_steps: Optional[int] = None,
        max_iterations: Optional[int] = None,
        max_table_entries: Optional[int] = None,
        deadline: Optional[float] = None,
    ):
        for name, value in (
            ("max_steps", max_steps),
            ("max_iterations", max_iterations),
            ("max_table_entries", max_table_entries),
        ):
            # Written so that NaN, which compares false, is refused.
            if value is not None and not value >= 1:
                raise ValueError(f"{name} must be positive, not {value!r}")
        if deadline is not None and not deadline >= 0:
            raise ValueError(f"deadline must be >= 0, not {deadline!r}")
        self.max_steps = max_steps
        self.max_iterations = max_iterations
        self.max_table_entries = max_table_entries
        self.deadline = deadline
        self.steps_used = 0
        self.iterations_used = 0
        self._deadline_at: Optional[float] = None

    # ------------------------------------------------------------------

    @property
    def unlimited(self) -> bool:
        """True when no dimension can ever trip."""
        return (
            self.max_steps is None
            and self.max_iterations is None
            and self.max_table_entries is None
            and self.deadline is None
        )

    @property
    def governs_steps(self) -> bool:
        """Does the per-instruction monitor need to run at all?"""
        return self.max_steps is not None or self.deadline is not None

    def start(self) -> "Budget":
        """Reset counters and arm the deadline clock; returns self."""
        self.steps_used = 0
        self.iterations_used = 0
        self._deadline_at = (
            time.monotonic() + self.deadline if self.deadline is not None else None
        )
        return self

    # ------------------------------------------------------------------
    # Charging.  Each raises BudgetExceeded when its dimension trips.

    def charge_step(self) -> None:
        """Charge one abstract-machine instruction (or baseline goal)."""
        self.steps_used = used = self.steps_used + 1
        limit = self.max_steps
        if limit is not None and used > limit:
            raise BudgetExceeded(
                "steps", f"step budget exceeded ({limit} abstract steps)"
            )
        if self._deadline_at is not None and used % DEADLINE_STRIDE == 0:
            self.check_deadline()

    def charge_iteration(self) -> None:
        """Charge one fixpoint pass; also probes the deadline."""
        self.iterations_used = used = self.iterations_used + 1
        limit = self.max_iterations
        if limit is not None and used > limit:
            raise BudgetExceeded(
                "iterations", f"no fixpoint after {limit} iterations"
            )
        self.check_deadline()

    def charge_table(self, size: int) -> None:
        """Charge the extension table growing to ``size`` entries."""
        limit = self.max_table_entries
        if limit is not None and size > limit:
            raise BudgetExceeded(
                "table", f"extension-table budget exceeded ({limit} entries)"
            )

    def check_deadline(self) -> None:
        """Raise when the armed wall-clock deadline has passed."""
        deadline_at = self._deadline_at
        if deadline_at is not None and time.monotonic() > deadline_at:
            raise BudgetExceeded(
                "deadline", f"deadline exceeded ({self.deadline}s wall clock)"
            )

    def expired(self) -> bool:
        """Non-raising deadline probe (used by cooperative loops)."""
        deadline_at = self._deadline_at
        return deadline_at is not None and time.monotonic() > deadline_at

    def deadline_imminent(self) -> bool:
        """Non-raising proximity probe: is less than a quarter of the
        armed deadline window left?

        Used by the checkpoint policy (:mod:`repro.robust.checkpoint`)
        to snapshot the table *before* the deadline trips, so a
        degraded or killed run leaves resumable progress behind.  False
        when no deadline is armed."""
        deadline_at = self._deadline_at
        if deadline_at is None or self.deadline is None:
            return False
        return (deadline_at - time.monotonic()) < 0.25 * self.deadline

    # ------------------------------------------------------------------
    # Per-request budgets (used by the repro.serve service).

    def copy(self) -> "Budget":
        """A fresh, unstarted budget with the same limits.

        A Budget is single-run bookkeeping; a long-lived service keeps
        one *template* budget and hands each request its own copy, so
        one hot request cannot consume a later request's allowance."""
        return Budget(
            max_steps=self.max_steps,
            max_iterations=self.max_iterations,
            max_table_entries=self.max_table_entries,
            deadline=self.deadline,
        )

    def tightened(self, other: Optional["Budget"]) -> "Budget":
        """A fresh budget taking the *tighter* of each dimension.

        The service combines its server-wide caps with a request's own
        limits this way: a request may ask for less than the server
        allows, never for more."""
        if other is None:
            return self.copy()

        def tight(mine, theirs):
            if mine is None:
                return theirs
            if theirs is None:
                return mine
            return min(mine, theirs)

        return Budget(
            max_steps=tight(self.max_steps, other.max_steps),
            max_iterations=tight(self.max_iterations, other.max_iterations),
            max_table_entries=tight(
                self.max_table_entries, other.max_table_entries
            ),
            deadline=tight(self.deadline, other.deadline),
        )

    # ------------------------------------------------------------------
    # The JSON wire form (requests, worker config lines).

    @classmethod
    def from_wire(cls, spec) -> Optional["Budget"]:
        """Decode a budget's JSON form: None for ``null`` or ``{}`` (no
        budget), else the object's limits, a missing one unlimited.

        Raises ``ValueError`` for anything but an object or for a limit
        out of range, and ``TypeError`` for a non-numeric limit."""
        if spec is None:
            return None
        if not isinstance(spec, dict):
            raise ValueError(f"budget must be a JSON object, not {spec!r}")
        if not spec:
            return None
        return cls(**{name: spec.get(name) for name in _LIMITS})

    def to_wire(self) -> dict:
        """The JSON form :meth:`from_wire` decodes back to these limits."""
        return {name: getattr(self, name) for name in _LIMITS}

    # ------------------------------------------------------------------

    def __repr__(self) -> str:
        parts = []
        for name in _LIMITS:
            value = getattr(self, name)
            if value is not None:
                parts.append(f"{name}={value}")
        return f"Budget({', '.join(parts)})"


def _ordinal_set(site: str, spec) -> FrozenSet[int]:
    """Normalize a fault spec (None, int, or iterable of ints) to a set
    of 1-based ordinals; validates positivity."""
    if spec is None:
        return frozenset()
    ordinals = (spec,) if isinstance(spec, int) else tuple(spec)
    for ordinal in ordinals:
        if ordinal < 1:
            raise ValueError(f"fault ordinal for {site!r} must be >= 1")
    return frozenset(ordinals)


class FaultPlan:
    """Deterministic fault injection at instrumented sites.

    Each site counts its events; when a site's counter reaches a
    configured ordinal, the fault fires exactly once per ordinal (the
    counter keeps advancing, so re-running the same plan object does not
    re-fire — build a fresh plan per experiment).

    Two families of sites:

    **Analysis sites** (checked with :meth:`fire`, which raises
    :class:`~repro.errors.InjectedFault`; single ordinal each):

    * ``"step"`` — one abstract-machine instruction dispatched;
    * ``"unify"`` — one abstract set-unification performed by the machine;
    * ``"table"`` — one extension-table ``updateET``;
    * ``"iteration"`` — one fixpoint pass started.

    **Serve chaos sites** (checked with :meth:`probe`, which merely
    returns True — the caller performs the fault; each accepts one
    ordinal or an iterable of ordinals, so a chaos campaign can kill
    at many fixed request indices):

    * ``"request"`` — the supervisor dispatches one request: the worker
      is SIGKILLed on receipt (``kill_worker_at_request``);
    * ``"response"`` — the worker delays its response by
      ``delay_seconds`` wall-clock seconds, typically past the request
      deadline (``delay_response_at_request``);
    * ``"store"`` — one on-disk store write: the entry file is written
      torn/corrupt while the journal keeps the good record
      (``corrupt_store_at_put``).
    """

    SITES = ("step", "unify", "table", "iteration",
             "request", "response", "store")

    def __init__(
        self,
        at_step: Optional[int] = None,
        at_unification: Optional[int] = None,
        at_table_update: Optional[int] = None,
        at_iteration: Optional[int] = None,
        kill_worker_at_request=None,
        delay_response_at_request=None,
        corrupt_store_at_put=None,
        delay_seconds: float = 0.25,
    ):
        self._trip_at = {
            "step": _ordinal_set("step", at_step),
            "unify": _ordinal_set("unify", at_unification),
            "table": _ordinal_set("table", at_table_update),
            "iteration": _ordinal_set("iteration", at_iteration),
            "request": _ordinal_set("request", kill_worker_at_request),
            "response": _ordinal_set(
                "response", delay_response_at_request
            ),
            "store": _ordinal_set("store", corrupt_store_at_put),
        }
        if delay_seconds < 0:
            raise ValueError("delay_seconds must be >= 0")
        #: How long a "response" fault delays the worker's answer.
        self.delay_seconds = delay_seconds
        self.counts = {site: 0 for site in self.SITES}
        #: (site, ordinal) pairs that actually fired, in firing order.
        self.fired: List[Tuple[str, int]] = []

    def watches(self, site: str) -> bool:
        """Is any fault armed at this site (monitor worth installing)?"""
        return bool(self._trip_at.get(site))

    def fire(self, site: str) -> None:
        """Record one event at ``site``; raise when an ordinal is reached."""
        if self.probe(site):
            raise InjectedFault(site, self.counts[site])

    def probe(self, site: str) -> bool:
        """Record one event at ``site``; True when an ordinal is reached.

        The non-raising form used by the serve chaos sites, where the
        caller (supervisor, disk store) performs the fault itself."""
        self.counts[site] = count = self.counts[site] + 1
        if count in self._trip_at.get(site, frozenset()):
            self.fired.append((site, count))
            return True
        return False


# ----------------------------------------------------------------------
# Sound widening to ⊤.


def top_success_pattern(arity: int):
    """The ⊤ success pattern for ``arity`` arguments: every position
    ``any``, no structure.  Over-approximates every concrete success."""
    from ..analysis.patterns import Pattern, canonicalize
    from ..domain.sorts import AbsSort

    return canonicalize(
        Pattern(tuple(("i", AbsSort.ANY, index) for index in range(arity)))
    )


def all_share_pairs(arity: int) -> FrozenSet[Tuple[int, int]]:
    """Every argument-position pair: unknown code may alias anything."""
    return frozenset(
        (i, j) for i in range(arity) for j in range(i + 1, arity)
    )


def widen_entry_to_top(indicator, entry, status: str = STATUS_DEGRADED) -> None:
    """Widen one table entry to ⊤ in place and stamp its status.

    Used when an entry's exploration was interrupted: whatever partial
    summary it holds may be an under-approximation, so the only sound
    summary left is "may succeed with anything, aliasing anything".
    """
    arity = indicator[1]
    entry.success = top_success_pattern(arity)
    entry.may_share = all_share_pairs(arity)
    entry.status = worse_status(entry.status, status)


__all__ = [
    "Budget",
    "BudgetExceeded",
    "FaultPlan",
    "InjectedFault",
    "STATUS_DEGRADED",
    "STATUS_EXACT",
    "STATUS_FAILED",
    "all_share_pairs",
    "top_success_pattern",
    "widen_entry_to_top",
    "worse_status",
]
