"""Counters, gauges and histograms — the measurement layer of repro.obs.

Design constraints, in order:

1. **Zero cost when off.**  The analysis core never touches a
   registry: its one dispatch loop counts instructions per code
   address, and the machine and extension table keep plain integer
   counters.  ``repro.analysis.driver.record_metrics`` turns them into
   metrics once per entry spec, after its fixpoint.  Other components
   carry a ``metrics`` attribute that defaults to ``None``, and each
   site is one identity check.  ``python -m repro.bench.emit`` measures
   the disabled path and records it in ``BENCH_obs.json``;
   ``docs/observability.md`` documents the budget (< 3 %).

2. **Zero dependencies, process-portable.**  A snapshot is a plain
   JSON-able dict; workers ship snapshot *deltas* up the pipe to the
   supervisor, which :meth:`MetricsRegistry.merge`\\ s them — counters
   and histogram buckets add, gauges take the max (every gauge in the
   catalog is a peak).

3. **Stable names.**  A metric is addressed by a name plus optional
   labels, rendered ``name{k=v,...}`` with label keys sorted — the
   exact keys listed in the catalog in ``docs/observability.md``.

Metrics never change analysis results: they only ever observe values,
and the test suite pins result equality with metrics on vs off
(``tests/test_obs.py``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

#: Default histogram buckets for durations in seconds (upper bounds;
#: a final +inf bucket is implicit).
SECONDS_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)


def metric_key(name: str, labels: Optional[Dict[str, object]] = None) -> str:
    """The flat snapshot key: ``name`` or ``name{k=v,...}`` (keys sorted)."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def to_snapshot(self) -> dict:
        return {"type": "counter", "value": self.value}


class Gauge:
    """A point-in-time value; every catalogued gauge records a *peak*,
    so cross-process aggregation is max, not last-writer-wins."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def set(self, value) -> None:
        self.value = value

    def set_max(self, value) -> None:
        if value > self.value:
            self.value = value

    def to_snapshot(self) -> dict:
        return {"type": "gauge", "value": self.value}


class Histogram:
    """Fixed-bucket histogram: cumulative-free per-bucket counts plus
    sum and count (enough for rates, means and coarse percentiles)."""

    __slots__ = ("bounds", "counts", "sum", "count")

    def __init__(self, bounds: Sequence[float] = SECONDS_BUCKETS) -> None:
        self.bounds: Tuple[float, ...] = tuple(bounds)
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.sum += value
        self.count += 1
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[index] += 1
                return
        self.counts[-1] += 1

    def quantile(self, q: float) -> float:
        """An upper bound for the ``q``-quantile (the bucket boundary);
        returns the last finite bound for the overflow bucket."""
        if self.count == 0:
            return 0.0
        target = q * self.count
        seen = 0
        for index, bound in enumerate(self.bounds):
            seen += self.counts[index]
            if seen >= target:
                return bound
        return self.bounds[-1]

    def to_snapshot(self) -> dict:
        return {
            "type": "histogram",
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
        }


class MetricsRegistry:
    """A named collection of metrics with snapshot/delta/merge support.

    ``counter``/``gauge``/``histogram`` create on first use and return
    the same object afterwards, so hot sites can bind the metric object
    once and skip the name lookup entirely.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, object] = {}
        #: snapshot at the last :meth:`delta` call (for shipping deltas).
        self._mark: Dict[str, dict] = {}

    # ------------------------------------------------------------------
    # Creation / access.

    def counter(self, name: str, **labels) -> Counter:
        key = metric_key(name, labels)
        metric = self._metrics.get(key)
        if metric is None:
            metric = Counter()
            self._metrics[key] = metric
        return metric  # type: ignore[return-value]

    def gauge(self, name: str, **labels) -> Gauge:
        key = metric_key(name, labels)
        metric = self._metrics.get(key)
        if metric is None:
            metric = Gauge()
            self._metrics[key] = metric
        return metric  # type: ignore[return-value]

    def histogram(
        self, name: str, bounds: Sequence[float] = SECONDS_BUCKETS, **labels
    ) -> Histogram:
        key = metric_key(name, labels)
        metric = self._metrics.get(key)
        if metric is None:
            metric = Histogram(bounds)
            self._metrics[key] = metric
        return metric  # type: ignore[return-value]

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, key: str) -> bool:
        return key in self._metrics

    # ------------------------------------------------------------------
    # Snapshots, deltas, merging.

    def snapshot(self) -> Dict[str, dict]:
        """The whole registry as a sorted, JSON-able dict."""
        return {
            key: self._metrics[key].to_snapshot()  # type: ignore[attr-defined]
            for key in sorted(self._metrics)
        }

    def delta(self) -> Dict[str, dict]:
        """What changed since the previous :meth:`delta` call.

        Counters and histograms are differenced; gauges ship their
        current value (merge takes the max anyway).  Unchanged metrics
        are omitted, so an idle worker ships an empty dict.
        """
        current = self.snapshot()
        changed: Dict[str, dict] = {}
        for key, snap in current.items():
            previous = self._mark.get(key)
            if previous == snap:
                continue
            if previous is None or snap["type"] == "gauge":
                changed[key] = snap
            elif snap["type"] == "counter":
                changed[key] = {
                    "type": "counter",
                    "value": snap["value"] - previous["value"],
                }
            else:  # histogram
                changed[key] = {
                    "type": "histogram",
                    "bounds": snap["bounds"],
                    "counts": [
                        now - before
                        for now, before in zip(snap["counts"], previous["counts"])
                    ],
                    "sum": snap["sum"] - previous["sum"],
                    "count": snap["count"] - previous["count"],
                }
        self._mark = current
        return changed

    def merge(self, snapshot: Dict[str, dict]) -> None:
        """Fold a snapshot (or delta) from another registry into this
        one: counters add, gauges max, histogram buckets add.  Metric
        kinds must agree key by key; a histogram merged across registries
        must use the same bucket bounds."""
        for key, snap in snapshot.items():
            kind = snap.get("type")
            if kind == "counter":
                metric = self._metrics.get(key)
                if metric is None:
                    metric = Counter()
                    self._metrics[key] = metric
                if not isinstance(metric, Counter):
                    raise ValueError(f"metric kind mismatch for {key!r}")
                metric.inc(snap["value"])
            elif kind == "gauge":
                metric = self._metrics.get(key)
                if metric is None:
                    metric = Gauge()
                    self._metrics[key] = metric
                if not isinstance(metric, Gauge):
                    raise ValueError(f"metric kind mismatch for {key!r}")
                metric.set_max(snap["value"])
            elif kind == "histogram":
                metric = self._metrics.get(key)
                if metric is None:
                    metric = Histogram(snap["bounds"])
                    self._metrics[key] = metric
                if not isinstance(metric, Histogram):
                    raise ValueError(f"metric kind mismatch for {key!r}")
                if list(metric.bounds) != list(snap["bounds"]):
                    raise ValueError(f"histogram bounds mismatch for {key!r}")
                for index, value in enumerate(snap["counts"]):
                    metric.counts[index] += value
                metric.sum += snap["sum"]
                metric.count += snap["count"]
            else:
                raise ValueError(f"unknown metric kind {kind!r} for {key!r}")


# ----------------------------------------------------------------------
# Opcode classes: the instruction-mix axis of the profile (and of
# BENCH_obs.json).  Mirrors the paper's presentation of WAM cost by
# instruction family.

OPCODE_CLASS: Dict[str, str] = {}
for _op in (
    "get_variable", "get_value", "get_constant", "get_nil",
    "get_list", "get_structure",
):
    OPCODE_CLASS[_op] = "get"
for _op in (
    "put_variable", "put_value", "put_constant", "put_nil",
    "put_list", "put_structure",
):
    OPCODE_CLASS[_op] = "put"
for _op in (
    "unify_variable", "unify_value", "unify_constant", "unify_nil",
    "unify_void",
):
    OPCODE_CLASS[_op] = "unify"
for _op in (
    "call", "execute", "proceed", "allocate", "deallocate",
    "neck_cut", "get_level", "cut", "fail", "halt",
):
    OPCODE_CLASS[_op] = "control"
for _op in (
    "try_me_else", "retry_me_else", "trust_me", "try", "retry", "trust",
    "switch_on_term", "switch_on_constant", "switch_on_structure",
):
    OPCODE_CLASS[_op] = "index"
OPCODE_CLASS["builtin"] = "builtin"
# Specialized opcodes (repro.opt) count toward their base opcode's class
# so before/after instruction mixes stay comparable.
for _op, _base in (
    ("get_constant_nv", "get_constant"), ("get_nil_nv", "get_nil"),
    ("get_list_nv", "get_list"), ("get_structure_nv", "get_structure"),
    ("get_constant_w", "get_constant"), ("get_nil_w", "get_nil"),
    ("get_list_w", "get_list"), ("get_structure_w", "get_structure"),
    ("unify_variable_r", "unify_variable"), ("unify_value_r", "unify_value"),
    ("unify_constant_r", "unify_constant"), ("unify_nil_r", "unify_nil"),
    ("unify_void_r", "unify_void"),
    ("unify_variable_w", "unify_variable"), ("unify_value_w", "unify_value"),
    ("unify_constant_w", "unify_constant"), ("unify_nil_w", "unify_nil"),
    ("unify_void_w", "unify_void"),
):
    OPCODE_CLASS[_op] = OPCODE_CLASS[_base]


def opcode_class(op: str) -> str:
    """The opcode's class (``other`` for anything uncatalogued)."""
    return OPCODE_CLASS.get(op, "other")


__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "OPCODE_CLASS",
    "SECONDS_BUCKETS",
    "metric_key",
    "opcode_class",
]
