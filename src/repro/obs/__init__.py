"""repro.obs — zero-dependency observability for the analyzer and serve stack.

Three pieces:

* :mod:`repro.obs.metrics` — counters, gauges and fixed-bucket
  histograms in a :class:`MetricsRegistry` with snapshot/delta/merge,
  designed so that metrics off costs nothing: components carry a
  ``metrics`` attribute defaulting to ``None``, and the analysis core
  keeps plain counters the driver reports once per entry spec;
* :mod:`repro.obs.trace` — nested spans and events as JSON lines
  (request → entry spec → fixpoint iteration), togglable via
  ``--trace-out`` on ``repro-analyze`` and ``repro-serve``, with
  cross-process stitching (``stitch``/``validate_stitched``) for the
  gateway → shard → supervisor → worker pipeline;
* :mod:`repro.obs.viewer` — the zero-dependency static HTML
  time-travel viewer behind ``repro-trace html``;
* :mod:`repro.obs.report` — the ``repro-analyze --profile`` cost
  tables (instruction mix by opcode class, per-predicate cost,
  extension-table hit rate), computed from any registry snapshot.

The metric catalog, trace schema and aggregation semantics are
documented in ``docs/observability.md`` and ``docs/tracing.md``;
``tests/test_obs.py`` pins hand-counted metric values and the
metrics-on/off result identity.
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    OPCODE_CLASS,
    SECONDS_BUCKETS,
    metric_key,
    opcode_class,
)
from repro.obs.report import (
    format_profile,
    instruction_mix,
    split_key,
    table_hit_rate,
)
from repro.obs.trace import (
    SPANS_WIRE_KEY,
    TRACE_CONTEXT_KEY,
    Tracer,
    new_trace_id,
    read_trace,
    stitch,
    trace_summary,
    validate_nesting,
    validate_stitched,
)
from repro.obs.viewer import render_html

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "OPCODE_CLASS",
    "SECONDS_BUCKETS",
    "SPANS_WIRE_KEY",
    "TRACE_CONTEXT_KEY",
    "Tracer",
    "format_profile",
    "instruction_mix",
    "metric_key",
    "new_trace_id",
    "opcode_class",
    "read_trace",
    "render_html",
    "split_key",
    "stitch",
    "table_hit_rate",
    "trace_summary",
    "validate_nesting",
    "validate_stitched",
]
