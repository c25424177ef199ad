"""The traced run (``--trace 1``): per-layer metrics, measured from outside.

Nothing inside ``src/`` is instrumented.  Each layer is timed by calling
its public functions on the inputs the workloads send (a decomposed
replay), or by wrapping a public method of an object the benchmark
itself created:

* ``Program.from_text``, ``compile_program``, ``predicate_fingerprints``,
  ``CallGraph.from_compiled``, ``Analyzer.analyze`` and
  ``AnalysisResult.stable_dict`` on every program version;
* ``SCCScheduler.analyze`` against the plain driver on the originals;
* the serve-edit-stream replayed through an ``AnalysisService`` whose
  ``ResultStore.get``/``put`` are wrapped in timers;
* the gateway open loop run twice — against the plain gateway and
  against one started with the existing stitched ``--trace-out`` — which
  splits queue wait, supervisor round trip and worker time, and gives
  ``trace.overhead_ratio``; saturation windows on the plain gateway give
  the highest rate it sustains within the p95 limit;
* cProfile self-time shares over analyze-table1;
* the Table 1 ledger: the Prolog-hosted baseline against the compiled
  analyzer, beside the paper's column.

Per-layer times are raw; ``calibration.kernel_ms`` gives the machine
speed they were taken at.
"""

from __future__ import annotations

import cProfile
import gc
import os
import pstats
import random
import statistics
import time
from typing import Dict, List

from repro.bench.chaos import _percentile as percentile

from common import Calibrator, geomean, median
from gateway import (
    GatewayProcess,
    check_response,
    latencies,
    open_loop,
    request_sync,
)
from phases import (
    FIXED_RATE_RPS,
    PhaseResult,
    ServeLoop,
    analyze_once,
    fixed_items,
    saturation,
)

#: cProfile self-time share metric -> source file of the module.
PROFILED_MODULES = {
    "profile.analysis.patterns.share": "repro/analysis/patterns.py",
    "profile.analysis.machine.share": "repro/analysis/machine.py",
    "profile.analysis.table.share": "repro/analysis/table.py",
    "profile.analysis.aunify.share": "repro/analysis/aunify.py",
    "profile.domain.lattice.share": "repro/domain/lattice.py",
    "profile.prolog.parser.share": "repro/prolog/parser.py",
}

#: Serve episodes replayed with the store wrapped.
SERVE_EPISODES = 6
#: Saturation windows whose median rate is ``gateway.max_rps``.
SATURATION_WINDOWS = 5


def _timed(fn, *args):
    started = time.perf_counter()
    value = fn(*args)
    return value, time.perf_counter() - started


def layer_replay(inputs, metrics: Dict[str, float]) -> None:
    """Time each compile-side layer on every program version."""
    from repro.analysis.driver import Analyzer
    from repro.prolog.program import Program
    from repro.serve.callgraph import CallGraph
    from repro.serve.fingerprint import predicate_fingerprints
    from repro.wam.compile import compile_program

    times: Dict[str, List[float]] = {
        name: [] for name in ("parse", "compile", "fingerprint", "callgraph",
                              "fixpoint", "render")
    }
    totals = {"passes": 0, "instructions": 0, "entries": 0, "size": 0,
              "seconds": 0.0}
    for version in inputs.originals + inputs.edits:
        program, elapsed = _timed(Program.from_text, version.text)
        times["parse"].append(elapsed)
        compiled, elapsed = _timed(compile_program, program)
        times["compile"].append(elapsed)
        times["fingerprint"].append(_timed(predicate_fingerprints, program)[1])
        times["callgraph"].append(_timed(CallGraph.from_compiled, compiled)[1])
        result = Analyzer(compiled).analyze([version.entry])
        times["fixpoint"].append(result.seconds)
        times["render"].append(_timed(result.stable_dict)[1])
        if version.edit is None:
            totals["passes"] += result.iterations
            totals["instructions"] += result.instructions_executed
            totals["entries"] += len(result.table)
            totals["size"] += compiled.total_size()
            totals["seconds"] += result.seconds
    for name, metric in (
        ("parse", "prolog.parse_ms"), ("compile", "wam.compile_ms"),
        ("fingerprint", "serve.fingerprint_ms"),
        ("callgraph", "serve.callgraph_ms"),
        ("fixpoint", "analysis.fixpoint_ms"), ("render", "analysis.render_ms"),
    ):
        metrics[metric] = median(times[name]) * 1000.0
    metrics["wam.code_size"] = totals["size"]
    metrics["analysis.passes"] = totals["passes"]
    metrics["analysis.instructions"] = totals["instructions"]
    metrics["analysis.table_entries"] = totals["entries"]
    metrics["analysis.ns_per_instruction"] = (
        totals["seconds"] * 1e9 / totals["instructions"]
    )


def profiling_overhead(inputs, metrics: Dict[str, float], rounds: int = 3) -> None:
    """The service always profiles: ``metrics=MetricsRegistry()`` ÷ plain."""
    from repro.analysis.driver import Analyzer
    from repro.obs.metrics import MetricsRegistry
    from repro.prolog.program import Program
    from repro.wam.compile import compile_program

    ratios = []
    for version in inputs.originals:
        compiled = compile_program(Program.from_text(version.text))
        plain, profiled = [], []
        for _ in range(rounds):
            plain.append(Analyzer(compiled).analyze([version.entry]).seconds)
            profiled.append(Analyzer(
                compiled, metrics=MetricsRegistry()
            ).analyze([version.entry]).seconds)
        ratios.append(median(profiled) / median(plain))
    metrics["analysis.profiling_overhead_ratio"] = geomean(ratios)


def scheduler_passes(inputs, metrics: Dict[str, float]) -> None:
    """Served passes (discovery + stabilization + verification) against
    the plain driver's, from scratch on the originals."""
    from repro.analysis.driver import Analyzer, parse_entry_spec
    from repro.prolog.program import Program
    from repro.serve.scheduler import SCCScheduler
    from repro.wam.compile import compile_program

    plain = 0
    counts = {"discovery": 0, "stabilization": 0, "verification": 0}
    for version in inputs.originals:
        compiled = compile_program(Program.from_text(version.text))
        plain += Analyzer(compiled).analyze([version.entry]).iterations
        _, stats = SCCScheduler(Analyzer(compiled)).analyze(
            [parse_entry_spec(version.entry)]
        )
        counts["discovery"] += stats.discovery_passes
        counts["stabilization"] += stats.stabilization_passes
        counts["verification"] += stats.verification_passes
    for name, count in counts.items():
        metrics[f"scheduler.{name}_passes"] = count
    metrics["scheduler.pass_ratio"] = sum(counts.values()) / plain


class _GcClock:
    """Total collector pause and collection count while installed."""

    def __init__(self):
        self.pause = 0.0
        self.collections = 0
        self._started = 0.0

    def __call__(self, phase, info) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        else:
            self.pause += time.perf_counter() - self._started
            self.collections += 1

    def __enter__(self):
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc_info):
        gc.callbacks.remove(self)


def serve_replay(run, rng, calibration, metrics: Dict[str, float]) -> None:
    """The serve-edit-stream through a service with a timed store."""
    from repro.serve.service import AnalysisService

    service = AnalysisService()
    store = service.store
    timings: Dict[str, List[float]] = {"get": [], "put": []}

    def timed(name, method):
        def wrapper(*args, **kwargs):
            started = time.perf_counter()
            try:
                return method(*args, **kwargs)
            finally:
                timings[name].append(time.perf_counter() - started)
        return wrapper

    store.get = timed("get", store.get)
    store.put = timed("put", store.put)
    responses: list = []
    with _GcClock() as clock:
        loop = ServeLoop(run.inputs, rng, calibration, service=service,
                         responses=responses)
        loop.run(SERVE_EPISODES)
        result = loop.finish()
    run.attempted += result.attempted
    run.failures.extend(result.failures)
    metrics["store.get_us"] = median(timings["get"]) * 1e6
    metrics["store.put_us"] = median(timings["put"]) * 1e6
    metrics["store.hit_ratio"] = store.hits / max(1, store.hits + store.misses)
    metrics["store.bytes"] = store.bytes_used
    metrics["runtime.gc_pause_ms"] = clock.pause * 1000.0
    metrics["runtime.gc_collections"] = clock.collections
    outside, planted, dropped = [], 0, 0
    for op, _, _, response in responses:
        timing = response.get("timing")
        if op != "analyze" or timing is None:
            continue
        outside.append(response["elapsed_ms"] - timing["seconds"] * 1000.0)
        schedule = response["cache"]["schedule"]
        planted += schedule["seeds_planted"]
        dropped += schedule["seeds_dropped"]
    metrics["service.outside_fixpoint_ms"] = median(outside)
    metrics["scheduler.seed_use_ratio"] = (
        (planted - dropped) / planted if planted else 0.0
    )


def _gateway_loop(run, address, rng):
    sent = open_loop(
        address, FIXED_RATE_RPS,
        fixed_items(run.inputs, rng, run.inputs.edits),
    )
    run.attempted += len(sent)
    for item in sent:
        problem = check_response(item)
        if problem is not None:
            run.failures.append(f"traced gateway: {problem}")
    return sent


def gateway_layers(run, rng, metrics: Dict[str, float]) -> None:
    """Plain and stitched-trace open loops at the fixed rate."""
    from repro.obs.trace import read_trace, stitch

    plain = _gateway_loop(run, run.gateway.address, rng)
    # Not an end-to-end metric: its spread between timed runs reached a
    # quarter on a shared 2-core host, and no kernel tracked it.
    windows = PhaseResult()
    metrics["gateway.max_rps"] = median([
        saturation(run.gateway.address, run.inputs, rng, windows)
        for _ in range(SATURATION_WINDOWS)
    ])
    run.attempted += windows.attempted
    run.failures.extend(windows.failures)
    stats = request_sync(run.gateway.address, [{"op": "stats"}])[0]
    out_dir = os.path.join(run.root, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    trace_path = os.path.join(out_dir, "gateway-trace.jsonl")
    traced_gateway = GatewayProcess(run.src_dir, trace_path=trace_path)
    try:
        request_sync(traced_gateway.address, [
            run.inputs.request(v) for v in run.inputs.originals
        ])
        traced = _gateway_loop(run, traced_gateway.address, rng)
    finally:
        traced_gateway.stop()
    records = stitch(read_trace(trace_path))
    os.remove(trace_path)

    wire = [
        item.latency * 1000.0 - item.response["elapsed_ms"]
        for item in plain
        if item.response and "elapsed_ms" in item.response
    ]
    metrics["gateway.wire_ms"] = median(wire)
    # Not an end-to-end metric: stalls in the gateway and worker and the
    # host's speed swings spread it by a third between timed runs, and
    # the client-side kernel did not track it.
    metrics["gateway.p95_ms"] = percentile(latencies(plain), 0.95) * 1000.0
    lags = [item.lag * 1000.0 for sent in (plain, traced) for item in sent]
    metrics["gateway.generator_lag_ms"] = percentile(lags, 0.95)
    sent = plain + traced
    metrics["gateway.shed_ratio"] = sum(
        1 for item in sent if item.response and item.response.get("shed")
    ) / len(sent)
    shard = stats["stats"]["shards"][0]
    pool = shard.get("backend", {}).get("supervisor", {}).get("pool", {})
    metrics["worker.respawns"] = shard["respawns"] + max(
        0, pool.get("spawned", 1) - pool.get("size", 1)
    )
    metrics["trace.overhead_ratio"] = (
        median(latencies(traced)) / median(latencies(plain))
    )

    # Stitched spans: gateway.admit -> shard.dispatch (queue wait), and
    # supervisor worker.attempt -> worker request (pipe round trip).
    begins = {r["span"]: r for r in records if r["kind"] == "begin"}
    ends = {r["span"]: r for r in records if r["kind"] == "end"}
    queue_wait, ipc = [], []
    for span, begin in begins.items():
        parent = begin.get("parent")
        if begin["name"] == "shard.dispatch" and parent in ends:
            queue_wait.append((begin["ts"] - ends[parent]["ts"]) * 1000.0)
        elif (begin["name"] == "request" and parent in begins
              and begins[parent]["name"] == "worker.attempt"
              and span in ends and parent in ends):
            ipc.append(
                (ends[parent]["elapsed"] - ends[span]["elapsed"]) * 1000.0
            )
    metrics["shard.queue_wait_ms"] = median(queue_wait)
    metrics["supervisor.ipc_ms"] = median(ipc)


def profile_shares(inputs, metrics: Dict[str, float], rounds: int = 2) -> None:
    """cProfile self time per module over analyze-table1, as shares."""
    profiler = cProfile.Profile()
    profiler.enable()
    for _ in range(rounds):
        for version in inputs.originals:
            analyze_once(version)
    profiler.disable()
    table = pstats.Stats(profiler).stats
    total = sum(row[2] for row in table.values())
    for metric, suffix in PROFILED_MODULES.items():
        own = sum(
            row[2] for (path, _, _), row in table.items()
            if path.replace(os.sep, "/").endswith(suffix)
        )
        metrics[metric] = own / total


def table1_ledger(inputs, metrics: Dict[str, float], rounds: int = 3) -> None:
    """Baseline ms, ours ms, their ratio and the paper's, per program.

    Informational only: the baseline shares the pattern layer with the
    compiled analyzer, so a faster pattern layer speeds both sides."""
    from repro.analysis.driver import Analyzer
    from repro.baselines.prolog_analyzer import PrologAnalyzer
    from repro.bench.paper_data import TABLE1_BY_NAME
    from repro.prolog.program import Program
    from repro.wam.compile import compile_program

    speedups = []
    for version in inputs.originals:
        name = version.program
        baseline = PrologAnalyzer(version.text).analyze([version.entry]).seconds
        analyzer = Analyzer(compile_program(Program.from_text(version.text)))
        ours = median([
            analyzer.analyze([version.entry]).seconds for _ in range(rounds)
        ])
        speedups.append(baseline / ours)
        metrics[f"table1.{name}.baseline_ms"] = baseline * 1000.0
        metrics[f"table1.{name}.ours_ms"] = ours * 1000.0
        metrics[f"table1.{name}.speedup"] = baseline / ours
        metrics[f"table1.{name}.paper_speedup"] = TABLE1_BY_NAME[name].speedup
    metrics["table1.speedup_mean"] = statistics.mean(speedups)


def run_traced(run) -> Dict[str, float]:
    metrics: Dict[str, float] = {}
    rng = random.Random(f"{run.seed}:{run.workload}:traced")
    calibration = Calibrator(run.reference_ms)
    calibration.sample(5)
    layer_replay(run.inputs, metrics)
    profiling_overhead(run.inputs, metrics)
    scheduler_passes(run.inputs, metrics)
    serve_replay(run, rng, calibration, metrics)
    gateway_layers(run, rng, metrics)
    profile_shares(run.inputs, metrics)
    table1_ledger(run.inputs, metrics)
    calibration.sample(5)
    metrics["calibration.kernel_ms"] = calibration.kernel_ms
    metrics["failed_ratio"] = len(run.failures) / max(1, run.attempted)
    return metrics
