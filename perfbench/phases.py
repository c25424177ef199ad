"""The three timed workloads, each as a loop a run advances unit by unit.

* :class:`AnalyzeLoop` — ``analyze-table1``: a closed loop with one
  caller; each Table 1 program goes parse → compile →
  ``Analyzer.analyze`` → ``stable_dict``, as ``repro-analyze`` does.
* :class:`ServeLoop` — ``serve-edit-stream``: a closed loop with one
  caller against one in-process ``AnalysisService``, replaying a seeded
  editing session.
* :class:`GatewayLoop` — ``gateway-open-loop``: an open loop over TCP
  at a fixed rate.  :func:`saturation` measures the highest rate the
  gateway sustains within the p95 limit (for the traced run).

A run interleaves the loops' units, so each metric's
samples spread over the whole run rather than a few seconds of it: the
host's speed swings within seconds, and a phase run in one block caught
one swing.  Every answer is compared with the from-scratch answer
recorded by :mod:`inputs`; a mismatch, an error, a shed or a timeout is
a failure.  The closed loops interleave the calibration kernel with
their requests.

The request mix of each workload, and where each of its proportions
comes from, is spelled out in ``spec.json``.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.bench.chaos import _percentile as percentile

from common import Calibrator, canonical_json, geomean, median
from gateway import (
    check_response,
    closed_window,
    open_loop,
    request_sync,
    timed,
)
from inputs import Inputs, Version

OUTCOMES = ("miss", "incremental", "hit")
#: Requests between two calibration kernel samples in the closed loops.
KERNEL_EVERY = 3

#: Control requests among the analyses, as ``repro.bench.load._mixed_op``
#: places them in the repo's load benchmark: a stats request at every
#: 17th position, else a lint at every 5th.
STATS_EVERY = 17
LINT_EVERY = 5

#: gateway-open-loop: requests per second at the fixed rate, the p95
#: limit ``gateway.max_rps`` is measured against, and hits per edit.
#: The one worker serves the edits' misses in turn with the hits, so
#: hits queue behind them: with 5 hits per edit a stretch of CPU
#: contention on the host pushed the worker near saturation and
#: gateway_p50_ms up tenfold in 3 runs of 10; with 10 it stayed within
#: a third of its usual value under two busy loops on the 2 cores.
FIXED_RATE_RPS = 60
P95_LIMIT_MS = 200.0
REPEATS_PER_EDIT = 10
#: Requests kept in flight when measuring the highest sustained rate —
#: half the gateway's default degrade depth, so none is shed — and the
#: length of one such window.
WINDOW = 16
SATURATION_SECONDS = 1.0


@dataclass
class PhaseResult:
    metrics: Dict[str, float] = field(default_factory=dict)  # reported
    raw: Dict[str, float] = field(default_factory=dict)
    samples: Dict[str, int] = field(default_factory=dict)
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    calibration: Optional[Calibrator] = None


def record_latencies(result: PhaseResult, prefix: str,
                     samples: List[Tuple[float, float]],
                     calibration: Optional[Calibrator] = None) -> None:
    """p50 and p95, in ms, of ``(when, seconds)`` samples, raw and
    calibrated by the machine speed at ``when`` (raw again without a
    calibration).  NaN when there are no samples, so the smoke run
    catches an empty bucket."""
    raw = [seconds for _, seconds in samples]
    calibrated = raw if calibration is None else [
        seconds * calibration.factor_at(when) for when, seconds in samples
    ]
    for name, fraction in (("p50", 0.50), ("p95", 0.95)):
        for target, values in ((result.raw, raw), (result.metrics, calibrated)):
            target[f"{prefix}_{name}_ms"] = (
                percentile(values, fraction) * 1000.0 if values
                else float("nan")
            )


def control_op(index: int) -> Optional[str]:
    """The control request at 1-based position ``index`` of a stream."""
    if index % STATS_EVERY == 0:
        return "stats"
    if index % LINT_EVERY == 0:
        return "lint"
    return None


# ----------------------------------------------------------------------
# analyze-table1


def analyze_once(version: Version) -> dict:
    """What a ``repro-analyze`` user waits for, minus printing."""
    from repro.analysis.driver import Analyzer
    from repro.prolog.program import Program
    from repro.wam.compile import compile_program

    compiled = compile_program(Program.from_text(version.text))
    return Analyzer(compiled).analyze([version.entry]).stable_dict()


class AnalyzeLoop:
    def __init__(self, inputs: Inputs, rng: random.Random,
                 calibration: Calibrator):
        self.inputs = inputs
        self.rng = rng
        self.result = PhaseResult(calibration=calibration)
        self.times: Dict[str, List[Tuple[float, float]]] = {
            v.key: [] for v in inputs.originals
        }
        self.passes = 0

    def run(self, passes: int) -> None:
        """``passes`` passes, each over every program in seeded order."""
        calibration = self.result.calibration
        calibration.sample(2)
        for _ in range(passes):
            order = self.rng.sample(self.inputs.originals,
                                    len(self.inputs.originals))
            for index, version in enumerate(order):
                started = time.perf_counter()
                answer = analyze_once(version)
                self.times[version.key].append(
                    (started, time.perf_counter() - started)
                )
                self.result.attempted += 1
                if canonical_json(answer) != self.inputs.expected[version.key]:
                    self.result.failures.append(
                        f"analyze {version.key}: wrong answer"
                    )
                if index % KERNEL_EVERY == 0:
                    calibration.sample()
            self.passes += 1
        calibration.sample(2)

    def finish(self) -> PhaseResult:
        """The geometric mean over programs of each program's median."""
        result, factor_at = self.result, self.result.calibration.factor_at
        result.raw["analyze_geomean_ms"] = geomean(
            median([raw for _, raw in samples])
            for samples in self.times.values()
        ) * 1000.0
        result.metrics["analyze_geomean_ms"] = geomean(
            median([raw * factor_at(when) for when, raw in samples])
            for samples in self.times.values()
        ) * 1000.0
        result.samples["analyze_runs_per_program"] = self.passes
        return result


# ----------------------------------------------------------------------
# serve-edit-stream


def episode(inputs: Inputs,
            rng: random.Random) -> List[Tuple[str, Optional[Version]]]:
    """One episode of the editing session: the store is cleared, every
    original is requested once, then, shuffled, every edit of the
    catalogue and as many repeats of versions already sent; stats and
    lint requests of versions already sent sit at the positions
    :func:`control_op` gives them.  Runs do whole episodes only, so
    every run times the same mix of outcomes."""
    analyses: List[Optional[Version]] = list(inputs.edits) + [None] * len(
        inputs.edits
    )
    rng.shuffle(analyses)
    analyses[:0] = rng.sample(inputs.originals, len(inputs.originals))
    steps: List[Tuple[str, Optional[Version]]] = [("invalidate", None)]
    seen: List[Version] = []
    index = 1
    for version in analyses:
        while control_op(index) is not None:
            op = control_op(index)
            steps.append((op, None if op == "stats" else rng.choice(seen)))
            index += 1
        if version is None:
            version = rng.choice(seen)
        else:
            seen.append(version)
        steps.append(("analyze", version))
        index += 1
    return steps


class ServeLoop:
    def __init__(self, inputs: Inputs, rng: random.Random,
                 calibration: Calibrator, service=None,
                 responses: Optional[list] = None):
        from repro.serve.service import AnalysisService

        self.inputs = inputs
        self.rng = rng
        self.service = AnalysisService() if service is None else service
        self.responses = responses
        self.result = PhaseResult(calibration=calibration)
        self.buckets: Dict[str, List[Tuple[float, float]]] = {
            outcome: [] for outcome in OUTCOMES
        }
        self.episodes = 0

    def run(self, episodes: int) -> None:
        inputs, result = self.inputs, self.result
        calibration = result.calibration
        calibration.sample(2)
        for _ in range(episodes):
            for count, (op, version) in enumerate(episode(inputs, self.rng)):
                request = (
                    {"op": op} if version is None
                    else inputs.request(version, op)
                )
                started = time.perf_counter()
                response = self.service.handle(request)
                elapsed = time.perf_counter() - started
                result.attempted += 1
                if self.responses is not None:
                    self.responses.append((op, version, elapsed, response))
                if not response.get("ok"):
                    result.failures.append(
                        f"serve {op}: {response.get('error')}"
                    )
                elif op == "analyze":
                    self.buckets[response["cache"]["outcome"]].append(
                        (started, elapsed)
                    )
                    if (canonical_json(response["result"])
                            != inputs.expected[version.key]):
                        result.failures.append(
                            f"serve {version.key}: wrong answer"
                        )
                elif op == "lint" and response.get("status") != "exact":
                    result.failures.append(f"lint {version.key}: not exact")
                if count % KERNEL_EVERY == 0:
                    calibration.sample()
            self.episodes += 1
        calibration.sample(2)

    def finish(self) -> PhaseResult:
        """p50 and p95 per outcome the service reported."""
        result = self.result
        result.samples["serve_episodes"] = self.episodes
        for outcome, samples in self.buckets.items():
            result.samples[f"serve_{outcome}"] = len(samples)
            record_latencies(
                result, f"serve_{outcome}", samples, result.calibration
            )
        return result


# ----------------------------------------------------------------------
# gateway-open-loop


STATS = ({"op": "stats"}, None)


def fixed_items(inputs: Inputs, rng: random.Random,
                edits: List[Version]) -> List:
    """Fixed-rate traffic in seeded order: each of ``edits`` once (fresh
    to the gateway), ``REPEATS_PER_EDIT`` repeats of the originals per
    edit (cache hits), and a stats request where :func:`control_op`
    puts one."""
    versions = list(edits) + [
        rng.choice(inputs.originals)
        for _ in range(REPEATS_PER_EDIT * len(edits))
    ]
    rng.shuffle(versions)
    items = []
    for version in versions:
        if control_op(len(items) + 1) == "stats":
            items.append(STATS)
        items.append((inputs.request(version), inputs.expected[version.key]))
    return items


def hit_stream(inputs: Inputs, rng: random.Random) -> Iterator:
    """Repeats of the originals and a trickle of stats, endlessly."""
    count = 0
    while True:
        count += 1
        if control_op(count) == "stats":
            yield STATS
        else:
            version = rng.choice(inputs.originals)
            yield inputs.request(version), inputs.expected[version.key]


def saturation(address, inputs: Inputs, rng: random.Random,
               result: PhaseResult) -> float:
    """The highest rate the gateway sustains with a bounded backlog and
    the p95 limit met: completed requests per second in a closed loop
    that keeps ``WINDOW`` requests in flight.  Should the loop's p95
    exceed the limit, the rate is scaled down by limit ÷ p95.  A shed or
    gateway-degraded request does not count as completed."""
    sent, start = closed_window(
        address, hit_stream(inputs, rng), WINDOW, SATURATION_SECONDS
    )
    result.attempted += len(sent)
    end = start + SATURATION_SECONDS
    latencies, completed = [], 0
    for item in sent:
        response = item.response or {}
        if response.get("shed") or response.get("degraded_by_gateway"):
            latencies.append(float("inf"))
            continue
        problem = check_response(item)
        if problem is not None:
            result.failures.append(f"gateway saturation: {problem}")
            continue
        latencies.append(item.latency)
        completed += item.due + item.latency <= end
    rate = completed / SATURATION_SECONDS
    p95_ms = percentile(latencies, 0.95) * 1000.0
    if p95_ms > P95_LIMIT_MS:
        rate *= P95_LIMIT_MS / p95_ms
    return rate


class GatewayLoop:
    """Episodes of fixed-rate traffic.  Before each episode but the
    first the gateway's store is invalidated and the originals warmed
    again, so the episode's edits are fresh; episodes take the edit
    slices in turn.

    Gateway figures are raw: the kernel, timed in the benchmark
    process, tracks only part of a round trip through three processes.
    Over ten seeds per workload, at 5 hits per edit, the spread of
    ``gateway_p50_ms`` between runs was 0.04-0.09 of its median raw and
    0.08-0.18 calibrated by the square root of the kernel factor; the
    full factor did worse.
    The kernel is sampled before and after each episode only to report
    machine speed."""

    def __init__(self, address, inputs: Inputs, rng: random.Random,
                 calibration: Calibrator):
        self.address = address
        self.inputs = inputs
        self.rng = rng
        self.result = PhaseResult(calibration=calibration)
        self.slices = inputs.edit_slices()
        self.timed: List[Tuple[float, float]] = []
        self.episodes = 0

    def run(self, episodes: int) -> None:
        result = self.result
        for _ in range(episodes):
            result.calibration.sample(3)
            if self.episodes:
                warm = request_sync(self.address, [{"op": "invalidate"}] + [
                    self.inputs.request(v) for v in self.inputs.originals
                ])
                result.failures.extend(
                    f"gateway warm-up: {r.get('error')}"
                    for r in warm if not r.get("ok")
                )
            edits = self.slices[self.episodes % len(self.slices)]
            sent = open_loop(self.address, FIXED_RATE_RPS,
                             fixed_items(self.inputs, self.rng, edits))
            result.attempted += len(sent)
            for item in sent:
                problem = check_response(item)
                if problem is not None:
                    result.failures.append(f"gateway: {problem}")
            self.timed += timed(sent)
            self.episodes += 1
            result.calibration.sample(3)

    def finish(self) -> PhaseResult:
        result = self.result
        record_latencies(result, "gateway", self.timed)
        result.samples["gateway_fixed_rate"] = len(self.timed)
        return result
