"""The repo benchmark: one command, three seeded workloads, checked answers.

Run from the repository root::

    python3 perfbench/run.py --workload analyze-table1 --seed 1 \\
        --seconds 45 --trace 0

Every run sets up: it generates the program versions and checks each
against the meta-interpreting baseline, then starts the gateway and
warms it three times, reporting the median start as ``setup_s``.  It
then advances all three workload loops — ``analyze-table1``,
``serve-edit-stream`` and ``gateway-open-loop`` — one unit at a time,
so every run prints every end-to-end metric; the named workload gets
the larger share of the run.  ``--seconds`` bounds the whole run, set-up and
shutdown included.  In-process timings are calibrated: raw time ×
(reference kernel ms ÷ the kernel time measured nearest to it).  The
seed orders the requests.

``--trace 1`` prints the per-layer metrics instead (see ``traced.py``).
``--smoke`` is a tiny run that asserts every metric is printed with its
unit and the reference checks pass; run it with ``--trace 0`` and with
``--trace 1``.  The last stdout line is always the JSON result; exit
status is non-zero when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import sys
import time

STARTED = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("analyze-table1", "serve-edit-stream", "gateway-open-loop")

#: Gateway starts whose median is ``setup_s``, and seeded edits per
#: Table 1 program.
SETUP_REPEATS = 3
EDITS_PER_PROGRAM = 3
#: Each loop's share of the run, in its own units — passes over the 11
#: programs (~0.2 s each), serve episodes (~1.3 s), fixed-rate gateway
#: episodes (~2.5 s) — when its workload is named, and when another one
#: is.  Every run prints every end-to-end metric, so every run drives
#: all three loops; the named one gets the larger share, so its metrics
#: rest on the most samples.  The smaller shares are the least that
#: still put 10 samples beyond each p95 (the serve miss bucket, 15 an
#: episode, is the tightest) and kept each metric's spread between
#: seeds under a third of its bound.
SHARES = {
    "analyze-table1": (5, 2),
    "serve-edit-stream": (5, 4),
    "gateway-open-loop": (1, 0.5),
}
#: Seconds kept back from ``--seconds`` for the last results and the
#: gateway's shutdown.
CLOSE_RESERVE_S = 0.5


def reference_kernel_ms() -> float:
    """The calibration kernel's pinned reference time."""
    with open(os.path.join(HERE, "spec.json"), encoding="utf-8") as handle:
        return json.load(handle)["calibration"]["reference_kernel_ms"]


def metric_units(section: str) -> dict:
    """``{name: unit}`` of one metric list in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[section]}


class Run:
    """One benchmark run: set-up, the phases, the result line."""

    def __init__(self, reference_ms: float, workload: str, seed: int,
                 seconds: float, smoke: bool = False):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.smoke = smoke
        self.reference_ms = reference_ms
        self.root = ROOT
        self.src_dir = SRC
        self.failures = []
        self.attempted = 0
        self.gateway = None
        self.inputs = None
        self.notes = []

    # ------------------------------------------------------------------

    def setup(self) -> float:
        """Generate and reference-check the inputs once, then start the
        gateway and warm it with the originals ``SETUP_REPEATS`` times; the
        median of those, in raw seconds, is ``setup_s``.  Raw, because
        starting processes did not track the kernel (calibrating tripled
        its spread between runs)."""
        from common import median
        from gateway import GatewayProcess, check_response, request_sync, Sent
        from inputs import build_inputs

        repeats = 1 if self.smoke else SETUP_REPEATS
        started = time.perf_counter()
        self.inputs = inputs = build_inputs(
            1 if self.smoke else EDITS_PER_PROGRAM
        )
        checked = time.perf_counter() - started
        for key in inputs.disagreements:
            self.failures.append(f"reference: {key} differs from MetaAnalyzer")
        warm = [inputs.request(v) for v in inputs.originals]
        times = []
        for repeat in range(repeats):
            started = time.perf_counter()
            gateway = GatewayProcess(SRC)
            try:
                responses = request_sync(gateway.address, warm)
            except BaseException:
                gateway.stop()
                raise
            times.append(time.perf_counter() - started)
            if repeat < repeats - 1:
                gateway.stop()
        self.gateway = gateway
        for version, response in zip(inputs.originals, responses):
            problem = check_response(
                Sent(0.0, {}, inputs.expected[version.key], response=response)
            )
            if problem is not None:
                self.failures.append(f"gateway warm-up {version.key}: {problem}")
        self.notes.append(
            f"setup: {len(inputs.originals)} programs + {len(inputs.edits)} "
            f"edits checked against MetaAnalyzer in {checked:.3f} s; gateway "
            f"start and warm-up x{repeats}: {[round(t, 3) for t in times]} s"
        )
        # The inputs and expected answers live for the whole run; moving
        # them out of the collector's sight keeps its pauses, which land
        # in the timed requests, down to what the program itself keeps.
        gc.collect()
        gc.freeze()
        return median(times)

    def phases(self) -> dict:
        """One unit of a loop at a time, in the proportions of
        ``SHARES``, while the next fits in what is left of
        ``--seconds``."""
        from common import Calibrator
        from phases import AnalyzeLoop, GatewayLoop, ServeLoop

        rng = random.Random(f"{self.seed}:{self.workload}")
        loops = {
            "analyze-table1": AnalyzeLoop(
                self.inputs, rng, Calibrator(self.reference_ms)
            ),
            "serve-edit-stream": ServeLoop(
                self.inputs, rng, Calibrator(self.reference_ms)
            ),
            "gateway-open-loop": GatewayLoop(
                self.gateway.address, self.inputs, rng,
                Calibrator(self.reference_ms),
            ),
        }
        shares = {
            name: named if name == self.workload else other
            for name, (named, other) in SHARES.items()
        }
        deadline = STARTED + self.seconds - CLOSE_RESERVE_S
        done = dict.fromkeys(loops, 0)
        spent = dict.fromkeys(loops, 0.0)
        while not (self.smoke and all(done.values())):
            # The loop furthest behind its share goes next, so the loops
            # interleave in their proportions over the whole run.
            name = min(loops, key=lambda n: done[n] / shares[n])
            if done[name] and (
                time.perf_counter() + spent[name] / done[name] > deadline
            ):
                break
            began = time.perf_counter()
            loops[name].run(1)
            spent[name] += time.perf_counter() - began
            done[name] += 1
        results = {name: loop.finish() for name, loop in loops.items()}
        for name, result in results.items():
            self.attempted += result.attempted
            self.failures.extend(result.failures)
            self.notes.append(
                f"{name}: {done[name]} units in {spent[name]:.1f} s, kernel "
                f"{result.calibration.kernel_ms:.3f} ms "
                f"(x{result.calibration.factor:.3f}), samples {result.samples}"
            )
            for metric, raw in sorted(result.raw.items()):
                self.notes.append(
                    f"  {metric}: raw {raw:.4f}, calibrated "
                    f"{result.metrics[metric]:.4f}"
                )
        return results

    def close(self) -> None:
        if self.gateway is not None:
            self.gateway.stop()
            self.gateway = None

    # ------------------------------------------------------------------

    def timed(self) -> dict:
        setup_s = self.setup()
        metrics = {"setup_s": setup_s}
        for result in self.phases().values():
            metrics.update(result.metrics)
        self.close()
        # The largest peak of any one process of the run: this one, or
        # the biggest reaped gateway or worker process.
        metrics["peak_rss_mb"] = max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        ) / 1024.0
        failed = len(self.failures)
        attempted = max(1, self.attempted)
        self.notes.append(
            f"failed_ratio: {failed}/{attempted} = {failed / attempted:.6f}"
        )
        return metrics

    def traced(self) -> dict:
        import traced

        self.setup()
        metrics = traced.run_traced(self)
        self.close()
        return metrics


def emit(section: str, metrics: dict, attempted: int, failures: list) -> dict:
    units = metric_units(section)
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    return {
        "correct": not failures,
        "attempted": max(1, attempted),
        "failed": len(failures),
        "metrics": {
            name: {"value": float(metrics[name]), "unit": units[name]}
            for name in units
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny sizes; assert every metric and reference check",
    )
    arguments = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    run = Run(reference_kernel_ms(), arguments.workload, arguments.seed,
              arguments.seconds, smoke=arguments.smoke)
    section = "per_layer" if arguments.trace else "end_to_end"
    try:
        metrics = run.traced() if arguments.trace else run.timed()
    finally:
        run.close()
    result = emit(section, metrics, run.attempted, run.failures)
    for note in run.notes:
        print(note)
    for failure in run.failures[:20]:
        print(f"FAILED: {failure}")
    print(json.dumps(result, sort_keys=True))
    if arguments.smoke:
        problems = list(run.failures) + [
            f"{name} has no unit or no value"
            for name, entry in result["metrics"].items()
            if not entry["unit"] or entry["value"] != entry["value"]
        ]
        if problems:
            print(f"smoke failed: {problems}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
