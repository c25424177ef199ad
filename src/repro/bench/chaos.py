"""Deterministic chaos campaign for the supervised analysis service.

``python -m repro.bench.chaos --out BENCH_chaos.json`` drives hundreds
of analyze requests through a :class:`~repro.serve.supervisor.Supervisor`
while deliberately breaking things, and asserts the service contract
held throughout:

* **worker kills** at fixed request indices (SIGKILL on receipt, the
  deterministic stand-in for a segfault/OOM mid-request) — survived by
  retry on a fresh worker;
* **store corruption**: at fixed indices an on-disk entry file has its
  bytes flipped and the write-ahead journal gets a torn tail appended —
  healed by checksum quarantine and journal replay;
* **a delayed response** past the request timeout — killed by the
  supervisor's wall-clock timer and answered with a structured
  non-retriable error;
* **an oversized and a malformed request line** through ``serve_loop``
  — answered with structured errors, loop keeps serving;
* **warm restart** on the same (abused) store directory — startup
  succeeds, damaged entries are quarantined, answers stay correct;
* the **resume campaign** (:func:`run_resume`): every benchmark is
  killed on every m-th fixpoint pass boundary until checkpointed
  restarts carry it to exact completion, with the re-executed iteration
  count asserted monotonically shrinking, the resumed result asserted
  identical to from-scratch, crash loops asserted contained, and
  default-cadence checkpoint overhead gated under 5%.

The invariant checked on *every* successful response, chaos or not:
the result equals a from-scratch ``analyze()`` of the same program
(compared via ``stable_dict``), and only ``exact`` results are served.
Any violation aborts with a non-zero exit — a chaos campaign that lies
about correctness measures nothing.

The emitted document tracks the cost of isolation alongside the
survival counts: p50/p95 per-request latency through the supervised
worker versus the same request sequence handled in-process.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
import time
from typing import Dict, List, Optional, Sequence

from ..analysis.driver import Analyzer
from ..prolog.program import Program
from ..robust import FaultPlan
from ..serve import (
    AnalysisService,
    ServiceConfig,
    Supervisor,
    SupervisorConfig,
    serve_loop,
)
from .programs import BENCHMARKS

#: Benchmarks small enough to cycle hundreds of times (the heavy
#: search programs would dominate wall clock without adding coverage).
PROGRAM_NAMES = ("log10", "ops8", "times10", "divide10", "nreverse", "qsort")


def _percentile(samples: Sequence[float], fraction: float) -> float:
    ordered = sorted(samples)
    if not ordered:
        return 0.0
    index = min(len(ordered) - 1, int(round(fraction * (len(ordered) - 1))))
    return ordered[index]


def _flip_one_entry_file(store_dir: str) -> bool:
    """Corrupt the newest store entry file in place (flip bytes in the
    middle) and append a torn half-record to the journal; True when a
    file was damaged."""
    try:
        names = [
            name for name in os.listdir(store_dir)
            if name.endswith(".json")
        ]
    except OSError:
        return False
    if not names:
        return False
    path = os.path.join(store_dir, max(
        names, key=lambda name: os.path.getmtime(os.path.join(store_dir, name))
    ))
    with open(path, "rb") as handle:
        blob = bytearray(handle.read())
    if not blob:
        return False
    middle = len(blob) // 2
    for offset in range(middle, min(middle + 8, len(blob))):
        blob[offset] ^= 0xFF
    with open(path, "wb") as handle:
        handle.write(blob)
    journal = os.path.join(store_dir, "journal.jsonl")
    with open(journal, "a", encoding="utf-8") as handle:
        handle.write('{"key": "torn-tail", "sha256": "dead')  # no newline
    return True


def run(
    requests: int = 200,
    kill_every: int = 17,
    corrupt_every: int = 29,
    store_dir: Optional[str] = None,
    request_timeout: float = 30.0,
    delay_index: Optional[int] = None,
) -> dict:
    """Run the campaign; returns the result document or raises
    SystemExit on any contract violation."""
    import tempfile

    selected = [b for b in BENCHMARKS if b.name in PROGRAM_NAMES]
    if not selected:
        raise SystemExit("no campaign benchmarks found")
    reference: Dict[str, dict] = {}
    for benchmark in selected:
        reference[benchmark.name] = Analyzer(
            Program.from_text(benchmark.source)
        ).analyze([benchmark.entry]).stable_dict()

    owns_store = store_dir is None
    if owns_store:
        store_dir = tempfile.mkdtemp(prefix="repro-chaos-store-")
    kill_at = [i for i in range(1, requests + 1) if i % kill_every == 0]
    if delay_index is None:
        delay_index = max(2, requests // 2 + 1)
    while delay_index % kill_every == 0:
        delay_index += 1  # a kill on receipt would mask the delay
    delay_at = [delay_index] if delay_index <= requests else []
    plan = FaultPlan(
        kill_worker_at_request=kill_at,
        delay_response_at_request=delay_at,
        delay_seconds=5.0,
    )
    supervisor = Supervisor(
        ServiceConfig(store_dir=store_dir, journal=True),
        SupervisorConfig(
            request_timeout=request_timeout,
            grace=0.5,
            max_retries=2,
            backoff_base=0.02,
        ),
        fault_plan=plan,
    )

    served = 0
    exact = 0
    errors_structured = 0
    corruptions = 0
    isolated_latency: List[float] = []
    violations: List[str] = []
    try:
        for index in range(1, requests + 1):
            benchmark = selected[(index - 1) % len(selected)]
            if index % corrupt_every == 0 and _flip_one_entry_file(store_dir):
                corruptions += 1
            request = {
                "op": "analyze",
                "text": benchmark.source,
                "entries": [benchmark.entry],
                "id": index,
            }
            if index in delay_at:
                # The delayed response sleeps 5s; a 2s request deadline
                # arms the kill timer at 2s + grace instead of stalling
                # the campaign for the full server-wide timeout.
                request["budget"] = {"deadline": 2.0}
            started = time.perf_counter()
            response = supervisor.handle(request)
            isolated_latency.append(time.perf_counter() - started)
            served += 1
            if response.get("ok"):
                if response.get("status") != "exact":
                    violations.append(
                        f"request {index}: non-exact status "
                        f"{response.get('status')!r} with no budget set"
                    )
                if response["result"] != reference[benchmark.name]:
                    violations.append(
                        f"request {index} ({benchmark.name}): served result "
                        "differs from from-scratch analyze()"
                    )
                exact += 1
            else:
                # Only the supervisor's structured chaos errors are
                # acceptable; anything unclassified is a bug.
                if response.get("error_kind") not in ("timeout", "worker-crash"):
                    violations.append(
                        f"request {index}: unstructured failure {response!r}"
                    )
                errors_structured += 1
        stats = supervisor.stats()

        # ---- serve_loop abuse: oversized + malformed lines -----------
        probe = selected[0]
        good = json.dumps({
            "op": "analyze", "text": probe.source,
            "entries": [probe.entry], "id": "after-abuse",
        })
        abuse_in = io.StringIO(
            '{"op": "analyze", "text": "' + "x" * 3000 + '"}\n'
            + "this is not json\n"
            + '[1, 2, 3]\n'
            + good + "\n"
            + '{"op": "shutdown"}\n'
        )
        abuse_out = io.StringIO()
        loop_status = serve_loop(
            supervisor, abuse_in, abuse_out, max_line_bytes=2048
        )
        abuse_responses = [
            json.loads(line) for line in abuse_out.getvalue().splitlines()
        ]
        if loop_status != 0 or len(abuse_responses) != 5:
            violations.append(
                f"serve_loop abuse: status {loop_status}, "
                f"{len(abuse_responses)} responses"
            )
        else:
            oversized, bad_json, non_dict, after, shutdown = abuse_responses
            for label, resp, want_ok in (
                ("oversized", oversized, False),
                ("bad-json", bad_json, False),
                ("non-dict", non_dict, False),
                ("after-abuse", after, True),
                ("shutdown", shutdown, True),
            ):
                if bool(resp.get("ok")) != want_ok:
                    violations.append(
                        f"serve_loop abuse: {label} ok={resp.get('ok')}"
                    )
            if after.get("ok") and after["result"] != reference[probe.name]:
                violations.append("serve_loop abuse: wrong result after abuse")
    finally:
        supervisor.close()

    # ---- warm restart on the abused store --------------------------
    restart = Supervisor(
        ServiceConfig(store_dir=store_dir, journal=True),
        SupervisorConfig(request_timeout=request_timeout),
    )
    warm_hits = 0
    try:
        for benchmark in selected:
            response = restart.handle({
                "op": "analyze",
                "text": benchmark.source,
                "entries": [benchmark.entry],
            })
            if not response.get("ok"):
                violations.append(
                    f"restart: {benchmark.name} failed: {response!r}"
                )
                continue
            if response["result"] != reference[benchmark.name]:
                violations.append(
                    f"restart: {benchmark.name} wrong warm-start result"
                )
            if response["cache"]["outcome"] == "hit":
                warm_hits += 1
    finally:
        restart.close()

    # ---- the same request sequence in-process (isolation overhead) --
    inproc = AnalysisService(ServiceConfig())
    inproc_latency: List[float] = []
    for index in range(1, requests + 1):
        benchmark = selected[(index - 1) % len(selected)]
        request = {
            "op": "analyze",
            "text": benchmark.source,
            "entries": [benchmark.entry],
        }
        started = time.perf_counter()
        response = inproc.handle(request)
        inproc_latency.append(time.perf_counter() - started)
        if not response.get("ok"):
            violations.append(f"in-process baseline failed at {index}")

    if violations:
        for violation in violations:
            print(f"chaos violation: {violation}", file=sys.stderr)
        raise SystemExit(1)

    def _latency_block(samples: List[float]) -> dict:
        return {
            "p50_ms": round(_percentile(samples, 0.50) * 1000.0, 3),
            "p95_ms": round(_percentile(samples, 0.95) * 1000.0, 3),
            "mean_ms": round(
                sum(samples) * 1000.0 / max(1, len(samples)), 3
            ),
        }

    return {
        "suite": "repro.bench.chaos",
        "requests": requests,
        "programs": [benchmark.name for benchmark in selected],
        "requests_served": served,
        "exact_responses": exact,
        "structured_errors": errors_structured,
        "kills_injected": len(kill_at),
        "kills_survived": stats["crashes_survived"],
        "retries": stats["retries"],
        "timeouts": stats["timeouts"],
        "store_corruptions": corruptions,
        "warm_restart_hits": warm_hits,
        "pool": stats["pool"],
        "latency": {
            "isolated": _latency_block(isolated_latency),
            "in_process": _latency_block(inproc_latency),
        },
    }


#: Error kinds the gateway campaign accepts on a failed response; any
#: other shape of failure is an unstructured error and a violation.
_GATEWAY_STRUCTURED = (
    "shed", "timeout", "worker-crash", "shard-failure", "partial-fanout"
)


async def _run_gateway_campaign(
    requests: int,
    shards: int,
    kill_index: int,
    delay_index: int,
) -> dict:
    import tempfile

    from ..serve.gateway import Gateway, GatewayConfig
    from .load import _Client

    selected = [b for b in BENCHMARKS if b.name in PROGRAM_NAMES]
    reference: Dict[str, dict] = {}
    for benchmark in selected:
        reference[benchmark.name] = Analyzer(
            Program.from_text(benchmark.source)
        ).analyze([benchmark.entry]).stable_dict()

    store_dir = tempfile.mkdtemp(prefix="repro-chaos-gateway-")
    # Shard 0's supervisor SIGKILLs its worker mid-request at the
    # kill_index-th request; shard 1 delays one response far past the
    # request deadline so the supervisor's kill timer must fire.
    plans = {
        0: FaultPlan(kill_worker_at_request=[kill_index]),
        1: FaultPlan(
            delay_response_at_request=[delay_index], delay_seconds=6.0
        ),
    }
    gateway = Gateway(
        GatewayConfig(
            shards=shards,
            workers=1,
            queue_depth=32,
            max_line_bytes=64 * 1024,
        ),
        ServiceConfig(store_dir=store_dir, journal=True),
        fault_plans=plans,
    )
    host, port = await gateway.start()
    violations: List[str] = []
    exact = 0
    structured: Dict[str, int] = {}
    latency: List[float] = []

    def _classify(index: int, benchmark, response) -> None:
        nonlocal exact
        if response is None:
            violations.append(f"gateway request {index}: no response")
            return
        if response.get("ok"):
            if response["result"] != reference[benchmark.name]:
                violations.append(
                    f"gateway request {index} ({benchmark.name}): served "
                    "result differs from from-scratch analyze()"
                )
            exact += 1
            return
        kind = response.get("error_kind")
        if kind not in _GATEWAY_STRUCTURED:
            violations.append(
                f"gateway request {index}: unstructured failure {response!r}"
            )
        structured[kind or "?"] = structured.get(kind or "?", 0) + 1

    client = await _Client.connect(host, port)
    try:
        # ---- main fault phase: kills and a delayed response ----------
        for index in range(1, requests + 1):
            benchmark = selected[(index - 1) % len(selected)]
            started = time.perf_counter()
            response = await client.request({
                "op": "analyze",
                "text": benchmark.source,
                "entries": [benchmark.entry],
                # The deadline arms the supervisor kill timer: the 6s
                # delayed response gets killed at ~2s instead of 6.
                "budget": {"deadline": 2.0},
            }, timeout=60.0)
            latency.append(time.perf_counter() - started)
            _classify(index, benchmark, response)

        # ---- shard crash: the backend dies out from under shard 0 ---
        # (the supervisor is closed, so its next handle() raises:
        # the deterministic stand-in for a shard process dying).  The
        # shard must answer the in-flight request with a structured
        # shard-failure, respawn with backoff, warm up from the hot
        # set, and serve correctly again.
        probe = selected[0]
        crashed = gateway.ring.route("text:" + probe.source)
        backend = gateway.shards[crashed]._backend
        if backend is not None:
            backend.close()
        first_after = await client.request({
            "op": "analyze", "text": probe.source,
            "entries": [probe.entry],
        }, timeout=60.0)
        if first_after is None:
            violations.append("shard crash: no response at all")
        elif first_after.get("ok"):
            violations.append(
                "shard crash: first request after backend death "
                "succeeded — the injection never landed"
            )
        elif first_after.get("error_kind") not in _GATEWAY_STRUCTURED:
            violations.append(
                f"shard crash: unstructured failure {first_after!r}"
            )
        retried = await client.request({
            "op": "analyze", "text": probe.source,
            "entries": [probe.entry],
        }, timeout=60.0)
        if not (retried and retried.get("ok")):
            violations.append(
                f"shard crash: retry after respawn failed: {retried!r}"
            )
        elif retried["result"] != reference[probe.name]:
            violations.append("shard crash: wrong result after respawn")

        # ---- connection drop mid-line --------------------------------
        import asyncio as _asyncio

        drop_reader, drop_writer = await _asyncio.open_connection(host, port)
        drop_writer.write(b'{"op": "analyze", "text": "truncated')
        await drop_writer.drain()
        drop_writer.transport.abort()  # RST mid-line, no newline ever
        after_drop = await client.request({
            "op": "analyze", "text": probe.source,
            "entries": [probe.entry],
        }, timeout=60.0)
        if not (after_drop and after_drop.get("ok")):
            violations.append(
                f"connection drop: gateway stopped serving: {after_drop!r}"
            )
        elif after_drop["result"] != reference[probe.name]:
            violations.append("connection drop: wrong result afterwards")

        # ---- oversized line over the socket --------------------------
        raw_reader, raw_writer = await _asyncio.open_connection(host, port)
        raw_writer.write(b"x" * (64 * 1024 + 512) + b"\n")
        raw_writer.write((json.dumps({
            "op": "analyze", "text": probe.source,
            "entries": [probe.entry], "id": 1,
        }) + "\n").encode("utf-8"))
        await raw_writer.drain()
        oversized_ok = False
        survived_ok = False
        for _ in range(2):
            line = await _asyncio.wait_for(raw_reader.readline(), 60.0)
            answer = json.loads(line)
            if answer.get("reason") == "oversized" and answer.get("shed"):
                oversized_ok = True
            elif answer.get("id") == 1 and answer.get("ok"):
                survived_ok = answer["result"] == reference[probe.name]
        if not oversized_ok:
            violations.append("oversized line: no structured shed response")
        if not survived_ok:
            violations.append(
                "oversized line: the next request on the connection "
                "did not serve correctly"
            )
        raw_writer.close()

        stats = gateway.stats()
        shard_stats = [shard.stats() for shard in gateway.shards]
    finally:
        await client.close()
        await gateway.stop()

    respawns = sum(s["respawns"] for s in shard_stats)
    if respawns < 1:
        violations.append("shard crash: no respawn was recorded")

    if violations:
        for violation in violations:
            print(f"chaos violation: {violation}", file=sys.stderr)
        raise SystemExit(1)

    return {
        "requests": requests,
        "shards": shards,
        "exact_responses": exact,
        "structured_errors": structured,
        "kills_injected": 1,
        "delays_injected": 1,
        "shard_crashes_injected": 1,
        "respawns": respawns,
        "warmed": sum(s["warmed"] for s in shard_stats),
        "connection_drop_survived": True,
        "oversized_shed": True,
        "requests_served_by_gateway": stats["requests_served"],
        "latency": {
            "p50_ms": round(_percentile(latency, 0.50) * 1000.0, 3),
            "p95_ms": round(_percentile(latency, 0.95) * 1000.0, 3),
        },
        "shard_stats": shard_stats,
    }


def run_gateway(
    requests: int = 36,
    shards: int = 2,
    kill_index: int = 3,
    delay_index: int = 4,
) -> dict:
    """Gateway-level chaos: worker SIGKILL mid-request on one shard, a
    response delayed past its deadline on another, a backend dying out
    from under a shard (respawn + warm-up), a connection dropped
    mid-line, and an oversized line — every completed response must
    equal the from-scratch analysis.  Raises SystemExit on violation.
    """
    import asyncio

    return asyncio.run(_run_gateway_campaign(
        requests=requests,
        shards=shards,
        kill_index=kill_index,
        delay_index=delay_index,
    ))


# ---------------------------------------------------------------------------
# Resume campaign: kill-every-m with checkpointed restarts.


class _SimulatedKill(Exception):
    """In-process stand-in for SIGKILL at a fixpoint pass boundary.

    The checkpoint policy's ``on_pass`` hook fires *after* the emit
    decision, so raising here models the strongest crash the checkpoint
    system promises to survive: the process dies on a checkpointed pass
    boundary and only already-emitted snapshots remain."""


def _analysis_attempt(
    benchmark,
    resume: Optional[dict] = None,
    kill_at: Optional[int] = None,
    sink=None,
    checkpoint_every: Optional[int] = 1,
):
    """One analysis attempt under the resume campaign.

    Returns ``(result, passes_run)``; raises :class:`_SimulatedKill`
    when ``kill_at`` passes complete first.  Snapshots go to ``sink``.
    """
    from ..robust import checkpoint as ckpt

    passes = {"n": 0}

    def on_pass(number: int) -> None:
        passes["n"] = number
        if kill_at is not None and number >= kill_at:
            raise _SimulatedKill()

    if checkpoint_every is None and sink is None and kill_at is None:
        policy = None  # the overhead baseline: no checkpointing at all
    else:
        policy = ckpt.CheckpointPolicy(
            sink,
            every=checkpoint_every,
            config="bench.chaos",
            key=benchmark.name,
            entries=[benchmark.entry],
            resume=resume,
            on_pass=on_pass,
        )
    result = Analyzer(Program.from_text(benchmark.source)).analyze(
        [benchmark.entry], checkpoint=policy, resume=resume
    )
    return result, passes["n"]


def resume_benchmark(benchmark, kill_every: int = 1, max_attempts: int = 40):
    """Kill one benchmark's analysis on every ``kill_every``-th pass
    boundary until checkpointed restarts carry it to completion.

    Each retry resumes from the surviving snapshot with the furthest
    cursor.  Before each retry a side-effect-free completion probe
    measures how many passes the chain still has to (re-)execute from
    that snapshot.  When the probe stops shrinking, the remaining work
    fits no kill interval this short — the final sweep always dies
    with it — so the interval doubles for the next attempt,
    as a deployment would have to slow its crash cadence for the
    analysis to ever finish.  Returns ``(report, result)``: ``result``
    is the completed analysis (None if ``max_attempts`` ran out), and
    ``report["status"]`` is ``"exact"`` only when it equals the
    from-scratch ``stable_dict``.
    """
    from ..robust import checkpoint as ckpt

    reference, scratch_passes = _analysis_attempt(benchmark)
    best: Optional[dict] = None
    m = kill_every
    attempts = 0
    result = None
    status = None
    kill_schedule: List[int] = []
    reexecuted: List[int] = []
    while attempts < max_attempts:
        attempts += 1
        kill_schedule.append(m)
        emitted: List[dict] = []
        try:
            result, passes = _analysis_attempt(
                benchmark, resume=best, kill_at=m, sink=emitted.append
            )
        except _SimulatedKill:
            # Only snapshots emitted before the kill survive; keep the
            # furthest one, exactly as the service's store sink and the
            # supervisor's wire retention do.
            best = max([best, *emitted], key=ckpt.cursor_iterations)
            _, probe = _analysis_attempt(benchmark, resume=best)
            if probe >= (reexecuted[-1] if reexecuted else scratch_passes):
                m *= 2
            reexecuted.append(probe)
            continue
        reexecuted.append(passes)
        status = (
            "exact"
            if result.stable_dict() == reference.stable_dict()
            else "mismatch"
        )
        break
    report = {
        "name": benchmark.name,
        "scratch_passes": scratch_passes,
        "attempts": attempts,
        "status": status,
        "kill_schedule": kill_schedule,
        "reexecuted_iterations": reexecuted,
    }
    return report, result


def run_resume(
    kill_every: int = 1,
    max_attempts: int = 40,
    overhead_rounds: int = 40,
    overhead_limit_pct: float = 5.0,
) -> dict:
    """Kill-every-m campaign over *every* benchmark, plus the resume
    system's side gates.  Raises SystemExit on any violation.

    **Main leg** (in-process, all benchmarks, :func:`resume_benchmark`):
    the analysis is killed on every ``kill_every``-th fixpoint pass
    boundary; each retry resumes from the furthest surviving snapshot.
    Asserted per benchmark:

    * eventual **exact completion** within ``max_attempts``;
    * the resumed result equals the from-scratch ``stable_dict`` —
      byte-identical canonical table;
    * the **re-executed iteration count shrinks monotonically**: the
      completion probes before each retry, then the completing
      attempt's passes, form a non-increasing series.

    The ``kill_schedule`` in the report records every doubling of the
    kill interval.

    **Wire leg**: two benchmarks through a real :class:`Supervisor` —
    the worker SIGKILLs itself after its first fixpoint pass
    (``kill_at_iteration`` chaos), the retry resumes from the snapshot
    shipped up the wire.

    **Crash-loop leg**: a worker killed on receipt (no fixpoint
    progress possible) must be quarantined with a structured
    ``crash-loop`` error after the containment threshold, and an
    ``invalidate`` must lift the quarantine.

    **Overhead leg**: analysis wall clock with the *default* checkpoint
    cadence versus no checkpointing, min-over-rounds; the relative
    overhead must stay under ``overhead_limit_pct``.
    """
    violations: List[str] = []
    benchmarks_report: List[dict] = []
    for benchmark in BENCHMARKS:
        report, _ = resume_benchmark(benchmark, kill_every, max_attempts)
        status = report["status"]
        reexecuted = report["reexecuted_iterations"]
        if status != "exact":
            violations.append(
                f"resume: {benchmark.name}: status {status!r} after "
                f"{report['attempts']} attempts (kill schedule "
                f"{report['kill_schedule']})"
            )
        if any(
            reexecuted[index + 1] > reexecuted[index]
            for index in range(len(reexecuted) - 1)
        ):
            violations.append(
                f"resume: {benchmark.name}: re-executed iterations grew "
                f"between attempts: {reexecuted}"
            )
        benchmarks_report.append(report)

    wire = _run_resume_wire(violations)
    crash_loop = _run_crash_loop(violations)
    overhead = _measure_checkpoint_overhead(
        rounds=overhead_rounds,
        limit_pct=overhead_limit_pct,
        violations=violations,
    )

    if violations:
        for violation in violations:
            print(f"chaos violation: {violation}", file=sys.stderr)
        raise SystemExit(1)

    return {
        "kill_every": kill_every,
        "benchmarks": benchmarks_report,
        "wire": wire,
        "crash_loop": crash_loop,
        "overhead": overhead,
    }


def _run_resume_wire(violations: List[str]) -> dict:
    """Real-process leg: the worker SIGKILLs itself mid-fixpoint and the
    retry resumes from the checkpoint shipped up the wire."""
    import tempfile

    report: List[dict] = []
    names = ("ops8", "queens_8")
    selected = [b for b in BENCHMARKS if b.name in names]
    with tempfile.TemporaryDirectory(prefix="repro-chaos-resume-") as tmp:
        supervisor = Supervisor(
            ServiceConfig(store_dir=tmp, journal=True, checkpoint_every=1),
            SupervisorConfig(
                request_timeout=60.0, grace=0.5,
                max_retries=2, backoff_base=0.02,
            ),
        )
        try:
            for benchmark in selected:
                reference = Analyzer(
                    Program.from_text(benchmark.source)
                ).analyze([benchmark.entry]).stable_dict()
                response = supervisor.handle({
                    "op": "analyze",
                    "text": benchmark.source,
                    "entries": [benchmark.entry],
                    "_chaos": {"kill_at_iteration": 1},
                })
                entry = {
                    "name": benchmark.name,
                    "ok": bool(response.get("ok")),
                    "attempts": response.get("attempts"),
                    "status": response.get("status"),
                }
                report.append(entry)
                if not response.get("ok"):
                    violations.append(
                        f"resume-wire: {benchmark.name} failed: {response!r}"
                    )
                    continue
                if response.get("status") != "exact":
                    violations.append(
                        f"resume-wire: {benchmark.name}: non-exact "
                        f"{response.get('status')!r}"
                    )
                if response["result"] != reference:
                    violations.append(
                        f"resume-wire: {benchmark.name}: resumed result "
                        "differs from from-scratch analyze()"
                    )
                if response.get("attempts", 1) < 2:
                    violations.append(
                        f"resume-wire: {benchmark.name}: kill did not "
                        "force a retry"
                    )
            attached = supervisor.metrics.counter("resume.wire_attached").value
            if attached < 1:
                violations.append(
                    "resume-wire: no checkpoint was ever attached to a retry"
                )
            return {
                "benchmarks": report,
                "wire_attached": attached,
                "crashes_survived": supervisor.crashes_survived,
            }
        finally:
            supervisor.close()


def _run_crash_loop(violations: List[str]) -> dict:
    """Containment leg: kill-on-receipt can never advance the fixpoint
    cursor, so the containment threshold must quarantine the request
    with a structured non-retriable ``crash-loop`` error — and an
    ``invalidate`` must lift the quarantine again."""
    import tempfile

    benchmark = next(b for b in BENCHMARKS if b.name == "ops8")
    kinds: List[str] = []
    with tempfile.TemporaryDirectory(prefix="repro-chaos-loop-") as tmp:
        supervisor = Supervisor(
            ServiceConfig(store_dir=tmp, journal=True, checkpoint_every=1),
            SupervisorConfig(
                request_timeout=30.0, grace=0.5,
                max_retries=0, backoff_base=0.02,
            ),
        )
        try:
            poison = {
                "op": "analyze",
                "text": benchmark.source,
                "entries": [benchmark.entry],
                "_chaos": {"kill": True},
            }
            for _ in range(3):
                kinds.append(supervisor.handle(dict(poison)).get("error_kind"))
            if kinds != ["worker-crash", "worker-crash", "crash-loop"]:
                violations.append(
                    f"crash-loop: expected two crashes then containment, "
                    f"got {kinds}"
                )
            # Quarantined: even a *clean* resend must be refused without
            # burning a worker.
            clean = {
                "op": "analyze",
                "text": benchmark.source,
                "entries": [benchmark.entry],
            }
            refused = supervisor.handle(dict(clean))
            if refused.get("error_kind") != "crash-loop" or (
                refused.get("attempts") != 0
            ):
                violations.append(
                    f"crash-loop: quarantine did not hold: {refused!r}"
                )
            supervisor.handle({"op": "invalidate"})
            healed = supervisor.handle(dict(clean))
            if not healed.get("ok") or healed.get("status") != "exact":
                violations.append(
                    f"crash-loop: invalidate did not lift quarantine: "
                    f"{healed!r}"
                )
            return {
                "error_kinds": kinds,
                "crash_loops": supervisor.metrics.counter(
                    "serve.worker.crash_loops"
                ).value,
                "rejects": supervisor.metrics.counter(
                    "serve.worker.crash_loop_rejects"
                ).value,
                "healed_after_invalidate": bool(healed.get("ok")),
            }
        finally:
            supervisor.close()


def _measure_checkpoint_overhead(
    rounds: int, limit_pct: float, violations: List[str]
) -> dict:
    """Analysis wall clock with the default checkpoint cadence versus
    none: per arm, the sum over benchmarks of each one's minimum over
    rounds (the floor :func:`repro.bench.emit.run_obs` gates on).

    Within a round every benchmark runs under both arms back to back,
    and the arm that goes first alternates from round to round: a fixed
    order charges warm-up and cache effects to one arm, and arms timed
    far apart see different machine load.  Each benchmark only needs
    one undisturbed run per arm somewhere in the rounds, where a
    whole-suite total needs all of them in the same round.  The cyclic
    GC is parked and a collection is forced before each timed attempt,
    so one arm's garbage can never bill a collection to the other."""
    import gc

    from ..robust import checkpoint as ckpt

    def timed_attempt(benchmark, checkpointed: bool) -> float:
        discard: List[dict] = []
        gc.collect()
        started = time.perf_counter()
        _analysis_attempt(
            benchmark,
            sink=discard.append if checkpointed else None,
            checkpoint_every=(
                ckpt.DEFAULT_CHECKPOINT_EVERY if checkpointed else None
            ),
        )
        return time.perf_counter() - started

    #: arm → benchmark name → fastest attempt so far.
    floors: Dict[bool, Dict[str, float]] = {False: {}, True: {}}
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for benchmark in BENCHMARKS:  # warm-up, uncounted
            timed_attempt(benchmark, False)
            timed_attempt(benchmark, True)
        for index in range(rounds):
            first = index % 2 == 1
            for benchmark in BENCHMARKS:
                for checkpointed in (first, not first):
                    elapsed = timed_attempt(benchmark, checkpointed)
                    best = floors[checkpointed]
                    best[benchmark.name] = min(
                        elapsed, best.get(benchmark.name, elapsed)
                    )
    finally:
        if gc_was_enabled:
            gc.enable()
    plain = sum(floors[False].values())
    checkpointed = sum(floors[True].values())
    overhead_pct = (
        (checkpointed - plain) / plain * 100.0 if plain > 0 else 0.0
    )
    if overhead_pct > limit_pct:
        violations.append(
            f"overhead: default-cadence checkpointing costs "
            f"{overhead_pct:.2f}% (> {limit_pct}%)"
        )
    return {
        "cadence": ckpt.DEFAULT_CHECKPOINT_EVERY,
        "rounds": rounds,
        "plain_ms": round(plain * 1000.0, 3),
        "checkpointed_ms": round(checkpointed * 1000.0, 3),
        "overhead_pct": round(overhead_pct, 3),
        "limit_pct": limit_pct,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.bench.chaos",
        description=(
            "Deterministic chaos campaign: worker kills, store "
            "corruption, timeouts and protocol abuse against the "
            "supervised analysis service"
        ),
    )
    parser.add_argument(
        "--out", default="BENCH_chaos.json", metavar="FILE",
        help="output file (default BENCH_chaos.json; '-' for stdout)",
    )
    parser.add_argument(
        "--requests", type=int, default=200,
        help="requests in the main campaign (default 200)",
    )
    parser.add_argument(
        "--kill-every", type=int, default=17,
        help="SIGKILL the worker at every Nth request (default 17)",
    )
    parser.add_argument(
        "--corrupt-every", type=int, default=29,
        help="corrupt a store entry before every Nth request (default 29)",
    )
    parser.add_argument(
        "--request-timeout", type=float, default=30.0,
        help="per-request wall-clock cap in seconds (default 30)",
    )
    parser.add_argument(
        "--gateway-requests", type=int, default=36,
        help="requests in the gateway-level campaign — shard kills, "
        "slow-shard delays, connection drops (default 36; 0 skips it)",
    )
    parser.add_argument(
        "--gateway-shards", type=int, default=2,
        help="shards in the gateway campaign (default 2)",
    )
    parser.add_argument(
        "--resume-kill-every", type=int, default=1,
        help="kill interval (fixpoint passes) for the resume campaign "
        "(default 1; 0 skips it)",
    )
    arguments = parser.parse_args(argv)
    document = run(
        requests=arguments.requests,
        kill_every=arguments.kill_every,
        corrupt_every=arguments.corrupt_every,
        request_timeout=arguments.request_timeout,
    )
    if arguments.gateway_requests > 0:
        document["gateway"] = run_gateway(
            requests=arguments.gateway_requests,
            shards=arguments.gateway_shards,
        )
    if arguments.resume_kill_every > 0:
        document["resume"] = run_resume(
            kill_every=arguments.resume_kill_every,
        )
    text = json.dumps(document, indent=2, sort_keys=True) + "\n"
    if arguments.out == "-":
        sys.stdout.write(text)
    else:
        with open(arguments.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(
            f"wrote {arguments.out}: {document['requests_served']} requests, "
            f"{document['kills_survived']} kills survived, "
            f"{document['store_corruptions']} corruptions healed, "
            f"isolated p50 {document['latency']['isolated']['p50_ms']}ms "
            f"vs in-process {document['latency']['in_process']['p50_ms']}ms"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
