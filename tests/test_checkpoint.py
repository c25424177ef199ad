"""Checkpointed, resumable fixpoint analysis (repro.robust.checkpoint).

Covers the snapshot format (canonical, checksummed, hash-seed
independent), the emission policy, resume planting, the store's
checkpoint namespace failure modes (torn tail, checksum mismatch,
journal replay, GC), the supervisor's resume-on-retry and crash-loop
containment, and a miniature kill-every-m campaign asserting the
forward-progress contract end to end.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.analysis.driver import Analyzer, parse_entry_spec
from repro.analysis.table import ExtensionTable
from repro.obs import MetricsRegistry
from repro.prolog.program import Program
from repro.robust import Budget
from repro.robust import checkpoint as ckpt
from repro.serve import (
    AnalysisService,
    ServiceConfig,
    Supervisor,
    SupervisorConfig,
)
from repro.serve.callgraph import CallGraph
from repro.serve.scheduler import SCCScheduler
from repro.serve.store import DiskStore, ResultStore

NREV = """
nrev([], []).
nrev([H|T], R) :- nrev(T, RT), append(RT, [H], R).
append([], L, L).
append([H|T], L, [H|R]) :- append(T, L, R).
"""

ENTRY = "nrev(glist, var)"


def _analyzed_table(text=NREV, entries=(ENTRY,)):
    return Analyzer(Program.from_text(text)).analyze(list(entries)).table


def _snapshot(**overrides):
    table = _analyzed_table()
    kwargs = dict(config="cfg", key="key", entries=[ENTRY], iterations=7)
    kwargs.update(overrides)
    return ckpt.snapshot(table, **kwargs)


# ----------------------------------------------------------------------
# Snapshot format.


def test_snapshot_round_trips_through_plant():
    table = _analyzed_table()
    snap = _snapshot()
    assert snap["format"] == ckpt.CHECKPOINT_FORMAT
    assert ckpt.load(snap, config="cfg", key="key") is snap
    replanted = ExtensionTable()
    assert ckpt.plant(snap, replanted) == len(snap["table"]) > 0
    again = ckpt.snapshot(
        replanted, config="cfg", key="key", entries=[ENTRY], iterations=7
    )
    assert again["table"] == snap["table"]
    # The entry values themselves round-tripped, not just the shape.
    for indicator, entry in table.all_entries():
        twin = replanted.find(indicator, entry.calling)
        assert twin is not None
        assert twin.success == entry.success
        assert twin.may_share == entry.may_share


def test_snapshot_survives_json_round_trip():
    snap = _snapshot()
    revived = json.loads(json.dumps(snap))
    assert ckpt.load(revived, config="cfg", key="key") == snap


def test_snapshot_is_hashseed_independent():
    script = (
        "import json, sys\n"
        "sys.path.insert(0, %r)\n"
        "from repro.analysis.driver import Analyzer\n"
        "from repro.robust import checkpoint as ckpt\n"
        "table = Analyzer(%r).analyze([%r]).table\n"
        "snap = ckpt.snapshot(table, config='c', key='k', entries=[%r])\n"
        "print(json.dumps(snap, sort_keys=True))\n"
    ) % (
        os.path.join(os.path.dirname(__file__), os.pardir, "src"),
        NREV, ENTRY, ENTRY,
    )
    outputs = set()
    for seed in ("0", "42"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        outputs.add(subprocess.run(
            [sys.executable, "-c", script],
            env=env, capture_output=True, text=True, check=True,
        ).stdout)
    assert len(outputs) == 1


def test_load_rejects_damage_and_identity_mismatch():
    metrics = MetricsRegistry()
    snap = _snapshot()
    torn = dict(snap, table=snap["table"][:-1])  # checksum now wrong
    wrong_format = dict(snap, format="repro.checkpoint/999")
    assert ckpt.load(torn, metrics=metrics) is None
    assert ckpt.load(wrong_format, metrics=metrics) is None
    assert ckpt.load("not a dict", metrics=metrics) is None
    assert ckpt.load(snap, config="other", metrics=metrics) is None
    assert ckpt.load(snap, key="other", metrics=metrics) is None
    assert metrics.counter("checkpoint.invalid", reason="checksum").value == 1
    assert metrics.counter("checkpoint.invalid", reason="format").value == 1
    assert (
        metrics.counter("checkpoint.invalid", reason="config-mismatch").value
        == 1
    )


def test_widened_entries_are_never_snapshotted():
    table = _analyzed_table()
    table.widen_to_top("degraded")
    snap = ckpt.snapshot(table, config="c", key="k")
    assert snap["table"] == []


def test_cursor_and_rank_helpers_tolerate_garbage():
    # The cursor is the rank: resumes prefer the furthest snapshot.
    assert ckpt.cursor_iterations(None) == 0
    assert ckpt.cursor_iterations({"cursor": "nope"}) == 0
    assert ckpt.cursor_iterations({"cursor": {"iterations": "x"}}) == 0
    assert ckpt.cursor_iterations(_snapshot(iterations=9)) == 9


def test_plant_accepts_snapshots_with_frozen_flags():
    # Snapshots written by earlier builds flag some entries "frozen";
    # they still validate and plant, as ordinary entries.
    snap = _snapshot()
    for item in snap["table"]:
        item["frozen"] = True
    snap["sha256"] = ckpt.checkpoint_checksum(snap)
    assert ckpt.load(snap, config="cfg", key="key") is snap
    table = ExtensionTable()
    assert ckpt.plant(snap, table) == len(snap["table"])
    assert ckpt.snapshot(
        table, config="cfg", key="key", entries=[ENTRY], iterations=7
    )["table"] == _snapshot()["table"]


# ----------------------------------------------------------------------
# The emission policy.


def test_policy_cadence_flush_and_on_pass_ordering():
    table = _analyzed_table()
    emitted = []
    seen_at_emit = []

    def sink(snap):
        emitted.append(snap)

    order = []
    policy = ckpt.CheckpointPolicy(
        sink, every=2, config="c", key="k", entries=[ENTRY],
        on_pass=lambda n: order.append((n, len(emitted))),
    )
    for _ in range(5):
        policy.note_pass(table)
    assert len(emitted) == 2  # passes 2 and 4
    assert [ckpt.cursor_iterations(s) for s in emitted] == [2, 4]
    # on_pass fires AFTER the emit decision: at pass 2 the snapshot
    # already exists, so an injected kill lands on a covered boundary.
    assert (2, 1) in order and (4, 2) in order
    flushed = policy.flush(table)
    assert len(emitted) == 3 and flushed is emitted[-1]
    assert ckpt.cursor_iterations(flushed) == 5
    # flush is idempotent per pass: nothing new to cover.
    assert policy.flush(table) is flushed and len(emitted) == 3


def test_policy_deadline_proximity_fires_once():
    table = _analyzed_table()
    emitted = []
    budget = Budget(deadline=0.0).start()  # already past: always imminent
    policy = ckpt.CheckpointPolicy(
        emitted.append, every=1000, budget=budget,
        metrics=MetricsRegistry(),
    )
    policy.note_pass(table)
    policy.note_pass(table)
    assert len(emitted) == 1  # proximity triggers once, not per pass


def test_policy_swallows_sink_failures():
    table = _analyzed_table()

    def bad_sink(snap):
        raise OSError("disk full")

    policy = ckpt.CheckpointPolicy(bad_sink, every=1)
    policy.note_pass(table)  # must not raise
    assert policy.last is not None and policy.emitted == 1


def test_policy_cursor_accumulates_across_attempts():
    table = _analyzed_table()
    policy = ckpt.CheckpointPolicy(
        None, every=1, resume=ckpt.snapshot(table, iterations=40, attempts=2)
    )
    policy.note_pass(table)
    assert ckpt.cursor_iterations(policy.last) == 41
    assert policy.last["cursor"]["attempts"] == 3


# ----------------------------------------------------------------------
# The store's checkpoint namespace (failure modes).


CKPT_KEY = ResultStore.CHECKPOINT_PREFIX + "abc123"


def test_checkpoint_namespace_bypasses_exact_gate_but_only_there():
    store = ResultStore()
    snap = _snapshot()
    assert store.put_checkpoint(CKPT_KEY, snap)
    assert store.get_checkpoint(CKPT_KEY) == snap
    with pytest.raises(ValueError):
        store.put_checkpoint("result:abc", snap)
    with pytest.raises(ValueError):
        store.get_checkpoint("result:abc")
    # An ordinary put still refuses non-exact values.
    assert not store.put("result:abc", {"x": 1}, status="degraded")


def test_torn_checkpoint_file_is_quarantined_not_crashed(tmp_path):
    disk = DiskStore(str(tmp_path))
    store = ResultStore(disk=disk)
    store.put_checkpoint(CKPT_KEY, _snapshot())
    path = disk._path(CKPT_KEY)
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text[: len(text) // 2])  # torn write
    cold = ResultStore(disk=DiskStore(str(tmp_path)))
    assert cold.get_checkpoint(CKPT_KEY) is None  # miss, not a crash
    quarantine = tmp_path / DiskStore.QUARANTINE_NAME
    assert quarantine.is_dir() and any(quarantine.iterdir())


def test_checksum_mismatch_checkpoint_is_quarantined(tmp_path):
    disk = DiskStore(str(tmp_path))
    store = ResultStore(disk=disk)
    store.put_checkpoint(CKPT_KEY, _snapshot())
    path = disk._path(CKPT_KEY)
    with open(path, "r", encoding="utf-8") as handle:
        record = json.load(handle)
    record["value"]["cursor"]["iterations"] = 999  # bit rot, stale digest
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    cold = DiskStore(str(tmp_path))
    assert cold.get(CKPT_KEY) is None
    assert cold.checksum_failures == 1 and cold.quarantined == 1


def test_journal_replay_restores_newest_intact_snapshot(tmp_path):
    disk = DiskStore(str(tmp_path), journal=True)
    store = ResultStore(disk=disk)
    older = _snapshot(iterations=3)
    newer = _snapshot(iterations=9)
    store.put_checkpoint(CKPT_KEY, older)
    store.put_checkpoint(CKPT_KEY, newer)
    disk.close()
    os.unlink(disk._path(CKPT_KEY))  # the crash ate the entry file
    # Startup replays the journal; the latest journaled record wins.
    healed = ResultStore(disk=DiskStore(str(tmp_path), journal=True))
    restored = healed.get_checkpoint(CKPT_KEY)
    assert ckpt.cursor_iterations(restored) == 9
    assert ckpt.load(restored, config="cfg", key="key") is not None


def test_drop_checkpoint_gcs_memory_and_disk(tmp_path):
    metrics = MetricsRegistry()
    store = ResultStore(disk=DiskStore(str(tmp_path)), metrics=metrics)
    store.put_checkpoint(CKPT_KEY, _snapshot())
    assert store.drop_checkpoint(CKPT_KEY)
    assert store.get_checkpoint(CKPT_KEY) is None
    assert not os.path.exists(store.disk._path(CKPT_KEY))
    assert metrics.counter("checkpoint.gc").value == 1
    assert not store.drop_checkpoint(CKPT_KEY)  # second drop is a no-op


# ----------------------------------------------------------------------
# Supervisor: resume-on-retry, crash-loop containment, deadline
# semantics under retry.


def _scratch():
    return Analyzer(Program.from_text(NREV)).analyze([ENTRY]).stable_dict()


def _supervisor(service_config=None, **kwargs):
    kwargs.setdefault("max_retries", 2)
    kwargs.setdefault("backoff_base", 0.01)
    kwargs.setdefault("grace", 0.2)
    return Supervisor(
        service_config
        if service_config is not None
        else ServiceConfig(checkpoint_every=1),
        SupervisorConfig(**kwargs),
    )


def test_killed_worker_retry_resumes_from_wire_checkpoint():
    supervisor = _supervisor()
    try:
        response = supervisor.handle({
            "op": "analyze", "text": NREV, "entries": [ENTRY],
            # Satellite contract: the per-attempt deadline re-arms fresh
            # on the retry, so a generous deadline must not starve it.
            "budget": {"deadline": 30.0},
            "_chaos": {"kill_at_iteration": 3},
        })
        assert response["ok"] and response["status"] == "exact"
        assert response["attempts"] == 2
        assert response["result"] == _scratch()
        assert supervisor.metrics.counter("resume.wire_attached").value >= 1
    finally:
        supervisor.close()


def test_crash_loop_is_contained_and_invalidate_heals():
    supervisor = _supervisor(max_retries=0)
    try:
        poison = {
            "op": "analyze", "text": NREV, "entries": [ENTRY],
            "_chaos": {"kill": True},
        }
        kinds = [
            supervisor.handle(dict(poison)).get("error_kind")
            for _ in range(3)
        ]
        assert kinds == ["worker-crash", "worker-crash", "crash-loop"]
        # Quarantined: even a clean resend is refused without a worker.
        clean = {"op": "analyze", "text": NREV, "entries": [ENTRY]}
        refused = supervisor.handle(dict(clean))
        assert refused["error_kind"] == "crash-loop"
        assert refused["attempts"] == 0 and refused["retriable"] is False
        metrics = supervisor.metrics
        assert metrics.counter("serve.worker.crash_loops").value == 1
        assert metrics.counter("serve.worker.crash_loop_rejects").value == 1
        supervisor.handle({"op": "invalidate"})
        healed = supervisor.handle(dict(clean))
        assert healed["ok"] and healed["status"] == "exact"
        assert healed["result"] == _scratch()
    finally:
        supervisor.close()


def test_cumulative_timeout_bounds_the_retry_chain():
    supervisor = _supervisor(max_retries=50, cumulative_timeout=0.0)
    try:
        response = supervisor.handle({
            "op": "analyze", "text": NREV, "entries": [ENTRY],
            "_chaos": {"kill": True},
        })
        assert not response["ok"]
        assert response["error_kind"] == "timeout"
        assert response["retriable"] is False
        assert response["attempts"] == 1  # chain cut, not 50 retries
    finally:
        supervisor.close()


def _forged_resume():
    """A snapshot that passes every check ``load`` makes — the service's
    own config and request fingerprints, a valid checksum — but claims
    a ⊤ success for nrev/2."""
    service = AnalysisService(ServiceConfig(checkpoint_every=1))
    genuine = []
    service.checkpoint_wire_sink = genuine.append
    service.handle({"op": "analyze", "text": NREV, "entries": [ENTRY]})
    forged = json.loads(json.dumps(genuine[-1]))
    for item in forged["table"]:
        if item["predicate"] == "nrev/2":
            item["success"] = [["i", "ANY", 0], ["i", "ANY", 1]]
    forged["sha256"] = ckpt.checkpoint_checksum(forged)
    return forged


def test_a_client_cannot_plant_a_resume_snapshot():
    forged = {
        "op": "analyze", "text": NREV, "entries": [ENTRY],
        "resume": _forged_resume(),
    }
    clean = {"op": "analyze", "text": NREV, "entries": [ENTRY]}
    service = AnalysisService(ServiceConfig())
    in_process = [service.handle(dict(forged)), service.handle(dict(clean))]
    supervisor = _supervisor(ServiceConfig())
    try:
        supervised = [
            supervisor.handle(dict(forged)), supervisor.handle(dict(clean))
        ]
    finally:
        supervisor.close()
    for response in in_process + supervised:
        assert response["ok"] and response["result"] == _scratch()


# ----------------------------------------------------------------------
# The forward-progress contract, in miniature.


def test_kill_every_m_campaign_makes_monotone_progress():
    """One benchmark-sized program through the chaos campaign's loop:
    kill on every pass boundary, resume from the furthest surviving
    snapshot, assert exact completion with a non-increasing
    re-executed-iteration series."""
    from repro.bench.chaos import resume_benchmark
    from repro.bench.programs import BY_NAME

    benchmark = BY_NAME["serialise"]
    report, result = resume_benchmark(benchmark, kill_every=1,
                                      max_attempts=20)
    if result is None:
        pytest.fail(f"campaign never completed: {report}")
    reference = Analyzer(benchmark.source).analyze([benchmark.entry])
    assert result.stable_dict() == reference.stable_dict()
    remaining = report["reexecuted_iterations"]
    assert len(remaining) > 2  # the kill actually bit, repeatedly
    assert all(
        remaining[i + 1] <= remaining[i] for i in range(len(remaining) - 1)
    )


def test_a_resumed_campaign_attempt_counts_the_attempts_before_it():
    from repro.bench.chaos import _analysis_attempt
    from repro.bench.programs import BY_NAME

    benchmark = BY_NAME["serialise"]
    first, second = [], []
    _analysis_attempt(benchmark, sink=first.append)
    _analysis_attempt(benchmark, resume=first[0], sink=second.append)
    assert first[0]["cursor"]["attempts"] == 1
    assert second[0]["cursor"]["attempts"] == 2
    assert ckpt.cursor_iterations(second[0]) > ckpt.cursor_iterations(first[0])


def test_scheduler_resume_plants_and_converges_identically():
    analyzer = Analyzer(Program.from_text(NREV))
    graph = CallGraph.from_compiled(analyzer.compiled)
    spec = parse_entry_spec(ENTRY)
    scratch, _ = SCCScheduler(analyzer, graph).analyze([spec])
    snap = ckpt.snapshot(
        scratch.table, config="c", key="k", entries=[ENTRY], iterations=5
    )
    resumed, stats = SCCScheduler(analyzer, graph).analyze(
        [spec], resume=ckpt.load(snap, config="c", key="k")
    )
    assert stats.resume_planted == len(snap["table"])
    assert resumed.stable_dict() == scratch.stable_dict()


# ----------------------------------------------------------------------
# repro-analyze --checkpoint / --resume.


def test_cli_resume_refuses_a_snapshot_of_another_program(tmp_path, capsys):
    from repro.cli import main_analyze

    snapshot = str(tmp_path / "snap.json")
    other = tmp_path / "other.pl"
    other.write_text("p(a). p(1).\n")
    program = tmp_path / "p.pl"
    program.write_text("p(a).\n")
    assert main_analyze([
        str(other), "p(var)", "--checkpoint", snapshot,
        "--checkpoint-every", "1",
    ]) == 0
    capsys.readouterr()
    assert main_analyze([str(program), "p(var)", "--resume", snapshot]) == 0
    out, err = capsys.readouterr()
    assert "different program" in err
    assert "p/1(-:var->atom)" in out  # from scratch, not the const
