"""The result store (repro.serve.store): caps, LRU, disk, soundness gate."""

import json
import os
import stat

import pytest

from repro.analysis.driver import Analyzer
from repro.prolog.program import Program
from repro.analysis.codec import (
    entry_from_json,
    entry_to_json,
    pattern_from_json,
    pattern_to_json,
    table_to_json,
)
from repro.serve.store import DiskStore, ResultStore

NREV = """
nrev([], []).
nrev([H|T], R) :- nrev(T, RT), append(RT, [H], R).
append([], L, L).
append([H|T], L, [H|R]) :- append(T, L, R).
"""


# ----------------------------------------------------------------------
# Pattern JSON round-trips.


def _final_table():
    return Analyzer(Program.from_text(NREV)).analyze(["nrev(glist, var)"]).table


def test_patterns_round_trip_through_json():
    table = _final_table()
    for indicator, entry in table.all_entries():
        data = json.loads(json.dumps(entry_to_json(indicator, entry)))
        back_ind, calling, success, may_share = entry_from_json(data)
        assert back_ind == indicator
        assert calling == entry.calling
        assert success == entry.success
        assert may_share == entry.may_share


def test_pattern_json_is_plain_data():
    table = _final_table()
    for _, entry in table.all_entries():
        text = json.dumps(pattern_to_json(entry.calling))
        assert pattern_from_json(json.loads(text)) == entry.calling


def test_table_to_json_is_sorted_and_filterable():
    table = _final_table()
    everything = table_to_json(table)
    keys = [(item["predicate"], json.dumps(item["calling"])) for item in everything]
    assert keys == sorted(keys)
    only_nrev = table_to_json(table, [("nrev", 2)])
    assert {item["predicate"] for item in only_nrev} == {"nrev/2"}


# ----------------------------------------------------------------------
# Caps and LRU.


def test_entry_cap_evicts_least_recently_used():
    store = ResultStore(max_entries=2, max_bytes=None)
    store.put("a", {"v": 1})
    store.put("b", {"v": 2})
    assert store.get("a") == {"v": 1}  # a is now most recent
    store.put("c", {"v": 3})           # evicts b
    assert store.get("b") is None
    assert store.get("a") == {"v": 1}
    assert store.get("c") == {"v": 3}
    assert store.evictions == 1


def test_byte_cap_evicts_and_refuses_oversize():
    small = {"v": "x"}
    size = len(json.dumps(small, sort_keys=True))
    store = ResultStore(max_entries=None, max_bytes=size * 2 + 1)
    store.put("a", small)
    store.put("b", small)
    assert len(store) == 2
    store.put("c", small)  # over byte cap → evict oldest
    assert store.get("a") is None and len(store) == 2
    # a value bigger than the whole cap is refused outright
    assert store.put("big", {"v": "y" * (size * 4)}) is False
    assert store.get("big") is None
    assert store.bytes_used <= store.max_bytes


def test_put_replaces_and_accounts_bytes():
    store = ResultStore(max_entries=8, max_bytes=None)
    store.put("k", {"v": "short"})
    first = store.bytes_used
    store.put("k", {"v": "a-much-longer-value-entirely"})
    assert len(store) == 1
    assert store.bytes_used > first
    store.invalidate("k")
    assert store.bytes_used == 0


def test_degraded_results_are_refused():
    store = ResultStore()
    assert store.put("k", {"v": 1}, status="degraded") is False
    assert store.put("k", {"v": 1}, status="failed") is False
    assert store.get("k") is None
    assert store.rejected_degraded == 2
    assert store.put("k", {"v": 1}, status="exact") is True


def test_stats_counts():
    store = ResultStore()
    store.get("missing")
    store.put("k", {"v": 1})
    store.get("k")
    stats = store.stats()
    assert stats["hits"] == 1 and stats["misses"] == 1
    assert stats["entries"] == 1 and stats["bytes"] > 0


# ----------------------------------------------------------------------
# Disk layer.


def test_disk_round_trip_and_promotion(tmp_path):
    directory = str(tmp_path / "cache")
    first = ResultStore(disk=DiskStore(directory))
    first.put("scc:abc:def", {"entries": [1, 2, 3]})
    # a different process/instance sees the value via disk
    second = ResultStore(disk=DiskStore(directory))
    assert second.get("scc:abc:def") == {"entries": [1, 2, 3]}
    # ...and it was promoted into memory
    assert "scc:abc:def" in second._data


def test_disk_keys_are_sanitized(tmp_path):
    directory = str(tmp_path / "cache")
    disk = DiskStore(directory)
    disk.put("../../escape", json.dumps({"v": 1}))
    names = os.listdir(directory)
    assert names and all(os.sep not in name for name in names)
    assert disk.get("../../escape") == {"v": 1}


def test_corrupt_disk_file_is_a_miss(tmp_path):
    directory = str(tmp_path / "cache")
    disk = DiskStore(directory)
    disk.put("key", json.dumps({"v": 1}))
    [name] = os.listdir(directory)
    with open(os.path.join(directory, name), "w") as handle:
        handle.write("{not json")
    assert disk.get("key") is None
    store = ResultStore(disk=disk)
    assert store.get("key") is None


def test_unwritable_disk_does_not_crash(tmp_path):
    directory = str(tmp_path / "cache")
    disk = DiskStore(directory)
    os.chmod(directory, stat.S_IRUSR | stat.S_IXUSR)
    try:
        if os.access(directory, os.W_OK):  # running as root: skip
            pytest.skip("directory remains writable (euid 0)")
        disk.put("key", json.dumps({"v": 1}))  # must not raise
        assert disk.get("key") is None
    finally:
        os.chmod(directory, stat.S_IRWXU)


def test_invalidate_and_clear_cover_disk(tmp_path):
    directory = str(tmp_path / "cache")
    store = ResultStore(disk=DiskStore(directory))
    store.put("a", {"v": 1})
    store.put("b", {"v": 2})
    assert store.invalidate("a") is True
    assert ResultStore(disk=DiskStore(directory)).get("a") is None
    store.clear()
    assert os.listdir(directory) == []
    assert len(store) == 0


# ----------------------------------------------------------------------
# Self-healing: checksums, quarantine, the write-ahead journal.


def _entry_files(directory):
    return [
        name for name in os.listdir(directory)
        if name.endswith(".json")
    ]


def test_entry_files_carry_verified_checksums(tmp_path):
    directory = str(tmp_path / "cache")
    disk = DiskStore(directory)
    disk.put("key", json.dumps({"v": 1}, sort_keys=True))
    [name] = _entry_files(directory)
    with open(os.path.join(directory, name)) as handle:
        record = json.load(handle)
    assert set(record) == {"key", "sha256", "value"}
    assert record["value"] == {"v": 1}
    assert disk.get("key") == {"v": 1}


def test_bitflip_is_quarantined_not_served(tmp_path):
    directory = str(tmp_path / "cache")
    disk = DiskStore(directory)
    disk.put("key", json.dumps({"v": "payload"}, sort_keys=True))
    [name] = _entry_files(directory)
    path = os.path.join(directory, name)
    with open(path) as handle:
        text = handle.read()
    with open(path, "w") as handle:
        handle.write(text.replace("payload", "poisoned"))  # valid JSON!
    assert disk.get("key") is None  # checksum catches it
    assert disk.checksum_failures == 1
    assert disk.quarantined == 1
    assert not _entry_files(directory)  # moved, not left to re-read
    assert os.listdir(os.path.join(directory, "quarantine")) == [name]


def test_torn_file_is_quarantined_not_raised(tmp_path):
    # Satellite contract: unreadable/truncated entries are skipped and
    # quarantined, never propagated as json.JSONDecodeError.
    directory = str(tmp_path / "cache")
    disk = DiskStore(directory)
    disk.put("key", json.dumps({"v": 1}, sort_keys=True))
    [name] = _entry_files(directory)
    path = os.path.join(directory, name)
    with open(path) as handle:
        text = handle.read()
    with open(path, "w") as handle:
        handle.write(text[: len(text) // 2])
    store = ResultStore(disk=disk)
    assert store.get("key") is None
    assert disk.quarantined == 1


def _rename_checksum_keys(directory):
    """Damage every entry file's wrapper: ``sha256`` becomes ``sha257``
    (still valid JSON, no longer a complete record)."""
    names = _entry_files(directory)
    for name in names:
        path = os.path.join(directory, name)
        with open(path) as handle:
            text = handle.read()
        with open(path, "w") as handle:
            handle.write(text.replace('"sha256"', '"sha257"'))
    return names


def test_files_that_are_not_complete_records_are_quarantined(tmp_path):
    # One format only: neither an unwrapped payload nor a record with a
    # damaged wrapper key is served unchecked.
    directory = str(tmp_path / "cache")
    disk = DiskStore(directory)
    with open(os.path.join(directory, "unwrapped.json"), "w") as handle:
        json.dump({"entries": [1, 2]}, handle)
    disk.put("damaged", json.dumps({"v": 1}, sort_keys=True))
    _rename_checksum_keys(directory)
    assert disk.get("unwrapped") is None
    assert disk.get("damaged") is None
    assert disk.quarantined == 2
    assert not _entry_files(directory)


def test_service_reanalyzes_past_damaged_record_wrappers(tmp_path):
    from repro.serve import AnalysisService, ServiceConfig

    directory = str(tmp_path / "cache")
    request = {"op": "analyze", "text": NREV, "entries": ["nrev(glist, var)"]}
    AnalysisService(ServiceConfig(store_dir=directory)).handle(dict(request))
    names = _rename_checksum_keys(directory)
    assert names
    fresh = AnalysisService(ServiceConfig(store_dir=directory))
    response = fresh.handle(dict(request))
    assert response["ok"], response
    assert response["cache"]["outcome"] == "miss"
    assert response["result"] == Analyzer(
        Program.from_text(NREV)
    ).analyze(["nrev(glist, var)"]).stable_dict()
    assert fresh.store.disk.quarantined == len(names)


def test_journal_replay_heals_torn_entry_write(tmp_path):
    directory = str(tmp_path / "cache")
    first = DiskStore(directory, journal=True)
    first.put("healthy", json.dumps({"v": 1}, sort_keys=True))
    first.put("torn", json.dumps({"v": 2}, sort_keys=True))
    first.close()
    # Tear the second entry's file behind the store's back.
    for name in _entry_files(directory):
        if "torn" in name:
            path = os.path.join(directory, name)
            with open(path) as handle:
                text = handle.read()
            with open(path, "w") as handle:
                handle.write(text[: len(text) // 3])
    second = DiskStore(directory, journal=True)
    assert second.journal_replayed == 1
    assert second.get("torn") == {"v": 2}
    assert second.get("healthy") == {"v": 1}
    # The journal was truncated after replay: records are in the files.
    assert os.path.getsize(os.path.join(directory, "journal.jsonl")) == 0


def test_injected_torn_write_heals_on_restart(tmp_path):
    from repro.robust import FaultPlan

    directory = str(tmp_path / "cache")
    disk = DiskStore(
        directory, journal=True, fault_plan=FaultPlan(corrupt_store_at_put=1)
    )
    disk.put("key", json.dumps({"v": 1}, sort_keys=True))
    assert disk.get("key") is None  # live read: quarantined miss
    assert disk.quarantined == 1
    disk.close()
    healed = DiskStore(directory, journal=True)
    assert healed.journal_replayed == 1
    assert healed.get("key") == {"v": 1}


def test_torn_journal_tail_is_discarded(tmp_path):
    directory = str(tmp_path / "cache")
    first = DiskStore(directory, journal=True)
    first.put("key", json.dumps({"v": 1}, sort_keys=True))
    first.close()
    journal = os.path.join(directory, "journal.jsonl")
    with open(journal, "a") as handle:
        handle.write('{"key": "half-a-reco')  # crash mid-append
    second = DiskStore(directory, journal=True)  # must not raise
    assert second.get("key") == {"v": 1}
    assert os.path.getsize(journal) == 0


def test_journal_rotates_at_cap(tmp_path):
    directory = str(tmp_path / "cache")
    disk = DiskStore(directory, journal=True)
    disk.JOURNAL_CAP = 512
    for index in range(32):
        disk.put(f"key-{index}", json.dumps(
            {"v": "x" * 64}, sort_keys=True
        ))
    assert os.path.getsize(
        os.path.join(directory, "journal.jsonl")
    ) < 512 + 4096  # cap + one record, not 32 records
    # Rotation lost no data: every entry file is intact.
    for index in range(32):
        assert disk.get(f"key-{index}") == {"v": "x" * 64}


def test_quarantine_names_do_not_collide(tmp_path):
    directory = str(tmp_path / "cache")
    disk = DiskStore(directory)
    for _ in range(3):
        disk.put("key", json.dumps({"v": 1}, sort_keys=True))
        [name] = _entry_files(directory)
        with open(os.path.join(directory, name), "w") as handle:
            handle.write("{torn")
        assert disk.get("key") is None
    assert disk.quarantined == 3
    assert len(os.listdir(os.path.join(directory, "quarantine"))) == 3


def test_result_store_stats_include_disk(tmp_path):
    store = ResultStore(disk=DiskStore(str(tmp_path / "cache"), journal=True))
    stats = store.stats()
    assert stats["disk"]["journal"] is True
    assert stats["disk"]["quarantined"] == 0


# ----------------------------------------------------------------------
# Satellite: operational visibility — quarantines and journal rotation
# are surfaced in the stats op and the metrics snapshot, not silent.


def test_journal_rotation_counted_in_stats_and_metrics(tmp_path):
    from repro.obs.metrics import MetricsRegistry

    registry = MetricsRegistry()
    directory = str(tmp_path / "cache")
    disk = DiskStore(directory, journal=True, metrics=registry)
    disk.JOURNAL_CAP = 512
    for index in range(32):
        disk.put(f"key-{index}", json.dumps(
            {"v": "x" * 64}, sort_keys=True
        ))
    assert disk.stats()["journal_rotations"] >= 1
    snapshot = registry.snapshot()
    assert snapshot["serve.store.journal.rotated"]["value"] >= 1
    assert (
        snapshot["serve.store.journal.rotated"]["value"]
        == disk.journal_rotations
    )


def test_stats_op_surfaces_quarantines_and_rotations(tmp_path):
    from repro.serve import AnalysisService, ServiceConfig

    directory = str(tmp_path / "cache")
    service = AnalysisService(
        ServiceConfig(store_dir=directory, journal=True)
    )
    text = "a(x).\n"
    assert service.handle({
        "op": "analyze", "text": text, "entries": ["a(g)"],
    })["ok"]
    # Corrupt every entry file; the next read quarantines it.
    for name in os.listdir(directory):
        if name.endswith(".json"):
            with open(os.path.join(directory, name), "w") as handle:
                handle.write("{torn")
    service.store._data.clear()  # force the disk-layer read
    service.store.bytes_used = 0
    assert service.handle({
        "op": "analyze", "text": text, "entries": ["a(g)"],
    })["ok"]
    response = service.handle({"op": "stats"})
    disk_stats = response["stats"]["store"]["disk"]
    assert disk_stats["quarantined"] >= 1
    assert "journal_rotations" in disk_stats
    metrics = response["stats"]["metrics"]
    assert metrics["serve.store.quarantined"]["value"] >= 1
