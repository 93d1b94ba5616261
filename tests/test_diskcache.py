"""The persistent warm-start layer: DiskCache + engine/server integration.

Contract under test: a restart against the same cache directory serves
every previously computed corpus with **zero recomputation**; a corrupt
record is skipped (and counted), never served; compaction keeps one
latest record per key without losing entries of other engine configs.
"""

from __future__ import annotations

import json

import pytest

from repro.service.diskcache import DiskCache
from repro.service.engine import LabelingEngine
from repro.service.server import LabelingServer


def _segment_lines(directory):
    lines = []
    for segment in sorted(directory.glob("segment-*.jsonl")):
        lines.extend(segment.read_text().splitlines())
    return lines


# ----------------------------------------------------------------------
# DiskCache in isolation.
# ----------------------------------------------------------------------


def test_put_get_roundtrip_and_counters(tmp_path):
    cache = DiskCache(tmp_path, "engine-a")
    assert cache.get("k1") is None
    cache.put("k1", {"answer": 42})
    assert cache.get("k1") == {"answer": 42}
    assert "k1" in cache and len(cache) == 1
    stats = cache.stats()
    assert stats["hits"] == 1 and stats["misses"] == 1
    assert stats["entries"] == 1 and stats["segments"] == 1


def test_reload_survives_restart(tmp_path):
    first = DiskCache(tmp_path, "engine-a")
    for index in range(5):
        first.put(f"k{index}", {"value": index})
    second = DiskCache(tmp_path, "engine-a")
    assert len(second) == 5
    assert second.get("k3") == {"value": 3}
    assert second.stats()["load_ms"] >= 0


def test_last_write_wins_on_reload(tmp_path):
    cache = DiskCache(tmp_path, "engine-a")
    cache.put("k", {"value": "old"})
    cache.put("k", {"value": "new"})
    assert DiskCache(tmp_path, "engine-a").get("k") == {"value": "new"}


def test_engine_fingerprint_partitions_entries(tmp_path):
    DiskCache(tmp_path, "engine-a").put("k", {"from": "a"})
    cache_b = DiskCache(tmp_path, "engine-b")
    assert cache_b.get("k") is None  # other config's entry is invisible...
    assert cache_b.stats()["foreign_entries"] == 1  # ...but not lost
    cache_b.put("k", {"from": "b"})
    # Each config reads back its own value from the shared directory.
    assert DiskCache(tmp_path, "engine-a").get("k") == {"from": "a"}
    assert DiskCache(tmp_path, "engine-b").get("k") == {"from": "b"}


def test_corrupt_records_skipped_and_counted(tmp_path, caplog):
    cache = DiskCache(tmp_path, "engine-a")
    cache.put("good", {"value": 1})
    cache.put("bad", {"value": 2})
    segment = sorted(tmp_path.glob("segment-*.jsonl"))[0]
    lines = segment.read_text().splitlines()
    tampered = json.loads(lines[1])
    tampered["v"]["value"] = 999  # flip the payload, keep the stale CRC
    lines[1] = json.dumps(tampered, sort_keys=True, separators=(",", ":"))
    lines.append("{truncated mid-wri")  # crash-torn final line
    segment.write_text("\n".join(lines) + "\n")

    with caplog.at_level("WARNING", logger="repro.service.diskcache"):
        reloaded = DiskCache(tmp_path, "engine-a")
    assert reloaded.get("good") == {"value": 1}
    assert reloaded.get("bad") is None  # never served corrupt
    assert reloaded.stats()["corrupt_records"] == 2
    assert sum("corrupt record" in r.message for r in caplog.records) == 2


def test_compaction_rewrites_one_record_per_key(tmp_path):
    cache = DiskCache(tmp_path, "engine-a", max_bytes=512)
    DiskCache(tmp_path, "engine-b").put("foreign", {"keep": "me"})
    cache_a = DiskCache(tmp_path, "engine-a", max_bytes=512)
    for round_index in range(30):
        cache_a.put("hot-key", {"round": round_index})
        cache_a.put(f"key-{round_index % 3}", {"round": round_index})
    stats = cache_a.stats()
    assert stats["compactions"] >= 1
    assert stats["segments"] == 1
    # One latest record per (engine, key) pair survives.
    lines = _segment_lines(tmp_path)
    keys = [(json.loads(l)["e"], json.loads(l)["k"]) for l in lines]
    assert len(keys) == len(set(keys))
    reloaded = DiskCache(tmp_path, "engine-a")
    assert reloaded.get("hot-key") == {"round": 29}
    assert DiskCache(tmp_path, "engine-b").get("foreign") == {"keep": "me"}


def test_distinct_keys_never_compact(tmp_path):
    """Past ``max_bytes`` of distinct entries a compaction would reclaim
    nothing, so none runs, and every entry survives a restart."""
    cache = DiskCache(tmp_path, "engine-a", max_bytes=512)
    values = {f"key-{i}": {"payload": "x" * 40, "i": i} for i in range(40)}
    for key, value in values.items():
        cache.put(key, value)
    stats = cache.stats()
    assert stats["size_bytes"] > 2 * 512
    assert stats["compactions"] == 0
    reloaded = DiskCache(tmp_path, "engine-a", max_bytes=512)
    assert {key: reloaded.get(key) for key in values} == values
    assert reloaded.stats()["compactions"] == 0


def test_superseded_records_past_max_bytes_compact(tmp_path):
    """Live entries alone over ``max_bytes``: compaction waits for more
    than ``max_bytes`` of superseded records, then keeps the latest."""
    cache = DiskCache(tmp_path, "engine-a", max_bytes=512)
    for i in range(20):
        cache.put(f"key-{i}", {"payload": "x" * 40, "round": 0})
    assert cache.stats()["compactions"] == 0
    record_bytes = max(len(line) + 1 for line in _segment_lines(tmp_path))
    for round_index in range(1, 4):
        for i in range(20):
            cache.put(f"key-{i}", {"payload": "x" * 40, "round": round_index})
    stats = cache.stats()
    assert stats["compactions"] >= 1
    # Each compaction waited for > max_bytes of superseded records.
    assert stats["compactions"] <= 60 * record_bytes // 512
    reloaded = DiskCache(tmp_path, "engine-a", max_bytes=512)
    for i in range(20):
        assert reloaded.get(f"key-{i}") == {"payload": "x" * 40, "round": 3}
    assert len(_segment_lines(tmp_path)) < 80


def test_reclaimable_bytes_survive_a_restart(tmp_path):
    """Superseded and corrupt records found at load count as reclaimable,
    so the first put of a reopened store can compact them away."""
    cache = DiskCache(tmp_path, "engine-a", max_bytes=10**9)
    for round_index in range(30):
        cache.put("hot-key", {"round": round_index})
    segment = sorted(tmp_path.glob("segment-*.jsonl"))[0]
    segment.write_text(segment.read_text() + "{torn\n")
    reopened = DiskCache(tmp_path, "engine-a", max_bytes=512)
    assert reopened.stats()["compactions"] == 0
    reopened.put("other", {"round": 0})
    assert reopened.stats()["compactions"] == 1
    assert len(_segment_lines(tmp_path)) == 2
    # Nothing is reclaimable after that: new keys append, however large.
    for i in range(20):
        reopened.put(f"fresh-{i}", {"round": i})
    assert reopened.stats()["compactions"] == 1
    assert DiskCache(tmp_path, "engine-a").get("hot-key") == {"round": 29}


# ----------------------------------------------------------------------
# Engine integration: warm restarts recompute nothing.
# ----------------------------------------------------------------------


PAYLOADS = [{"domain": name, "seed": 0} for name in ("airline", "book")]


def test_warm_restart_serves_from_disk_with_zero_recomputation(tmp_path):
    cold = LabelingEngine(disk_cache=tmp_path)
    cold_results = cold.label_batch(PAYLOADS, jobs=1)
    assert all(r["ok"] and r["cached"] is False for r in cold_results)
    assert cold.stats()["computations"] == len(PAYLOADS)

    warm = LabelingEngine(disk_cache=tmp_path)
    warm_results = warm.label_batch(PAYLOADS, jobs=1)
    assert all(r["cached"] is True for r in warm_results)
    stats = warm.stats()
    assert stats["computations"] == 0
    assert stats["disk"]["hits"] == len(PAYLOADS)
    for cold_response, warm_response in zip(cold_results, warm_results):
        a = {k: v for k, v in cold_response.items() if k != "cached"}
        b = {k: v for k, v in warm_response.items() if k != "cached"}
        assert a == b


def test_warm_restart_with_process_backend(tmp_path):
    cold = LabelingEngine(disk_cache=tmp_path)
    cold.label_batch(PAYLOADS, jobs=2, executor="process")
    assert cold.stats()["computations"] == len(PAYLOADS)

    warm = LabelingEngine(disk_cache=tmp_path)
    results = warm.label_batch(PAYLOADS, jobs=2, executor="process")
    assert all(r["cached"] is True for r in results)
    assert warm.stats()["computations"] == 0


def test_engine_fingerprint_depends_on_verify_mode(tmp_path):
    relaxed = LabelingEngine(disk_cache=tmp_path)
    strict = LabelingEngine(disk_cache=tmp_path, verify="strict")
    assert relaxed.engine_fingerprint() != strict.engine_fingerprint()
    relaxed.label({"domain": "job", "seed": 0})
    # A strict engine must not trust results computed without verification.
    assert strict.disk.get(
        relaxed.label({"domain": "job", "seed": 0})["fingerprint"]
    ) is None


def test_engine_accepts_prebuilt_disk_cache(tmp_path):
    disk = DiskCache(tmp_path, "custom-fp")
    engine = LabelingEngine(disk_cache=disk)
    assert engine.disk is disk


def test_disk_corruption_triggers_recomputation_not_errors(tmp_path):
    cold = LabelingEngine(disk_cache=tmp_path)
    response = cold.label({"domain": "job", "seed": 0})
    segment = sorted(tmp_path.glob("segment-*.jsonl"))[0]
    segment.write_text(segment.read_text()[:100])  # truncate mid-record

    warm = LabelingEngine(disk_cache=tmp_path)
    assert warm.disk.stats()["corrupt_records"] == 1
    recomputed = warm.label({"domain": "job", "seed": 0})
    assert recomputed["cached"] is False
    assert recomputed["classification"] == response["classification"]
    assert warm.stats()["computations"] == 1


# ----------------------------------------------------------------------
# Server surface.
# ----------------------------------------------------------------------


def test_metrics_reports_disk_section(tmp_path):
    from repro.service.client import ServiceClient

    with LabelingServer(port=0, disk_cache=tmp_path) as server:
        client = ServiceClient(server.url, timeout=60)
        client.label(domain="job", seed=0)
        disk = client.metrics()["engine"]["disk"]
    assert disk["entries"] == 1
    assert disk["misses"] >= 1
    assert {"hits", "corrupt_records", "load_ms", "segments"} <= set(disk)

    # Warm restart of the whole server: served from disk, no recompute.
    with LabelingServer(port=0, disk_cache=tmp_path) as server:
        client = ServiceClient(server.url, timeout=60)
        assert client.label(domain="job", seed=0)["cached"] is True
        metrics = client.metrics()["engine"]
    assert metrics["computations"] == 0
    assert metrics["disk"]["hits"] == 1


def test_engine_without_disk_cache_has_no_disk_section():
    assert "disk" not in LabelingEngine().stats()
