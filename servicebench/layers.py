"""Per-layer metrics of a traced run, from spans and ``GET /metrics``.

Times are medians over the timed requests.  Layers that run once per HTTP
request (``server.*``, ``batch.*``) are timed per request; every other layer
per item: its time in a request divided by the request's items (one for
``/label``, eight for a ``/batch``).  Times are self times (span duration
minus child spans) unless noted.  A layer a workload bypasses reads 0.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from dataclasses import dataclass

from spans import Span

MS = "ms"


@dataclass(frozen=True)
class Layer:
    name: str
    unit: str
    moves: str  # the end-to-end metric it should move, and where

    @property
    def is_count(self) -> bool:
        return self.unit not in (MS, "%")


LAYERS = [
    Layer("server.handler_ms", MS, "latency on all workloads (do_POST time)"),
    Layer("server.transport_ms", MS,
          "latency_p50_ms, items_per_s on label_warm (client latency minus "
          "server time before the response write)"),
    Layer("server.read_json_ms", MS, "latency on batch_corpus, label_warm"),
    Layer("server.send_json_ms", MS, "latency on batch_corpus, label_warm"),
    Layer("server.connections_per_item", "1/item", "items_per_s, latency on label_cold"),
    Layer("admission.shed", "count", "success_rate on all workloads (stays 0)"),
    Layer("engine.from_payload_self_ms", MS, "latency on label_warm"),
    Layer("engine.label_self_ms", MS, "latency on label_warm (hit deepcopy, shaping)"),
    Layer("engine.computations_per_item", "1/item",
          "0 on label_warm; dedupe on batch_corpus"),
    Layer("engine.comparators_per_computation", "ratio",
          "server_peak_rss_mb, latency on label_cold"),
    Layer("datasets.load_domain_ms", MS, "latency on label_warm"),
    Layer("fingerprint.corpus_ms", MS, "latency on label_warm, batch_corpus"),
    Layer("serialize.corpus_parse_ms", MS, "items_per_s on batch_corpus"),
    Layer("serialize.node_to_dict_ms", MS, "latency on label_cold"),
    Layer("cache.get_ms", MS, "latency on label_warm (includes the CRC re-check)"),
    Layer("cache.put_ms", MS, "latency on label_cold"),
    Layer("cache.hit_rate", "ratio", "1.0 on label_warm, 0 on label_cold"),
    Layer("diskcache.put_ms", MS, "latency on label_cold"),
    Layer("diskcache.compactions", "count", "latency on label_cold"),
    Layer("diskcache.entries", "count", "server_peak_rss_mb on label_cold"),
    Layer("batch.execute_ms", MS, "items_per_s, latency on batch_corpus (wall time)"),
    Layer("batch.worker_busy_ms", MS, "items_per_s, latency on batch_corpus"),
    Layer("batch.overhead_ms", MS, "items_per_s, latency on batch_corpus"),
    Layer("batch.shipped_per_miss", "ratio", "items_per_s, latency on batch_corpus"),
    Layer("merge.merge_ms", MS, "latency on label_cold"),
    Layer("pipeline.label_corpus_ms", MS, "latency_p90_ms on label_cold"),
    Layer("pipeline.job_share", "ratio", "latency_p90_ms on label_cold"),
    Layer("solutions.name_group_ms", MS, "items_per_s, latency_p90_ms on label_cold"),
    Layer("consistency.closure_ms", MS, "items_per_s, latency_p90_ms on label_cold"),
    Layer("consistency.closure_tuples", "count",
          "items_per_s, latency_p90_ms on label_cold"),
    Layer("consistency.closures_truncated", "count",
          "items_per_s, latency_p90_ms on label_cold"),
    Layer("internal_nodes.candidates_ms", MS, "latency on label_cold"),
    Layer("conflicts.repair_ms", MS, "latency on label_cold"),
    *(
        Layer(f"semantics.{memo}.hit_rate", "ratio", "items_per_s on label_cold")
        for memo in ("labels", "relations", "predicates", "group_results", "consistency_pairs")
    ),
    *(
        Layer(f"lexicon.{memo}.hit_rate", "ratio", "items_per_s on label_cold")
        for memo in ("base_form", "relations")
    ),
    Layer("trace.overhead_items_per_s_pct", "%", "traced vs untraced items_per_s"),
    Layer("trace.overhead_latency_p50_pct", "%", "traced vs untraced latency_p50_ms"),
]


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _delta(before: dict, after: dict, *path: str) -> tuple[float, float]:
    """(hits, misses) added between two ``/metrics`` scrapes at ``path``."""
    def get(snapshot, key):
        node = snapshot
        for part in path:
            node = node.get(part, {})
        return node.get(key, 0)

    return (get(after, "hits") - get(before, "hits"),
            get(after, "misses") - get(before, "misses"))


def _lexicon_counts(snapshot: dict, memo: str) -> tuple[float, float]:
    """One lexicon memo's (hits, misses).  Every comparator reports the same
    shared default lexicon, so ``/metrics`` sums it once per comparator."""
    semantics = snapshot["engine"]["semantics"]
    comparators = semantics.get("comparators", 0)
    stats = semantics.get("wordnet", {}).get(memo, {})
    if not comparators:
        return 0.0, 0.0
    return stats.get("hits", 0) / comparators, stats.get("misses", 0) / comparators


def compute(samples, spans: list[Span], before: dict, after: dict) -> dict[str, float]:
    """Every layer metric for one traced timed phase."""
    requests = {s.request_id: s for s in samples}
    grouped: dict[str, list[Span]] = defaultdict(list)
    for span in spans:
        if span.request_id in requests:
            grouped[span.request_id].append(span)
    items = sum(s.request.items for s in samples)

    def spans_of(rid, *names):
        return [sp for sp in grouped.get(rid, ()) if sp.name in names]

    def per_item_self(*names) -> float:
        return 1000.0 * _median(
            sum(sp.self_s for sp in spans_of(rid, *names)) / s.request.items
            for rid, s in requests.items()
        )

    def per_request(*names, value=lambda sp: sp.duration_s * 1000.0) -> list[float]:
        return [sum(value(sp) for sp in spans_of(rid, *names)) for rid in requests]

    def until_send_ms(rid) -> float | None:
        """Server time before the response write: the start of ``do_POST``
        to the start of ``_send_json``."""
        handler, send = spans_of(rid, "server.handler"), spans_of(rid, "server.send_json")
        if not handler or not send:
            return None
        return 1000.0 * (send[0].start - handler[0].start)

    until_send = {rid: until_send_ms(rid) for rid in requests}
    metrics = {
        "server.handler_ms": _median(per_request("server.handler")),
        "server.transport_ms": _median(
            s.latency_ms - until_send[rid]
            for rid, s in requests.items() if until_send[rid] is not None
        ),
        "server.read_json_ms": _median(per_request("server.read_json")),
        "server.send_json_ms": _median(per_request("server.send_json")),
        "server.connections_per_item": _ratio(sum(
            1 for rid in requests for sp in spans_of(rid, "server.handler")
            if sp.tags.get("conn_seq") == 1
        ), items),
        "admission.shed": after["admission"]["shed"] - before["admission"]["shed"],
        "engine.from_payload_self_ms": per_item_self("engine.from_payload"),
        "engine.label_self_ms": per_item_self("engine.label", "engine.label_batch"),
        "datasets.load_domain_ms": per_item_self("datasets.load_domain"),
        "fingerprint.corpus_ms": per_item_self("fingerprint.corpus"),
        "serialize.corpus_parse_ms": per_item_self("serialize.corpus_parse"),
        "serialize.node_to_dict_ms": per_item_self("serialize.node_to_dict"),
        "cache.get_ms": per_item_self("cache.get"),
        "cache.put_ms": per_item_self("cache.put"),
        "diskcache.put_ms": per_item_self("diskcache.put"),
        "merge.merge_ms": per_item_self("merge.merge"),
        "pipeline.label_corpus_ms": per_item_self("pipeline.label_corpus"),
        "solutions.name_group_ms": per_item_self("solutions.name_group"),
        "consistency.closure_ms": per_item_self("consistency.closure"),
        "internal_nodes.candidates_ms": per_item_self("internal_nodes.candidates"),
        "conflicts.repair_ms": per_item_self("conflicts.repair"),
    }

    engine_before, engine_after = before["engine"], after["engine"]
    computations = engine_after["computations"] - engine_before["computations"]
    comparators = (engine_after["semantics"].get("comparators", 0)
                   - engine_before["semantics"].get("comparators", 0))
    metrics["engine.computations_per_item"] = _ratio(computations, items)
    metrics["engine.comparators_per_computation"] = _ratio(comparators, computations)
    hits, misses = _delta(before, after, "engine", "cache")
    metrics["cache.hit_rate"] = _ratio(hits, hits + misses)
    disk = engine_after.get("disk", {})
    metrics["diskcache.compactions"] = disk.get("compactions", 0)
    metrics["diskcache.entries"] = disk.get("entries", 0)

    execute = per_request("batch.execute")
    busy = per_request("batch.execute", value=lambda sp: sp.tags.get("busy_ms", 0.0))
    jobs = per_request("batch.execute", value=lambda sp: sp.tags.get("jobs", 1))
    metrics["batch.execute_ms"] = _median(e for e in execute if e)
    metrics["batch.worker_busy_ms"] = _median(b for e, b in zip(execute, busy) if e)
    metrics["batch.overhead_ms"] = _median(
        e - b / max(1, j) for e, b, j in zip(execute, busy, jobs) if e
    )
    shipped = sum(per_request("batch.execute", value=lambda sp: sp.tags.get("tasks", 0)))
    misses = sum(per_request("cache.get", value=lambda sp: 0 if sp.tags.get("hit") else 1))
    metrics["batch.shipped_per_miss"] = _ratio(shipped, misses)

    pipeline_ms = per_request("pipeline.label_corpus")
    job_ms = per_request(
        "pipeline.label_corpus",
        value=lambda sp: sp.duration_s * 1000.0 if sp.tags.get("domain") == "job" else 0.0,
    )
    metrics["pipeline.job_share"] = _ratio(sum(job_ms), sum(pipeline_ms))
    closure_tuples = per_request("consistency.closure", value=lambda sp: sp.tags.get("tuples", 0))
    metrics["consistency.closure_tuples"] = _median(
        t / s.request.items for t, s in zip(closure_tuples, requests.values())
    )
    metrics["consistency.closures_truncated"] = sum(per_request(
        "consistency.closure", value=lambda sp: 1 if sp.tags.get("truncated") else 0
    ))

    for memo in ("labels", "relations", "predicates", "group_results", "consistency_pairs"):
        hits, misses = _delta(before, after, "engine", "semantics", memo)
        metrics[f"semantics.{memo}.hit_rate"] = _ratio(hits, hits + misses)
    for memo in ("base_form", "relations"):
        hits_before, misses_before = _lexicon_counts(before, memo)
        hits_after, misses_after = _lexicon_counts(after, memo)
        hits, misses = hits_after - hits_before, misses_after - misses_before
        metrics[f"lexicon.{memo}.hit_rate"] = _ratio(hits, hits + misses)
    return metrics


def self_time_table(samples, spans: list[Span]) -> list[tuple[str, int, float, float]]:
    """``(span, calls, self ms per item, share of handler time)`` over the
    timed requests, largest first."""
    rids = {s.request_id for s in samples}
    items = sum(s.request.items for s in samples) or 1
    calls: dict[str, int] = defaultdict(int)
    self_ms: dict[str, float] = defaultdict(float)
    for span in spans:
        if span.request_id in rids:
            calls[span.name] += 1
            self_ms[span.name] += span.self_s * 1000.0
    total = sum(self_ms.values()) or 1.0
    rows = [(name, calls[name], self_ms[name] / items, self_ms[name] / total) for name in self_ms]
    return sorted(rows, key=lambda row: -row[2])
