"""The memoization layer: counters, the lexicon snapshot, cached == uncached.

Covers the perf instrumentation primitives (:mod:`repro.perf`), the
immutable-snapshot contract every cache in the hierarchy relies on (a
comparator answers from the lexicon as compiled when it was built), the
correctness contract of the relation/group memos (cached answers must be
exactly the uncached ones), and the comparator sharing the labeling engine
does across requests with the same lexicon overlay.
"""

from __future__ import annotations

import json
import pickle
import random

import pytest

from repro.core.group_relation import GroupRelation
from repro.core.label import LabelAnalyzer
from repro.core.semantics import LabelRelation, SemanticComparator
from repro.core.solutions import name_group
from repro.datasets.registry import DOMAINS, load_domain
from repro.lexicon import CompiledLexicon, default_compiled
from repro.lexicon.data import build_default_wordnet
from repro.perf import CacheCounter, aggregate_stats
from repro.resilience import FaultPlan, RetryPolicy
from repro.schema.groups import partition_clusters
from repro.service.engine import LabelingEngine, LabelingRequest
from repro.testing.oracles import canonical_response


# ----------------------------------------------------------------------
# Instrumentation primitives.
# ----------------------------------------------------------------------


def test_cache_counter_rates_and_reset():
    counter = CacheCounter("x")
    assert counter.hit_rate == 0.0  # no lookups yet
    counter.hit()
    counter.hit()
    counter.miss()
    counter.evict(5)
    assert counter.lookups == 3
    assert counter.hit_rate == pytest.approx(2 / 3)
    snap = counter.snapshot()
    assert snap == {
        "hits": 2, "misses": 1, "evictions": 5, "hit_rate": round(2 / 3, 4),
    }
    counter.reset()
    assert counter.snapshot()["hits"] == 0


def test_cache_counter_exact_under_concurrent_hammer():
    """8 threads hammering one counter must lose no increment.

    The counters aggregate across thread-pool batch workers (and the
    process backend's thread fallback); exact totals are the contract.
    """
    import threading

    counter = CacheCounter("hammered")
    rounds = 2500
    workers = 8

    def hammer():
        for __ in range(rounds):
            counter.hit()
            counter.miss()
            counter.evict(2)

    threads = [threading.Thread(target=hammer) for __ in range(workers)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    snap = counter.snapshot()
    assert snap["hits"] == workers * rounds
    assert snap["misses"] == workers * rounds
    assert snap["evictions"] == 2 * workers * rounds
    assert snap["hit_rate"] == 0.5


def test_cache_counter_pickles_without_its_lock():
    import pickle

    counter = CacheCounter("picklable")
    counter.hit()
    counter.evict(3)
    clone = pickle.loads(pickle.dumps(counter))
    assert clone.snapshot() == counter.snapshot()
    clone.hit()  # the restored lock works
    assert clone.hits == counter.hits + 1


def test_aggregate_stats_recomputes_hit_rate():
    merged = aggregate_stats([
        {"labels": {"hits": 9, "misses": 1, "hit_rate": 0.9}},
        {"labels": {"hits": 0, "misses": 10, "hit_rate": 0.0}},
    ])
    assert merged["labels"]["hits"] == 9
    assert merged["labels"]["misses"] == 11
    # Recomputed from the sums, not summed (0.9 + 0.0 would be wrong).
    assert merged["labels"]["hit_rate"] == pytest.approx(9 / 20)


# ----------------------------------------------------------------------
# The lexicon snapshot: a comparator never sees later lexicon edits.
# ----------------------------------------------------------------------


def test_wordnet_mutation_invalidates_relation_memos():
    """The builder keeps no memo, so its queries always see its own edits."""
    wn = build_default_wordnet()
    assert not wn.are_synonyms("blarg", "fnord")
    assert not wn.is_hypernym("blarg", "fnord")
    wn.add_synset(["blarg", "fnord"])
    assert wn.are_synonyms("blarg", "fnord")
    wn.add_hypernym("blarg", "qux")
    assert wn.is_hypernym("blarg", "qux")


def test_wordnet_mutation_invalidates_base_form_memo():
    wn = build_default_wordnet()
    assert wn.lemma_base("blargs") == "blargs"  # unknown: morphy leaves it
    wn.add_synset(["blarg"])
    assert wn.lemma_base("blargs") == "blarg"


def test_comparator_keeps_its_lexicon_snapshot():
    wn = build_default_wordnet()
    comparator = SemanticComparator(LabelAnalyzer(wn))
    wn.add_synset(["blarg", "fnord"])
    # Built before the edit: answers from the lexicon as it was compiled.
    assert comparator.relation_between("Blarg", "Fnord") is LabelRelation.NONE
    assert not comparator.synonym("Blarg", "Fnord")
    # Built after the edit: sees it.
    rebuilt = SemanticComparator(LabelAnalyzer(wn))
    assert rebuilt.relation_between("Blarg", "Fnord") is LabelRelation.SYNONYM


def test_analyzer_always_holds_a_compiled_lexicon():
    default = SemanticComparator()
    assert default.wordnet is default_compiled()
    assert not hasattr(default.wordnet, "add_synset")
    analyzer = LabelAnalyzer(build_default_wordnet())
    assert isinstance(analyzer.wordnet, CompiledLexicon)
    # Compiling is idempotent: a compiled lexicon is used as given.
    assert LabelAnalyzer(analyzer.wordnet).wordnet is analyzer.wordnet


def test_fault_sweep_leaves_the_default_lexicon_untouched():
    """No fault plan can write into the process-wide default lexicon."""
    payloads = [{"domain": name, "seed": 0} for name in DOMAINS]
    lexicon = default_compiled()
    fingerprint, tables = lexicon.fingerprint, pickle.dumps(lexicon)
    vocabulary = SemanticComparator().wordnet.vocabulary()
    before = [
        canonical_response(r)
        for r in LabelingEngine().label_batch(payloads, jobs=1)
    ]
    retry = RetryPolicy(base_delay_s=0.0005, max_delay_s=0.002)
    for seed in range(20):
        engine = LabelingEngine(
            fault_plan=FaultPlan.random(seed=seed, rate=0.1, latency_s=0.0005),
            retry=retry,
        )
        engine.label_batch(payloads, jobs=1)
    assert default_compiled() is lexicon
    assert lexicon.fingerprint == fingerprint
    assert pickle.dumps(lexicon) == tables
    assert SemanticComparator().wordnet.vocabulary() == vocabulary
    after = [
        canonical_response(r)
        for r in LabelingEngine().label_batch(payloads, jobs=1)
    ]
    assert after == before


# ----------------------------------------------------------------------
# Label interning.
# ----------------------------------------------------------------------


def test_labels_intern_on_canonical_identity():
    analyzer = LabelAnalyzer(build_default_wordnet())
    a = analyzer.label("Day/Time")
    b = analyzer.label("Day & Time")
    # Same display form and conjunction flag: one intern key, shared tokens.
    assert a.key == b.key
    assert a.tokens is b.tokens
    c = analyzer.label("Day Time")  # no conjunction marker: different class
    assert c.key != a.key


def test_interned_labels_are_repeat_cache_hits():
    analyzer = LabelAnalyzer(build_default_wordnet())
    analyzer.label("Departure City")
    hits_before = analyzer.counter.hits
    analyzer.label("Departure City")
    assert analyzer.counter.hits == hits_before + 1


# ----------------------------------------------------------------------
# Cached relation_between == uncached (satellite 3, property-style).
# ----------------------------------------------------------------------


def _corpus_labels(domain: str, seed: int) -> list[str]:
    dataset = load_domain(domain, seed=seed)
    texts: list[str] = []
    for cluster in dataset.mapping.clusters:
        texts.extend(cluster.labels())
    return sorted(set(texts))


@pytest.mark.parametrize("domain,seed", [("airline", 0), ("hotels", 1), ("auto", 2)])
def test_cached_relation_between_matches_uncached(domain, seed):
    texts = _corpus_labels(domain, seed)
    cached = SemanticComparator()
    reference = SemanticComparator()  # its relation-level cache stays unused
    rng = random.Random(seed)
    pairs = [
        (rng.choice(texts), rng.choice(texts)) for __ in range(300)
    ]
    for a, b in pairs:
        expected = reference._relation_uncached(a, b)
        assert cached.relation_between(a, b) is expected
        # Second lookup is the cache hit — and the reverse direction often a
        # derived entry; both must still agree with the ladder.
        assert cached.relation_between(a, b) is expected
        assert cached.relation_between(b, a) is reference._relation_uncached(b, a)
    assert cached.relation_counter.hits > 0


def test_derived_predicates_match_relation_ladder():
    texts = _corpus_labels("job", 0)
    comparator = SemanticComparator()
    rng = random.Random(7)
    for __ in range(200):
        a, b = rng.choice(texts), rng.choice(texts)
        rel = comparator.relation_between(a, b)
        assert comparator.similar(a, b) == (rel >= LabelRelation.SYNONYM)
        assert comparator.at_least_as_general(a, b) == (
            rel >= LabelRelation.HYPERNYM
        )


# ----------------------------------------------------------------------
# The group-result memo: warm answers equal cold ones, copies protect it.
# ----------------------------------------------------------------------


def _group_relations(domain: str, seed: int) -> list[GroupRelation]:
    dataset = load_domain(domain, seed=seed)
    dataset.prepare()
    partition = partition_clusters(dataset.integrated())
    groups = list(partition.regular)
    if partition.root_group is not None:
        groups.append(partition.root_group)
    return [GroupRelation.from_mapping(g, dataset.mapping) for g in groups]


def _solution_view(result):
    return [
        (dict(s.labels), s.level, s.expressiveness, s.frequency, s.is_candidate)
        for s in result.solutions
    ]


def test_name_group_memo_returns_equal_results():
    comparator = SemanticComparator()
    for relation in _group_relations("hotels", seed=0):
        twin = GroupRelation.from_mapping(relation.group, load_domain(
            "hotels", seed=0
        ).prepare().mapping)
        cold = name_group(relation, comparator)
        warm = name_group(twin, comparator)
        assert _solution_view(cold) == _solution_view(warm)
        assert cold.consistent == warm.consistent
        assert cold.level == warm.level
    assert comparator.group_counter.hits > 0


def test_name_group_memo_is_mutation_safe():
    comparator = SemanticComparator()
    relation = _group_relations("airline", seed=0)[0]
    first = name_group(relation, comparator)
    pristine = _solution_view(first)
    # Homonym repair mutates the chosen solution's labels in place; the memo
    # must hand out copies so later hits still see the pristine result.
    cluster = next(iter(first.solutions[0].labels))
    first.solutions[0].labels[cluster] = "CORRUPTED"
    second = name_group(relation, comparator)
    assert _solution_view(second) == pristine


def test_warm_labeling_is_byte_identical(tmp_path):
    """End to end: a warm repeat labeling serializes identically to cold."""
    engine = LabelingEngine(cache_size=0)  # bypass the response LRU
    payload = {"domain": "hotels", "seed": 0}
    cold = engine.label(payload)
    warm = engine.label(payload)
    for response in (cold, warm):
        response["stats"].pop("elapsed_ms")
        response.pop("cached", None)
    assert json.dumps(cold, sort_keys=True) == json.dumps(warm, sort_keys=True)


# ----------------------------------------------------------------------
# Engine comparator sharing (satellite 2) and /metrics aggregation.
# ----------------------------------------------------------------------


def _request(payload) -> LabelingRequest:
    return LabelingRequest.from_payload(payload)


def test_engine_shares_comparator_per_overlay():
    engine = LabelingEngine(cache_size=0)
    overlay = {"synsets": [["blarg", "fnord"]]}
    r1 = _request({"domain": "auto", "seed": 0, "lexicon": overlay})
    r2 = _request({"domain": "auto", "seed": 1, "lexicon": overlay})
    assert engine._comparator_for(r1) is engine._comparator_for(r2)
    other = _request(
        {"domain": "auto", "seed": 0, "lexicon": {"synsets": [["qux", "zot"]]}}
    )
    assert engine._comparator_for(other) is not engine._comparator_for(r1)


def test_engine_overlay_comparators_are_bounded():
    engine = LabelingEngine(cache_size=0)
    for i in range(engine.OVERLAY_COMPARATORS + 3):
        request = _request(
            {"domain": "auto", "seed": 0,
             "lexicon": {"synsets": [[f"word{i}", f"term{i}"]]}}
        )
        engine._comparator_for(request)
    assert len(engine._overlay_comparators) == engine.OVERLAY_COMPARATORS


def test_engine_stats_expose_semantics_caches():
    engine = LabelingEngine(cache_size=0)
    engine.label({"domain": "auto", "seed": 0})
    engine.label({"domain": "auto", "seed": 0})
    semantics = engine.stats()["semantics"]
    assert semantics["comparators"] == 1
    assert semantics["group_results"]["hits"] > 0
    assert 0.0 <= semantics["labels"]["hit_rate"] <= 1.0
    assert "wordnet" in semantics


# ----------------------------------------------------------------------
# The profile CLI (ties the report format down).
# ----------------------------------------------------------------------


def test_profile_cli_writes_report(tmp_path, capsys):
    from repro.cli import main

    out = tmp_path / "BENCH_perf.json"
    code = main([
        "profile", "--domains", "auto", "--repeats", "1", "-o", str(out),
    ])
    assert code == 0
    printed = capsys.readouterr().out
    assert "TOTAL" in printed and "cache hit rates" in printed
    report = json.loads(out.read_text())
    assert set(report) >= {"workload", "domains", "totals", "caches"}
    assert report["domains"]["auto"]["cold_ms"] > 0
    assert report["caches"]["group_results"]["hits"] >= 0


def test_profile_rejects_unknown_domain():
    from repro.perf import profile_labeling

    with pytest.raises(ValueError, match="unknown domains"):
        profile_labeling(domains=["nope"])


def test_bench_perf_smoke(tmp_path, monkeypatch):
    """The perf benchmark runner must keep working (satellite: no rot).

    Executes ``benchmarks/test_bench_perf.py`` with its artifacts redirected
    to a temp dir, so the speedup assertion and the BENCH_perf.json shape
    are exercised on every tier-1 run.
    """
    import importlib.util
    from pathlib import Path

    bench_path = (
        Path(__file__).resolve().parents[1] / "benchmarks" / "test_bench_perf.py"
    )
    spec = importlib.util.spec_from_file_location("bench_perf_smoke", bench_path)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    monkeypatch.setattr(bench, "RESULTS_DIR", tmp_path)
    monkeypatch.setattr(
        bench,
        "write_result",
        lambda name, content: (tmp_path / f"{name}.txt").write_text(content),
    )
    bench.test_perf_report()
    report = json.loads((tmp_path / "BENCH_perf.json").read_text())
    assert report["totals"]["speedup"] >= bench.MIN_TOTAL_SPEEDUP
    assert (tmp_path / "perf.txt").read_text().startswith("Memoization layer")
