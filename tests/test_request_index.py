"""The engine's request index: repeated domain requests skip the corpus build.

The index maps ``(domain, seed, options, lexicon)`` to the corpus
fingerprint, so a domain request whose key is indexed is answered from the
result cache without generating or fingerprinting its corpus.  The
contract under test: the index changes *when* the corpus is built, never
*what* is answered.
"""

from __future__ import annotations

import json
import threading

import pytest

import repro.datasets.registry as registry
from repro.core.semantics import SemanticComparator
from repro.datasets.registry import DOMAINS, load_domain
from repro.schema.serialize import corpus_to_dict
from repro.service.client import ServiceClient
from repro.service.engine import LabelingEngine, RequestError
from repro.service.fingerprint import fingerprint_document, request_key
from repro.service.server import LabelingServer

SEEDS = range(4)

#: Request variants beyond ``{"domain", "seed"}``: non-default options, a
#: small lexicon overlay, and lint (which is not part of the key).
VARIANTS = {
    "default": {},
    "options": {
        "options": {"max_level": "equality", "enabled_rules": ["LI1", "LI2", "LI3"]}
    },
    "overlay": {"lexicon": {"synsets": [["fare", "price"]]}},
    "lint": {"lint": True},
}


def _comparable(response: dict) -> str:
    """A response as canonical JSON, minus the only volatile field."""
    clean = json.loads(json.dumps(response))
    clean["stats"].pop("elapsed_ms")
    return json.dumps(clean, sort_keys=True)


@pytest.fixture(scope="module")
def comparator():
    # One warm comparator for every engine below keeps ~340 labelings fast;
    # comparator memos are content-keyed, so sharing changes no answer.
    return SemanticComparator()


@pytest.fixture()
def load_domain_calls(monkeypatch):
    """Count calls of ``load_domain`` at the name the engine looks it up by."""
    calls = []
    original = registry.load_domain

    def counting(name, seed=0):
        calls.append((name, seed))
        return original(name, seed=seed)

    monkeypatch.setattr(registry, "load_domain", counting)
    return calls


def _raw(domain: str, seed: int) -> dict:
    dataset = load_domain(domain, seed=seed)
    return {"corpus": corpus_to_dict(dataset.interfaces, dataset.mapping)}


# ----------------------------------------------------------------------
# Equivalence with the full build, all domains x seeds x variants.
# ----------------------------------------------------------------------


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("domain", sorted(DOMAINS))
def test_index_path_matches_full_build(domain, variant, comparator, load_domain_calls):
    # cache_size=0 leaves the index empty: every request builds its corpus,
    # which is the path without an index.
    reference = LabelingEngine(cache_size=0, comparator=comparator)
    indexed = LabelingEngine(cache_size=8, comparator=comparator)
    for seed in SEEDS:
        payload = {"domain": domain, "seed": seed, **VARIANTS[variant]}
        expected = reference.label(payload)
        first = indexed.label(payload)
        assert _comparable(first) == _comparable(expected)

        dataset = load_domain(domain, seed=seed)
        fingerprint = fingerprint_document(
            corpus_to_dict(dataset.interfaces, dataset.mapping),
            options=payload.get("options"),
            lexicon=payload.get("lexicon"),
        )
        request = indexed.parse(payload)
        assert request.fingerprint == fingerprint == expected["fingerprint"]
        assert request.interfaces is None and request.mapping is None

        # A memory miss on an indexed key builds the corpus only to run
        # the pipeline, and answers exactly what the full build answered.
        indexed.cache.clear()
        load_domain_calls.clear()
        rebuilt = indexed.label(payload)
        assert load_domain_calls == [(domain, seed)]
        assert rebuilt["cached"] is False
        assert _comparable(rebuilt) == _comparable(expected)

        load_domain_calls.clear()
        hit = indexed.label(payload)
        assert load_domain_calls == []
        assert hit["cached"] is True
        assert hit["tree"] == expected["tree"]
        assert hit.get("lint") == expected.get("lint")


# ----------------------------------------------------------------------
# Eviction and the disk layer.
# ----------------------------------------------------------------------


def _evict_first_domain(engine: LabelingEngine) -> dict:
    """Label airline then auto, then push airline out of the result cache
    (capacity 2) with a raw-corpus request, which the index does not see:
    airline stays indexed while its cached response is gone."""
    first = engine.label({"domain": "airline", "seed": 0})
    engine.label({"domain": "auto", "seed": 0})
    engine.label(_raw("book", 0))
    assert engine.stats()["cache"]["evictions"] == 1
    assert engine.stats()["request_index"]["size"] == 2
    return first


def test_evicted_entry_rebuilds_corpus(comparator, load_domain_calls):
    engine = LabelingEngine(cache_size=2, comparator=comparator)
    first = _evict_first_domain(engine)
    load_domain_calls.clear()
    again = engine.label({"domain": "airline", "seed": 0})
    assert load_domain_calls == [("airline", 0)]  # in the pipeline, not the parse
    assert again["cached"] is False
    assert _comparable(again) == _comparable(first)


def test_disk_cache_serves_indexed_key_without_building(
    tmp_path, comparator, load_domain_calls
):
    engine = LabelingEngine(cache_size=2, comparator=comparator, disk_cache=tmp_path)
    first = _evict_first_domain(engine)
    load_domain_calls.clear()
    computations = engine.stats()["computations"]
    again = engine.label({"domain": "airline", "seed": 0})
    assert load_domain_calls == []
    assert engine.stats()["computations"] == computations
    assert again["cached"] is True
    first.pop("cached")
    again.pop("cached")
    assert again == first


# ----------------------------------------------------------------------
# Validation does not depend on the index.
# ----------------------------------------------------------------------

INVALID = [
    {"domain": "atlantis", "seed": 0},
    {"domain": "airline", "seed": True},
    {"domain": "airline", "seed": "0"},
    {"domain": "airline", "seed": 0, "options": {"turbo": True}},
    {"domain": "airline", "seed": 0, "lexicon": {"hypernyms": [["fare"]]}},
    {"domain": "airline", "seed": 0, "lexicon": ["fare", "price"]},
    {"domain": "airline", "seed": 0, "timeout": 0},
    {"domain": "airline", "seed": 0, "timeout": -1},
    {"domain": "airline", "seed": 0, "timeout": "soon"},
]


def _error(engine: LabelingEngine, payload: dict) -> str:
    with pytest.raises(RequestError) as excinfo:
        engine.label(payload)
    return str(excinfo.value)


def test_invalid_payloads_fail_identically_when_indexed(comparator):
    fresh = LabelingEngine(cache_size=8, comparator=comparator)
    expected = [_error(fresh, payload) for payload in INVALID]

    warm = LabelingEngine(cache_size=8, comparator=comparator)
    warm.label({"domain": "airline", "seed": 0})
    warm.label({"domain": "airline", "seed": 1})
    before = warm.stats()["request_index"]
    assert before["size"] == 2
    assert [_error(warm, payload) for payload in INVALID] == expected
    # Validation runs before the index lookup, so a bad payload never
    # touches it.
    assert warm.stats()["request_index"] == before


# ----------------------------------------------------------------------
# Bounds.
# ----------------------------------------------------------------------


def test_index_never_exceeds_cache_capacity(comparator):
    engine = LabelingEngine(cache_size=3, comparator=comparator)
    for domain in ("airline", "auto", "book", "carrental", "realestate"):
        engine.label({"domain": domain, "seed": 0})
        index = engine.stats()["request_index"]
        assert index["size"] <= index["capacity"] == 3
    assert engine.stats()["request_index"]["size"] == 3


def test_zero_cache_size_leaves_index_empty(comparator, load_domain_calls):
    engine = LabelingEngine(cache_size=0, comparator=comparator)
    for _ in range(3):
        engine.label({"domain": "auto", "seed": 0})
    index = engine.stats()["request_index"]
    assert index["size"] == 0 and index["capacity"] == 0 and index["hits"] == 0
    assert engine.stats()["computations"] == 3
    assert load_domain_calls == [("auto", 0)] * 3


def test_request_key_is_canonical():
    overlay = {"synsets": [["price", "fare"]], "hypernyms": []}
    reordered = {"hypernyms": [], "synsets": [["fare", "price"]]}
    from repro.core.pipeline import NamingOptions

    options = NamingOptions()
    assert request_key("airline", 0, options, overlay) == request_key(
        "airline", 0, options, reordered
    )
    assert request_key("airline", 0, options, None) != request_key(
        "airline", 1, options, None
    )


# ----------------------------------------------------------------------
# Observability.
# ----------------------------------------------------------------------


def test_stats_count_domain_hits_not_raw_corpora(comparator):
    engine = LabelingEngine(cache_size=8, comparator=comparator)
    start = engine.stats()["request_index"]
    assert start == {"hits": 0, "misses": 0, "size": 0, "capacity": 8}

    engine.label({"domain": "auto", "seed": 1})
    engine.label({"domain": "auto", "seed": 1})
    after = engine.stats()["request_index"]
    assert (after["hits"], after["misses"], after["size"]) == (1, 1, 1)

    engine.label(_raw("auto", 1))
    assert engine.stats()["request_index"] == after


def test_metrics_endpoint_reports_request_index():
    with LabelingServer(port=0, cache_size=4) as server:
        client = ServiceClient(server.url, timeout=60)
        client.label(domain="airline", seed=0)
        client.label(domain="airline", seed=0)
        metrics = client.metrics()
    assert metrics["engine"]["request_index"] == {
        "hits": 1, "misses": 1, "size": 1, "capacity": 4,
    }


# ----------------------------------------------------------------------
# The engine-wide default comparator.
# ----------------------------------------------------------------------


def test_one_default_comparator_across_threads():
    # More threads than cores and a short switch interval, so a lost
    # update would build a second comparator; concurrent use of the shared
    # memos must give the answers a sequential engine gives.
    import sys

    payloads = [
        {"domain": domain, "seed": 0}
        for domain in ("airline", "auto", "book", "carrental", "airline", "auto")
    ]
    sequential = LabelingEngine(cache_size=0)
    expected = [_comparable(sequential.label(payload)) for payload in payloads]

    engine = LabelingEngine(cache_size=0)
    results: list = [None] * len(payloads)

    def run(slot: int) -> None:
        results[slot] = _comparable(engine.label(payloads[slot]))

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(payloads))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == expected
    assert engine.stats()["computations"] == len(payloads)
    assert engine.stats()["semantics"]["comparators"] == 1


def test_one_default_comparator_across_connections():
    # ServiceClient opens a connection per request, so each request runs
    # on its own handler thread.
    with LabelingServer(port=0, cache_size=0) as server:
        client = ServiceClient(server.url, timeout=60)
        for domain in ("airline", "auto", "book"):
            client.label(domain=domain, seed=0)
        assert server.engine.stats()["semantics"]["comparators"] == 1


def test_thread_and_process_batches_match_with_shared_comparator():
    raw = _raw("auto", 1)
    payloads = [
        {"domain": "airline", "seed": 0},
        {"domain": "book", "seed": 1},
        {"domain": "airline", "seed": 0},  # duplicate
        raw,
        raw,  # duplicate raw corpus
        {"domain": "carrental", "seed": 2, "lint": True},
        {"domain": "carrental", "seed": 2},
        {"domain": "atlantis"},
    ]

    def run(executor: str) -> list[dict]:
        engine = LabelingEngine(breaker=None)
        results = engine.label_batch(payloads, jobs=2, executor=executor)
        assert engine.stats()["semantics"]["comparators"] <= 1
        return results

    def comparable(results: list[dict]) -> list[str]:
        # ``cached`` is checked below, on the process backend.
        out = []
        for result in results:
            clean = json.loads(json.dumps(result))
            clean.pop("elapsed_ms", None)
            clean.pop("cached", None)
            clean.get("stats", {}).pop("elapsed_ms", None)
            out.append(json.dumps(clean, sort_keys=True))
        return out

    process = run("process")
    assert comparable(run("thread")) == comparable(process)
    assert [r["ok"] for r in process] == [True] * 7 + [False]
    assert [r.get("cached") for r in process[:7]] == [
        False, False, True, False, True, False, True,
    ]
