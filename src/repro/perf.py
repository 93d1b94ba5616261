"""Perf instrumentation: cache counters, timers, and the labeling profiler.

The naming algorithm is quadratic in pairwise label comparisons
(Definitions 1-3), and the service re-runs the same normalize -> morphy ->
synonymy/hypernymy chain for every tuple pair at every consistency level.
The memoization layer that amortizes that work lives next to each hot path
(:class:`repro.core.label.LabelAnalyzer`,
:class:`repro.core.semantics.SemanticComparator`,
:class:`repro.lexicon.compiled.CompiledLexicon`); this module provides
the *observability* for it:

* :class:`CacheCounter` — hit/miss/eviction counts with a derived hit rate;
  every cache in the hierarchy owns one and exposes it via a
  ``cache_stats()`` method.
* :class:`ClosureCounter` — Combine* runs and how many stopped at the
  closure cap, reported beside the cache counters.
* :func:`aggregate_stats` — recursive summation of ``cache_stats()``
  snapshots, what the service engine uses to merge the per-comparator
  numbers into one ``GET /metrics`` section.
* :func:`profile_labeling` — the cold-vs-warm workload behind the
  ``repro profile`` CLI subcommand and ``benchmarks/test_bench_perf.py``;
  returns a JSON-ready report (the ``BENCH_perf.json`` artifact).

Counters are lock-guarded: a ``threading.Lock`` acquire on an uncontended
lock costs ~100ns — noise against even a memo dict hit's full call path —
and exact totals are part of the contract now that the labeling engine
aggregates counters across thread pools and process-backend fallbacks
(``tests/test_perf.py`` hammers them from 8 threads and asserts exactness).
"""

from __future__ import annotations

import threading
import time

__all__ = [
    "CacheCounter",
    "ClosureCounter",
    "aggregate_stats",
    "profile_labeling",
]


class CacheCounter:
    """Hit/miss/eviction counters for one cache, with a derived hit rate.

    Increments are lock-guarded so totals stay exact under concurrent
    readers (thread-pool batch workers sharing one comparator).  Reads for
    :meth:`snapshot` take the same lock; the scalar properties read single
    attributes, which is atomic enough for display.
    """

    __slots__ = ("name", "hits", "misses", "evictions", "_lock")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._lock = threading.Lock()

    def __getstate__(self) -> dict:
        return {
            "name": self.name,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }

    def __setstate__(self, state: dict) -> None:
        self.name = state["name"]
        self.hits = state["hits"]
        self.misses = state["misses"]
        self.evictions = state["evictions"]
        self._lock = threading.Lock()

    def hit(self) -> None:
        with self._lock:
            self.hits += 1

    def miss(self) -> None:
        with self._lock:
            self.misses += 1

    def evict(self, count: int = 1) -> None:
        with self._lock:
            self.evictions += count

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits over lookups, 0.0 before the first lookup."""
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0

    def reset(self) -> None:
        with self._lock:
            self.hits = self.misses = self.evictions = 0

    def snapshot(self) -> dict:
        """JSON-ready counter values (a consistent read)."""
        with self._lock:
            hits, misses, evictions = self.hits, self.misses, self.evictions
        lookups = hits + misses
        return {
            "hits": hits,
            "misses": misses,
            "evictions": evictions,
            "hit_rate": round(hits / lookups, 4) if lookups else 0.0,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"CacheCounter({self.name!r}, hits={self.hits}, "
            f"misses={self.misses}, evictions={self.evictions})"
        )


class ClosureCounter:
    """Combine* runs, and how many of them stopped at the closure cap.

    Lock-guarded like :class:`CacheCounter`, for the same reason: one
    comparator serves every thread of a batch.
    """

    __slots__ = ("runs", "truncated", "_lock")

    def __init__(self) -> None:
        self.runs = 0
        self.truncated = 0
        self._lock = threading.Lock()

    def record(self, truncated: bool) -> None:
        """Count one closure run, and whether it stopped at the cap."""
        with self._lock:
            self.runs += 1
            self.truncated += truncated

    def snapshot(self) -> dict:
        """JSON-ready counter values (a consistent read)."""
        with self._lock:
            return {"runs": self.runs, "truncated": self.truncated}


def aggregate_stats(snapshots: list[dict]) -> dict:
    """Merge ``cache_stats()`` snapshots by summing numeric leaves.

    ``hit_rate`` keys are recomputed from the summed ``hits``/``misses``
    rather than summed (a sum of rates is meaningless).  Used by the service
    engine to fold its per-comparator stats into one ``GET /metrics`` block.
    """
    merged: dict = {}
    for snapshot in snapshots:
        _merge_into(merged, snapshot)
    _fix_hit_rates(merged)
    return merged


def _merge_into(target: dict, source: dict) -> None:
    for key, value in source.items():
        if isinstance(value, dict):
            _merge_into(target.setdefault(key, {}), value)
        elif isinstance(value, bool) or not isinstance(value, (int, float)):
            target.setdefault(key, value)
        else:
            target[key] = target.get(key, 0) + value


def _fix_hit_rates(stats: dict) -> None:
    if "hit_rate" in stats and "hits" in stats and "misses" in stats:
        lookups = stats["hits"] + stats["misses"]
        stats["hit_rate"] = round(stats["hits"] / lookups, 4) if lookups else 0.0
    for value in stats.values():
        if isinstance(value, dict):
            _fix_hit_rates(value)


# ----------------------------------------------------------------------
# The cold-vs-warm labeling profile (``repro profile``, BENCH_perf.json).
# ----------------------------------------------------------------------


def profile_labeling(
    domains=None,
    seed: int = 0,
    repeats: int = 3,
    comparator=None,
) -> dict:
    """Measure cold-vs-warm labeling over one shared comparator.

    For each domain the corpus is labeled ``repeats + 1`` times through
    :func:`repro.core.pipeline.label_corpus` with one long-lived
    :class:`~repro.core.semantics.SemanticComparator` — the first pass is
    *cold* (caches empty for that domain's vocabulary), the rest are *warm*
    (label analyses, pairwise relations and group results answer from
    cache).  Dataset generation is excluded from the timings; only the
    merge + naming pipeline is measured.

    Returns a JSON-ready report: per-domain cold/warm latency and speedup,
    totals, and the comparator's final cache hit ratios.  This is exactly
    what ``repro profile -o BENCH_perf.json`` writes and what the perf
    benchmark asserts against.
    """
    from .core.semantics import SemanticComparator
    from .core.pipeline import label_corpus
    from .datasets.registry import DOMAINS, load_domain

    names = list(domains) if domains else list(DOMAINS)
    unknown = [n for n in names if n not in DOMAINS]
    if unknown:
        raise ValueError(f"unknown domains: {', '.join(unknown)}")
    repeats = max(1, int(repeats))
    comparator = comparator or SemanticComparator()

    per_domain: dict[str, dict] = {}
    total_cold = 0.0
    total_warm = 0.0
    for name in names:
        durations: list[float] = []
        for __ in range(repeats + 1):
            dataset = load_domain(name, seed=seed)
            start = time.perf_counter()
            label_corpus(
                dataset.interfaces,
                dataset.mapping,
                comparator=comparator,
                domain=name,
            )
            durations.append(time.perf_counter() - start)
        cold_s = durations[0]
        warm_runs = durations[1:]
        warm_s = sum(warm_runs) / len(warm_runs)
        total_cold += cold_s
        total_warm += warm_s
        per_domain[name] = {
            "cold_ms": round(cold_s * 1000.0, 3),
            "warm_ms": round(warm_s * 1000.0, 3),
            "speedup": round(cold_s / warm_s, 2) if warm_s else 0.0,
        }

    totals = {
        "cold_ms": round(total_cold * 1000.0, 3),
        "warm_ms": round(total_warm * 1000.0, 3),
        "speedup": round(total_cold / total_warm, 2) if total_warm else 0.0,
        "warm_labelings_per_s": (
            round(len(names) / total_warm, 1) if total_warm else 0.0
        ),
    }
    return {
        "workload": "repeated label_corpus per domain, one shared comparator",
        "seed": seed,
        "repeats": repeats,
        "domains": per_domain,
        "totals": totals,
        "caches": comparator.cache_stats(),
    }
