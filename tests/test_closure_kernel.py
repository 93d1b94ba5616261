"""The bitset Combine* kernel against the loop it replaced.

``combine_closure`` must return exactly what the tuple-at-a-time loop
returned: the same tuples, in the same order, with the same ``a+b``
interface names, cut at the same ``limit``.  ``_reference_closure`` is that
loop, kept verbatim; the property test compares the two on random
relations, the corpus test on every closure the pipeline runs.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core.consistency as consistency
from repro.core.consistency import (
    CLOSURE_LIMIT,
    ConsistencyLevel,
    combine,
    combine_closure,
    tuples_consistent,
)
from repro.core.group_relation import GroupTuple
from repro.core.label import LabelAnalyzer
from repro.core.semantics import SemanticComparator
from repro.lexicon.data import build_default_wordnet
from repro.obs import Trace
from repro.service.engine import LabelingEngine

DOMAINS = ("airline", "auto", "book", "carrental", "hotels", "job", "realestate")
SEEDS = (0, 1, 2, 3, 1000, 1001, 1002, 1003)


def _reference_closure(
    tuples: list[GroupTuple],
    level: ConsistencyLevel,
    comparator: SemanticComparator,
    limit: int = CLOSURE_LIMIT,
) -> list[GroupTuple]:
    """Combine* (Definition 3 generalized): all tuples derivable by
    repeatedly combining consistent pairs, duplicates (by label values)
    ignored.

    The closure pairs every derived tuple against the *original* rows, which
    reaches every spanning-tree combination of a connected component while
    keeping the frontier small.
    """
    seen: dict[tuple[str | None, ...], GroupTuple] = {}
    order: list[GroupTuple] = []
    for t in tuples:
        if t.key() not in seen:
            seen[t.key()] = t
            order.append(t)

    frontier = list(order)
    while frontier and len(order) < limit:
        next_frontier: list[GroupTuple] = []
        for current in frontier:
            for original in tuples:
                if not tuples_consistent(current, original, level, comparator):
                    continue
                for merged in (combine(current, original), combine(original, current)):
                    if merged.key() not in seen:
                        seen[merged.key()] = merged
                        order.append(merged)
                        next_frontier.append(merged)
                        if len(order) >= limit:
                            return order
        frontier = next_frontier
    return order


def _view(closure: list[GroupTuple]) -> list[tuple]:
    return [(t.interface, t.labels, t.clusters) for t in closure]


# ----------------------------------------------------------------------
# Random relations.
# ----------------------------------------------------------------------

COMPARATOR = SemanticComparator(LabelAnalyzer(build_default_wordnet()))

#: String-equal (Adults/adults), equal (Adult/Adults, Preferred Airline/
#: Airline Preference), synonym (Make/Brand, Area of Study/Field of Work)
#: and merely related (Title/Job Title: hypernymy, never consistent) pairs.
VOCABULARY = (
    "Adults", "adults", "Adult", "Preferred Airline", "Airline Preference",
    "Make", "Brand", "Area of Study", "Field of Work", "Title", "Job Title",
)


@st.composite
def relations(draw):
    width = draw(st.integers(min_value=1, max_value=6))
    clusters = tuple(f"c{k}" for k in range(width))
    cell = st.one_of(st.none(), st.sampled_from(VOCABULARY))
    rows = draw(
        st.lists(st.tuples(*[cell] * width), min_size=1, max_size=10)
    )
    # Duplicate rows (same labels, another interface) are kept on purpose.
    if draw(st.booleans()):
        rows += draw(st.lists(st.sampled_from(rows), max_size=3))
    return [
        GroupTuple(interface=f"i{k}", labels=labels, clusters=clusters)
        for k, labels in enumerate(rows)
    ]


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    relations(),
    st.sampled_from(list(ConsistencyLevel)),
    st.sampled_from([1, 2, 3, 7, 50, CLOSURE_LIMIT]),
)
def test_kernel_matches_reference_on_random_relations(tuples, level, limit):
    assert _view(combine_closure(tuples, level, COMPARATOR, limit)) == _view(
        _reference_closure(tuples, level, COMPARATOR, limit)
    )


# ----------------------------------------------------------------------
# Every closure the pipeline runs on the evaluation corpus.
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def corpus_closures():
    """``domain -> [(tuples, level, comparator)]`` for every closure run."""
    recorded: dict[str, list] = {}
    run = consistency.combine_closure
    domain = None

    def record(tuples, level, comparator, limit=CLOSURE_LIMIT):
        recorded[domain].append((list(tuples), level, comparator))
        return run(tuples, level, comparator, limit)

    patch = pytest.MonkeyPatch()
    patch.setattr(consistency, "combine_closure", record)
    try:
        for domain in DOMAINS:
            recorded[domain] = []
            engine = LabelingEngine(cache_size=0)
            for seed in SEEDS:
                assert engine.label({"domain": domain, "seed": seed})["ok"]
    finally:
        patch.undo()
    return recorded


@pytest.mark.parametrize("domain", DOMAINS)
@pytest.mark.parametrize("limit", [CLOSURE_LIMIT, 64])
def test_kernel_matches_reference_on_corpus(corpus_closures, domain, limit):
    closures = corpus_closures[domain]
    assert closures
    for tuples, level, comparator in closures:
        assert _view(combine_closure(tuples, level, comparator, limit)) == _view(
            _reference_closure(tuples, level, comparator, limit)
        )


# ----------------------------------------------------------------------
# The cap is visible: a metrics counter and a trace event.
# ----------------------------------------------------------------------


def _closure_events(trace: Trace) -> list:
    return [
        event
        for span in trace.root.iter_spans()
        for event in span.events
        if event["name"] == "closure.truncated"
    ]


def test_capped_job_closure_is_counted_and_traced():
    engine = LabelingEngine(cache_size=0)
    trace = Trace()
    with trace.scope():
        assert engine.label({"domain": "job", "seed": 0})["ok"]
    closures = engine.stats()["semantics"]["closures"]
    assert closures["runs"] >= 1
    assert closures["truncated"] >= 1
    events = _closure_events(trace)
    assert len(events) == closures["truncated"]
    assert all(e["attrs"]["tuples"] >= CLOSURE_LIMIT for e in events)
    assert all(e["attrs"]["rows"] >= 1 for e in events)


def test_uncapped_airline_closures_report_no_truncation():
    engine = LabelingEngine(cache_size=0)
    trace = Trace()
    with trace.scope():
        assert engine.label({"domain": "airline", "seed": 0})["ok"]
    closures = engine.stats()["semantics"]["closures"]
    assert closures["runs"] >= 1
    assert closures["truncated"] == 0
    assert _closure_events(trace) == []
