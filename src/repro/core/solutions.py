"""Extracting naming solutions for groups (Sections 4.2 and 4.3).

The group-naming algorithm proceeds down the consistency ladder: string,
then equality, then synonymy level.  At the first level where a partition
covers every cluster of the group, each such partition yields its
tuple-solutions (via ``Combine*``); the preferred one maximizes
*expressiveness* (number of distinct content words across the labels),
breaking ties by *frequency of occurrence* (how many interfaces supply the
row — candidate solutions only) and finally deterministically.

When no level admits a covering partition, the greedy *partially consistent*
construction of Section 4.2.2 concatenates per-partition solutions, largest
first.

The result object mirrors Section 4.3: "the naming algorithm returns a set
of pairs (p, CLabels)" — partition plus labels — so the tree-level phase can
later pick the pair that correlates best with internal-node labels.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..schema.groups import Group
from .consistency import (
    ConsistencyLevel,
    Partition,
    find_partitions,
    solutions_of_partition,
)
from .group_relation import GroupRelation, GroupTuple
from .label import LabelAnalyzer
from .semantics import GROUP_CACHE_LIMIT, SemanticComparator

__all__ = ["GroupSolution", "GroupNamingResult", "rank_tuple_solutions", "name_group"]


@dataclass
class GroupSolution:
    """One (partition, labels) pair for a group.

    ``partition`` is ``None`` exactly when the labels form a *partially
    consistent* solution stitched from several partitions (Section 4.2.2);
    Definition 6 consistency checks against internal-node labels only apply
    when a partition is present.
    """

    group: Group
    labels: dict[str, str | None]
    level: ConsistencyLevel | None
    partition: Partition | None
    expressiveness: int = 0
    frequency: int = 0
    is_candidate: bool = False

    @property
    def is_consistent(self) -> bool:
        return self.partition is not None

    def label_for(self, cluster: str) -> str | None:
        return self.labels.get(cluster)

    def supplying_interfaces(self) -> frozenset[str]:
        if self.partition is None:
            return frozenset()
        return self.partition.interface_names()


@dataclass
class GroupNamingResult:
    """Outcome of naming one group: its relation, all solution pairs, flags."""

    group: Group
    relation: GroupRelation
    solutions: list[GroupSolution] = field(default_factory=list)
    consistent: bool = False
    level: ConsistencyLevel | None = None

    @property
    def best(self) -> GroupSolution | None:
        return self.solutions[0] if self.solutions else None

    def solution_for_partition(self, interfaces: frozenset[str]) -> GroupSolution | None:
        """A solution whose partition contains all of ``interfaces``."""
        for solution in self.solutions:
            if solution.partition is None:
                continue
            if interfaces <= solution.supplying_interfaces():
                return solution
        return None


def _expressiveness(labels: tuple[str | None, ...], analyzer: LabelAnalyzer) -> int:
    """Distinct content words across a tuple-solution's labels (Sec. 4.2.1)."""
    stems: set[str] = set()
    for text in labels:
        if text is None:
            continue
        stems.update(analyzer.label(text).stems)
    return len(stems)


def rank_tuple_solutions(
    tuple_solutions: list[GroupTuple],
    relation: GroupRelation,
    analyzer: LabelAnalyzer,
) -> list[tuple[GroupTuple, int, int, bool]]:
    """Rank tuple-solutions by (expressiveness desc, frequency desc, key).

    Returns ``(tuple, expressiveness, frequency, is_candidate)`` quadruples.
    Frequency only differentiates candidate solutions (rows present in the
    relation); derived rows get frequency 0.
    """
    ranked = []
    for t in tuple_solutions:
        freq = relation.frequency_of(t.key())
        ranked.append(
            (t, _expressiveness(t.labels, analyzer), freq, freq > 0)
        )
    ranked.sort(
        key=lambda item: (
            -item[1],
            -item[2],
            tuple(v or "" for v in item[0].key()),
        )
    )
    return ranked


def _labelable_clusters(relation: GroupRelation) -> tuple[str, ...]:
    """Clusters some source actually labels.

    A cluster unlabeled on *every* source (the Real-Estate Lease-Rate case)
    cannot receive a label by any algorithm; consistency is judged — as the
    paper's Section 7 does — over the clusters that can be labeled, and the
    impossible one stays null (and is charged to FldAcc, not to Def. 8).
    """
    return tuple(
        c
        for c in relation.clusters
        if any(t.label_for(c) is not None for t in relation.tuples)
    )


def _solutions_at_level(
    relation: GroupRelation,
    labelable: tuple[str, ...],
    level: ConsistencyLevel,
    comparator: SemanticComparator,
    analyzer: LabelAnalyzer,
) -> list[GroupSolution]:
    """All ranked solutions from covering partitions at ``level`` (or [])."""
    partitions = find_partitions(relation, level, comparator)
    covering = [p for p in partitions if p.covers(labelable)]
    solutions: list[GroupSolution] = []
    for partition in covering:
        tuple_solutions = solutions_of_partition(partition, labelable, comparator)
        for t, expr, freq, is_cand in rank_tuple_solutions(
            tuple_solutions, relation, analyzer
        ):
            labels: dict[str, str | None] = {c: None for c in relation.clusters}
            labels.update(zip(labelable, t.labels))
            solutions.append(
                GroupSolution(
                    group=relation.group,
                    labels=labels,
                    level=level,
                    partition=partition,
                    expressiveness=expr,
                    frequency=freq,
                    is_candidate=is_cand,
                )
            )
    solutions.sort(key=lambda s: (-s.expressiveness, -s.frequency))
    return solutions


def _best_partition_solution(
    partition: Partition,
    relation: GroupRelation,
    comparator: SemanticComparator,
    analyzer: LabelAnalyzer,
) -> GroupTuple | None:
    """Best tuple-solution of ``partition`` over the clusters it covers."""
    covered = tuple(
        c for c in relation.clusters if c in partition.covered_clusters
    )
    if not covered:
        return None
    tuple_solutions = solutions_of_partition(partition, covered, comparator)
    if not tuple_solutions:
        return None
    ranked = rank_tuple_solutions(tuple_solutions, relation, analyzer)
    best = ranked[0][0]
    # Re-expand to the full cluster tuple with nulls outside the coverage.
    labels = tuple(
        best.label_for(c) if c in covered else None for c in relation.clusters
    )
    return GroupTuple(interface=best.interface, labels=labels, clusters=relation.clusters)


def _partially_consistent(
    relation: GroupRelation,
    comparator: SemanticComparator,
    analyzer: LabelAnalyzer,
) -> GroupSolution:
    """Greedy concatenation of per-partition solutions (Section 4.2.2)."""
    partitions = find_partitions(relation, ConsistencyLevel.SYNONYMY, comparator)
    per_partition: list[GroupTuple] = []
    for partition in partitions:
        best = _best_partition_solution(partition, relation, comparator, analyzer)
        if best is not None:
            per_partition.append(best)
    per_partition.sort(
        key=lambda t: (
            -t.non_null_count(),
            -_expressiveness(t.labels, analyzer),
            tuple(v or "" for v in t.key()),
        )
    )

    labels: dict[str, str | None] = {c: None for c in relation.clusters}
    for t in per_partition:
        if all(v is not None for v in labels.values()):
            break
        for cluster in relation.clusters:
            if labels[cluster] is None:
                labels[cluster] = t.label_for(cluster)

    return GroupSolution(
        group=relation.group,
        labels=labels,
        level=None,
        partition=None,
        expressiveness=_expressiveness(tuple(labels.values()), analyzer),
    )


def _relation_fingerprint(
    relation: GroupRelation, max_level: ConsistencyLevel
) -> tuple:
    """Everything ``name_group``'s output depends on besides the lexicon.

    The group's identity (name, kind, clusters) plus the relation's rows in
    order, plus the ladder truncation.  Two relations with equal
    fingerprints produce equal naming results under the same lexicon,
    which is what makes the comparator's group-result memo sound.
    """
    group = relation.group
    return (
        group.name,
        group.kind,
        group.clusters,
        relation.clusters,
        tuple((t.interface, t.labels) for t in relation.tuples),
        max_level,
    )


def _copy_group_result(result: GroupNamingResult) -> GroupNamingResult:
    """A mutation-safe copy of a naming result.

    Downstream phases mutate exactly one thing: homonym repair rewrites the
    chosen solution's ``labels`` dict in place.  Fresh ``GroupSolution``
    shells with copied label dicts protect the memoised master; partitions
    and the relation are read-only after construction and stay shared.
    """
    solutions = [
        GroupSolution(
            group=s.group,
            labels=dict(s.labels),
            level=s.level,
            partition=s.partition,
            expressiveness=s.expressiveness,
            frequency=s.frequency,
            is_candidate=s.is_candidate,
        )
        for s in result.solutions
    ]
    return GroupNamingResult(
        group=result.group,
        relation=result.relation,
        solutions=solutions,
        consistent=result.consistent,
        level=result.level,
    )


def name_group(
    relation: GroupRelation,
    comparator: SemanticComparator,
    analyzer: LabelAnalyzer | None = None,
    max_level: ConsistencyLevel = ConsistencyLevel.SYNONYMY,
) -> GroupNamingResult:
    """Name one group: walk the consistency ladder, else go partial.

    ``max_level`` exists for the ablation experiments (truncating the ladder
    at STRING or EQUALITY); the paper's algorithm uses the full ladder.

    Results are memoised on the comparator keyed by the relation's content
    fingerprint: repeated labeling of the same domain (the service's steady
    state) skips the whole ladder/closure computation.  The memo lives as
    long as the comparator (whose lexicon never changes) and only engages
    when the ranking analyzer is the comparator's own (a foreign analyzer
    could rank expressiveness differently).
    """
    memo = None
    if analyzer is None or analyzer is comparator.analyzer:
        memo = comparator._group_cache
        fingerprint = _relation_fingerprint(relation, max_level)
        cached = memo.get(fingerprint)
        if cached is not None:
            comparator.group_counter.hit()
            return _copy_group_result(cached)
        comparator.group_counter.miss()

    result = _name_group_uncached(
        relation, comparator, analyzer or comparator.analyzer, max_level
    )
    if memo is not None:
        if len(memo) >= GROUP_CACHE_LIMIT:
            comparator.group_counter.evict(len(memo))
            memo.clear()
        # Store a pristine copy: the caller's copy is theirs to mutate
        # (homonym repair rewrites the chosen solution's labels in place).
        memo[fingerprint] = _copy_group_result(result)
    return result


def _name_group_uncached(
    relation: GroupRelation,
    comparator: SemanticComparator,
    analyzer: LabelAnalyzer,
    max_level: ConsistencyLevel,
) -> GroupNamingResult:
    result = GroupNamingResult(group=relation.group, relation=relation)

    if not relation.tuples:
        # Nobody labels anything in this group: all-null partial solution.
        result.solutions = [
            GroupSolution(
                group=relation.group,
                labels={c: None for c in relation.clusters},
                level=None,
                partition=None,
            )
        ]
        return result

    labelable = _labelable_clusters(relation)
    if labelable:
        for level in ConsistencyLevel:
            if level > max_level:
                break
            solutions = _solutions_at_level(
                relation, labelable, level, comparator, analyzer
            )
            if solutions:
                result.solutions = solutions
                result.consistent = True
                result.level = level
                return result

    result.solutions = [_partially_consistent(relation, comparator, analyzer)]
    result.consistent = False
    return result
