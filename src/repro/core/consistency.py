"""Consistency levels, Combine/Combine*, and tuple partitioning (Sec. 4.1).

Implements:

* **Definition 2** — the three levels of naming consistency between rows of
  a group relation: *string*, *equality*, *synonymy*.  Levels are cumulative
  (string-equal labels are also equal; equal labels also count at the
  synonymy level), matching the algorithm's level-relaxation ladder.
* **Definition 3** — the ``Combine`` operator and its closure ``Combine*``.
* **Section 4.1.1** — the graph-oriented closure computation: vertices are
  rows, edges join consistent rows, and each connected component is a
  *partition* that both identifies a set of clusters a consistent solution
  can cover and confines the rows the solution may draw from.
* **Proposition 1** — a consistent naming solution for a group exists iff
  some partition covers all its clusters; :func:`solutions_of_partition`
  realizes the constructive direction (closure first, spanning-tree merge as
  the linear-time fallback the paper describes in Section 4.2.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

from ..obs.tracer import event as obs_event
from .group_relation import GroupRelation, GroupTuple
from .semantics import LabelRelation, SemanticComparator

__all__ = [
    "ConsistencyLevel",
    "Partition",
    "tuples_consistent",
    "combine",
    "combine_closure",
    "find_partitions",
    "covering_partitions",
    "solutions_of_partition",
]

#: Safety bound on the Combine* closure, so adversarial inputs cannot blow
#: up memory.  The evaluation corpus does reach it: the job domain's largest
#: group stops here on every seed tested, and its solutions then depend on
#: the cap (each stop is counted and traced; see :func:`combine_closure`).
CLOSURE_LIMIT = 4096


class ConsistencyLevel(IntEnum):
    """Definition 2's ladder, in the order the algorithm relaxes it."""

    STRING = 1
    EQUALITY = 2
    SYNONYMY = 3


def _labels_consistent(
    a: str, b: str, level: ConsistencyLevel, comparator: SemanticComparator
) -> bool:
    """Two non-null labels witness consistency at ``level`` (cumulative).

    Definition 2's ladder, answered from the comparator's memoised
    strongest relation: string-equality witnesses every level, equality
    witnesses EQUALITY and up, synonymy witnesses SYNONYMY.  Equivalent to
    checking ``string_equal`` / ``equal`` / ``synonym`` in turn, because
    ``relation_between`` tries those exact predicates strongest-first.
    """
    relation = comparator.relation_between(a, b)
    if relation is LabelRelation.STRING_EQUAL:
        return True
    if relation is LabelRelation.EQUAL:
        return level >= ConsistencyLevel.EQUALITY
    if relation is LabelRelation.SYNONYM:
        return level >= ConsistencyLevel.SYNONYMY
    return False


def tuples_consistent(
    s: GroupTuple,
    t: GroupTuple,
    level: ConsistencyLevel,
    comparator: SemanticComparator,
    clusters: tuple[str, ...] | None = None,
) -> bool:
    """Definition 2: rows ``s`` and ``t`` are consistent at ``level`` when
    some cluster (of ``clusters``, default all) carries witnessing labels."""
    columns = clusters if clusters is not None else s.clusters
    for cluster in columns:
        a = s.label_for(cluster)
        b = t.label_for(cluster)
        if a is None or b is None:
            continue
        if _labels_consistent(a, b, level, comparator):
            return True
    return False


def combine(r: GroupTuple, s: GroupTuple) -> GroupTuple:
    """Definition 3: the non-null components of ``r`` plus those of ``s``
    where ``r`` is null."""
    if r.clusters != s.clusters:
        raise ValueError("Combine requires tuples over the same clusters")
    merged = tuple(
        rv if rv is not None else sv for rv, sv in zip(r.labels, s.labels)
    )
    return GroupTuple(
        interface=f"{r.interface}+{s.interface}", labels=merged, clusters=r.clusters
    )


@dataclass
class Partition:
    """A connected component of the consistency graph (Section 4.1.1)."""

    tuples: list[GroupTuple]
    level: ConsistencyLevel

    @property
    def covered_clusters(self) -> frozenset[str]:
        """Union of the non-null cluster sets of the component's rows."""
        covered: set[str] = set()
        for t in self.tuples:
            covered.update(t.non_null_clusters())
        return frozenset(covered)

    def covers(self, clusters) -> bool:
        return frozenset(clusters) <= self.covered_clusters

    def interface_names(self) -> frozenset[str]:
        return frozenset(t.interface for t in self.tuples)

    def __len__(self) -> int:
        return len(self.tuples)


def find_partitions(
    relation: GroupRelation,
    level: ConsistencyLevel,
    comparator: SemanticComparator,
    clusters: tuple[str, ...] | None = None,
) -> list[Partition]:
    """All maximal partitions of the relation's rows at ``level``.

    Connected components of the undirected graph whose vertices are rows and
    whose edges join consistent rows (restricted to ``clusters`` when given).
    """
    rows = list(relation.tuples)
    n = len(rows)
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i: int, j: int) -> None:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[rj] = ri

    for i in range(n):
        for j in range(i + 1, n):
            if tuples_consistent(rows[i], rows[j], level, comparator, clusters):
                union(i, j)

    components: dict[int, list[GroupTuple]] = {}
    for i, row in enumerate(rows):
        components.setdefault(find(i), []).append(row)
    return [Partition(tuples=members, level=level) for members in components.values()]


def covering_partitions(
    relation: GroupRelation,
    level: ConsistencyLevel,
    comparator: SemanticComparator,
) -> tuple[list[Partition], list[Partition]]:
    """(all partitions, those covering every cluster of the group).

    The second component being non-empty is exactly Proposition 1's
    condition for a consistent naming solution to exist at ``level``.
    """
    partitions = find_partitions(relation, level, comparator)
    covering = [p for p in partitions if p.covers(relation.clusters)]
    return partitions, covering


def combine_closure(
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
    keeping the frontier small.  Tuples come back in discovery order: the
    distinct originals, then breadth-first rounds in which each tuple of the
    last round meets each original, ``Combine(current, original)`` before
    ``Combine(original, current)``.  The walk stops as soon as ``limit``
    tuples exist; such a stop is counted in the comparator's ``closures``
    stats and traced as a ``closure.truncated`` event.

    The walk runs on bitsets.  Each distinct non-null label of each column
    owns one bit, and a tuple is the int of its labels' bits.  Combine only
    copies labels of the originals, so that encoding is closed under Combine
    and one-to-one with :meth:`GroupTuple.key`.  With ``mask`` the bits of
    every label a tuple's non-null columns could hold, Combine is
    ``current | (original & ~current_mask)``; with ``compat`` the bits of
    every label that witnesses Definition 2 against the original's label in
    its column, ``tuples_consistent(current, original)`` is
    ``current & compat != 0``.
    """
    if not tuples:
        return []
    clusters = tuples[0].clusters
    if any(t.clusters != clusters for t in tuples):
        raise ValueError("Combine requires tuples over the same clusters")
    bit_of: list[dict[str, int]] = [{} for _ in clusters]
    next_bit = 1
    for t in tuples:
        for column, label in zip(bit_of, t.labels):
            if label is not None and label not in column:
                column[label] = next_bit
                next_bit <<= 1
    column_masks = [sum(column.values()) for column in bit_of]
    # Argument order as in tuples_consistent(current, original): the
    # candidate label first, the original's second.
    witnesses = [
        {
            label: sum(
                bit
                for other, bit in column.items()
                if _labels_consistent(other, label, level, comparator)
            )
            for label in column
        }
        for column in bit_of
    ]

    # A duplicate row derives nothing its first occurrence has not derived
    # already, so the walk meets each distinct original once.
    distinct: dict[int, GroupTuple] = {}
    originals: list[tuple[int, int, int, str]] = []
    for t in tuples:
        code = mask = compat = 0
        for column, label in enumerate(t.labels):
            if label is not None:
                code |= bit_of[column][label]
                mask |= column_masks[column]
                compat |= witnesses[column][label]
        if code not in distinct:
            distinct[code] = t
            originals.append((code, mask, compat, t.interface))

    codes, names = _closure_walk(originals, limit)
    truncated = len(codes) >= limit
    comparator.closure_counter.record(truncated)
    if truncated:
        obs_event("closure.truncated", tuples=len(codes), rows=len(tuples))

    # Decode each derived code column by column: its bits under a column's
    # mask are one label's bit, or none (a null).
    label_of = [{bit: label for label, bit in column.items()} for column in bit_of]
    order = list(distinct.values())
    for code, name in zip(codes[len(order):], names[len(order):]):
        labels = tuple(map(dict.get, label_of, map(code.__and__, column_masks)))
        order.append(GroupTuple(interface=name, labels=labels, clusters=clusters))
    return order


def _closure_walk(
    originals: list[tuple[int, int, int, str]], limit: int
) -> tuple[list[int], list[str]]:
    """The Combine* walk of :func:`combine_closure` over encoded tuples.

    ``originals`` holds ``(code, mask, compat, interface)`` per distinct
    original row; returns every tuple's code and interface name, in
    discovery order.
    """
    codes = [code for code, _, _, _ in originals]
    masks = [mask for _, mask, _, _ in originals]
    names = [name for _, _, _, name in originals]
    seen = set(codes)

    def add(code: int, mask: int, name: str) -> bool:
        seen.add(code)
        codes.append(code)
        masks.append(mask)
        names.append(name)
        return len(codes) >= limit

    frontier = range(len(codes))
    while frontier and len(codes) < limit:
        start = len(codes)
        for i in frontier:
            current, current_mask, current_name = codes[i], masks[i], names[i]
            for code, mask, compat, name in originals:
                if not current & compat:
                    continue
                merged = current | (code & ~current_mask)
                if merged not in seen and add(
                    merged, current_mask | mask, f"{current_name}+{name}"
                ):
                    return codes, names
                merged = code | (current & ~mask)
                if merged not in seen and add(
                    merged, current_mask | mask, f"{name}+{current_name}"
                ):
                    return codes, names
        frontier = range(start, len(codes))
    return codes, names


def _spanning_tree_merge(
    partition: Partition,
    comparator: SemanticComparator,
) -> GroupTuple:
    """Linear-time solution: Combine along a spanning tree of the component.

    "If the time to retrieve a consistent solution is an issue then one can
    always be found in linear time by applying the Combine operator along a
    spanning tree of the connected component." (Section 4.2.1)
    """
    remaining = list(partition.tuples)
    merged = remaining.pop(0)
    while remaining:
        # Pick a neighbor consistent with some already-merged original row —
        # the component is connected, so one always exists.
        for candidate in remaining:
            if tuples_consistent(merged, candidate, partition.level, comparator):
                merged = combine(merged, candidate)
                remaining.remove(candidate)
                break
        else:
            # Merged labels may mask the witnessing ones; force the union —
            # the component being connected guarantees the paper's semantics.
            candidate = remaining.pop(0)
            merged = combine(merged, candidate)
    return merged


def solutions_of_partition(
    partition: Partition,
    clusters: tuple[str, ...],
    comparator: SemanticComparator,
    limit: int = CLOSURE_LIMIT,
) -> list[GroupTuple]:
    """Tuple-solutions (Definition 4) for ``clusters`` from ``partition``.

    Returns every complete tuple (no nulls over ``clusters``) in the
    Combine* closure; when the closure yields none but the partition covers
    the clusters, falls back to the spanning-tree merge so Proposition 1's
    constructive direction always holds.
    """
    projected = [t.project(clusters) for t in partition.tuples]
    projected = [t for t in projected if t.non_null_count() > 0]
    if not projected:
        return []
    closure = combine_closure(projected, partition.level, comparator, limit)
    complete = [t for t in closure if t.is_complete()]
    if complete:
        return complete
    covered: set[str] = set()
    for t in projected:
        covered.update(t.non_null_clusters())
    if frozenset(clusters) <= covered:
        merged = _spanning_tree_merge(
            Partition(tuples=projected, level=partition.level), comparator
        )
        if merged.is_complete():
            return [merged]
    return []
