"""Candidate labels for internal nodes — Section 5 (Definitions 5-7, LI1-LI5).

For a global internal node with descendant-leaf cluster set X, every source
internal node whose own descendant leaves map inside X offers its label as a
*potential* label.  A potential label is promoted to a *candidate* when its
*semantic coverage* can be shown to reach all of X, via:

* **LI2** — the same label used across interfaces covers the union of the
  leaf sets it covers in each (the Location panels of Figure 8);
* **LI3 / LI4** — a label that is a Definition-1 hypernym of another absorbs
  the hyponym's coverage; iterated over the hypernymy hierarchy, roots cover
  the union (the "Do you have any preferences?" example);
* **LI5** — coverage extends over a *characterized* (dependent) cluster
  subset: Keywords merely qualifies Make/Model, so Car Information may cover
  it too;
* **LI1** — a label that names a subset of another's leaves yet is its
  Definition-1 hypernym is *semantically equivalent in the domain*
  (Location vs Property Location), so each may borrow the other's coverage.

Definition 6 ties a candidate to group solutions: the candidate is
consistent with a solution S of a descendant group iff the interface it
originates from supplies a row inside S's partition.  Definition 7 then
relates ancestor/descendant internal-node labels (generality + common group
solutions); labels meeting only its generality half are *weakly consistent*.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..schema.clusters import Mapping
from ..schema.interface import QueryInterface
from ..schema.tree import SchemaNode
from .inference import InferenceLog, InferenceRule
from .label import LabelAnalyzer
from .semantics import SemanticComparator
from .solutions import GroupNamingResult, GroupSolution

__all__ = [
    "SourceInternalNode",
    "CandidateLabel",
    "collect_source_internal_nodes",
    "CandidateFinder",
]


@dataclass(frozen=True)
class SourceInternalNode:
    """A labeled internal node of one source interface, cluster-projected."""

    interface: str
    node_name: str
    label: str
    leaf_clusters: frozenset[str]


@dataclass
class CandidateLabel:
    """A label whose semantic coverage reaches a global node's leaf set."""

    text: str
    rule: InferenceRule
    origins: frozenset[str]           # interfaces the label originates from
    coverage: frozenset[str]          # clusters semantically covered
    support: int = 1                  # number of source nodes carrying it

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"CandidateLabel({self.text!r}, {self.rule.value})"


def collect_source_internal_nodes(
    interfaces: list[QueryInterface],
) -> list[SourceInternalNode]:
    """All labeled internal nodes of the sources with their leaf clusters.

    Nodes whose leaves carry no cluster assignments are skipped — they can
    never be placed relative to the integrated tree.
    """
    collected: list[SourceInternalNode] = []
    for interface in interfaces:
        for node in interface.root.internal_nodes():
            if node is interface.root:
                continue
            if not node.is_labeled:
                continue
            clusters = node.descendant_leaf_clusters()
            if not clusters:
                continue
            collected.append(
                SourceInternalNode(
                    interface=interface.name,
                    node_name=node.name,
                    label=node.label,
                    leaf_clusters=clusters,
                )
            )
    return collected


@dataclass
class _PotentialLabel:
    """Working record while coverage is being grown for one global node."""

    text: str
    origins: set[str]
    coverage: set[str]
    support: int
    rule: InferenceRule  # strongest rule used so far to grow coverage


class CandidateFinder:
    """Computes candidate labels for the internal nodes of an integrated tree."""

    def __init__(
        self,
        interfaces: list[QueryInterface],
        mapping: Mapping,
        comparator: SemanticComparator,
        analyzer: LabelAnalyzer | None = None,
        log: InferenceLog | None = None,
        domain: str | None = None,
        enabled_rules: frozenset[InferenceRule] | None = None,
    ) -> None:
        self.interfaces = interfaces
        self.mapping = mapping
        self.comparator = comparator
        self.analyzer = analyzer or comparator.analyzer
        self.log = log if log is not None else InferenceLog()
        self.domain = domain
        self.source_nodes = collect_source_internal_nodes(interfaces)
        if enabled_rules is None:
            enabled_rules = frozenset(InferenceRule)
        self.enabled_rules = enabled_rules
        self._li1_pairs: list[tuple[str, str]] | None = None

    # ------------------------------------------------------------------
    # LI1: in-domain equivalences between source internal-node labels.
    # ------------------------------------------------------------------

    def li1_equivalences(self) -> list[tuple[str, str]]:
        """Pairs of labels made semantically equivalent by LI1.

        v1's leaves ⊆ v2's leaves and label(v1) hypernym label(v2)
        ⟹ the labels are equivalent in this domain of discourse.

        The pairs depend only on the source nodes and the comparator, so
        they are found once per finder, not once per global node.
        """
        if self._li1_pairs is not None:
            return self._li1_pairs
        pairs: list[tuple[str, str]] = []
        if InferenceRule.LI1 in self.enabled_rules:
            for v1 in self.source_nodes:
                for v2 in self.source_nodes:
                    if v1 is v2 or v1.label == v2.label:
                        continue
                    if not v1.leaf_clusters <= v2.leaf_clusters:
                        continue
                    if self.comparator.hypernym(v1.label, v2.label):
                        pairs.append((v1.label, v2.label))
        self._li1_pairs = pairs
        return pairs

    # ------------------------------------------------------------------
    # Candidate computation for one global internal node.
    # ------------------------------------------------------------------

    def candidates_for(self, global_node: SchemaNode) -> list[CandidateLabel]:
        """Candidate labels for ``global_node`` (Section 5.1).

        Returns candidates whose coverage equals the node's full descendant
        cluster set, ranked most-supported/most-descriptive first.
        """
        target = global_node.descendant_leaf_clusters()
        if not target:
            return []

        potentials = self._initial_potentials(target, global_node.name)
        if not potentials:
            return []

        self._apply_li3_li4(potentials, global_node.name)
        self._apply_li1(potentials, global_node.name, target)
        self._apply_li5(potentials, target, global_node.name)

        candidates = [
            CandidateLabel(
                text=p.text,
                rule=p.rule,
                origins=frozenset(p.origins),
                coverage=frozenset(p.coverage),
                support=p.support,
            )
            for p in potentials.values()
            if p.coverage >= target
        ]
        candidates.sort(
            key=lambda c: (
                -c.support,
                -self.analyzer.label(c.text).content_word_count,
                c.text,
            )
        )
        return candidates

    def potential_labels_for(self, global_node: SchemaNode) -> list[str]:
        """The raw potential labels (before coverage analysis) — used by
        Definition 8's inconsistency test."""
        target = global_node.descendant_leaf_clusters()
        return sorted(
            {
                sn.label
                for sn in self.source_nodes
                if sn.leaf_clusters and sn.leaf_clusters <= target
            }
        )

    # ------------------------------------------------------------------
    # Internals.
    # ------------------------------------------------------------------

    def _initial_potentials(
        self, target: frozenset[str], node_name: str
    ) -> dict[str, _PotentialLabel]:
        """LI2 seeding: same-label source nodes pool their coverage."""
        potentials: dict[str, _PotentialLabel] = {}
        for sn in self.source_nodes:
            if not sn.leaf_clusters <= target:
                continue
            entry = potentials.get(sn.label)
            if entry is None:
                potentials[sn.label] = _PotentialLabel(
                    text=sn.label,
                    origins={sn.interface},
                    coverage=set(sn.leaf_clusters),
                    support=1,
                    rule=InferenceRule.LI2,
                )
            else:
                entry.origins.add(sn.interface)
                entry.coverage.update(sn.leaf_clusters)
                entry.support += 1
        if InferenceRule.LI2 in self.enabled_rules:
            for entry in potentials.values():
                if entry.support > 1 and entry.coverage >= target:
                    self.log.record(
                        InferenceRule.LI2,
                        domain=self.domain,
                        node=node_name,
                        label=entry.text,
                        detail=f"union over {entry.support} source nodes",
                    )
        else:
            # With LI2 disabled a label only covers what a single source
            # node covers: keep the largest single coverage.
            for sn in self.source_nodes:
                if not sn.leaf_clusters <= target:
                    continue
                entry = potentials[sn.label]
                if len(sn.leaf_clusters) > 0:
                    entry.coverage = set(
                        max(
                            (
                                other.leaf_clusters
                                for other in self.source_nodes
                                if other.label == sn.label
                                and other.leaf_clusters <= target
                            ),
                            key=len,
                        )
                    )
        return potentials

    def _apply_li3_li4(
        self, potentials: dict[str, _PotentialLabel], node_name: str
    ) -> None:
        """Propagate coverage up Definition-1 hypernymy until fixpoint."""
        if InferenceRule.LI3 not in self.enabled_rules:
            return
        labels = list(potentials)
        changed = True
        absorbed_counts: dict[str, int] = {l: 0 for l in labels}
        while changed:
            changed = False
            for general in labels:
                for specific in labels:
                    if general == specific:
                        continue
                    if not self.comparator.hypernym(general, specific):
                        continue
                    before = len(potentials[general].coverage)
                    potentials[general].coverage.update(potentials[specific].coverage)
                    if len(potentials[general].coverage) > before:
                        changed = True
                        absorbed_counts[general] += 1
        for label, count in absorbed_counts.items():
            if count == 0:
                continue
            rule = (
                InferenceRule.LI4
                if count >= 2 and InferenceRule.LI4 in self.enabled_rules
                else InferenceRule.LI3
            )
            potentials[label].rule = rule
            self.log.record(
                rule,
                domain=self.domain,
                node=node_name,
                label=label,
                detail=f"absorbed {count} hyponym coverage(s)",
            )

    def _apply_li1(
        self,
        potentials: dict[str, _PotentialLabel],
        node_name: str,
        target: frozenset[str],
    ) -> None:
        """Equivalent-in-domain labels (LI1) share their coverage."""
        if InferenceRule.LI1 not in self.enabled_rules:
            return
        for label_a, label_b in self.li1_equivalences():
            if label_a in potentials and label_b in potentials:
                merged = potentials[label_a].coverage | potentials[label_b].coverage
                grew_a = merged > potentials[label_a].coverage
                grew_b = merged > potentials[label_b].coverage
                if not (grew_a or grew_b):
                    continue
                potentials[label_a].coverage = set(merged)
                potentials[label_b].coverage = set(merged)
                for label, grew in ((label_a, grew_a), (label_b, grew_b)):
                    if grew:
                        potentials[label].rule = InferenceRule.LI1
                        self.log.record(
                            InferenceRule.LI1,
                            domain=self.domain,
                            node=node_name,
                            label=label,
                            detail=f"equivalent in domain to {label_b if label == label_a else label_a!r}",
                        )

    # -- LI5 -----------------------------------------------------------

    def _apply_li5(
        self,
        potentials: dict[str, _PotentialLabel],
        target: frozenset[str],
        node_name: str,
    ) -> None:
        """Extend coverage over characterized (dependent) cluster subsets."""
        if InferenceRule.LI5 not in self.enabled_rules:
            return
        for entry in potentials.values():
            missing = target - entry.coverage
            if not missing or not entry.coverage & target:
                continue
            if self._characterized_by(missing, entry.coverage & target):
                entry.coverage.update(missing)
                entry.rule = InferenceRule.LI5
                self.log.record(
                    InferenceRule.LI5,
                    domain=self.domain,
                    node=node_name,
                    label=entry.text,
                    detail=f"extended over dependent clusters {sorted(missing)}",
                )

    def _characterized_by(self, z: set[str], y: set[str]) -> bool:
        """LI5's premise: clusters ``z`` are characterized by a subset of ``y``.

        Condition 1: instances of the fields in Z ⊆ instances of fields in Y.
        Condition 2: some source internal node v has leaf clusters W ∪ Z with
        W ⊆ Y, and the content words of v's label are a subset of the content
        words of the labels of the fields in W.
        """
        z_instances = self._cluster_instances(z)
        if z_instances:
            y_instances = self._cluster_instances(y)
            if z_instances <= y_instances:
                return True
        for sn in self.source_nodes:
            w = sn.leaf_clusters - frozenset(z)
            if not w or not (w <= y) or not (frozenset(z) <= sn.leaf_clusters):
                continue
            label_stems = self.analyzer.label(sn.label).stems
            if not label_stems:
                continue
            w_stems: set[str] = set()
            for cluster_name in w:
                if cluster_name not in self.mapping:
                    continue
                for field_label in self.mapping[cluster_name].labels():
                    w_stems.update(self.analyzer.label(field_label).stems)
            if label_stems <= w_stems:
                return True
        return False

    def _cluster_instances(self, clusters: set[str]) -> frozenset[str]:
        values: set[str] = set()
        for name in clusters:
            if name in self.mapping:
                values.update(
                    v.lower() for v in self.mapping[name].instances_union()
                )
        return frozenset(values)

    # ------------------------------------------------------------------
    # Definition 7: consistency between ancestor/descendant labels.
    # ------------------------------------------------------------------

    def definition7_consistent(
        self,
        ancestor: "CandidateLabel",
        descendant: "CandidateLabel",
        common_groups: list[GroupNamingResult],
    ) -> bool:
        """Definition 7 for two candidate labels of nested global nodes.

        (1) the ancestor's label must be semantically at least as general
        as the descendant's — witnessed either lexically (Definition 1 /
        Definition 5(i)) or structurally, by the ancestor's semantic
        coverage containing the descendant's (Definition 5(ii), which for
        full candidates of nested nodes holds by construction);
        (2) some solution of every common descendant group must be
        consistent (Definition 6) with both labels.

        Labels meeting only condition (1) are *weakly consistent*.
        """
        generality = (
            descendant.coverage <= ancestor.coverage
            or self.comparator.at_least_as_general(ancestor.text, descendant.text)
        )
        if not generality:
            return False
        for group_result in common_groups:
            if not any(
                self.candidate_consistent_with_solution(ancestor, group_result, s)
                and self.candidate_consistent_with_solution(
                    descendant, group_result, s
                )
                for s in group_result.solutions
            ):
                return False
        return True

    def weakly_consistent_pair(
        self,
        ancestor: "CandidateLabel",
        descendant: "CandidateLabel",
    ) -> bool:
        """Definition 7's first condition alone (the weak form)."""
        return (
            descendant.coverage <= ancestor.coverage
            or self.comparator.at_least_as_general(ancestor.text, descendant.text)
        )

    # ------------------------------------------------------------------
    # Definition 6: candidate/group-solution consistency.
    # ------------------------------------------------------------------

    def candidate_consistent_with_solution(
        self,
        candidate: CandidateLabel,
        group_result: GroupNamingResult,
        solution: GroupSolution,
    ) -> bool:
        """Definition 6 for one descendant group.

        The candidate is consistent with solution S when some origin
        interface's row in the group relation belongs to S's partition.
        An origin that supplies no row imposes no constraint.
        """
        if solution.partition is None:
            return False  # partially consistent solutions support nobody
        partition_interfaces = solution.supplying_interfaces()
        unconstrained = True
        for origin in candidate.origins:
            row = group_result.relation.tuple_of(origin)
            if row is None:
                continue
            unconstrained = False
            if origin in partition_interfaces:
                return True
        return unconstrained
