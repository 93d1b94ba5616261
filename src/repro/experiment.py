"""End-to-end experiment driver: one call per Table 6 row.

:func:`run_domain` chains the whole system — corpus generation, 1:m
reduction, merge, naming, metrics, survey — and returns a
:class:`DomainRunResult` with every number Table 6 reports for the domain.
:func:`run_all_domains` produces the full table.  The benchmarks, the
examples and the integration tests all go through this module so they
cannot drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core.inference import InferenceLog
from .core.metrics import (
    IntegratedStats,
    fields_consistency_accuracy,
    integrated_stats,
    internal_nodes_accuracy,
    labeling_quality,
)
from .core.pipeline import NamingOptions, label_integrated_interface
from .core.result import LabelingResult
from .core.semantics import SemanticComparator
from .datasets.generator import DomainDataset
from .datasets.registry import DOMAINS, load_domain
from .survey.study import StudyResult, run_study

__all__ = ["DomainRunResult", "SeedSweepRow", "run_all_domains", "run_domain", "sweep_seeds"]


@dataclass
class DomainRunResult:
    """Everything Table 6 reports for one domain, plus the raw objects."""

    domain: str
    dataset: DomainDataset
    labeling: LabelingResult
    study: StudyResult

    # Source-side characteristics (columns 2-5).
    avg_leaves: float = 0.0
    avg_internal_nodes: float = 0.0
    avg_depth: float = 0.0
    lq: float = 0.0

    # Integrated-interface characteristics (columns 6-13).
    integrated: IntegratedStats | None = None

    # Quality metrics (columns 12-15).
    fld_acc: float = 0.0
    int_acc: float = 0.0

    @property
    def ha(self) -> float:
        return self.study.ha

    @property
    def ha_star(self) -> float:
        return self.study.ha_star

    @property
    def classification(self) -> str:
        return self.labeling.classification.value

    @property
    def inference_log(self) -> InferenceLog:
        return self.labeling.inference_log


def run_domain(
    name: str,
    seed: int = 0,
    options: NamingOptions | None = None,
    comparator: SemanticComparator | None = None,
    respondent_count: int = 11,
) -> DomainRunResult:
    """Generate, merge, name and survey one domain end to end."""
    comparator = comparator or SemanticComparator()
    dataset = load_domain(name, seed=seed)
    integrated_root = dataset.integrated()
    labeling = label_integrated_interface(
        integrated_root,
        dataset.interfaces,
        dataset.mapping,
        comparator=comparator,
        options=options,
        domain=name,
    )
    study = run_study(
        labeling,
        dataset.mapping,
        comparator,
        respondent_count=respondent_count,
        seed=seed,
    )
    interfaces = dataset.interfaces
    run = DomainRunResult(
        domain=name,
        dataset=dataset,
        labeling=labeling,
        study=study,
        avg_leaves=sum(qi.leaf_count() for qi in interfaces) / len(interfaces),
        avg_internal_nodes=(
            sum(qi.internal_node_count() for qi in interfaces) / len(interfaces)
        ),
        avg_depth=sum(qi.depth() for qi in interfaces) / len(interfaces),
        lq=labeling_quality(interfaces),
        integrated=integrated_stats(labeling),
        fld_acc=fields_consistency_accuracy(labeling),
        int_acc=internal_nodes_accuracy(labeling),
    )
    return run


class _DomainTask:
    """One ``run_domain`` call as a picklable zero-argument callable.

    The process executor ships tasks to worker interpreters by pickling,
    which rules out closures — this class carries the same bindings as the
    thread path's lambda.  Inside a pool worker the warm comparator built
    by :func:`repro.service.parallel.init_worker` (around the compiled
    lexicon) is reused; outside one, a fresh comparator is built per task,
    exactly like the thread path.  Both answer from a compiled lexicon of
    the same content, so results do not depend on where the task ran.
    """

    __slots__ = ("name", "seed", "options", "respondent_count")

    def __init__(self, name, seed, options, respondent_count) -> None:
        self.name = name
        self.seed = seed
        self.options = options
        self.respondent_count = respondent_count

    def __call__(self) -> DomainRunResult:
        from .service.parallel import worker_comparator

        return run_domain(
            self.name,
            seed=self.seed,
            options=self.options,
            comparator=worker_comparator() or SemanticComparator(),
            respondent_count=self.respondent_count,
        )


def run_all_domains(
    seed: int = 0,
    options: NamingOptions | None = None,
    respondent_count: int = 11,
    jobs: int = 1,
    executor: str = "thread",
) -> dict[str, DomainRunResult]:
    """All seven Table 6 rows, in the paper's order.

    ``jobs > 1`` fans the domains over the service layer's batch executor
    (:func:`repro.service.engine.execute_batch`); each worker labels with
    its own comparator, so results are identical to the sequential path —
    the default ``jobs=1`` keeps today's byte-for-byte behavior.
    ``executor="process"`` uses worker processes instead of threads (each
    warmed once with the compiled lexicon); the pipeline is deterministic,
    so all three paths yield identical tables.
    """
    from .service.parallel import validate_executor

    validate_executor(executor)
    if jobs <= 1:
        comparator = SemanticComparator()
        return {
            name: run_domain(
                name,
                seed=seed,
                options=options,
                comparator=comparator,
                respondent_count=respondent_count,
            )
            for name in DOMAINS
        }

    from .service.engine import execute_batch

    names = list(DOMAINS)
    tasks = [
        _DomainTask(name, seed, options, respondent_count) for name in names
    ]
    outcomes = execute_batch(tasks, jobs=jobs, executor=executor)
    failed = [
        f"{name}: {outcome.error}"
        for name, outcome in zip(names, outcomes)
        if not outcome.ok
    ]
    if failed:
        raise RuntimeError("run_all_domains failed: " + "; ".join(failed))
    return {name: outcome.value for name, outcome in zip(names, outcomes)}


@dataclass
class SeedSweepRow:
    """Aggregate metrics for one domain across a seed sweep."""

    domain: str
    seeds: tuple[int, ...]
    fld_acc_mean: float
    fld_acc_min: float
    int_acc_mean: float
    int_acc_min: float
    ha_mean: float
    classifications: dict[str, int]

    def dominant_classification(self) -> str:
        return max(self.classifications.items(), key=lambda kv: kv[1])[0]


def sweep_seeds(
    seeds=(0, 1, 2, 3, 4),
    options: NamingOptions | None = None,
    respondent_count: int = 5,
) -> dict[str, SeedSweepRow]:
    """Run every domain over several corpus seeds and aggregate.

    The reference corpus (seed 0) plays the role of the paper's one fixed
    crawl; the sweep shows the headline metrics are not a single lucky
    draw.  Used by the robustness benchmark and the ``sweep`` CLI command.
    """
    per_domain: dict[str, list[DomainRunResult]] = {name: [] for name in DOMAINS}
    for seed in seeds:
        for name, run in run_all_domains(
            seed=seed, options=options, respondent_count=respondent_count
        ).items():
            per_domain[name].append(run)

    rows: dict[str, SeedSweepRow] = {}
    for name, runs in per_domain.items():
        classifications: dict[str, int] = {}
        for run in runs:
            classifications[run.classification] = (
                classifications.get(run.classification, 0) + 1
            )
        fld = [r.fld_acc for r in runs]
        internal = [r.int_acc for r in runs]
        rows[name] = SeedSweepRow(
            domain=name,
            seeds=tuple(seeds),
            fld_acc_mean=sum(fld) / len(fld),
            fld_acc_min=min(fld),
            int_acc_mean=sum(internal) / len(internal),
            int_acc_min=min(internal),
            ha_mean=sum(r.ha for r in runs) / len(runs),
            classifications=classifications,
        )
    return rows
