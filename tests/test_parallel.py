"""The process-parallel batch backend: equivalence, isolation, fallback.

The contract under test: ``executor="process"`` is a pure performance
knob.  Same responses and engine counters as the thread backend (modulo
the timing field), same error classification, same stdout for
``repro table6`` byte for byte — and compute stays in-process whenever the
process pool cannot apply (``jobs <= 1``, an active fault plan, a broken
pool).
"""

from __future__ import annotations

import json
import logging
import multiprocessing
import os
import time

import pytest

import repro.service.parallel as parallel
from repro.cli import build_parser, main
from repro.core.label import LabelAnalyzer
from repro.core.semantics import SemanticComparator
from repro.experiment import run_all_domains
from repro.lexicon.data import build_default_wordnet
from repro.resilience import INJECTION_POINTS, BreakerPolicy, FaultPlan, RetryPolicy
from repro.service.engine import LabelingEngine, execute_batch
from repro.service.parallel import (
    EXECUTORS,
    WorkerPool,
    compute_in_worker,
    default_jobs,
    normalize_jobs,
    validate_executor,
)


# Tasks for the raw executor tests must be importable to survive pickling.
class _Square:
    def __init__(self, n):
        self.n = n

    def __call__(self):
        return self.n * self.n


class _Boom:
    def __call__(self):
        raise ValueError("boom")


def _strip_timing(response: dict) -> dict:
    clean = json.loads(json.dumps(response))
    clean.get("stats", {}).pop("elapsed_ms", None)
    clean.pop("elapsed_ms", None)
    return clean


# ----------------------------------------------------------------------
# The shared --jobs default + executor validation.
# ----------------------------------------------------------------------


def test_default_jobs_is_cpu_derived_and_bounded():
    jobs = default_jobs()
    assert 1 <= jobs <= 8
    assert jobs == default_jobs()  # deterministic


def test_cli_jobs_defaults_are_unified():
    parser = build_parser()
    batch = parser.parse_args(["batch", "x.json"])
    serve = parser.parse_args(["serve"])
    chaos = parser.parse_args(["chaos"])
    assert batch.jobs == serve.jobs == chaos.jobs == default_jobs()
    # table6 stays sequential by default: its default output is the
    # byte-for-byte reference.
    assert parser.parse_args(["table6"]).jobs == 1


def test_cli_executor_flags_exist():
    parser = build_parser()
    for argv in (
        ["table6", "--executor", "process"],
        ["batch", "x.json", "--executor", "process"],
        ["serve", "--executor", "process"],
    ):
        assert parser.parse_args(argv).executor == "process"
        assert parser.parse_args([argv[0], *argv[1:-2]]).executor == "thread"


def test_validate_executor():
    for name in EXECUTORS:
        assert validate_executor(name) == name
    with pytest.raises(ValueError, match="executor"):
        validate_executor("fiber")
    with pytest.raises(ValueError, match="executor"):
        LabelingEngine(executor="fiber")


# ----------------------------------------------------------------------
# execute_batch with the process executor.
# ----------------------------------------------------------------------


def test_execute_batch_process_preserves_order_and_isolation():
    tasks = [_Square(0), _Boom(), _Square(2), _Square(3), _Boom(), _Square(5)]
    outcomes = execute_batch(tasks, jobs=2, executor="process")
    assert [o.ok for o in outcomes] == [True, False, True, True, False, True]
    assert [o.value for o in outcomes if o.ok] == [0, 4, 9, 25]
    for failed in (outcomes[1], outcomes[4]):
        assert failed.error_type == "internal"
        assert "boom" in failed.error
        assert failed.exception is None  # never shipped across the pipe


def test_execute_batch_rejects_unknown_executor():
    with pytest.raises(ValueError, match="executor"):
        execute_batch([_Square(1)], jobs=2, executor="greenlet")


# ----------------------------------------------------------------------
# Engine: process backend == thread backend.
# ----------------------------------------------------------------------


PAYLOADS = [
    {"domain": "airline", "seed": 0},
    {"not-a": "request"},
    {"domain": "book", "seed": 0},
    {"domain": "airline", "seed": 0},  # duplicate: served from cache
]


def test_label_batch_process_matches_thread():
    thread_engine = LabelingEngine(breaker=None)
    process_engine = LabelingEngine(breaker=None)
    thread_results = thread_engine.label_batch(PAYLOADS, jobs=1)
    process_results = process_engine.label_batch(
        PAYLOADS, jobs=2, executor="process"
    )
    assert len(thread_results) == len(process_results)
    for expected, got in zip(thread_results, process_results):
        assert _strip_timing(expected) == _strip_timing(got)
    assert process_results[1]["error_type"] == "invalid_request"
    assert process_results[3]["cached"] is True
    assert thread_engine.stats()["requests"] == process_engine.stats()["requests"]


def test_label_batch_process_default_executor_knob():
    engine = LabelingEngine(breaker=None, jobs=2, executor="process")
    assert engine.stats()["default_executor"] == "process"
    results = engine.label_batch([{"domain": "job", "seed": 0}] * 2)
    assert results[0]["ok"] and results[1]["cached"] is True


# ----------------------------------------------------------------------
# One batch path: both executors give the same answers and counters.
# ----------------------------------------------------------------------


AIRLINE = {"domain": "airline", "seed": 0}
BOOK = {"domain": "book", "seed": 0}

#: Fault points whose firing depends only on the item, not on which memos
#: a sibling thread warmed first (``lexicon.query`` sits behind them).
ITEM_KEYED_POINTS = tuple(p for p in INJECTION_POINTS if p != "lexicon.query")


def _open_book_breaker(engine, monkeypatch):
    engine._breaker_for(engine.parse(BOOK).fingerprint).record_failure()


def _warm_cache_and_forbid_pool(engine, monkeypatch):
    for payload in (AIRLINE, BOOK):
        engine.label(payload)

    def no_pool(*args, **kwargs):
        raise AssertionError("an all-hit batch started a process pool")

    monkeypatch.setattr(parallel, "ProcessPoolExecutor", no_pool)


def _slow_pipeline(engine, monkeypatch):
    # Forked pool workers inherit the patch: every computation outlasts a
    # millisecond timeout however warm the memos are.
    import repro.service.engine as engine_module

    label_corpus = engine_module.label_corpus

    def slow(*args, **kwargs):
        time.sleep(0.2)
        return label_corpus(*args, **kwargs)

    monkeypatch.setattr(engine_module, "label_corpus", slow)


def _chaos_engine() -> dict:
    return {
        "fault_plan": FaultPlan.random(
            seed=11, rate=0.5, points=ITEM_KEYED_POINTS
        ),
        "retry": RetryPolicy(base_delay_s=0.0005, max_delay_s=0.002),
        # mutate_lexicon faults must land on a lexicon no other test shares.
        "comparator": SemanticComparator(LabelAnalyzer(build_default_wordnet())),
    }


#: name -> (engine kwargs factory, payloads, per-item timeout, prepare hook)
EQUIVALENCE_CASES = {
    "duplicates": (dict, [AIRLINE, AIRLINE, BOOK, BOOK], None, None),
    "cache_off": (lambda: {"cache_size": 0}, [AIRLINE, AIRLINE, BOOK], None, None),
    "lint": (
        dict,
        [{**BOOK, "lint": True}, BOOK, {**BOOK, "lint": True}, AIRLINE],
        None,
        None,
    ),
    "strict": (lambda: {"verify": "strict"}, [AIRLINE, BOOK], None, None),
    "open_breaker": (
        lambda: {
            "breaker": BreakerPolicy(failure_threshold=1, reset_after_s=60.0),
            "clock": lambda: 0.0,
        },
        [AIRLINE, BOOK, BOOK],
        None,
        _open_book_breaker,
    ),
    "invalid_item": (
        dict,
        [AIRLINE, {"domain": "atlantis"}, "not an object", {**BOOK, "timeout": -1}],
        None,
        None,
    ),
    "item_timeout": (
        dict,
        [AIRLINE, AIRLINE, {"domain": "book", "seed": 1}],
        0.001,
        _slow_pipeline,
    ),
    "all_hits_start_no_pool": (
        dict, [AIRLINE, BOOK, AIRLINE], None, _warm_cache_and_forbid_pool
    ),
    "chaos": (
        _chaos_engine,
        [AIRLINE, BOOK, {"domain": "auto", "seed": 0}, AIRLINE],
        None,
        None,
    ),
}


def _run_case(name: str, executor: str, monkeypatch):
    make_kwargs, payloads, timeout, prepare = EQUIVALENCE_CASES[name]
    engine = LabelingEngine(**make_kwargs())
    with monkeypatch.context() as patches:
        if prepare is not None:
            prepare(engine, patches)
        results = engine.label_batch(
            payloads, jobs=2, timeout=timeout, executor=executor
        )
    stats = engine.stats()
    counters = {key: stats[key] for key in ("requests", "errors", "computations")}
    counters["oracle"] = stats["resilience"]["oracle"]
    return [_strip_timing(r) for r in results], counters


@pytest.mark.parametrize("case", sorted(EQUIVALENCE_CASES))
def test_thread_and_process_engines_agree(case, monkeypatch):
    thread = _run_case(case, "thread", monkeypatch)
    process = _run_case(case, "process", monkeypatch)
    assert process == thread
    results, counters = thread
    if case == "duplicates":
        assert [r["cached"] for r in results] == [False, True, False, True]
        assert counters["computations"] == 2
    elif case == "cache_off":
        assert [r["cached"] for r in results] == [False, False, False]
        assert counters["computations"] == 3
    elif case == "strict":
        assert counters["oracle"]["checks"] > 0
    elif case == "open_breaker":
        assert [r.get("error_type") for r in results] == [
            None, "circuit_open", "circuit_open",
        ]
    elif case == "item_timeout":
        assert [r.get("error_type") for r in results] == ["timeout"] * 3
        assert counters["errors"] == 1  # the duplicate inherits the timeout
    elif case == "all_hits_start_no_pool":
        assert all(r["cached"] for r in results)
    elif case == "chaos":
        assert all(r["ok"] for r in results)
        assert any("resilience" in r for r in results)


def test_worker_request_is_picklable():
    import pickle

    engine = LabelingEngine(cache_size=0)
    request = engine.parse({"domain": "job", "seed": 0, "lint": True})
    shipped = pickle.loads(pickle.dumps(request))
    assert shipped.fingerprint == request.fingerprint
    assert shipped.include_lint is True
    with WorkerPool(2) as pool:
        response, report, tree = pool.run(compute_in_worker, shipped, "off", False)
    assert report is None and tree is None
    inline = engine.label(request)
    assert inline.pop("cached") is False  # set by the cache layer, not the worker
    assert _strip_timing(response) == _strip_timing(inline)


# ----------------------------------------------------------------------
# Compute stays in-process (jobs<=1, fault plan) + shared-comparator safety.
# ----------------------------------------------------------------------


def test_process_backend_falls_back_on_single_job(monkeypatch):
    engine = LabelingEngine(breaker=None)
    monkeypatch.setattr(
        WorkerPool,
        "run",
        lambda *a, **k: pytest.fail("process backend used with jobs=1"),
    )
    results = engine.label_batch(
        [{"domain": "job", "seed": 0}], jobs=1, executor="process"
    )
    assert results[0]["ok"]


def test_process_backend_falls_back_under_fault_plan(monkeypatch):
    """With a fault plan the batch must run on threads — and a comparator
    shared across those threads must keep its consistency-pair cache exact.

    This is the scenario the pair cache sees in production: the chaos
    harness drives ``executor="process"`` batches whose compute stays on
    the batch's threads, where every worker thread shares one comparator.
    """
    from repro.core.semantics import SemanticComparator

    comparator = SemanticComparator()
    plan = FaultPlan((), seed=0)  # active but empty: never fires
    engine = LabelingEngine(
        breaker=None, fault_plan=plan, comparator=comparator
    )
    monkeypatch.setattr(
        WorkerPool,
        "run",
        lambda *a, **k: pytest.fail("process backend used under a fault plan"),
    )
    payloads = [
        {"domain": name, "seed": 0} for name in ("airline", "auto", "book", "job")
    ]
    results = engine.label_batch(payloads, jobs=4, executor="process")
    assert all(r["ok"] for r in results)

    # Same responses as a fresh sequential engine (the plan never fired).
    reference = LabelingEngine(breaker=None).label_batch(payloads, jobs=1)
    for expected, got in zip(reference, results):
        assert _strip_timing(expected) == _strip_timing(got)

    # The shared comparator's pair cache stayed coherent under the thread
    # fan-out: counters add up and every group it memoised is consistent
    # with a fresh comparator's answer.
    pairs = comparator.cache_stats()["consistency_pairs"]
    assert pairs["hits"] + pairs["misses"] > 0
    assert pairs["hit_rate"] == round(
        pairs["hits"] / (pairs["hits"] + pairs["misses"]), 4
    )


# ----------------------------------------------------------------------
# run_all_domains + table6: byte identity across executors.
# ----------------------------------------------------------------------


def test_run_all_domains_rejects_bad_executor():
    with pytest.raises(ValueError, match="executor"):
        run_all_domains(jobs=2, executor="fiber")


def test_table6_output_byte_identical_across_executors(capsys):
    argv = ["table6", "--seed", "0", "--respondents", "3"]
    assert main(argv + ["--jobs", "1"]) == 0
    sequential = capsys.readouterr().out
    assert main(argv + ["--jobs", "2", "--executor", "process"]) == 0
    process = capsys.readouterr().out
    assert process == sequential
    assert main(argv + ["--jobs", "2", "--executor", "thread"]) == 0
    threaded = capsys.readouterr().out
    assert threaded == sequential


# ----------------------------------------------------------------------
# normalize_jobs: every --jobs entry point must survive cpu_count()=None,
# jobs=0, and reject negatives with a clear error.
# ----------------------------------------------------------------------


class TestNormalizeJobs:
    def test_none_uses_cpu_derived_default(self):
        assert normalize_jobs(None) == default_jobs()

    def test_none_cpu_count_still_yields_at_least_one(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert normalize_jobs(None) >= 1

    def test_zero_normalizes_to_one(self):
        assert normalize_jobs(0) == 1

    def test_positive_passes_through(self):
        assert normalize_jobs(3) == 3

    def test_numeric_string_is_coerced(self):
        assert normalize_jobs("4") == 4

    def test_negative_is_a_clear_error(self):
        with pytest.raises(ValueError, match="jobs must be >= 0, got -2"):
            normalize_jobs(-2)

    def test_garbage_is_a_clear_error(self):
        with pytest.raises(ValueError, match="jobs must be an integer"):
            normalize_jobs("many")

    def test_engine_normalizes_constructor_jobs(self):
        assert LabelingEngine(cache_size=0, jobs=0).default_jobs == 1
        with pytest.raises(ValueError, match="jobs must be >= 0"):
            LabelingEngine(cache_size=0, jobs=-1)

    def test_engine_batch_normalizes_explicit_jobs(self):
        engine = LabelingEngine(cache_size=0)
        responses = engine.label_batch([{"domain": "job", "seed": 0}], jobs=0)
        assert [r["ok"] for r in responses] == [True]

    def test_execute_batch_normalizes_jobs(self):
        results = execute_batch([_Square(3)], jobs=0)
        assert results[0].value == 9
        with pytest.raises(ValueError, match="jobs must be >= 0"):
            execute_batch([_Square(3)], jobs=-4)

    def test_cli_jobs_flag_rejects_negatives(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["table6", "--jobs", "-2"])
        assert excinfo.value.code == 2
        assert "jobs must be >= 0" in capsys.readouterr().err

    def test_cli_jobs_flag_accepts_zero(self):
        args = build_parser().parse_args(["table6", "--jobs", "0"])
        assert args.jobs == 1


# ----------------------------------------------------------------------
# The process backend under the spawn start method.
# ----------------------------------------------------------------------


def _exploding_initializer():
    os._exit(13)


def _explode_worker_bootstrap(monkeypatch):
    """Make every pool worker die in its initializer."""
    real = parallel.ProcessPoolExecutor

    def exploding_pool(**kwargs):
        return real(**{**kwargs, "initializer": _exploding_initializer, "initargs": ()})

    monkeypatch.setattr(parallel, "ProcessPoolExecutor", exploding_pool)


class TestSpawnStartMethod:
    def test_execute_batch_under_spawn_context(self):
        # spawn re-imports the worker module from scratch: the
        # initializer and tasks must not capture unpicklable state.
        ctx = multiprocessing.get_context("spawn")
        results = execute_batch(
            [_Square(n) for n in range(4)],
            jobs=2,
            executor="process",
            mp_context=ctx,
        )
        assert [r.value for r in results] == [0, 1, 4, 9]
        assert all(r.error is None for r in results)

    def test_worker_compute_under_spawn_matches_inline(self):
        ctx = multiprocessing.get_context("spawn")
        payload = {"domain": "job", "seed": 0}
        request = LabelingEngine(cache_size=0).parse(payload)
        with WorkerPool(2, mp_context=ctx) as pool:
            response, report, tree = pool.run(
                compute_in_worker, request, "off", False
            )
        assert report is None and tree is None
        inline = LabelingEngine(cache_size=0).label(payload)
        inline.pop("cached")
        assert _strip_timing(response) == _strip_timing(inline)

    def test_broken_pool_falls_back_to_threads_with_warning(
        self, caplog, monkeypatch
    ):
        # A worker bootstrap that dies on import must not take the batch
        # down with it: the pool logs and runs the tasks in-process.
        _explode_worker_bootstrap(monkeypatch)
        with caplog.at_level(logging.WARNING, logger="repro.service.parallel"):
            results = execute_batch(
                [_Square(n) for n in range(3)], jobs=2, executor="process"
            )
        assert [r.value for r in results] == [0, 1, 4]
        assert any(
            "falling back to thread backend" in record.message
            for record in caplog.records
        )

    def test_broken_pool_batch_computes_in_process(self, caplog, monkeypatch):
        payloads = [{"domain": "airline", "seed": 0}, {"domain": "book", "seed": 0}]
        expected = LabelingEngine(breaker=None).label_batch(payloads, jobs=1)
        _explode_worker_bootstrap(monkeypatch)
        # The in-process fallback warms worker state in this process.
        monkeypatch.setattr(parallel, "_WORKER", {})
        engine = LabelingEngine(breaker=None, verify="strict")
        with caplog.at_level(logging.WARNING, logger="repro.service.parallel"):
            results = engine.label_batch(payloads, jobs=2, executor="process")
        assert [_strip_timing(r) for r in results] == [
            _strip_timing(r) for r in expected
        ]
        assert engine.stats()["computations"] == 2
        assert engine.stats()["resilience"]["oracle"]["checks"] > 0
        assert any(
            "falling back to thread backend" in record.message
            for record in caplog.records
        )
