"""The long-lived labeling engine: validation, caching, batch fan-out.

One :class:`LabelingEngine` wraps the naming pipeline
(:func:`repro.core.pipeline.label_corpus`) as a service-shaped component:

* **requests in, JSON out** — a request names either a registered domain
  (``{"domain": "airline", "seed": 0}``) or carries a full corpus document
  (the ``save_corpus`` shape), plus optional naming options, a lexicon
  overlay, and a lint flag; the response is a JSON-ready dict with the
  labeled tree, per-cluster labels and the Definition-8 classification;
* **result caching** — responses are cached in a thread-safe LRU keyed by
  the corpus fingerprint (:mod:`repro.service.fingerprint`); the pipeline
  is deterministic, so entries never go stale;
* **batch execution** — :func:`execute_batch` fans any list of thunks over
  a ``ThreadPoolExecutor`` with per-item timeout and structured
  :class:`BatchOutcome` results: one bad corpus degrades to an error entry
  and never kills the batch.  ``repro table6 --jobs N`` and
  :func:`repro.experiment.run_all_domains` ride the same executor.
  :meth:`LabelingEngine.label_batch` has one body for both executors
  (parse, dedupe, then each unique item through the same resilience and
  cache stack as a single request); the executor decides only where the
  compute step runs — in-process, or in a
  :class:`~repro.service.parallel.WorkerPool` worker.

The engine holds no request state between calls and all shared state (the
caches, the request index, counters) is lock-guarded, so one engine
instance safely serves the ``ThreadingHTTPServer`` in
:mod:`repro.service.server`.
"""

from __future__ import annotations

import contextvars
import copy
import json
import math
import threading
import time
from collections.abc import Callable, Sequence
from contextlib import nullcontext
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, field
from functools import partial

from ..core.pipeline import NamingOptions, label_corpus
from ..obs.tracer import Span, current_span, current_trace
from ..obs.tracer import event as obs_event
from ..obs.tracer import is_active as obs_is_active
from ..obs.tracer import span as obs_span
from ..core.semantics import SemanticComparator
from ..perf import aggregate_stats
from ..resilience import (
    BreakerPolicy,
    CircuitBreaker,
    CircuitOpenError,
    FaultPlan,
    RetryPolicy,
    TransientFault,
    fault_scope,
    maybe_inject,
)
from ..schema.clusters import Mapping
from ..schema.interface import QueryInterface
from ..schema.serialize import (
    interface_from_dict,
    mapping_from_dict,
    node_to_dict,
)
from .cache import LRUCache, ResultCache
from .fingerprint import (
    corpus_fingerprint,
    options_from_dict,
    options_to_dict,
    request_key,
)

__all__ = [
    "BatchOutcome",
    "LabelingEngine",
    "LabelingRequest",
    "RequestError",
    "execute_batch",
    "validate_timeout",
]


class RequestError(ValueError):
    """A request that cannot be executed (maps to HTTP 400)."""


def validate_timeout(timeout) -> float | None:
    """A per-item ``timeout`` in seconds: ``None``, or a finite number > 0.

    The one check behind the ``/label`` payload key, the ``/batch`` key and
    ``label_batch(timeout=)``; anything else raises :class:`RequestError`.
    """
    if timeout is None:
        return None
    if (
        isinstance(timeout, bool)
        or not isinstance(timeout, (int, float))
        or not math.isfinite(timeout)
        or timeout <= 0
    ):
        raise RequestError(
            f"'timeout' must be a finite number of seconds greater than 0, "
            f"got {timeout!r}"
        )
    return float(timeout)


@dataclass
class LabelingRequest:
    """One validated unit of work for the engine.

    A domain request whose fingerprint came from an engine's request index
    carries no corpus yet (``interfaces`` and ``mapping`` are ``None``):
    :meth:`corpus` generates it only when the pipeline has to run.
    """

    interfaces: list[QueryInterface] | None
    mapping: Mapping | None
    options: NamingOptions
    lexicon: dict | None = None
    domain: str | None = None
    include_lint: bool = False
    timeout: float | None = None
    fingerprint: str = field(default="", repr=False)
    seed: int = 0

    @classmethod
    def from_payload(cls, payload, index=None) -> "LabelingRequest":
        """Parse + validate an untrusted JSON payload (raises :class:`RequestError`).

        ``index`` (an :class:`~repro.service.cache.LRUCache`) maps the
        :func:`~repro.service.fingerprint.request_key` of a domain request
        to its corpus fingerprint.  A domain request found there skips
        generating and fingerprinting its corpus; one that is not gets its
        fingerprint recorded.  Every validation runs either way.
        """
        if not isinstance(payload, dict):
            raise RequestError("request payload must be a JSON object")
        has_corpus = "corpus" in payload
        has_domain = "domain" in payload
        if has_corpus == has_domain:
            raise RequestError(
                "request must carry exactly one of 'corpus' or 'domain'"
            )

        try:
            options = options_from_dict(payload.get("options"))
        except ValueError as exc:
            raise RequestError(str(exc)) from None

        lexicon = payload.get("lexicon")
        if lexicon is not None:
            if not isinstance(lexicon, dict):
                raise RequestError("'lexicon' must be an object with synsets/hypernyms")
            from ..lexicon.io import wordnet_from_dict

            try:  # validate eagerly so bad overlays fail as 400, not 500
                wordnet_from_dict(lexicon, extend_default=False)
            except (ValueError, TypeError) as exc:
                raise RequestError(f"invalid lexicon overlay: {exc}") from None

        timeout = validate_timeout(payload.get("timeout"))

        domain, seed = None, 0
        interfaces = mapping = key = digest = None
        if has_domain:
            from ..datasets.registry import DOMAINS, load_domain

            domain = payload["domain"]
            if domain not in DOMAINS:
                known = ", ".join(sorted(DOMAINS))
                raise RequestError(f"unknown domain {domain!r}; known: {known}")
            seed = payload.get("seed", 0)
            if not isinstance(seed, int) or isinstance(seed, bool):
                raise RequestError("'seed' must be an integer")
            if index is not None:
                key = request_key(domain, seed, options, lexicon)
                digest = index.get(key)
            if digest is None:
                dataset = load_domain(domain, seed=seed)
                interfaces, mapping = dataset.interfaces, dataset.mapping
        else:
            corpus = payload["corpus"]
            if not isinstance(corpus, dict):
                raise RequestError("'corpus' must be an object")
            if not isinstance(corpus.get("interfaces"), list) or not corpus["interfaces"]:
                raise RequestError("'corpus.interfaces' must be a non-empty array")
            if not isinstance(corpus.get("mapping"), dict):
                raise RequestError("'corpus.mapping' must be an object")
            try:
                interfaces = [
                    interface_from_dict(d) for d in corpus["interfaces"]
                ]
                mapping = mapping_from_dict(corpus["mapping"], interfaces)
            except (KeyError, TypeError, ValueError, AttributeError) as exc:
                raise RequestError(f"malformed corpus: {exc}") from None

        if digest is None:
            # Fingerprint before the 1:m reduction mutates the trees: the key
            # must describe the *input*, which is what a repeat request carries.
            digest = corpus_fingerprint(
                interfaces, mapping, options=options, lexicon=lexicon
            )
            if key is not None:
                index.put(key, digest)
        return cls(
            interfaces=interfaces,
            mapping=mapping,
            options=options,
            lexicon=lexicon,
            domain=domain,
            include_lint=bool(payload.get("lint", False)),
            timeout=timeout,
            fingerprint=digest,
            seed=seed,
        )

    def corpus(self) -> tuple[list[QueryInterface], Mapping]:
        """The corpus to label, generated from the domain if not carried."""
        if self.interfaces is None:
            from ..datasets.registry import load_domain

            dataset = load_domain(self.domain, seed=self.seed)
            return dataset.interfaces, dataset.mapping
        return self.interfaces, self.mapping


@dataclass
class BatchOutcome:
    """Structured result of one batch item: a value or a classified error.

    ``detail`` carries error-type-specific structure (``retry_after`` for a
    shed, the injected-fault trail for a transient exhaustion) that batch
    entries surface verbatim; ``exception`` keeps the original object so a
    timeout-wrapped single request can re-raise it with its type intact.
    """

    ok: bool
    value: object = None
    error: str | None = None
    error_type: str | None = None
    elapsed_ms: float = 0.0
    detail: dict | None = None
    exception: BaseException | None = None


def _run_timed(task: Callable[[], object]) -> BatchOutcome:
    start = time.perf_counter()
    try:
        value = task()
    except RequestError as exc:
        elapsed = (time.perf_counter() - start) * 1000.0
        return BatchOutcome(
            ok=False, error=str(exc), error_type="invalid_request",
            elapsed_ms=elapsed, exception=exc,
        )
    except CircuitOpenError as exc:
        elapsed = (time.perf_counter() - start) * 1000.0
        return BatchOutcome(
            ok=False,
            error=str(exc),
            error_type="circuit_open",
            elapsed_ms=elapsed,
            detail={"retry_after": round(exc.retry_after, 3)},
            exception=exc,
        )
    except TransientFault as exc:
        elapsed = (time.perf_counter() - start) * 1000.0
        return BatchOutcome(
            ok=False,
            error=f"{type(exc).__name__}: {exc}",
            error_type="transient",
            elapsed_ms=elapsed,
            detail={
                "resilience": {
                    "attempts": getattr(exc, "retry_attempts", 1),
                    "faults": list(getattr(exc, "fault_events", [])),
                }
            },
            exception=exc,
        )
    except Exception as exc:  # noqa: BLE001 — isolation is the contract
        elapsed = (time.perf_counter() - start) * 1000.0
        return BatchOutcome(
            ok=False,
            error=f"{type(exc).__name__}: {exc}",
            error_type="internal",
            elapsed_ms=elapsed,
            exception=exc,
        )
    elapsed = (time.perf_counter() - start) * 1000.0
    return BatchOutcome(ok=True, value=value, elapsed_ms=elapsed)


def _run_isolated(task: Callable[[], object]) -> BatchOutcome:
    """Worker-side body for ``execute_batch(executor="process")``.

    Classifies the task where it ran, like :func:`_run_timed`, and drops
    ``exception``: exception objects are not reliably picklable and the
    parent only needs the classified ``error``/``error_type``/``detail``.
    """
    outcome = _run_timed(task)
    outcome.exception = None
    return outcome


def _timeout_outcome(timeout: float | None) -> BatchOutcome:
    return BatchOutcome(
        ok=False,
        error=f"timed out after {timeout:g}s",
        error_type="timeout",
        elapsed_ms=(timeout or 0.0) * 1000.0,
    )


def execute_batch(
    tasks: Sequence[Callable[[], object]],
    jobs: int = 1,
    timeout: float | None = None,
    executor: str = "thread",
    mp_context=None,
) -> list[BatchOutcome]:
    """Run ``tasks`` with bounded concurrency and full error isolation.

    Results come back in submission order, one :class:`BatchOutcome` per
    task; an exception inside a task becomes an error outcome, never a
    raised exception.  With ``jobs <= 1`` and no ``timeout`` the tasks run
    inline on the calling thread (deterministic, no thread overhead) —
    this is the byte-identical path the defaults keep.  ``timeout`` bounds
    how long the caller waits for each item's result (queueing included);
    a worker thread past its deadline is abandoned, not interrupted.

    ``executor="process"`` (with ``jobs > 1``) runs each task in a worker
    of a :class:`~repro.service.parallel.WorkerPool` from the same thread
    fan-out: tasks and their results must be picklable, a worker classifies
    its own task's error (the exception object stays in the worker), and a
    pool whose workers fail to bootstrap runs the tasks in-process with a
    logged warning.  ``mp_context`` selects the multiprocessing start method
    (tests exercise ``spawn``).
    """
    from .parallel import WorkerPool, normalize_jobs, validate_executor

    executor = validate_executor(executor)
    jobs = normalize_jobs(jobs)
    if executor == "process" and jobs > 1:
        with WorkerPool(jobs, mp_context) as pool:
            outcomes = _fan_out(
                [partial(pool.run, _run_isolated, task) for task in tasks],
                jobs,
                timeout,
            )
        # An ok outcome carries the worker's own outcome for its task.
        return [outcome.value if outcome.ok else outcome for outcome in outcomes]
    return _fan_out(tasks, jobs, timeout)


def _fan_out(
    tasks: Sequence[Callable[[], object]], jobs: int, timeout: float | None
) -> list[BatchOutcome]:
    if jobs == 1 and timeout is None:
        return [_run_timed(task) for task in tasks]

    outcomes: list[BatchOutcome] = []
    with ThreadPoolExecutor(
        max_workers=jobs, thread_name_prefix="repro-batch"
    ) as pool:
        futures = [pool.submit(_run_timed, task) for task in tasks]
        for future in futures:
            try:
                outcomes.append(future.result(timeout=timeout))
            except FutureTimeoutError:
                future.cancel()
                outcomes.append(_timeout_outcome(timeout))
    return outcomes


#: Response keys that belong to one request, not to the corpus: lint is
#: asked for per request, ``cached`` and retry/fault provenance describe
#: how this request was answered.  The cache stores the response without
#: them.
_REQUEST_KEYS = ("cached", "lint", "resilience")


def _cacheable(response: dict) -> dict:
    """The fingerprint-determined part of ``response`` (shallow)."""
    return {k: v for k, v in response.items() if k not in _REQUEST_KEYS}


def _lint_findings_to_dicts(findings) -> list[dict]:
    return [
        {
            "check": finding.check,
            "severity": finding.severity,
            "nodes": list(finding.node_names),
            "message": finding.message,
        }
        for finding in findings
    ]


class LabelingEngine:
    """Validate, cache and execute labeling requests, singly or in batches.

    Resilience knobs (all optional; the defaults serve fault-free traffic
    with negligible overhead):

    ``fault_plan``
        a :class:`~repro.resilience.FaultPlan` activated per item, keyed by
        the corpus fingerprint — the chaos harness's entry point;
    ``retry``
        the :class:`~repro.resilience.RetryPolicy` wrapping every item;
        transient failures (injected faults, flaky I/O) heal here;
    ``breaker``
        a :class:`~repro.resilience.BreakerPolicy` applied *per corpus
        fingerprint*: a corpus that keeps failing trips its own breaker and
        fails fast with ``retry_after`` while other corpora are untouched;
        ``None`` disables breaking;
    ``verify``
        ``"strict"`` re-checks every freshly computed labeling against the
        paper-invariant oracles (:mod:`repro.testing.oracles`) before it is
        served or cached; a violation raises ``OracleError``;
    ``comparator``
        the default comparator for overlay-free requests (instead of one
        the engine builds on first use) — lets test/chaos sweeps reuse warm
        caches across engines.

    Domain requests go through a request index: an LRU with the result
    cache's capacity from :func:`~repro.service.fingerprint.request_key` to
    the corpus fingerprint, so a repeated ``{"domain", "seed"}`` request is
    answered from the cache without generating or fingerprinting its corpus.
    """

    #: How many lexicon-overlay comparators to keep warm; overlays beyond
    #: this evict the least recently used one (its caches go with it).
    OVERLAY_COMPARATORS = 8

    #: Response schema version, part of :meth:`engine_fingerprint` — bump on
    #: any change to the response dict's shape or semantics.
    RESPONSE_FORMAT = 1

    #: Bound on distinct per-fingerprint breakers kept live.
    MAX_BREAKERS = 512

    def __init__(
        self,
        cache_size: int = 128,
        jobs: int = 1,
        fault_plan: FaultPlan | None = None,
        retry: RetryPolicy | None = None,
        breaker: BreakerPolicy | None = BreakerPolicy(),
        verify: str = "off",
        comparator: SemanticComparator | None = None,
        clock=time.monotonic,
        executor: str = "thread",
        disk_cache=None,
    ) -> None:
        from .parallel import normalize_jobs, validate_executor

        if verify not in ("off", "strict"):
            raise ValueError("verify must be 'off' or 'strict'")
        self.cache = ResultCache(capacity=cache_size)
        self.request_index = LRUCache(capacity=cache_size)
        self.default_jobs = normalize_jobs(jobs)
        self.default_executor = validate_executor(executor)
        self.fault_plan = fault_plan
        self.retry = retry or RetryPolicy()
        self.breaker_policy = breaker
        self.verify = verify
        self._clock = clock
        self._breakers: dict[str, CircuitBreaker] = {}
        self._lock = threading.Lock()
        self._requests = 0
        self._errors = 0
        self._oracle_checks = 0
        self._oracle_failures = 0
        self._started = time.time()
        # Comparator registry: every comparator this engine ever built, so
        # stats() can aggregate their cache counters into one /metrics
        # section.  Overlay comparators are shared across requests (and
        # batch items) with the same overlay, keyed by its canonical JSON.
        self._comparators: list[SemanticComparator] = []
        self._overlay_comparators: dict[str, SemanticComparator] = {}
        self._default_comparator = comparator
        if comparator is not None:
            self._comparators.append(comparator)
        self._computations = 0
        # The persistent warm-start layer: a DiskCache instance, or a
        # directory path to open one under this engine's config fingerprint.
        if disk_cache is None or hasattr(disk_cache, "get"):
            self.disk = disk_cache
        else:
            from .diskcache import DiskCache

            self.disk = DiskCache(disk_cache, self.engine_fingerprint())

    def engine_fingerprint(self) -> str:
        """Digest of everything that determines a response besides the corpus.

        Keys the engine's slice of a shared :class:`DiskCache` directory:
        response format version, verify mode, and the lexicon content
        (compiled-lexicon fingerprint).  Bump ``RESPONSE_FORMAT`` whenever
        the response shape changes so stale disk entries self-invalidate.
        """
        import hashlib

        from ..lexicon.compiled import default_compiled

        material = json.dumps(
            {
                "format": self.RESPONSE_FORMAT,
                "verify": self.verify,
                "lexicon": default_compiled().fingerprint,
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(material.encode("utf-8")).hexdigest()

    # ------------------------------------------------------------------
    # Single requests.
    # ------------------------------------------------------------------

    def parse(self, payload) -> LabelingRequest:
        """:meth:`LabelingRequest.from_payload` through this engine's request index."""
        return LabelingRequest.from_payload(payload, index=self.request_index)

    def label(self, payload) -> dict:
        """Execute one request payload (or prebuilt request); JSON-ready response.

        Raises :class:`RequestError` on invalid payloads — batch execution
        and the HTTP layer turn that into error entries / HTTP 400.  A
        payload ``timeout`` is enforced by running the pipeline on a helper
        thread and abandoning it past the deadline.
        """
        request = (
            payload if isinstance(payload, LabelingRequest) else self.parse(payload)
        )
        if request.timeout is None:
            return self._label_request(request)
        # The deadline helper thread must inherit the caller's context
        # (active trace scope, fault scope) — ThreadPoolExecutor does not
        # propagate contextvars on its own.
        ctx = contextvars.copy_context()
        outcome = execute_batch(
            [lambda: ctx.run(self._label_request, request)],
            jobs=1,
            timeout=request.timeout,
        )[0]
        if outcome.ok:
            return outcome.value
        if outcome.error_type == "timeout":
            raise TimeoutError(outcome.error)
        if outcome.exception is not None:
            # Preserve the original type (CircuitOpenError, TransientFault,
            # OracleError, ...) so the HTTP layer maps it faithfully.
            raise outcome.exception
        raise RuntimeError(outcome.error)

    def _label_request(self, request: LabelingRequest, pool=None) -> dict:
        """One item, with the full resilience stack around the pipeline.

        Breaker check → fault scope → bounded retry → provenance.  The
        ``resilience`` key is attached only when something actually
        happened (a retry or an injected fault), so fault-free responses
        stay byte-identical to those of an engine with no plan at all.
        ``pool`` (a :class:`~repro.service.parallel.WorkerPool`) moves the
        compute step of a cache miss into a worker process.
        """
        with self._lock:
            self._requests += 1
        traced = obs_is_active()
        breaker = self._breaker_for(request.fingerprint)
        if breaker is not None:
            allowed = self._breaker_op(breaker, breaker.allow, traced)
            if not allowed:
                obs_event("breaker.rejected", state=breaker.state)
                raise CircuitOpenError(request.fingerprint, breaker.retry_after())
        attempt_fn, retry_sleep = self._attempt_fn(request, traced, pool)
        with fault_scope(self.fault_plan, request.fingerprint) as scope:
            try:
                response, attempts = self.retry.call(
                    attempt_fn, key=request.fingerprint, sleep=retry_sleep
                )
            except Exception as exc:
                with self._lock:
                    self._errors += 1
                if breaker is not None and not isinstance(exc, RequestError):
                    self._breaker_op(breaker, breaker.record_failure, traced)
                if scope is not None and scope.events:
                    exc.fault_events = [e.to_dict() for e in scope.events]
                raise
            events = list(scope.events) if scope is not None else []
        if breaker is not None:
            self._breaker_op(breaker, breaker.record_success, traced)
        if attempts > 1 or events:
            response["resilience"] = {
                "attempts": attempts,
                "faults": [event.to_dict() for event in events],
            }
        return response

    @staticmethod
    def _breaker_op(breaker: CircuitBreaker, op: Callable, traced: bool):
        """Run one breaker operation; trace state transitions as span events."""
        if not traced:
            return op()
        before = breaker.state
        result = op()
        after = breaker.state
        if after != before:
            obs_event("breaker.transition", **{"from": before, "to": after})
        return result

    def _attempt_fn(self, request: LabelingRequest, traced: bool, pool):
        """The retry body and sleep hook, span-wrapped when tracing is on."""
        if not traced:
            return (lambda: self._label_once(request, pool)), time.sleep

        counter = {"n": 0}

        def attempt():
            counter["n"] += 1
            with obs_span("engine.attempt", attempt=counter["n"]):
                return self._label_once(request, pool)

        def sleep(delay: float) -> None:
            obs_event("retry.backoff", delay_ms=round(delay * 1000.0, 3))
            time.sleep(delay)

        return attempt, sleep

    def _label_once(self, request: LabelingRequest, pool) -> dict:
        """Cache lookup + pipeline run — the unit the retry policy repeats."""
        spec = maybe_inject("cache.get", key=request.fingerprint)
        if spec is not None and spec.kind == "corrupt":
            self.cache.corrupt(request.fingerprint)
        with obs_span("cache.lookup") as sp:
            cached = self.cache.get(request.fingerprint)
            outcome = "memory" if cached is not None else "miss"
            if cached is None:
                cached = self._disk_lookup(request.fingerprint)
                if cached is not None:
                    outcome = "disk"
            if sp is not None:
                sp.tags["outcome"] = outcome
        if cached is not None:
            return self._hit(cached, request)
        response = self._compute(request, pool)
        stored = copy.deepcopy(_cacheable(response))
        self.cache.put(request.fingerprint, stored)
        if self.disk is not None:
            self.disk.put(request.fingerprint, stored)
        response["cached"] = False
        return response

    def _hit(self, cached: dict, request: LabelingRequest) -> dict:
        """A stored response served to ``request``: a cache hit or a duplicate."""
        response = copy.deepcopy(cached)
        response["cached"] = True
        if request.include_lint:
            response["lint"] = self._lint_tree(response["tree"], request)
        return response

    def _disk_lookup(self, fingerprint: str):
        """Consult the persistent layer; promote a hit into the memory LRU."""
        if self.disk is None:
            return None
        value = self.disk.get(fingerprint)
        if value is not None:
            self.cache.put(fingerprint, copy.deepcopy(value))
        return value

    def _breaker_for(self, fingerprint: str) -> CircuitBreaker | None:
        if self.breaker_policy is None:
            return None
        with self._lock:
            breaker = self._breakers.get(fingerprint)
            if breaker is None:
                if len(self._breakers) >= self.MAX_BREAKERS:
                    # Shed the oldest closed breaker; an open one is live
                    # protection and stays.
                    for key, candidate in list(self._breakers.items()):
                        if candidate.state == CircuitBreaker.CLOSED:
                            del self._breakers[key]
                            break
                breaker = self.breaker_policy.build(clock=self._clock)
                self._breakers[fingerprint] = breaker
        return breaker

    def _compute(self, request: LabelingRequest, pool) -> dict:
        """Run the compute step here, or in a worker when ``pool`` is given.

        Either way the computation, its oracle checks and (when tracing)
        its spans count in this engine, and a violation raises here.
        """
        with self._lock:
            self._computations += 1
        if pool is None:
            response, report = self._execute(request, self.verify)
        else:
            from .parallel import compute_in_worker

            trace = current_trace()
            dispatched = trace.clock() if trace is not None else 0.0
            response, report, tree = pool.run(
                compute_in_worker, request, self.verify, trace is not None
            )
            if tree is not None:
                # Re-base the worker's span tree onto this trace's timeline.
                current_span().children.append(
                    Span.from_dict(tree, base_s=dispatched)
                )
        if report is not None:
            with self._lock:
                self._oracle_checks += report.checks
                self._oracle_failures += len(report.violations)
            report.raise_if_failed()
        return response

    def _execute(self, request: LabelingRequest, verify: str):
        """The compute step: pipeline, verification, response and lint.

        Returns ``(response, report)``; ``report`` is the oracle report when
        ``verify`` is ``"strict"``, else ``None``.  The caller counts and
        raises on it, so a worker process can ship it home.
        """
        interfaces, mapping = request.corpus()
        start = time.perf_counter()
        comparator = self._comparator_for(request)
        maybe_inject("engine.execute", key=request.fingerprint)
        with obs_span(
            "pipeline",
            interfaces=len(interfaces),
            clusters=len(mapping),
        ):
            root, result = label_corpus(
                interfaces,
                mapping,
                comparator=comparator,
                options=request.options,
                domain=request.domain,
            )
        report = None
        if verify == "strict":
            from ..testing.oracles import verify_labeling

            with obs_span("verify.oracles") as sp:
                report = verify_labeling(root, result, comparator)
                if sp is not None:
                    sp.tags["checks"] = report.checks
                    sp.tags["violations"] = len(report.violations)
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        leaves = list(root.leaves())
        internal = [n for n in root.internal_nodes() if n is not root]
        response = {
            "ok": True,
            "fingerprint": request.fingerprint,
            "domain": request.domain,
            "classification": result.classification.value,
            "tree": node_to_dict(root),
            "field_labels": dict(sorted(result.field_labels.items())),
            "node_labels": dict(sorted(result.node_labels.items())),
            "options": options_to_dict(request.options),
            "stats": {
                "interfaces": len(interfaces),
                "clusters": len(mapping),
                "leaves": len(leaves),
                "internal_nodes": len(internal),
                "groups": len(result.group_results),
                "labeled_fields": sum(
                    1 for label in result.field_labels.values() if label
                ),
                "elapsed_ms": round(elapsed_ms, 3),
            },
        }
        if request.include_lint:
            from ..lint import lint_interface

            response["lint"] = _lint_findings_to_dicts(
                lint_interface(root, comparator)
            )
        return response, report

    def _lint_tree(self, tree: dict, request: LabelingRequest) -> list[dict]:
        """Lint a serialized tree (a cached response) for this request."""
        from ..lint import lint_node_dict

        return _lint_findings_to_dicts(
            lint_node_dict(tree, self._comparator_for(request))
        )

    def _comparator_for(self, request: LabelingRequest) -> SemanticComparator:
        """A comparator for this request: shared per overlay, else the default.

        Requests (and batch items) carrying the same lexicon overlay share
        one comparator — and therefore its compiled lexicon and its
        label/relation/group caches — instead of rebuilding and compiling
        the lexicon and re-deriving every comparison per item.  The comparator's memos are safe under concurrent use
        (append-only maps of deterministic values), so one instance can
        serve parallel batch workers.
        """
        if request.lexicon is not None:
            key = json.dumps(
                request.lexicon, sort_keys=True, separators=(",", ":"), default=str
            )
            with self._lock:
                comparator = self._overlay_comparators.get(key)
                if comparator is not None:
                    # Refresh LRU position.
                    self._overlay_comparators[key] = self._overlay_comparators.pop(key)
                    return comparator
            from ..core.label import LabelAnalyzer
            from ..lexicon.io import wordnet_from_dict

            comparator = SemanticComparator(
                LabelAnalyzer(wordnet_from_dict(request.lexicon))
            )
            with self._lock:
                existing = self._overlay_comparators.get(key)
                if existing is not None:  # lost a build race: share the winner
                    return existing
                while len(self._overlay_comparators) >= self.OVERLAY_COMPARATORS:
                    evicted_key = next(iter(self._overlay_comparators))
                    evicted = self._overlay_comparators.pop(evicted_key)
                    self._comparators.remove(evicted)
                self._overlay_comparators[key] = comparator
                self._comparators.append(comparator)
            return comparator
        return self.default_comparator()

    def default_comparator(self) -> SemanticComparator:
        """The one comparator every overlay-free request shares.

        The instance passed at construction, else one built on first use.
        Its memos are safe under concurrent use (see :meth:`_comparator_for`),
        so all handler and batch threads share one set of warm caches.
        """
        comparator = self._default_comparator
        if comparator is None:
            with self._lock:
                if self._default_comparator is None:
                    self._default_comparator = SemanticComparator()
                    self._comparators.append(self._default_comparator)
                comparator = self._default_comparator
        return comparator

    # ------------------------------------------------------------------
    # Batches.
    # ------------------------------------------------------------------

    def label_batch(
        self,
        payloads: Sequence,
        jobs: int | None = None,
        timeout: float | None = None,
        executor: str | None = None,
    ) -> list[dict]:
        """Label many payloads concurrently; one response dict per payload.

        Invalid or failing items degrade to ``{"ok": false, ...}`` entries
        in their slot — a poisoned corpus never takes the batch down.

        One body serves both executors.  Every payload is parsed here; with
        the cache on, repeats of a fingerprint are answered from its first
        copy the way a cache hit is (with caching off each one is
        recomputed).  Each unique item then goes through
        :meth:`_label_request` — breaker, fault scope, retry, cache — on
        :func:`execute_batch`'s thread fan-out.  ``executor="process"`` only
        moves the compute step of a miss into a
        :class:`~repro.service.parallel.WorkerPool` worker; it stays
        in-process when ``jobs <= 1`` or a ``fault_plan`` is active (the
        pipeline's fault-injection points need this process's plan state).
        """
        from .parallel import WorkerPool, normalize_jobs, validate_executor

        jobs = self.default_jobs if jobs is None else normalize_jobs(jobs)
        if executor is None:
            executor = self.default_executor
        else:
            executor = validate_executor(executor)
        timeout = validate_timeout(timeout)
        with obs_span(
            "engine.batch", items=len(payloads), jobs=jobs, executor=executor
        ):
            entries: list[dict | None] = [None] * len(payloads)
            unique: list[tuple[int, LabelingRequest]] = []
            duplicates: list[tuple[int, LabelingRequest, int]] = []
            first: dict[str, int] = {}
            for index, payload in enumerate(payloads):
                try:
                    request = self.parse(payload)
                except RequestError as exc:
                    entries[index] = self._outcome_entry(BatchOutcome(
                        ok=False, error=str(exc), error_type="invalid_request"
                    ))
                    continue
                if self.cache.capacity > 0 and request.fingerprint in first:
                    duplicates.append((index, request, first[request.fingerprint]))
                else:
                    first[request.fingerprint] = index
                    unique.append((index, request))

            trace = current_trace()
            parent = current_span()
            spans: list[Span | None] = [None] * len(payloads)
            if trace is not None and parent is not None:
                # Fan-out tracing: one span per payload in submission order
                # (deterministic tree shape); each item's thread attaches
                # its own scope rooted at its span.
                for index in range(len(payloads)):
                    spans[index] = Span(f"item[{index}]")
                    spans[index].start_s = spans[index].end_s = trace.clock()
                    parent.children.append(spans[index])

            def run(request: LabelingRequest, item_span: Span | None) -> dict:
                if item_span is None:
                    return self._label_request(request, pool)
                with trace.attach(item_span):
                    return self._label_request(request, pool)

            remote = executor == "process" and jobs > 1 and self.fault_plan is None
            with WorkerPool(jobs) if remote else nullcontext() as pool:
                outcomes = execute_batch(
                    [partial(run, request, spans[index]) for index, request in unique],
                    jobs=jobs,
                    timeout=timeout,
                )
            for (index, _request), outcome in zip(unique, outcomes):
                entries[index] = (
                    outcome.value if outcome.ok else self._outcome_entry(outcome)
                )
            for index, request, origin in duplicates:
                answer = entries[origin]
                with self._lock:
                    self._requests += 1
                    if not answer["ok"]:
                        self._errors += 1
                entries[index] = (
                    self._hit(_cacheable(answer), request)
                    if answer["ok"]
                    else copy.deepcopy(answer)
                )
            return entries

    @staticmethod
    def _outcome_entry(outcome: BatchOutcome) -> dict:
        entry = {
            "ok": False,
            "error": outcome.error,
            "error_type": outcome.error_type,
            "elapsed_ms": round(outcome.elapsed_ms, 3),
        }
        if outcome.detail:
            entry.update(outcome.detail)
        return entry

    # ------------------------------------------------------------------
    # Introspection / lifecycle.
    # ------------------------------------------------------------------

    def stats(self) -> dict:
        """Engine counters + cache stats (embedded in ``GET /metrics``)."""
        with self._lock:
            requests, errors = self._requests, self._errors
            computations = self._computations
            comparators = list(self._comparators)
            overlays = len(self._overlay_comparators)
            breakers = list(self._breakers.values())
            oracle_checks = self._oracle_checks
            oracle_failures = self._oracle_failures
        semantics = aggregate_stats([c.cache_stats() for c in comparators])
        index = self.request_index.stats()
        semantics["comparators"] = len(comparators)
        semantics["overlay_comparators"] = overlays
        breaker_stats = [b.stats() for b in breakers]
        resilience = {
            "retry": {"max_attempts": self.retry.max_attempts},
            "breakers": {
                "count": len(breaker_stats),
                "open": sum(1 for b in breaker_stats if b["state"] != "closed"),
                "rejections": sum(b["rejections"] for b in breaker_stats),
                "trips": sum(b["trips"] for b in breaker_stats),
            },
            "verify": self.verify,
            "oracle": {"checks": oracle_checks, "failures": oracle_failures},
        }
        if self.fault_plan is not None:
            resilience["fault_plan"] = self.fault_plan.stats()
        snapshot = {
            "requests": requests,
            "errors": errors,
            "computations": computations,
            "uptime_s": round(time.time() - self._started, 3),
            "default_jobs": self.default_jobs,
            "default_executor": self.default_executor,
            "cache": self.cache.stats().to_dict(),
            "request_index": {
                "hits": index.hits,
                "misses": index.misses,
                "size": index.size,
                "capacity": index.capacity,
            },
            "semantics": semantics,
            "resilience": resilience,
        }
        if self.disk is not None:
            snapshot["disk"] = self.disk.stats()
        return snapshot

    def close(self) -> None:
        """Release cached results (symmetry with the server lifecycle)."""
        self.cache.clear()
        self.request_index.clear()
