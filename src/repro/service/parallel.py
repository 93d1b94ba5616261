"""Process-pool plumbing for the batch backend: the pool helper + worker state.

A batch runs on one thread fan-out (:func:`repro.service.engine.execute_batch`)
whatever the executor.  Pure-Python labeling is bounded by the GIL there, so
the process backend moves the CPU-heavy compute step into worker processes;
everything that crosses the process boundary lives in this module so it is
importable — hence picklable — from worker processes:

* :class:`WorkerPool` — a ``ProcessPoolExecutor`` started on the first call
  that needs a worker, each worker warmed once by :func:`init_worker` with
  the parent's compiled lexicon.  A pool whose workers fail to bootstrap
  (``BrokenProcessPool``) logs one warning and runs every call in-process.
* :func:`compute_in_worker` — the engine's compute step as a worker runs
  it: a parsed request in; the response, the oracle report and (when the
  parent traces) the worker's span tree out.
* :func:`default_jobs` — the documented CPU-derived default the ``batch``,
  ``serve`` and ``chaos`` CLI subcommands share.

Worker state is module-global by design: a ``ProcessPoolExecutor`` worker
is a fresh interpreter whose only channel for warm state is the
initializer, and globals are how that state survives across tasks.
"""

from __future__ import annotations

import logging
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

__all__ = [
    "EXECUTORS",
    "WorkerPool",
    "compute_in_worker",
    "default_jobs",
    "init_worker",
    "normalize_jobs",
    "worker_comparator",
    "worker_engine",
]

log = logging.getLogger(__name__)

#: The executor kinds the batch backend accepts.
EXECUTORS = ("thread", "process")

#: Cap on the CPU-derived default: labeling is memory-light but the curve
#: flattens past a handful of workers (per-worker warm-up and result
#: pickling take over), so more than 8 defaults helps nobody.
MAX_DEFAULT_JOBS = 8


def default_jobs() -> int:
    """The shared CLI default for ``--jobs``: ``os.cpu_count()`` capped at 8.

    ``sched_getaffinity`` is preferred where available — in a container the
    affinity mask, not the host core count, is what can actually run.
    """
    try:
        cores = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        cores = os.cpu_count() or 1
    return max(1, min(MAX_DEFAULT_JOBS, cores))


def normalize_jobs(jobs) -> int:
    """Normalize a ``jobs`` knob to a usable worker count (``>= 1``).

    ``None`` means "pick for me" and resolves to :func:`default_jobs`
    (which itself survives ``os.cpu_count()`` returning ``None``).  ``0``
    is clamped to 1 — "no parallelism", not "no workers".  A negative or
    non-integral value is a caller bug and raises ``ValueError`` with a
    message naming the offender; the HTTP layer maps that to a 400.
    """
    if jobs is None:
        return default_jobs()
    if isinstance(jobs, bool) or not isinstance(jobs, int):
        try:
            coerced = int(str(jobs))
        except (TypeError, ValueError):
            raise ValueError(f"jobs must be an integer, got {jobs!r}") from None
        jobs = coerced
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    return max(1, jobs)


def validate_executor(executor: str) -> str:
    if executor not in EXECUTORS:
        raise ValueError(
            f"executor must be one of {', '.join(EXECUTORS)}; got {executor!r}"
        )
    return executor


# ----------------------------------------------------------------------
# Worker-side state (one interpreter per pool worker).
# ----------------------------------------------------------------------

_WORKER: dict = {}


def init_worker(compiled) -> None:
    """Pool initializer: build the worker's comparator + engine once.

    ``compiled`` is the parent's :class:`CompiledLexicon` — immutable and
    cheaply pickled, it arrives exactly once per worker.  The engine only
    runs the compute step: the parent owns caching, breakers and retries.
    """
    from ..core.label import LabelAnalyzer
    from ..core.semantics import SemanticComparator
    from .engine import LabelingEngine

    comparator = SemanticComparator(LabelAnalyzer(compiled))
    _WORKER["comparator"] = comparator
    _WORKER["engine"] = LabelingEngine(
        cache_size=0, breaker=None, comparator=comparator
    )


def worker_comparator():
    """The warm per-worker comparator, or ``None`` outside a pool worker."""
    return _WORKER.get("comparator")


def worker_engine():
    """The warm per-worker engine, building a default one where no
    initializer ran (a pool that broke computes in the parent process)."""
    engine = _WORKER.get("engine")
    if engine is None:
        from ..lexicon.compiled import default_compiled

        init_worker(default_compiled())
        engine = _WORKER["engine"]
    return engine


def compute_in_worker(request, verify: str, traced: bool):
    """The engine's compute step for one parsed request, run in a worker.

    Returns ``(response, report, span_tree)``.  The oracle ``report`` (``None``
    unless ``verify`` is ``"strict"``) goes back for the parent to count and
    raise on; ``span_tree`` is the worker's own trace, relative to its
    start, when the parent is tracing (``None`` otherwise).
    """
    engine = worker_engine()
    if not traced:
        return (*engine._execute(request, verify), None)
    from ..obs.tracer import Trace

    trace = Trace(name="worker")
    trace.root.tags["pid"] = os.getpid()
    with trace.scope():
        response, report = engine._execute(request, verify)
    return response, report, trace.root.to_dict(trace.root.start_s)


class WorkerPool:
    """A process pool started on first use; in-process work once it breaks.

    One instance serves one batch.  The batch's fan-out threads call
    :meth:`run` concurrently; the first call starts the pool, so a batch
    that never needs a worker starts none.  Use it as a context manager:
    leaving it shuts the workers down.
    """

    def __init__(self, jobs: int, mp_context=None) -> None:
        self.jobs = jobs
        self.mp_context = mp_context
        self._pool: ProcessPoolExecutor | None = None
        self._broken = False
        self._lock = threading.Lock()

    def run(self, fn, *args):
        """``fn(*args)`` in a worker; in the calling thread if the pool broke.

        ``fn``, its arguments and its result must be picklable.  An
        exception ``fn`` raises in the worker is re-raised here.
        """
        pool = self._start()
        if pool is not None:
            try:
                return pool.submit(fn, *args).result()
            except BrokenProcessPool as exc:
                self._break(exc)
        return fn(*args)

    def _start(self) -> ProcessPoolExecutor | None:
        with self._lock:
            if self._pool is None and not self._broken:
                from ..lexicon.compiled import default_compiled

                self._pool = ProcessPoolExecutor(
                    max_workers=self.jobs,
                    initializer=init_worker,
                    initargs=(default_compiled(),),
                    mp_context=self.mp_context,
                )
            return self._pool

    def _break(self, exc: BaseException) -> None:
        with self._lock:
            if self._broken:
                return
            self._broken = True
            pool, self._pool = self._pool, None
        # Worker bootstrap failed (e.g. unpicklable initializer state under
        # a spawn start method): degrade rather than fail the batch.
        log.warning("process pool broke (%s); falling back to thread backend", exc)
        if pool is not None:
            pool.shutdown(wait=False)

    def close(self) -> None:
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
