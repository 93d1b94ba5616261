"""repro.resilience — fault injection and the machinery that survives it.

Two halves, deliberately in one package:

* **Injection** (:mod:`.faults`): a seedable, deterministic
  :class:`FaultPlan` threaded through the engine, the result cache, the
  naming pipeline and the lexicon via named injection points — latency,
  transient errors and cache corruption, all reproducible from a seed.
* **Survival**: bounded retry with exponential backoff and deterministic
  jitter (:mod:`.retry`), a per-corpus-fingerprint circuit breaker
  (:mod:`.breaker`), and a bounded admission queue with load shedding for
  the HTTP front door (:mod:`.admission`).

The paper's pipeline is deterministic, so every fault either heals (retry,
recompute) or surfaces as a structured, provenance-carrying error — never
as silent corruption.  ``docs/resilience.md`` walks through the whole
layer; ``repro chaos`` sweeps it end to end.
"""

from .admission import AdmissionController, OverloadedError
from .breaker import BreakerPolicy, CircuitBreaker, CircuitOpenError
from .faults import (
    FAULT_KINDS,
    INJECTION_POINTS,
    FaultEvent,
    FaultPlan,
    FaultScope,
    FaultSpec,
    InjectedFault,
    TransientFault,
    active_scope,
    fault_scope,
    maybe_inject,
)
from .retry import RetryPolicy

__all__ = [
    "FAULT_KINDS",
    "INJECTION_POINTS",
    "AdmissionController",
    "BreakerPolicy",
    "CircuitBreaker",
    "CircuitOpenError",
    "FaultEvent",
    "FaultPlan",
    "FaultScope",
    "FaultSpec",
    "InjectedFault",
    "OverloadedError",
    "RetryPolicy",
    "TransientFault",
    "active_scope",
    "fault_scope",
    "maybe_inject",
]
