"""Stdlib-only HTTP JSON API over the labeling engine.

Endpoints
---------
``GET /healthz``   liveness: ``{"status": "ok", "uptime_s": ...}``.
``GET /metrics``   request counts per endpoint/status, latency percentiles
                   computed from a fixed-size ring buffer, engine + cache
                   counters.
``POST /label``    one labeling request (see :mod:`repro.service.engine`
                   for the payload shape); repeated identical requests are
                   served from the result cache.
``POST /batch``    ``{"requests": [...], "jobs": N, "timeout": s}`` — the
                   engine fans the items over its batch executor; per-item
                   failures come back as error entries, HTTP status stays
                   200.
``GET /trace/<id>``  the span trace of a recently served request (see
                   :mod:`repro.obs`), from a bounded in-memory LRU; 404
                   once evicted or when tracing is disabled.

Every POST response (success, error, 429/503 shed alike) carries a
``request_id`` — honored from an ``X-Request-Id`` request header or
generated — echoed both in the JSON payload and as an ``X-Request-Id``
response header.  With tracing enabled (``tracing=True`` or a trace log
configured), each POST runs under a request-scoped trace whose span tree
lands in the LRU behind ``GET /trace/<id>`` and, with ``serve
--trace-log DIR``, in a CRC-safe JSONL span log.

Both POST endpoints pass through a bounded admission queue
(:class:`repro.resilience.AdmissionController`): work beyond the
concurrency cap queues, and a full queue sheds with **HTTP 429** plus a
``Retry-After`` header / ``retry_after`` field.  An open circuit breaker
or an exhausted transient failure maps to **HTTP 503** (with structured
fault provenance for the latter) — see ``docs/resilience.md``.

Built on ``http.server.ThreadingHTTPServer`` so the package keeps its
no-dependency guarantee; one daemon thread per connection, all shared
state behind the engine's and the metrics registry's locks.
:class:`LabelingServer` wraps the lifecycle (ephemeral-port bind, start,
graceful shutdown) for both the CLI and the tests.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from ..obs import Trace, TraceLog, TraceStore, new_request_id
from ..resilience import (
    AdmissionController,
    CircuitOpenError,
    OverloadedError,
    TransientFault,
)
from .engine import LabelingEngine, RequestError, validate_timeout

__all__ = ["LabelingServer", "MetricsRegistry", "PayloadTooLargeError"]


class PayloadTooLargeError(Exception):
    """A declared request body too large to read (maps to HTTP 413)."""

    def __init__(self, declared: int, limit: int) -> None:
        super().__init__(
            f"declared Content-Length {declared} exceeds the "
            f"{limit}-byte limit"
        )
        self.declared = declared
        self.limit = limit


class MetricsRegistry:
    """Thread-safe request counters + a latency ring buffer with percentiles."""

    def __init__(self, window: int = 1024) -> None:
        self._lock = threading.Lock()
        self._latencies: deque[float] = deque(maxlen=window)
        self._by_endpoint: dict[str, int] = {}
        self._by_status: dict[int, int] = {}
        self._started = time.time()
        # The sorted sample is snapshotted once and reused until the next
        # record() invalidates it, so back-to-back /metrics polls of an
        # idle window don't re-sort (the list is replaced, never mutated,
        # so a reference handed out under the lock stays consistent).
        self._sorted: list[float] | None = None

    def record(self, endpoint: str, status: int, elapsed_ms: float) -> None:
        with self._lock:
            self._by_endpoint[endpoint] = self._by_endpoint.get(endpoint, 0) + 1
            self._by_status[status] = self._by_status.get(status, 0) + 1
            self._latencies.append(elapsed_ms)
            self._sorted = None

    @staticmethod
    def _percentile(ordered: list[float], pct: float) -> float:
        """Nearest-rank percentile of an already-sorted sample."""
        if not ordered:
            return 0.0
        rank = max(1, -(-len(ordered) * pct // 100))  # ceil without math
        return ordered[int(rank) - 1]

    def snapshot(self) -> dict:
        with self._lock:
            if self._sorted is None:
                self._sorted = sorted(self._latencies)
            sample = self._sorted
            by_endpoint = dict(sorted(self._by_endpoint.items()))
            by_status = {str(k): v for k, v in sorted(self._by_status.items())}
        latency = {
            "window": len(sample),
            "p50_ms": round(self._percentile(sample, 50), 3),
            "p90_ms": round(self._percentile(sample, 90), 3),
            "p99_ms": round(self._percentile(sample, 99), 3),
            "max_ms": round(sample[-1], 3) if sample else 0.0,
            "mean_ms": round(sum(sample) / len(sample), 3) if sample else 0.0,
        }
        return {
            "uptime_s": round(time.time() - self._started, 3),
            "requests_total": sum(by_endpoint.values()),
            "by_endpoint": by_endpoint,
            "by_status": by_status,
            "latency": latency,
        }


class _LabelingHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying the engine + metrics for its handlers."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self,
        address,
        engine: LabelingEngine,
        quiet: bool = True,
        admission: AdmissionController | None = None,
        tracing: bool = False,
        trace_log: TraceLog | None = None,
        trace_capacity: int = 128,
    ):
        super().__init__(address, _Handler)
        self.engine = engine
        self.metrics = MetricsRegistry()
        self.quiet = quiet
        self.admission = admission or AdmissionController()
        self.trace_log = trace_log
        self.tracing = bool(tracing or trace_log is not None)
        self.traces = TraceStore(capacity=trace_capacity)


class _Handler(BaseHTTPRequestHandler):
    """Route the four endpoints; every response is JSON with Content-Length."""

    server: _LabelingHTTPServer
    protocol_version = "HTTP/1.1"

    #: Hard cap on a declared request body.  A client announcing more gets
    #: a clean 413 *before* the server tries to read it — blindly trusting
    #: a huge Content-Length would block the handler on ``rfile.read``.
    MAX_BODY_BYTES = 16 * 1024 * 1024

    # ------------------------------------------------------------------
    # Plumbing.
    # ------------------------------------------------------------------

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if not self.server.quiet:  # pragma: no cover - operator logging
            super().log_message(format, *args)

    def _send_json(
        self, status: int, payload: dict, headers: dict | None = None
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        # Head and body leave in one write.  Written after the flushed
        # headers, a small body waits in Nagle's algorithm for the ACK of
        # the headers, which the client delays (~40 ms per response).
        head = getattr(self, "_headers_buffer", [])
        if self.request_version != "HTTP/0.9":
            head.append(b"\r\n")
        self._headers_buffer = []
        self.wfile.write(b"".join(head) + body)

    def _read_json(self):
        declared = self.headers.get("Content-Length")
        try:
            length = int(declared or 0)
        except ValueError:
            # A garbage header is the client's bug: answer 400, not 500.
            raise RequestError(
                f"invalid Content-Length header: {declared!r}"
            ) from None
        if length <= 0:
            raise RequestError("request body required")
        if length > self.MAX_BODY_BYTES:
            raise PayloadTooLargeError(length, self.MAX_BODY_BYTES)
        raw = self.rfile.read(length)
        try:
            return json.loads(raw)
        except json.JSONDecodeError as exc:
            raise RequestError(f"body is not valid JSON: {exc}") from None

    def _handle(self, endpoint: str, fn, request_id: str | None = None) -> None:
        start = time.perf_counter()
        headers: dict | None = None
        trace: Trace | None = None
        if request_id is not None and self.server.tracing:
            trace = Trace(request_id=request_id, name=endpoint.lstrip("/") or "request")
            inner = fn

            def fn():
                with trace.scope():
                    return inner()

        try:
            status, payload = fn()
        except RequestError as exc:
            status, payload = 400, {
                "ok": False, "error": str(exc), "error_type": "invalid_request",
            }
        except PayloadTooLargeError as exc:
            status, payload = 413, {
                "ok": False, "error": str(exc), "error_type": "payload_too_large",
            }
        except TimeoutError as exc:
            status, payload = 504, {
                "ok": False, "error": str(exc), "error_type": "timeout",
            }
        except OverloadedError as exc:
            # Load shed: the admission queue is full.  429 + Retry-After is
            # the structured backpressure clients key their backoff on.
            status, payload = 429, {
                "ok": False,
                "error": str(exc),
                "error_type": "overloaded",
                "retry_after": round(exc.retry_after, 3),
            }
            headers = {"Retry-After": f"{exc.retry_after:.3f}"}
        except CircuitOpenError as exc:
            status, payload = 503, {
                "ok": False,
                "error": str(exc),
                "error_type": "circuit_open",
                "retry_after": round(exc.retry_after, 3),
            }
            headers = {"Retry-After": f"{exc.retry_after:.3f}"}
        except TransientFault as exc:
            status, payload = 503, {
                "ok": False,
                "error": str(exc),
                "error_type": "transient",
            }
            resilience = getattr(exc, "fault_events", None)
            if resilience:
                payload["resilience"] = {
                    "attempts": getattr(exc, "retry_attempts", 1),
                    "faults": list(resilience),
                }
        except Exception as exc:  # noqa: BLE001 - the server must answer
            status, payload = 500, {
                "ok": False,
                "error": f"{type(exc).__name__}: {exc}",
                "error_type": "internal",
            }
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        if request_id is not None:
            if isinstance(payload, dict):
                payload["request_id"] = request_id
            headers = {**(headers or {}), "X-Request-Id": request_id}
        if trace is not None:
            trace.meta["endpoint"] = endpoint
            trace.meta["status"] = status
            record = trace.to_dict()
            self.server.traces.put(record)
            if self.server.trace_log is not None:
                self.server.trace_log.append(record)
        self.server.metrics.record(endpoint, status, elapsed_ms)
        self._send_json(status, payload, headers)

    # ------------------------------------------------------------------
    # Endpoints.
    # ------------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        if self.path == "/healthz":
            self._handle("/healthz", lambda: (200, {
                "status": "ok",
                "uptime_s": self.server.engine.stats()["uptime_s"],
            }))
        elif self.path == "/metrics":
            self._handle("/metrics", lambda: (200, {
                "http": self.server.metrics.snapshot(),
                "engine": self.server.engine.stats(),
                "admission": self.server.admission.stats(),
            }))
        elif self.path.startswith("/trace/"):
            self._handle("/trace", self._get_trace)
        else:
            self._handle(self.path, lambda: (404, {
                "ok": False, "error": f"no such endpoint {self.path!r}",
                "error_type": "not_found",
            }))

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        request_id = (
            (self.headers.get("X-Request-Id") or "").strip()[:128]
            or new_request_id()
        )
        if self.path == "/label":
            self._handle("/label", self._post_label, request_id=request_id)
        elif self.path == "/batch":
            self._handle("/batch", self._post_batch, request_id=request_id)
        else:
            self._handle(self.path, lambda: (404, {
                "ok": False, "error": f"no such endpoint {self.path!r}",
                "error_type": "not_found",
            }))

    def _get_trace(self):
        request_id = self.path[len("/trace/"):]
        record = self.server.traces.get(request_id)
        if record is None:
            detail = (
                "tracing is disabled on this server"
                if not self.server.tracing
                else "not traced, or evicted from the trace store"
            )
            return 404, {
                "ok": False,
                "error": f"no trace for request id {request_id!r} ({detail})",
                "error_type": "not_found",
            }
        return 200, {"ok": True, "trace": record}

    def _post_label(self):
        payload = self._read_json()
        with self.server.admission.admit():
            return 200, self.server.engine.label(payload)

    def _post_batch(self):
        payload = self._read_json()
        if not isinstance(payload, dict) or not isinstance(
            payload.get("requests"), list
        ):
            raise RequestError("batch payload must carry a 'requests' array")
        jobs = payload.get("jobs")
        if jobs is not None and (isinstance(jobs, bool) or not isinstance(jobs, int)):
            raise RequestError("'jobs' must be an integer")
        timeout = validate_timeout(payload.get("timeout"))
        with self.server.admission.admit():
            results = self.server.engine.label_batch(
                payload["requests"], jobs=jobs, timeout=timeout
            )
        return 200, {
            "ok": all(r.get("ok") for r in results),
            "count": len(results),
            "results": results,
        }


class LabelingServer:
    """Lifecycle wrapper: bind, serve on a background thread, stop cleanly.

    ::

        with LabelingServer(port=0) as server:     # 0 = ephemeral port
            client = ServiceClient(server.url)
            client.healthz()

    ``serve_forever()`` (no background thread) is what ``repro serve``
    uses; ``stop()`` is idempotent and also runs on context exit.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        cache_size: int = 128,
        jobs: int = 1,
        engine: LabelingEngine | None = None,
        quiet: bool = True,
        max_concurrent: int = 8,
        max_queue: int = 32,
        retry_after_s: float = 0.5,
        executor: str = "thread",
        disk_cache=None,
        tracing: bool = False,
        trace_log=None,
        trace_capacity: int = 128,
    ) -> None:
        self.engine = engine or LabelingEngine(
            cache_size=cache_size,
            jobs=jobs,
            executor=executor,
            disk_cache=disk_cache,
        )
        # A trace log may arrive as a TraceLog or as a directory path.
        if trace_log is not None and not isinstance(trace_log, TraceLog):
            trace_log = TraceLog(trace_log)
        self._httpd = _LabelingHTTPServer(
            (host, port),
            self.engine,
            quiet=quiet,
            admission=AdmissionController(
                max_concurrent=max_concurrent,
                max_queue=max_queue,
                retry_after_s=retry_after_s,
            ),
            tracing=tracing,
            trace_log=trace_log,
            trace_capacity=trace_capacity,
        )
        self._thread: threading.Thread | None = None
        self._loop_entered = False
        self._stopped = False

    @property
    def admission(self) -> AdmissionController:
        return self._httpd.admission

    @property
    def traces(self) -> TraceStore:
        return self._httpd.traces

    @property
    def trace_log(self) -> TraceLog | None:
        return self._httpd.trace_log

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "LabelingServer":
        """Serve on a daemon thread; returns immediately."""
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._loop_entered = True
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name=f"repro-serve:{self.port}",
            daemon=True,
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`stop` (or interrupt)."""
        self._loop_entered = True
        self._httpd.serve_forever()

    def stop(self) -> None:
        """Graceful shutdown: stop accepting, close the socket, drop caches.

        Idempotent; in-flight handlers finish (``shutdown`` only stops the
        accept loop, daemon handler threads drain on their own).
        """
        if self._stopped:
            return
        self._stopped = True
        # shutdown() handshakes with a serve loop; calling it when no loop
        # ever ran would block forever on the loop-exit event.
        if self._loop_entered:
            self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None
        self.engine.close()

    def __enter__(self) -> "LabelingServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
