"""The labeling service: cache, engine, batch isolation, HTTP round trips."""

from __future__ import annotations

import io
import json
import time

import pytest

from repro.datasets.registry import load_domain
from repro.schema.serialize import corpus_to_dict
from repro.service.cache import LRUCache
from repro.service.client import ServiceClient, ServiceError
from repro.service.engine import (
    LabelingEngine,
    LabelingRequest,
    RequestError,
    execute_batch,
)
from repro.service.server import LabelingServer, MetricsRegistry


class TestLRUCache:
    def test_miss_then_hit(self):
        cache = LRUCache(capacity=2)
        assert cache.get("k") is None
        cache.put("k", 1)
        assert cache.get("k") == 1
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (1, 1)
        assert stats.hit_rate == pytest.approx(0.5)

    def test_eviction_is_lru(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")          # refresh 'a'; 'b' is now coldest
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert cache.stats().evictions == 1
        assert len(cache) == 2

    def test_zero_capacity_disables_storage(self):
        cache = LRUCache(capacity=0)
        cache.put("k", 1)
        assert cache.get("k") is None
        stats = cache.stats()
        assert stats.misses == 1 and stats.size == 0

    def test_clear_keeps_counters(self):
        cache = LRUCache(capacity=4)
        cache.put("k", 1)
        cache.get("k")
        cache.clear()
        assert cache.get("k") is None
        stats = cache.stats()
        assert stats.hits == 1 and stats.size == 0


class TestExecuteBatch:
    def test_results_in_submission_order(self):
        outcomes = execute_batch([lambda i=i: i * i for i in range(6)], jobs=3)
        assert [o.value for o in outcomes] == [0, 1, 4, 9, 16, 25]
        assert all(o.ok for o in outcomes)

    def test_partial_failure_is_isolated(self):
        def boom():
            raise RuntimeError("poisoned corpus")

        outcomes = execute_batch([lambda: "ok", boom, lambda: "also ok"], jobs=2)
        assert [o.ok for o in outcomes] == [True, False, True]
        assert "poisoned corpus" in outcomes[1].error
        assert outcomes[1].error_type == "internal"

    def test_timeout_degrades_to_error(self):
        def slow():
            time.sleep(5)
            return "never"

        outcomes = execute_batch([slow, lambda: "fast"], jobs=2, timeout=0.2)
        assert not outcomes[0].ok
        assert outcomes[0].error_type == "timeout"
        assert outcomes[1].ok and outcomes[1].value == "fast"

    def test_sequential_path_matches_parallel(self):
        tasks = [lambda i=i: i + 1 for i in range(5)]
        sequential = [o.value for o in execute_batch(tasks, jobs=1)]
        parallel = [o.value for o in execute_batch(tasks, jobs=4)]
        assert sequential == parallel


class TestEngine:
    @pytest.fixture(scope="class")
    def engine(self):
        return LabelingEngine(cache_size=8)

    def test_domain_request(self, engine):
        response = engine.label({"domain": "job", "seed": 0})
        assert response["ok"] and response["cached"] is False
        assert response["classification"] in (
            "consistent", "weakly_consistent", "inconsistent"
        )
        assert response["stats"]["leaves"] > 0
        assert response["tree"]["children"]

    def test_repeat_request_hits_cache(self, engine):
        cold = engine.label({"domain": "auto", "seed": 0})
        warm = engine.label({"domain": "auto", "seed": 0})
        assert cold["cached"] is False and warm["cached"] is True
        assert warm["fingerprint"] == cold["fingerprint"]
        assert warm["field_labels"] == cold["field_labels"]
        assert engine.stats()["cache"]["hits"] >= 1

    def test_corpus_and_domain_requests_share_cache_key(self, engine):
        dataset = load_domain("hotels", seed=0)
        document = corpus_to_dict(dataset.interfaces, dataset.mapping)
        engine.label({"domain": "hotels", "seed": 0})
        via_corpus = engine.label({"corpus": document})
        assert via_corpus["cached"] is True

    def test_cached_response_is_isolated_copy(self, engine):
        first = engine.label({"domain": "job", "seed": 3})
        first["field_labels"].clear()
        first["tree"]["children"] = []
        second = engine.label({"domain": "job", "seed": 3})
        assert second["field_labels"] and second["tree"]["children"]

    def test_lint_flag_adds_findings(self, engine):
        response = engine.label({"domain": "airline", "seed": 0, "lint": True})
        assert isinstance(response["lint"], list)
        for finding in response["lint"]:
            assert {"check", "severity", "nodes", "message"} <= set(finding)

    def test_lint_flag_respected_across_cache_hits(self):
        engine = LabelingEngine(cache_size=8)
        plain = engine.label({"domain": "realestate", "seed": 0})
        assert "lint" not in plain
        linted = engine.label({"domain": "realestate", "seed": 0, "lint": True})
        assert linted["cached"] is True
        assert isinstance(linted["lint"], list)
        plain_again = engine.label({"domain": "realestate", "seed": 0})
        assert plain_again["cached"] is True
        assert "lint" not in plain_again

    def test_options_are_honored_and_keyed(self, engine):
        base = engine.label({"domain": "realestate", "seed": 0})
        ablated = engine.label(
            {"domain": "realestate", "seed": 0, "options": {"use_instances": False}}
        )
        assert ablated["fingerprint"] != base["fingerprint"]
        assert ablated["cached"] is False

    def test_batch_partial_failure(self, engine):
        responses = engine.label_batch(
            [
                {"domain": "job", "seed": 0},
                {"domain": "atlantis"},
                "not even an object",
                {"domain": "auto", "seed": 0},
            ],
            jobs=2,
        )
        assert [r.get("ok") for r in responses] == [True, False, False, True]
        assert responses[1]["error_type"] == "invalid_request"
        assert "atlantis" in responses[1]["error"]
        assert responses[2]["error_type"] == "invalid_request"


class TestRequestValidation:
    def test_needs_corpus_or_domain(self):
        with pytest.raises(RequestError, match="exactly one"):
            LabelingRequest.from_payload({})
        with pytest.raises(RequestError, match="exactly one"):
            LabelingRequest.from_payload({"domain": "job", "corpus": {}})

    def test_unknown_domain(self):
        with pytest.raises(RequestError, match="unknown domain"):
            LabelingRequest.from_payload({"domain": "warehouse"})

    def test_bad_seed(self):
        with pytest.raises(RequestError, match="seed"):
            LabelingRequest.from_payload({"domain": "job", "seed": "zero"})

    def test_malformed_corpus(self):
        with pytest.raises(RequestError, match="malformed corpus"):
            LabelingRequest.from_payload(
                {"corpus": {"interfaces": [{"oops": True}], "mapping": {}}}
            )

    def test_empty_interfaces(self):
        with pytest.raises(RequestError, match="non-empty"):
            LabelingRequest.from_payload(
                {"corpus": {"interfaces": [], "mapping": {}}}
            )

    def test_bad_options(self):
        with pytest.raises(RequestError, match="max_level"):
            LabelingRequest.from_payload(
                {"domain": "job", "options": {"max_level": "psychic"}}
            )

    def test_bad_timeout(self):
        with pytest.raises(RequestError, match="timeout"):
            LabelingRequest.from_payload({"domain": "job", "timeout": -1})

    def test_bad_lexicon(self):
        with pytest.raises(RequestError, match="lexicon"):
            LabelingRequest.from_payload(
                {"domain": "job", "lexicon": {"hypernyms": [["only-one"]]}}
            )


class TestMetricsRegistry:
    def test_percentiles_from_ring_buffer(self):
        registry = MetricsRegistry(window=100)
        for ms in range(1, 101):
            registry.record("/label", 200, float(ms))
        snap = registry.snapshot()
        assert snap["requests_total"] == 100
        assert snap["latency"]["p50_ms"] == 50.0
        assert snap["latency"]["p99_ms"] == 99.0
        assert snap["latency"]["max_ms"] == 100.0

    def test_window_bounds_memory(self):
        registry = MetricsRegistry(window=10)
        for ms in range(1000):
            registry.record("/label", 200, float(ms))
        assert registry.snapshot()["latency"]["window"] == 10

    def test_nearest_rank_semantics(self):
        # Nearest-rank: rank = ceil(n * pct / 100), 1-indexed.
        ordered = [10.0, 20.0, 30.0, 40.0]
        assert MetricsRegistry._percentile(ordered, 50) == 20.0
        assert MetricsRegistry._percentile(ordered, 90) == 40.0
        assert MetricsRegistry._percentile(ordered, 99) == 40.0
        assert MetricsRegistry._percentile([7.5], 99) == 7.5
        assert MetricsRegistry._percentile([], 50) == 0.0
        # p99 only separates from max once the window exceeds 100 samples.
        big = [float(ms) for ms in range(1, 201)]
        assert MetricsRegistry._percentile(big, 99) == 198.0
        assert MetricsRegistry._percentile(big, 100) == 200.0

    def test_snapshot_reports_p50_p90_p99(self):
        registry = MetricsRegistry(window=200)
        for ms in range(1, 201):
            registry.record("/label", 200, float(ms))
        latency = registry.snapshot()["latency"]
        assert latency["p50_ms"] == 100.0
        assert latency["p90_ms"] == 180.0
        assert latency["p99_ms"] == 198.0
        assert latency["max_ms"] == 200.0

    def test_sorted_sample_cached_between_snapshots(self):
        registry = MetricsRegistry(window=100)
        for ms in (3.0, 1.0, 2.0):
            registry.record("/label", 200, ms)
        first = registry.snapshot()
        cached = registry._sorted
        assert cached == [1.0, 2.0, 3.0]
        # An idle re-poll reuses the sorted sample (same object)...
        assert registry.snapshot()["latency"] == first["latency"]
        assert registry._sorted is cached
        # ...and the next record invalidates it.
        registry.record("/label", 200, 0.5)
        assert registry._sorted is None
        assert registry.snapshot()["latency"]["p50_ms"] == 1.0


class TestHTTPService:
    @pytest.fixture(scope="class")
    def server(self):
        with LabelingServer(port=0, cache_size=16) as running:
            yield running

    @pytest.fixture(scope="class")
    def client(self, server):
        return ServiceClient(server.url, timeout=60)

    def test_healthz(self, client):
        payload = client.healthz()
        assert payload["status"] == "ok"
        assert payload["uptime_s"] >= 0

    def test_label_round_trip_and_cache_metrics(self, client):
        cold = client.label(domain="job", seed=0)
        assert cold["ok"] and cold["cached"] is False
        assert cold["tree"]["children"]

        hits_before = client.metrics()["engine"]["cache"]["hits"]
        warm = client.label(domain="job", seed=0)
        assert warm["cached"] is True
        assert warm["classification"] == cold["classification"]
        hits_after = client.metrics()["engine"]["cache"]["hits"]
        assert hits_after == hits_before + 1

    def test_label_raw_corpus_payload(self, client):
        dataset = load_domain("auto", seed=1)
        response = client.label_corpus(dataset.interfaces, dataset.mapping)
        assert response["ok"]
        assert response["stats"]["interfaces"] == len(dataset.interfaces)

    def test_invalid_request_is_400(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.label(domain="warehouse")
        assert excinfo.value.status == 400
        assert excinfo.value.payload["error_type"] == "invalid_request"

    def test_unknown_endpoint_is_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.request("GET", "/nope")
        assert excinfo.value.status == 404

    def test_batch_isolates_bad_item(self, client):
        payload = client.batch(
            [{"domain": "job", "seed": 0}, {"domain": "atlantis"}], jobs=2
        )
        assert payload["count"] == 2
        assert payload["ok"] is False
        oks = [r.get("ok") for r in payload["results"]]
        assert oks == [True, False]

    def test_metrics_shape(self, client):
        client.healthz()
        metrics = client.metrics()
        assert metrics["http"]["requests_total"] >= 1
        assert "/healthz" in metrics["http"]["by_endpoint"]
        latency = metrics["http"]["latency"]
        assert {"p50_ms", "p90_ms", "p99_ms", "max_ms", "window"} <= set(latency)
        assert metrics["engine"]["cache"]["capacity"] == 16


class TestRunAllDomainsJobs:
    def test_parallel_matches_sequential(self):
        from repro.experiment import run_all_domains

        sequential = run_all_domains(seed=0, respondent_count=1, jobs=1)
        parallel = run_all_domains(seed=0, respondent_count=1, jobs=4)
        assert list(sequential) == list(parallel)
        for name in sequential:
            a, b = sequential[name], parallel[name]
            assert a.classification == b.classification
            assert a.fld_acc == b.fld_acc
            assert a.int_acc == b.int_acc
            assert a.ha == b.ha
            assert a.labeling.field_labels == b.labeling.field_labels


class TestLintNodeDict:
    def test_lints_service_tree_payload(self, comparator):
        engine = LabelingEngine(cache_size=0)
        response = engine.label({"domain": "airline", "seed": 0, "lint": True})
        from repro.lint import lint_node_dict

        findings = lint_node_dict(response["tree"], comparator)
        assert len(findings) == len(response["lint"])

    def test_rejects_non_tree(self):
        from repro.lint import lint_node_dict

        with pytest.raises(ValueError, match="serialized schema node"):
            lint_node_dict({"not": "a tree"})


class TestClientErrorPaths:
    def test_connection_refused_raises_status_zero(self):
        # Bind-then-close gives a port nothing is listening on.
        import socket

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        client = ServiceClient(f"http://127.0.0.1:{port}", timeout=2, retries=0)
        with pytest.raises(ServiceError) as excinfo:
            client.healthz()
        assert excinfo.value.status == 0
        assert excinfo.value.payload == {}
        assert "failed" in str(excinfo.value)

    def test_connection_failures_are_retried(self):
        import socket

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        client = ServiceClient(
            f"http://127.0.0.1:{port}", timeout=2, retries=2, backoff_s=0.01
        )
        with pytest.raises(ServiceError):
            client.healthz()
        assert client.last_attempts == 3  # the initial try + both retries

    def test_malformed_json_body_raises_status_zero(self):
        # A tiny HTTP server that answers 200 with a non-JSON body: the
        # client must surface an unparseable success as a ServiceError
        # rather than returning garbage.
        import threading
        from http.server import BaseHTTPRequestHandler, HTTPServer

        class GarbageHandler(BaseHTTPRequestHandler):
            def do_GET(self):
                body = b"<html>definitely not json</html>"
                self.send_response(200)
                self.send_header("Content-Type", "text/html")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, format, *args):  # noqa: A002
                pass

        httpd = HTTPServer(("127.0.0.1", 0), GarbageHandler)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        try:
            url = f"http://127.0.0.1:{httpd.server_address[1]}"
            client = ServiceClient(url, timeout=5, retries=0)
            with pytest.raises(ServiceError) as excinfo:
                client.healthz()
            assert excinfo.value.status == 0
            assert "not valid JSON" in str(excinfo.value)
        finally:
            httpd.shutdown()
            httpd.server_close()

    def test_429_is_retried_honoring_retry_after(self):
        # A server that sheds the first two attempts with 429 + Retry-After
        # and then succeeds; the client must sleep what the server said
        # and deliver the eventual success.
        import json as json_module
        import threading
        from http.server import BaseHTTPRequestHandler, HTTPServer

        hits = []

        class SheddingHandler(BaseHTTPRequestHandler):
            def do_GET(self):
                hits.append(time.monotonic())
                if len(hits) <= 2:
                    payload = {
                        "ok": False,
                        "error_type": "overloaded",
                        "retry_after": 0.08,
                    }
                    body = json_module.dumps(payload).encode()
                    self.send_response(429)
                    self.send_header("Retry-After", "0.080")
                else:
                    body = json_module.dumps({"status": "ok"}).encode()
                    self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, format, *args):  # noqa: A002
                pass

        httpd = HTTPServer(("127.0.0.1", 0), SheddingHandler)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        try:
            url = f"http://127.0.0.1:{httpd.server_address[1]}"
            client = ServiceClient(url, timeout=5, retries=3, backoff_s=0.5)
            response = client.healthz()
            assert response == {"status": "ok"}
            assert client.last_attempts == 3
            # Both gaps honored the server's 0.08s Retry-After, not the
            # client's 0.5s default backoff.
            gaps = [b - a for a, b in zip(hits, hits[1:])]
            assert all(0.07 <= gap < 0.4 for gap in gaps), gaps
        finally:
            httpd.shutdown()
            httpd.server_close()

    def test_retry_after_capped_by_max_backoff(self):
        error = ServiceError(429, {"retry_after": 30.0}, "overloaded")
        client = ServiceClient("http://127.0.0.1:1", max_backoff_s=0.25)
        assert client._delay_for(error) == 0.25

    def test_non_retryable_status_is_not_retried(self):
        with LabelingServer(port=0) as server:
            client = ServiceClient(server.url, retries=3)
            with pytest.raises(ServiceError) as excinfo:
                client.label(domain="no-such-domain")
            assert excinfo.value.status == 400
            assert client.last_attempts == 1


class TestContentLengthHandling:
    """POST body framing: the server must never 500 (or hang) on a bad
    Content-Length — missing, zero, garbage, or absurdly large."""

    @pytest.fixture(scope="class")
    def server(self):
        with LabelingServer(port=0, cache_size=4) as running:
            yield running

    @staticmethod
    def _raw_post(server, headers: dict, body: bytes = b""):
        """POST with full control over the headers urllib would normalize."""
        import http.client
        from urllib.parse import urlsplit

        parts = urlsplit(server.url)
        conn = http.client.HTTPConnection(parts.hostname, parts.port, timeout=10)
        try:
            conn.putrequest("POST", "/label", skip_accept_encoding=True)
            for name, value in headers.items():
                conn.putheader(name, value)
            conn.endheaders()
            if body:
                conn.send(body)
            response = conn.getresponse()
            payload = json.loads(response.read())
            return response.status, payload
        finally:
            conn.close()

    def test_missing_content_length_is_400(self, server):
        status, payload = self._raw_post(
            server, {"Content-Type": "application/json"}
        )
        assert status == 400
        assert payload["error_type"] == "invalid_request"
        assert "body required" in payload["error"]
        assert payload["request_id"]

    def test_zero_content_length_is_400(self, server):
        status, payload = self._raw_post(
            server,
            {"Content-Type": "application/json", "Content-Length": "0"},
        )
        assert status == 400
        assert "body required" in payload["error"]

    def test_garbage_content_length_is_400_not_500(self, server):
        status, payload = self._raw_post(
            server,
            {"Content-Type": "application/json", "Content-Length": "banana"},
        )
        assert status == 400
        assert payload["error_type"] == "invalid_request"
        assert "invalid Content-Length" in payload["error"]
        assert "'banana'" in payload["error"]

    def test_oversized_declared_length_is_413_without_reading(self, server):
        # Declare far more than MAX_BODY_BYTES but send nothing: the
        # server must answer 413 immediately instead of blocking on a
        # body that never arrives.
        declared = 64 * 1024 * 1024
        status, payload = self._raw_post(
            server,
            {
                "Content-Type": "application/json",
                "Content-Length": str(declared),
            },
        )
        assert status == 413
        assert payload["error_type"] == "payload_too_large"
        assert str(declared) in payload["error"]
        # The connection misbehavior did not wedge the server.
        assert ServiceClient(server.url, timeout=10).healthz()["status"] == "ok"


class TestClientErrorBodyShapes:
    """The retry loop must survive whatever JSON shape an error body has."""

    @staticmethod
    def _serve_one(status: int, body: bytes, headers: dict | None = None):
        import threading
        from http.server import BaseHTTPRequestHandler, HTTPServer

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self):
                self.send_response(status)
                for name, value in (headers or {}).items():
                    self.send_header(name, value)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, format, *args):  # noqa: A002
                pass

        httpd = HTTPServer(("127.0.0.1", 0), Handler)
        threading.Thread(target=httpd.serve_forever, daemon=True).start()
        return httpd

    def test_json_array_error_body_does_not_crash_client(self):
        # A non-repro upstream may answer an error with a JSON array;
        # the client used to call .get on it and die with AttributeError.
        httpd = self._serve_one(500, b'["oops", "broken"]')
        try:
            url = f"http://127.0.0.1:{httpd.server_address[1]}"
            client = ServiceClient(url, timeout=5, retries=0)
            with pytest.raises(ServiceError) as excinfo:
                client.healthz()
            assert excinfo.value.status == 500
            assert excinfo.value.payload == {}
            assert "oops" in str(excinfo.value)
        finally:
            httpd.shutdown()
            httpd.server_close()

    def test_http_date_retry_after_falls_back_to_backoff(self):
        # RFC 7231 allows Retry-After as an HTTP-date; float() on it used
        # to raise ValueError straight out of the retry loop.
        error = ServiceError(429, {}, "overloaded")
        error.retry_after_header = "Wed, 21 Oct 2026 07:28:00 GMT"
        client = ServiceClient("http://127.0.0.1:1", backoff_s=0.07)
        assert client._delay_for(error) == pytest.approx(0.07)

    def test_garbage_retry_after_payload_falls_back(self):
        error = ServiceError(429, {"retry_after": "soon-ish"}, "overloaded")
        client = ServiceClient("http://127.0.0.1:1", backoff_s=0.03)
        assert client._delay_for(error) == pytest.approx(0.03)

    def test_http_date_retry_after_is_retried_end_to_end(self):
        # 429 with only an HTTP-date Retry-After header must still be
        # retried (on the client's own backoff), not explode.
        import threading
        from http.server import BaseHTTPRequestHandler, HTTPServer

        hits = []

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self):
                hits.append(1)
                if len(hits) == 1:
                    body = b'{"ok": false, "error_type": "overloaded"}'
                    self.send_response(429)
                    self.send_header(
                        "Retry-After", "Wed, 21 Oct 2026 07:28:00 GMT"
                    )
                else:
                    body = b'{"status": "ok"}'
                    self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, format, *args):  # noqa: A002
                pass

        httpd = HTTPServer(("127.0.0.1", 0), Handler)
        threading.Thread(target=httpd.serve_forever, daemon=True).start()
        try:
            url = f"http://127.0.0.1:{httpd.server_address[1]}"
            client = ServiceClient(url, timeout=5, retries=2, backoff_s=0.01)
            assert client.healthz() == {"status": "ok"}
            assert client.last_attempts == 2
        finally:
            httpd.shutdown()
            httpd.server_close()


class _RecordingSocket:
    """A connected-socket stand-in: holds one request, records every send."""

    def __init__(self, request: bytes) -> None:
        self._request = request
        self.writes: list[bytes] = []

    def makefile(self, mode, *args, **kwargs):
        assert "r" in mode  # the handler writes through sendall
        return io.BytesIO(self._request)

    def sendall(self, data) -> None:
        self.writes.append(bytes(data))


class TestSingleWriteResponses:
    """Status line, headers and body leave in one write.  A body written
    after flushed headers waits on Nagle's algorithm for the client's
    delayed ACK, which cost every keep-alive response about 40 ms."""

    @pytest.fixture(scope="class")
    def engine(self):
        engine = LabelingEngine(cache_size=4)
        engine.label({"domain": "airline", "seed": 0})
        return engine

    @staticmethod
    def _exchange(engine, request: bytes, admission=None) -> list[bytes]:
        from types import SimpleNamespace

        from repro.obs import TraceStore
        from repro.resilience import AdmissionController
        from repro.service.server import _Handler

        server = SimpleNamespace(
            engine=engine,
            metrics=MetricsRegistry(),
            quiet=True,
            admission=admission or AdmissionController(),
            tracing=False,
            traces=TraceStore(),
            trace_log=None,
        )
        sock = _RecordingSocket(request)
        _Handler(sock, ("127.0.0.1", 0), server)
        return sock.writes

    @staticmethod
    def _post(body: bytes, length: int | None = None) -> bytes:
        length = len(body) if length is None else length
        return (
            b"POST /label HTTP/1.1\r\nHost: test\r\nConnection: close\r\n"
            b"Content-Type: application/json\r\n"
            + f"Content-Length: {length}\r\n\r\n".encode()
            + body
        )

    @staticmethod
    def _parse(data: bytes):
        """Parse one HTTP/1.1 response; return (response, body, leftover)."""
        import http.client

        class _Stream(io.BytesIO):
            def close(self) -> None:  # keep the leftover readable
                pass

        class _Sock:
            def makefile(self, mode, *args, **kwargs):
                return stream

        stream = _Stream(data)
        response = http.client.HTTPResponse(_Sock())
        response.begin()
        body = response.read()
        return response, body, stream.read()

    def _assert_one_response(self, writes: list[bytes], status: int):
        assert len(writes) == 1
        response, body, leftover = self._parse(writes[0])
        assert response.version == 11
        assert response.status == status
        assert int(response.getheader("Content-Length")) == len(body)
        assert leftover == b""
        return response, json.loads(body)

    def test_label_200(self, engine):
        body = json.dumps({"domain": "airline", "seed": 0}).encode()
        writes = self._exchange(engine, self._post(body))
        response, payload = self._assert_one_response(writes, 200)
        assert payload["ok"] and payload["cached"] is True
        assert response.getheader("X-Request-Id") == payload["request_id"]

    def test_invalid_body_400(self, engine):
        writes = self._exchange(engine, self._post(b"{not json"))
        _, payload = self._assert_one_response(writes, 400)
        assert payload["error_type"] == "invalid_request"

    def test_oversized_declaration_413(self, engine):
        writes = self._exchange(engine, self._post(b"", length=64 * 1024 * 1024))
        _, payload = self._assert_one_response(writes, 413)
        assert payload["error_type"] == "payload_too_large"

    def test_shed_429_with_retry_after(self, engine):
        from repro.resilience import AdmissionController

        admission = AdmissionController(max_concurrent=1, max_queue=0)
        assert admission.acquire()  # the only slot is busy
        body = json.dumps({"domain": "airline", "seed": 0}).encode()
        writes = self._exchange(engine, self._post(body), admission=admission)
        response, payload = self._assert_one_response(writes, 429)
        assert payload["error_type"] == "overloaded"
        assert float(response.getheader("Retry-After")) == payload["retry_after"]

    def test_get_healthz(self, engine):
        request = b"GET /healthz HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"
        writes = self._exchange(engine, request)
        _, payload = self._assert_one_response(writes, 200)
        assert payload["status"] == "ok"
