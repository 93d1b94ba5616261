"""Closed-loop HTTP load generator: each client waits for its reply before
sending the next request, as the service's callers do."""

from __future__ import annotations

import http.client
import itertools
import threading
import time
from dataclasses import dataclass

from workloads import Request

TIMEOUT_S = 60.0


@dataclass
class Sample:
    request: Request
    request_id: str
    start: float
    end: float
    status: int
    body: bytes

    @property
    def latency_ms(self) -> float:
        return (self.end - self.start) * 1000.0


class Client:
    """One client.  ``keepalive`` reuses one connection for every request;
    otherwise each request opens its own and sends ``Connection: close``,
    which is what the shipped ``ServiceClient`` (urllib) does."""

    def __init__(self, host: str, port: int, keepalive: bool) -> None:
        self.host, self.port, self.keepalive = host, port, keepalive
        self._conn: http.client.HTTPConnection | None = None

    def _connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port, timeout=TIMEOUT_S)

    def open(self) -> None:
        """Open the keep-alive connection and use it once, untimed, so that
        timed requests never pay for connecting."""
        if self.keepalive:
            self._conn = self._connect()
            self._conn.request("GET", "/healthz")
            self._conn.getresponse().read()

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def send(self, request: Request, request_id: str) -> Sample:
        headers = {"Content-Type": "application/json", "X-Request-Id": request_id}
        payload = request.body
        start = time.perf_counter()
        if self.keepalive:
            if self._conn is None:
                self._conn = self._connect()
            conn = self._conn
        else:
            conn = self._connect()
            headers["Connection"] = "close"
        try:
            conn.request("POST", request.path, body=payload, headers=headers)
            response = conn.getresponse()
            body = response.read()
            status = response.status
        except (OSError, http.client.HTTPException):
            status, body = 0, b""
            self.close()
        finally:
            if not self.keepalive:
                conn.close()
        return Sample(request, request_id, start, time.perf_counter(), status, body)


def run_sequential(client: Client, requests: list[Request], prefix: str) -> list[Sample]:
    """Send ``requests`` one after another (the untimed warm-up)."""
    return [client.send(r, f"{prefix}-{i}") for i, r in enumerate(requests)]


def run_closed_loop(
    clients: list[Client], requests: list[Request], seconds: float, prefix: str
) -> tuple[list[Sample], float, bool]:
    """Drive ``clients`` concurrently over ``requests`` (taken in order) until
    ``seconds`` have passed.  Requests in flight at the deadline complete and
    count.  Returns the samples, the timing start and whether the request
    list ran out before the deadline."""
    counter = itertools.count()
    samples: list[Sample] = []
    lock = threading.Lock()
    exhausted = threading.Event()
    barrier = threading.Barrier(len(clients) + 1)
    start = 0.0

    def loop(client: Client) -> None:
        barrier.wait()
        deadline = start + seconds
        mine = []
        while time.perf_counter() < deadline:
            index = next(counter)
            if index >= len(requests):
                exhausted.set()
                break
            mine.append(client.send(requests[index], f"{prefix}-{index}"))
        with lock:
            samples.extend(mine)

    threads = [threading.Thread(target=loop, args=(c,), daemon=True) for c in clients]
    for thread in threads:
        thread.start()
    start = time.perf_counter()
    barrier.wait()
    for thread in threads:
        thread.join()
    samples.sort(key=lambda s: s.end)
    return samples, start, exhausted.is_set()
