"""Span recording around calls into the service's modules, and self times.

A span is ``(id, name, start, end, parent, request_id, tags)``: times are
``time.perf_counter()`` seconds, ``parent`` is the id of the span that was
open on the same thread when this one began (0 for none), and
``request_id`` is the ``X-Request-Id`` of the HTTP request being served.
Spans stay in memory and are written out once, at shutdown.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from pathlib import Path


class Recorder:
    """Wraps callables so that each call records one span."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def wrap(self, fn, name: str, tags=None, request_id=None):
        """``fn`` recording a span named ``name`` per call.

        ``tags(args, kwargs, result)`` returns a dict stored with the span;
        ``request_id(args)`` marks a request's outermost call and names the
        request every span under it belongs to.
        """
        local, spans, ids = self._local, self.spans, self._ids
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
                local.request_id = None
            outer_rid = local.request_id
            if request_id is not None:
                local.request_id = request_id(args)
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                span_tags = tags(args, kwargs, result) if tags is not None else None
                spans.append((span_id, name, start, end, parent, local.request_id, span_tags))
                local.request_id = outer_rid

        return wrapper

    def dump(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in list(self.spans):
                handle.write(json.dumps(span) + "\n")


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "request_id", "tags", "self_s")

    def __init__(self, row: list) -> None:
        self.id, self.name, self.start, self.end, self.parent, self.request_id, tags = row
        self.tags = tags or {}
        self.self_s = self.end - self.start

    @property
    def duration_s(self) -> float:
        return self.end - self.start


def load(path: Path) -> list[Span]:
    """Read a span file and fill in each span's self time: its duration minus
    the time its child spans cover (children run on the parent's thread, one
    after another)."""
    with open(path, encoding="utf-8") as handle:
        spans = [Span(json.loads(line)) for line in handle if line.strip()]
    by_id = {span.id: span for span in spans}
    for span in spans:
        parent = by_id.get(span.parent)
        if parent is not None:
            parent.self_s -= span.duration_s
    return spans

