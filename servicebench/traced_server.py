"""Serve the labeling API with spans recorded around calls into each layer.

Usage (from the repository root, with ``PYTHONPATH=src``)::

    python3 servicebench/traced_server.py --spans-out spans.jsonl \
        [any ``repro serve`` option, e.g. --port 0 --executor process --jobs 2]

Each callable below is replaced, at the name its callers look it up by, with
a wrapper that records one span per call (see ``spans.py``).  Then
``repro serve`` runs with the remaining options until SIGINT, and the spans
are written to ``--spans-out``.  Nothing under ``src/`` changes.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import repro.core.consistency as consistency
import repro.core.pipeline as pipeline
import repro.datasets.registry as registry
import repro.merge.merger as merger
import repro.service.engine as engine
from repro.cli import main as repro_main
from repro.core.internal_nodes import CandidateFinder
from repro.service.cache import ResultCache
from repro.service.diskcache import DiskCache
from repro.service.server import _Handler
from spans import Recorder


def _request_id(args) -> str | None:
    return (args[0].headers.get("X-Request-Id") or "").strip()[:128] or None


def _handler_tags(args, kwargs, result) -> dict:
    return {"conn_seq": getattr(args[0], "bench_requests", 0)}


def _domain_tags(args, kwargs, result) -> dict:
    return {"domain": kwargs.get("domain")}


def _closure_tags(args, kwargs, result) -> dict:
    tuples = len(result) if result is not None else 0
    return {"tuples": tuples, "truncated": tuples >= consistency.CLOSURE_LIMIT}


def _cache_get_tags(args, kwargs, result) -> dict:
    return {"hit": result is not None}


def _batch_tags(args, kwargs, result) -> dict:
    return {
        "tasks": len(args[0]),
        "jobs": kwargs.get("jobs", args[1] if len(args) > 1 else 1),
        "busy_ms": sum(outcome.elapsed_ms for outcome in result or ()),
    }


def install(recorder: Recorder) -> None:
    def patch(owner, attr: str, name: str, **kwargs) -> None:
        setattr(owner, attr, recorder.wrap(getattr(owner, attr), name, **kwargs))

    # Per-connection request count, so a handler span can tell whether its
    # request opened the connection.
    handle_one_request = _Handler.handle_one_request

    def counted(self):
        self.bench_requests = getattr(self, "bench_requests", 0) + 1
        return handle_one_request(self)

    _Handler.handle_one_request = counted
    patch(_Handler, "do_POST", "server.handler", tags=_handler_tags, request_id=_request_id)
    patch(_Handler, "_read_json", "server.read_json")
    patch(_Handler, "_send_json", "server.send_json")

    from_payload = engine.LabelingRequest.__dict__["from_payload"].__func__
    engine.LabelingRequest.from_payload = classmethod(
        recorder.wrap(from_payload, "engine.from_payload")
    )
    patch(engine.LabelingEngine, "label", "engine.label")
    patch(engine.LabelingEngine, "label_batch", "engine.label_batch")
    patch(engine, "corpus_fingerprint", "fingerprint.corpus")
    patch(engine, "interface_from_dict", "serialize.corpus_parse")
    patch(engine, "mapping_from_dict", "serialize.corpus_parse")
    patch(engine, "node_to_dict", "serialize.node_to_dict")
    patch(engine, "execute_batch", "batch.execute", tags=_batch_tags)
    patch(engine, "label_corpus", "pipeline.label_corpus", tags=_domain_tags)
    patch(registry, "load_domain", "datasets.load_domain")
    patch(ResultCache, "get", "cache.get", tags=_cache_get_tags)
    patch(ResultCache, "put", "cache.put")
    patch(DiskCache, "put", "diskcache.put")
    patch(merger, "merge_interfaces", "merge.merge")
    patch(pipeline, "name_group", "solutions.name_group")
    patch(pipeline, "resolve_homonyms", "conflicts.repair")
    patch(consistency, "combine_closure", "consistency.closure", tags=_closure_tags)
    patch(CandidateFinder, "candidates_for", "internal_nodes.candidates")
    patch(CandidateFinder, "potential_labels_for", "internal_nodes.candidates")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans-out", type=Path, required=True)
    args, serve_args = parser.parse_known_args(argv)

    recorder = Recorder()
    install(recorder)
    try:
        # ``repro serve`` stops its server on SIGINT and returns.
        return repro_main(["serve", *serve_args])
    finally:
        recorder.dump(args.spans_out)


if __name__ == "__main__":
    sys.exit(main())
