"""Seeded inputs, expected outputs and the output check for each workload.

Inputs depend only on ``--seed``; the server receives nothing but the
generated payloads.  A seeded sample of in-process recomputes and the seed-0
goldens are prepared here, before any timing starts.  The fingerprint each
item must carry is computed from its payload after the timed phase, for the
requests that were sent: most generated inputs are never sent, and
fingerprinting all of them would make a run much longer.
"""

from __future__ import annotations

import functools
import json
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from repro.datasets.registry import DOMAINS, load_domain
from repro.schema.serialize import corpus_to_dict
from repro.service.engine import LabelingEngine
from repro.service.fingerprint import fingerprint_document

#: label_warm draws from 7 domains x these seeds: 28 payloads, below the
#: server's default LRU capacity (128), so every timed request is a hit.
WARM_SEEDS = range(4)

#: batch_corpus documents must serialize to 15-40 KB.  Job (mostly under
#: 15 KB; its closure tail is label_cold's subject) and hotels (mostly over
#: 40 KB) fall outside for most seeds and are left out of the rotation.
BATCH_DOMAINS = ("airline", "auto", "book", "realestate", "carrental")
BATCH_MIN_BYTES = 15_000
BATCH_MAX_BYTES = 40_000
BATCH_HIT_POOL = 8
BATCH_HITS, BATCH_NEW = 4, 3  # plus one duplicate of a new document
BATCH_JOBS = 2
#: Worker processes that build batch_corpus documents before timing.
GENERATORS = 2

#: Timed inputs are generated up front; these cap them per measured second,
#: at least ten times the rates measured on a 2-vCPU VM (label_warm 39
#: items/s, label_cold 13 items/s, batch_corpus 6 batches/s).  A run that
#: exhausts its list ends early and is reported as not correct.
WARM_REQUESTS_PER_S = 2000
COLD_ITEMS_PER_S = 150
BATCHES_PER_S = 60

#: Timed seeds are drawn from here; warm-up seeds stay below it, so no
#: timed (domain, seed) pair was ever seen by the server.
TIMED_SEED_BASE = 1000

#: Keys that legitimately differ between a hit and the miss that filled it.
VOLATILE = ("cached", "request_id")

GOLDEN_KEYS = ("classification", "field_labels", "node_labels")


@dataclass(frozen=True)
class Request:
    """One HTTP request.  Its body is ``parts`` joined, so that batches can
    share their documents' bytes.  ``corpora`` holds, per item, what the
    item's corpus is made from: a ``(domain, seed)`` pair or the item's JSON
    (see :func:`expected_fingerprint`)."""

    path: str
    parts: tuple[bytes, ...]
    corpora: tuple

    @property
    def body(self) -> bytes:
        return b"".join(self.parts)

    @property
    def items(self) -> int:
        return len(self.corpora)


@dataclass
class Workload:
    name: str
    clients: int
    keepalive: bool
    serve_args: list[str]
    disk_cache: bool
    warmup: list[Request]
    timed: list[Request]
    #: fingerprint -> response content recomputed in-process.
    recompute: dict[str, dict] = field(default_factory=dict)
    #: fingerprint -> the golden file's answer (seed-0 domain payloads).
    golden: dict[str, dict] = field(default_factory=dict)


def _dumps(value) -> bytes:
    return json.dumps(value).encode("utf-8")


def _domain_document(domain: str, seed: int) -> dict:
    dataset = load_domain(domain, seed=seed)
    return corpus_to_dict(dataset.interfaces, dataset.mapping)


def _label_request(domain: str, seed: int) -> tuple[dict, Request]:
    payload = {"domain": domain, "seed": seed}
    return payload, Request("/label", (_dumps(payload),), ((domain, seed),))


@functools.cache
def expected_fingerprint(corpus) -> str:
    """``fingerprint_document`` of one item's corpus: ``corpus`` is a
    ``(domain, seed)`` pair or a ``/batch`` item's JSON."""
    if isinstance(corpus, bytes):
        return fingerprint_document(json.loads(corpus)["corpus"])
    return fingerprint_document(_domain_document(*corpus))


def _recompute(payloads: list[dict]) -> dict[str, dict]:
    engine = LabelingEngine(cache_size=0)
    expected = {}
    for payload in payloads:
        response = engine.label(payload)
        expected[response["fingerprint"]] = recompute_view(response)
    return expected


def _golden(golden_dir: Path, domain: str) -> dict[str, dict]:
    document = json.loads((golden_dir / f"{domain}.json").read_text())
    fingerprint = expected_fingerprint((domain, 0))
    return {fingerprint: {key: document[key] for key in GOLDEN_KEYS}}


def label_warm(seed: int, seconds: int, golden_dir: Path) -> Workload:
    rng = random.Random(seed)
    payloads, requests, golden = [], [], {}
    for domain in DOMAINS:
        for domain_seed in WARM_SEEDS:
            payload, request = _label_request(domain, domain_seed)
            payloads.append(payload)
            requests.append(request)
            if domain_seed == 0:
                golden.update(_golden(golden_dir, domain))
    others = [p for p in payloads if p["seed"] != 0]
    timed = [rng.choice(requests) for _ in range(WARM_REQUESTS_PER_S * seconds)]
    return Workload(
        name="label_warm",
        clients=2,
        keepalive=True,
        serve_args=[],
        disk_cache=False,
        warmup=requests,
        timed=timed,
        recompute=_recompute(rng.sample(others, 4)),
        golden=golden,
    )


def label_cold(seed: int, seconds: int, golden_dir: Path) -> Workload:
    rng = random.Random(seed)
    rotation = list(DOMAINS)
    count = COLD_ITEMS_PER_S * seconds
    seeds = rng.sample(range(TIMED_SEED_BASE, TIMED_SEED_BASE + 100 * count), count)
    payloads, timed = [], []
    for index, domain_seed in enumerate(seeds):
        payload, request = _label_request(rotation[index % len(rotation)], domain_seed)
        payloads.append(payload)
        timed.append(request)
    warmup, golden = [], {}
    for domain in DOMAINS:
        _payload, request = _label_request(domain, 0)
        warmup.append(request)
        golden.update(_golden(golden_dir, domain))
    return Workload(
        name="label_cold",
        # One client: the server is bound by the interpreter lock, so a
        # second client adds no throughput, and its overlap with job items
        # made the median swing between two modes from run to run.
        clients=1,
        keepalive=False,
        serve_args=[],
        disk_cache=True,
        warmup=warmup,
        timed=timed,
        recompute=_recompute(rng.sample(payloads[: 6 * len(rotation)], 6)),
        golden=golden,
    )


def _batch_item(source: tuple[str, int]) -> bytes | None:
    """The ``/batch`` item (JSON) for ``(domain, seed)``, or None when it
    falls outside 15-40 KB."""
    item = _dumps({"corpus": _domain_document(*source)})
    return item if BATCH_MIN_BYTES <= len(item) <= BATCH_MAX_BYTES else None


def _batch_documents(rng: random.Random, count: int) -> list[bytes]:
    """``count`` distinct ``/batch`` items sized 15-40 KB.  Candidates are
    drawn in domain rotation and built in ``GENERATORS`` worker processes;
    those outside the size range are dropped, in draw order."""
    used: set = set()
    documents: list[bytes] = []
    with ProcessPoolExecutor(GENERATORS) as pool:
        while len(documents) < count:
            sources = []
            while len(sources) < 1.2 * (count - len(documents)) + 8:
                domain = BATCH_DOMAINS[len(used) % len(BATCH_DOMAINS)]
                source = (domain, rng.randrange(TIMED_SEED_BASE, 10**9))
                if source not in used:
                    used.add(source)
                    sources.append(source)
            built = pool.map(_batch_item, sources, chunksize=32)
            documents += [item for item in built if item is not None]
    return documents[:count]


def _batch(items: list[bytes]) -> Request:
    parts = [b'{"requests": [', items[0]]
    for item in items[1:]:
        parts += [b", ", item]
    parts.append(b'], "jobs": %d}' % BATCH_JOBS)
    return Request("/batch", tuple(parts), tuple(items))


def batch_corpus(seed: int, seconds: int, golden_dir: Path) -> Workload:
    rng = random.Random(seed)
    documents = _batch_documents(rng, 2 * BATCH_HIT_POOL + BATCH_NEW * BATCHES_PER_S * seconds)
    pool, warm_new = documents[:BATCH_HIT_POOL], documents[BATCH_HIT_POOL : 2 * BATCH_HIT_POOL]
    fresh = documents[2 * BATCH_HIT_POOL :]
    timed = []
    for start in range(0, len(fresh), BATCH_NEW):
        new = fresh[start : start + BATCH_NEW]
        items = rng.sample(pool, BATCH_HITS) + new + [rng.choice(new)]
        rng.shuffle(items)
        timed.append(_batch(items))
    warmup = [_batch(pool), _batch(warm_new)]
    sample = rng.sample(pool, 4) + rng.sample(fresh[: 4 * BATCH_NEW], 4)
    return Workload(
        name="batch_corpus",
        clients=1,
        keepalive=True,
        serve_args=["--executor", "process", "--jobs", str(BATCH_JOBS)],
        disk_cache=False,
        warmup=warmup,
        timed=timed,
        recompute=_recompute([json.loads(item) for item in sample]),
    )


WORKLOADS_BY_NAME = {
    "label_warm": label_warm,
    "label_cold": label_cold,
    "batch_corpus": batch_corpus,
}


def build(name: str, seed: int, seconds: int, golden_dir: Path) -> Workload:
    return WORKLOADS_BY_NAME[name](seed, seconds, golden_dir)


# ----------------------------------------------------------------------
# The output check.
# ----------------------------------------------------------------------


def hit_view(item: dict) -> dict:
    """What a cache hit must share with the miss that filled it."""
    return {key: value for key, value in item.items() if key not in VOLATILE}


def recompute_view(item: dict) -> dict:
    """What an answer must share with a fresh in-process computation."""
    view = hit_view(item)
    view["stats"] = {k: v for k, v in view.get("stats", {}).items() if k != "elapsed_ms"}
    return view


class Checker:
    """Checks every answered item and records why each failure failed.  The
    first answer per fingerprint is the reference that every later answer
    (hit or duplicate) must equal."""

    def __init__(self, workload: Workload) -> None:
        self.workload = workload
        self.reference: dict[str, dict] = {}
        self.mismatches: list[str] = []

    def check(self, request: Request, status: int, body: bytes) -> int:
        """Check one response; returns how many of its items failed."""
        if status != 200:
            self.mismatches.append(f"{request.path}: HTTP status {status}")
            return request.items
        try:
            payload = json.loads(body)
        except ValueError:
            self.mismatches.append(f"{request.path}: response is not JSON")
            return request.items
        items = [payload] if request.path == "/label" else payload.get("results")
        if not isinstance(items, list) or len(items) != request.items:
            self.mismatches.append(f"{request.path}: wrong number of items")
            return request.items
        return sum(
            not self._check_item(item, expected_fingerprint(corpus))
            for item, corpus in zip(items, request.corpora)
        )

    def _check_item(self, item, fingerprint: str) -> bool:
        problem = None
        if not isinstance(item, dict) or item.get("ok") is not True:
            problem = "item is not ok"
        elif item.get("fingerprint") != fingerprint:
            problem = f"fingerprint {item.get('fingerprint')} != {fingerprint}"
        elif fingerprint in self.reference:
            if hit_view(item) != self.reference[fingerprint]:
                problem = "answer differs from the earlier answer for this corpus"
        else:
            self.reference[fingerprint] = hit_view(item)
            expected = self.workload.recompute.get(fingerprint)
            if expected is not None and recompute_view(item) != expected:
                problem = "answer differs from the in-process recompute"
            golden = self.workload.golden.get(fingerprint)
            if golden is not None and any(item.get(k) != golden[k] for k in GOLDEN_KEYS):
                problem = "answer differs from the golden file"
        if problem is not None:
            self.mismatches.append(f"{fingerprint[:12]}: {problem}")
            return False
        return True
