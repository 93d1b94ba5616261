"""Persistent warm-start layer under the in-memory :class:`ResultCache`.

A :class:`DiskCache` is an append-only JSONL segment store living in one
directory.  Each record is a single line::

    {"k": <corpus fingerprint>, "e": <engine-config fingerprint>,
     "crc": <CRC-32 of the value's canonical JSON>, "v": <response dict>}

The two fingerprints jointly key an entry: ``k`` describes the input
(:func:`repro.service.fingerprint.corpus_fingerprint`) and ``e`` describes
the computation (response format + verify mode + lexicon content, see
:meth:`repro.service.engine.LabelingEngine.engine_fingerprint`) — a cache
directory can therefore be shared across engine configurations without
ever serving a result computed under different semantics.

Design points:

* **Append-only writes.**  A ``put`` appends one line and flushes; there
  is no in-place mutation, so a crash mid-write can at worst leave one
  truncated final line (which the CRC check then skips).
* **CRC-verified reads.**  Every record is checked at load time against
  its stored CRC-32; a corrupt or truncated record is counted, reported
  via :meth:`stats`, and never served — the engine just recomputes.
* **Compaction.**  Rewrites one latest record per ``(e, k)`` pair into a
  fresh segment (atomic ``os.replace``) and deletes the old ones; records
  belonging to *other* engine configurations are preserved verbatim.  It
  runs only when it reclaims bytes (records superseded by a later record
  for the same pair, plus corrupt lines found at load time), and
  ``max_bytes`` says when: while the latest records fit in ``max_bytes``,
  the store is compacted back under it as soon as it outgrows it; once
  they alone exceed it, compaction waits until more than ``max_bytes``
  are reclaimable.  A store of distinct keys never compacts, however
  large it grows — there is nothing to reclaim.
* **Startup load.**  The whole store is read once at construction into a
  plain dict, so a warm restart serves every previously computed corpus
  with zero recomputation; ``load_ms`` is reported in ``/metrics``.

All mutating operations are lock-guarded; the engine may call ``put``
from many batch worker threads at once.
"""

from __future__ import annotations

import json
import logging
import os
import threading
import time
import zlib
from pathlib import Path

__all__ = ["DiskCache"]

log = logging.getLogger(__name__)

_SEGMENT_PREFIX = "segment-"
_SEGMENT_SUFFIX = ".jsonl"


def _canonical(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"), default=str)


def _crc(value) -> int:
    return zlib.crc32(_canonical(value).encode("utf-8"))


def _line_bytes(line: str) -> int:
    """On-disk size of one record line, newline included."""
    return len(line.encode("utf-8")) + 1


class DiskCache:
    """Append-only JSONL result store with CRC-checked warm-start loading."""

    def __init__(
        self,
        directory: str | Path,
        engine_fingerprint: str,
        max_bytes: int = 4 * 1024 * 1024,
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.engine_fingerprint = engine_fingerprint
        self.max_bytes = int(max_bytes)
        self._lock = threading.Lock()
        # Live entries for THIS engine configuration (corpus fp -> value)
        # and the latest raw line per foreign (e, k) pair — carried through
        # compaction so other configurations keep their warm starts.
        self._entries: dict[str, object] = {}
        self._foreign: dict[tuple[str, str], str] = {}
        # Bytes of the latest record per (e, k) pair (summed in _live), and
        # the bytes that superseded records and corrupt lines leave behind.
        self._record_bytes: dict[tuple[str, str], int] = {}
        self._live = 0
        self._reclaimable = 0
        self._hits = 0
        self._misses = 0
        self._corrupt_records = 0
        self._compactions = 0
        self._load_ms = 0.0
        self._load()

    # ------------------------------------------------------------------
    # Load / read path.
    # ------------------------------------------------------------------

    def _segments(self) -> list[Path]:
        return sorted(
            p
            for p in self.directory.glob(f"{_SEGMENT_PREFIX}*{_SEGMENT_SUFFIX}")
            if p.is_file()
        )

    def _load(self) -> None:
        start = time.perf_counter()
        for segment in self._segments():
            try:
                lines = segment.read_text("utf-8").splitlines()
            except OSError as exc:  # pragma: no cover - unreadable segment
                log.warning("disk cache: cannot read %s: %s", segment, exc)
                continue
            for lineno, line in enumerate(lines, 1):
                if not line.strip():
                    continue
                record = self._decode(line)
                if record is None:
                    self._reclaimable += _line_bytes(line)
                    self._corrupt_records += 1
                    log.warning(
                        "disk cache: skipping corrupt record %s:%d",
                        segment.name,
                        lineno,
                    )
                    continue
                key, engine_fp, value = record
                self._track(engine_fp, key, line)
                if engine_fp == self.engine_fingerprint:
                    self._entries[key] = value
                else:
                    self._foreign[(engine_fp, key)] = line
        self._load_ms = round((time.perf_counter() - start) * 1000.0, 3)

    def _track(self, engine_fp: str, key: str, line: str) -> None:
        """Record ``line`` as the latest for ``(engine_fp, key)``; the one it
        supersedes, if any, becomes reclaimable.  Caller holds the lock (or
        is the constructor)."""
        superseded = self._record_bytes.get((engine_fp, key), 0)
        size = _line_bytes(line)
        self._record_bytes[(engine_fp, key)] = size
        self._live += size - superseded
        self._reclaimable += superseded

    def _should_compact(self) -> bool:
        """Compaction reclaims something and either brings the store back
        under ``max_bytes`` or frees more than ``max_bytes``."""
        if self._reclaimable > self.max_bytes:
            return True
        return (
            self._reclaimable > 0
            and self._live <= self.max_bytes < self._live + self._reclaimable
        )

    @staticmethod
    def _decode(line: str):
        """Parse + CRC-verify one record line; ``None`` if it cannot be served."""
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            return None
        if not isinstance(record, dict):
            return None
        key, engine_fp = record.get("k"), record.get("e")
        if not isinstance(key, str) or not isinstance(engine_fp, str):
            return None
        if "v" not in record or _crc(record["v"]) != record.get("crc"):
            return None
        return key, engine_fp, record["v"]

    def get(self, key: str):
        """The stored value for ``key`` under this engine config, or ``None``.

        Values were CRC-verified at load/put time; callers deep-copy before
        mutating (the engine already does for every cache layer).
        """
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self._misses += 1
                return None
            self._hits += 1
            return value

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # ------------------------------------------------------------------
    # Write path.
    # ------------------------------------------------------------------

    def _active_segment(self) -> Path:
        segments = self._segments()
        if segments:
            return segments[-1]
        return self.directory / f"{_SEGMENT_PREFIX}00000{_SEGMENT_SUFFIX}"

    def _next_segment(self) -> Path:
        segments = self._segments()
        index = 0
        if segments:
            stem = segments[-1].name[len(_SEGMENT_PREFIX) : -len(_SEGMENT_SUFFIX)]
            try:
                index = int(stem) + 1
            except ValueError:  # pragma: no cover - alien file name
                index = len(segments)
        return self.directory / f"{_SEGMENT_PREFIX}{index:05d}{_SEGMENT_SUFFIX}"

    def put(self, key: str, value) -> None:
        """Append one record and remember it; compact when
        :meth:`_should_compact` says so."""
        line = json.dumps(
            {"k": key, "e": self.engine_fingerprint, "crc": _crc(value), "v": value},
            sort_keys=True,
            separators=(",", ":"),
            default=str,
        )
        with self._lock:
            self._entries[key] = value
            self._track(self.engine_fingerprint, key, line)
            with self._active_segment().open("a", encoding="utf-8") as handle:
                handle.write(line + "\n")
                handle.flush()
            if self._should_compact():
                self._compact()

    def _compact(self) -> None:
        """Rewrite one latest record per key into a fresh segment (atomic).

        Caller holds the lock.  The new segment is written to a temp file
        and ``os.replace``d into place before the old segments are removed,
        so a crash at any point leaves a loadable store.
        """
        old_segments = self._segments()
        target = self._next_segment()
        tmp = target.with_suffix(".tmp")
        with tmp.open("w", encoding="utf-8") as handle:
            for key in sorted(self._entries):
                value = self._entries[key]
                handle.write(
                    json.dumps(
                        {
                            "k": key,
                            "e": self.engine_fingerprint,
                            "crc": _crc(value),
                            "v": value,
                        },
                        sort_keys=True,
                        separators=(",", ":"),
                        default=str,
                    )
                    + "\n"
                )
            for line in self._foreign.values():
                handle.write(line + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, target)
        for segment in old_segments:
            if segment != target:
                try:
                    segment.unlink()
                except OSError:  # pragma: no cover - raced deletion
                    pass
        self._reclaimable = 0
        self._compactions += 1

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------

    def stats(self) -> dict:
        """JSON-ready counters (the ``disk`` section of ``GET /metrics``)."""
        with self._lock:
            segments = self._segments()
            try:
                size_bytes = sum(s.stat().st_size for s in segments)
            except OSError:  # pragma: no cover - raced deletion
                size_bytes = 0
            return {
                "directory": str(self.directory),
                "entries": len(self._entries),
                "foreign_entries": len(self._foreign),
                "hits": self._hits,
                "misses": self._misses,
                "corrupt_records": self._corrupt_records,
                "compactions": self._compactions,
                "segments": len(segments),
                "size_bytes": size_bytes,
                "load_ms": self._load_ms,
            }
