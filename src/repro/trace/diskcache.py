"""Persistent content-addressed store for traces and cell results.

The in-process trace memo (:data:`~repro.trace.cache.GLOBAL_TRACE_CACHE`,
keyed by trace-source spec) forgets everything between runs; this module
makes the paper's capture-once/replay-many split durable.  The engine
looks a trace up in the memo first, then here, and only then captures.
File names are SHA-256 hashes over a canonical JSON encoding of
the identifying parameters (trace-source spec, model fingerprint, ...),
so a key can never collide across semantically different entries and
never misses across semantically identical ones.

Layout (under ``$REPRO_CACHE_DIR``, default ``~/.cache/repro``)::

    traces/<sha256>.jsonl    -- JSON-lines trace archives (repro.trace.io)
    segments/<sha256>.jsonl  -- one result segment per trace source
    results/<sha256>.jsonl   -- one header line + one single record

**Segments** hold every cell result of one trace source: one header line
(``{"kind": "segment", "version": ..., "records": N, "key": ...}``; the
key parts name the source and fingerprint, which the hashed file name
cannot give back), then N lines of the form ``<cell key> <record
json>``, sorted by cell key.
Cell keys contain no whitespace.  :meth:`DiskCache.read_segment` splits
the file into lines once and decodes a record only when it is looked
up, so a group that needs a few cells of a large segment pays for those
few.  The engine reads a source's segment once per sweep group and
writes it once per computed group.

**Single records** (``results/``) serve small keyed payloads such as the
explorer's anchors and screens and the IR statistics.

Every read is fail-soft and counted; the cache can only ever change
timing, never results:

* a missing segment is one miss per looked-up cell;
* a truncated segment (no trailing newline, or fewer lines than its
  header promises) or one with a bad header is discarded, and every
  cell looked up in it counts one corruption and one miss;
* a line whose record does not decode is one corruption and one miss
  for its cell only;
* a missing, truncated or corrupted single record or trace archive is a
  miss (plus a corruption unless it was missing) and is discarded.

Writes go through a temporary file and :func:`os.replace`, so a reader
never sees a partial file.  Storing a segment re-reads the file, merges
the new records over what is there and replaces it.  The engine runs
one sweep group per trace source per plan, so within a plan -- serial
or over a process pool -- a segment has exactly one writer.  Two
independent processes that store cells of the same source at the same
moment can still race: the later replace wins and the other's new
cells are lost.  A lost update only ever costs a recompute on the next
run (the missing cells are plain misses), never a wrong answer.

**Model fingerprint.**  :func:`model_fingerprint` is a SHA-256 over the
source of every module that decides a cached value (``MODEL_SOURCES``).
The engine's trace and segment keys fold it in, as do the single-record
keys of the explorer and the IR statistics, so editing a timing model,
a latency table, a kernel or a trace generator makes every old entry
unreachable instead of stale.
"""

from __future__ import annotations

import functools
import hashlib
import json
import logging
import os
import tempfile
from pathlib import Path
from typing import Any, Callable, Dict, Mapping, Optional, Tuple, TypeVar

from .io import read_trace, write_trace
from .record import Trace

logger = logging.getLogger(__name__)

#: Environment variable overriding the cache root directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Bump to invalidate every existing entry after a format change.
STORE_VERSION = 1

#: Package-relative sources whose code decides a cached value: the
#: timing models, ISA and latencies, assembler, kernels, limit studies,
#: memory systems, predictors, trace producers, the IR statistics, the
#: engine's record layout and the explorer's estimator and screen.
MODEL_SOURCES: Tuple[str, ...] = (
    "asm",
    "core",
    "explore/model.py",
    "explore/screen.py",
    "explore/space.py",
    "harness/engine.py",
    "isa",
    "kernels",
    "limits",
    "memsys",
    "predict",
    "trace/generator.py",
    "trace/record.py",
    "trace/sources.py",
    "trace/stats.py",
    "verify/fuzz.py",
    "workloads",
)

_T = TypeVar("_T")


@functools.lru_cache(maxsize=None)
def model_fingerprint() -> str:
    """SHA-256 over the source of every module in :data:`MODEL_SOURCES`.

    Computed once per process (a few milliseconds).  Files hash in
    sorted path order together with their package-relative paths, so
    moving, adding or editing a file changes the fingerprint.
    """
    package = Path(__file__).resolve().parents[1]
    files = []
    for name in MODEL_SOURCES:
        path = package / name
        files.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    digest = hashlib.sha256()
    for path in sorted(files):
        digest.update(path.relative_to(package).as_posix().encode("utf-8"))
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def default_cache_dir() -> Path:
    """The cache root: ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``."""
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return Path(override).expanduser()
    return Path.home() / ".cache" / "repro"


def content_key(parts: Mapping[str, Any]) -> str:
    """SHA-256 over a canonical JSON encoding of *parts*.

    *parts* must be JSON-serialisable; key order is normalised so
    logically equal mappings hash identically.
    """
    canonical = json.dumps(
        dict(parts, _store_version=STORE_VERSION),
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _segment_header(key_parts: Mapping[str, Any], records: int) -> str:
    return json.dumps({
        "kind": "segment",
        "version": STORE_VERSION,
        "records": records,
        "key": dict(key_parts),
    }, sort_keys=True, separators=(",", ":"))


def _parse_segment(text: str) -> Dict[str, str]:
    """Raw record text by cell key; ValueError when the file is damaged.

    Only the header is decoded.  A line without a key separator is
    kept under its whole text, so it can never match a cell key.
    """
    if not text.endswith("\n"):
        raise ValueError("truncated segment (no trailing newline)")
    lines = text.split("\n")
    lines.pop()
    header = json.loads(lines[0])
    if not isinstance(header, dict) or header.get("kind") != "segment":
        raise ValueError("missing segment header")
    if header.get("version") != STORE_VERSION:
        raise ValueError("stale store version")
    if header.get("records") != len(lines) - 1:
        raise ValueError("truncated segment (record count mismatch)")
    entries: Dict[str, str] = {}
    for line in lines[1:]:
        key, _, raw = line.partition(" ")
        entries[key] = raw
    return entries


class Segment:
    """One trace source's result records, decoded on lookup.

    Produced by :meth:`DiskCache.read_segment`.  Every :meth:`lookup`
    counts exactly one hit or one miss on the owning cache, plus one
    corruption when the record (or the whole segment) was damaged.
    """

    __slots__ = ("_cache", "_entries", "damaged")

    def __init__(
        self, cache: "DiskCache", entries: Dict[str, str], damaged: bool
    ) -> None:
        self._cache = cache
        self._entries = entries
        #: True when the file existed but was unreadable as a whole.
        self.damaged = damaged

    def lookup(
        self, key: str, decode: Callable[[Dict[str, Any]], _T]
    ) -> Optional[_T]:
        """``decode(record)`` for the record stored under *key*, or None.

        A record that is not a JSON object, or that *decode* rejects
        with ``KeyError``/``TypeError``/``ValueError``/
        ``ZeroDivisionError``, is a corruption and a miss.
        """
        cache = self._cache
        raw = self._entries.get(key)
        if raw is None:
            cache.result_misses += 1
            if self.damaged:
                cache.result_corruptions += 1
            return None
        try:
            record = json.loads(raw)
            if not isinstance(record, dict):
                raise ValueError("result record must be an object")
            value = decode(record)
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            cache.result_corruptions += 1
            cache.result_misses += 1
            logger.warning(
                "corrupted result record %s (%s); it will be recomputed",
                key, exc,
            )
            return None
        cache.result_hits += 1
        return value


class DiskCache:
    """Content-addressed persistent store for traces and cell results.

    All loads are fail-soft; all stores are atomic and best-effort (an
    unwritable cache directory degrades to a no-op cache rather than
    failing the experiment).
    """

    def __init__(self, root: Optional[os.PathLike] = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        self.trace_hits = 0
        self.trace_misses = 0
        self.result_hits = 0
        self.result_misses = 0
        # Corrupted-entry rebuilds.  A rebuild is silent for correctness
        # (it behaves like a miss) but never silent for observability:
        # each one is counted and logged, and the engine republishes the
        # counts through the repro.obs metrics registry.
        self.trace_corruptions = 0
        self.result_corruptions = 0

    # -- paths ---------------------------------------------------------

    def trace_path(self, key_parts: Mapping[str, Any]) -> Path:
        return self.root / "traces" / f"{content_key(key_parts)}.jsonl"

    def result_path(self, key_parts: Mapping[str, Any]) -> Path:
        return self.root / "results" / f"{content_key(key_parts)}.jsonl"

    def segment_path(self, key_parts: Mapping[str, Any]) -> Path:
        return self.root / "segments" / f"{content_key(key_parts)}.jsonl"

    # -- traces --------------------------------------------------------

    def load_trace(self, key_parts: Mapping[str, Any]) -> Optional[Trace]:
        """The stored trace for this key, or None on miss/corruption."""
        path = self.trace_path(key_parts)
        try:
            trace = read_trace(path)
        except FileNotFoundError:
            self.trace_misses += 1
            return None
        except (OSError, ValueError) as exc:
            # Corrupted archive: drop it and report a miss so the caller
            # rebuilds (and re-stores) the trace.
            self.trace_corruptions += 1
            logger.warning(
                "corrupted trace cache entry %s (%s); discarding, "
                "it will be rebuilt", path, exc,
            )
            self._discard(path)
            self.trace_misses += 1
            return None
        self.trace_hits += 1
        return trace

    def store_trace(self, key_parts: Mapping[str, Any], trace: Trace) -> None:
        import io as _io

        buffer = _io.StringIO()
        write_trace(trace, buffer)
        try:
            _atomic_write(self.trace_path(key_parts), buffer.getvalue())
        except OSError:
            pass

    # -- result segments -----------------------------------------------

    def read_segment(self, key_parts: Mapping[str, Any]) -> Segment:
        """The segment stored under *key_parts*; never raises.

        A missing file is an empty segment.  A damaged one is discarded
        (logged once) and comes back empty and ``damaged``, so each of
        its lookups counts a corruption.
        """
        path = self.segment_path(key_parts)
        try:
            entries = _parse_segment(path.read_text())
        except FileNotFoundError:
            return Segment(self, {}, False)
        except (OSError, ValueError) as exc:
            logger.warning(
                "corrupted result segment %s (%s); discarding, its cells "
                "will be recomputed", path, exc,
            )
            self._discard(path)
            return Segment(self, {}, True)
        return Segment(self, entries, False)

    def store_segment(
        self,
        key_parts: Mapping[str, Any],
        records: Mapping[str, Mapping[str, Any]],
    ) -> None:
        """Merge *records* (cell key -> record) into the stored segment.

        Read-merge-replace: the file is re-read (a damaged one counts as
        empty), the new records overwrite same-key lines and the result
        replaces the file atomically.  Best-effort, like every store.
        """
        for key in records:
            if not key or len(key.split()) != 1:
                raise ValueError(f"segment cell key {key!r} has whitespace")
        path = self.segment_path(key_parts)
        try:
            entries = {
                key: raw
                for key, raw in _parse_segment(path.read_text()).items()
                if raw.startswith("{")  # drop lines with no record
            }
        except (OSError, ValueError):
            entries = {}
        for key, record in records.items():
            entries[key] = json.dumps(record, separators=(",", ":"))
        body = "".join(
            f"{key} {entries[key]}\n" for key in sorted(entries)
        )
        text = _segment_header(key_parts, len(entries)) + "\n" + body
        try:
            _atomic_write(path, text)
        except OSError:
            pass

    # -- single records ------------------------------------------------

    def load_result(
        self, key_parts: Mapping[str, Any]
    ) -> Optional[Dict[str, Any]]:
        """The stored result record for this key, or None."""
        path = self.result_path(key_parts)
        try:
            lines = [
                line for line in path.read_text().splitlines() if line.strip()
            ]
            if len(lines) != 2:
                raise ValueError("result entry must be header + record")
            header = json.loads(lines[0])
            if header.get("kind") != "header":
                raise ValueError("missing header record")
            if header.get("version") != STORE_VERSION:
                raise ValueError("stale store version")
            record = json.loads(lines[1])
            if not isinstance(record, dict):
                raise ValueError("result record must be an object")
        except FileNotFoundError:
            self.result_misses += 1
            return None
        except (OSError, ValueError) as exc:
            self.result_corruptions += 1
            logger.warning(
                "corrupted result cache entry %s (%s); discarding, "
                "it will be recomputed", path, exc,
            )
            self._discard(path)
            self.result_misses += 1
            return None
        self.result_hits += 1
        return record

    def store_result(
        self, key_parts: Mapping[str, Any], record: Mapping[str, Any]
    ) -> None:
        header = {"kind": "header", "version": STORE_VERSION}
        text = json.dumps(header) + "\n" + json.dumps(dict(record)) + "\n"
        try:
            _atomic_write(self.result_path(key_parts), text)
        except OSError:
            pass

    # -- maintenance ---------------------------------------------------

    @staticmethod
    def _discard(path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass

    def clear(self) -> None:
        """Delete every cached entry (leaves the root directory)."""
        for sub in ("traces", "segments", "results"):
            directory = self.root / sub
            if not directory.is_dir():
                continue
            for entry in directory.glob("*.jsonl"):
                self._discard(entry)

    def counters(self) -> Dict[str, int]:
        return {
            "trace_hits": self.trace_hits,
            "trace_misses": self.trace_misses,
            "result_hits": self.result_hits,
            "result_misses": self.result_misses,
            "trace_corruptions": self.trace_corruptions,
            "result_corruptions": self.result_corruptions,
        }
