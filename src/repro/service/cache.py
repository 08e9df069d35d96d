"""Content-addressed result cache: LRU memory tier + JSONL persistence.

:class:`ResultCache` maps spec digests (:func:`repro.service.specs.spec_digest`)
to result documents.  Four result kinds share one store:

* ``"run"`` -- a full :class:`~repro.engine.executor.RunReport`, serialized
  by :func:`report_to_doc` (the final product-graph matrix is bit-packed,
  so the round trip is exact: a cache hit deserializes to a report
  byte-identical to a fresh recomputation).  Sweep grid cells are run
  tasks, so a cell measured by a sweep, a ``/v1/runs`` submission and a
  task graph all share this one entry;
* ``"sweep"`` -- a sweep job's serialized
  :class:`~repro.analysis.sweep.SweepResult`;
* ``"task"`` / ``"graph"`` -- one task-graph node's result and a whole
  graph job's outcome (:mod:`repro.service.tasks`).

Layers
------
The in-memory tier is a bounded LRU (``capacity`` entries, recency updated
on hit).  The optional persistent tier is an append-only JSONL file:
every store appends one self-describing line, and opening a cache replays
the file (later lines win).  Eviction only trims the memory tier -- the
file keeps the full history until :meth:`ResultCache.compact` rewrites it
(atomically, temp file + rename) down to exactly the live entries.
Compaction runs on demand (``repro-broadcast cache compact``) and
automatically once byte-budget evictions have orphaned more than one full
budget's worth of file bytes, so a long-lived byte-capped server's cache
file stays bounded instead of growing forever.

Versioning
----------
Every line records :data:`CACHE_FORMAT_VERSION`.  Entries written by a
different version are *rejected at load* (counted in
``stats()["stale_rejected"]``), never served -- and the spec digest itself
embeds :data:`~repro.service.specs.SPEC_VERSION`, so results computed
under older run semantics are unreachable even if the file version
matches.

All public methods are thread-safe (one re-entrant lock), as required by
the scheduler's worker threads and the HTTP server's handler threads.
"""

from __future__ import annotations

import json
import os
import threading
from collections import OrderedDict
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple, Union

import numpy as np

from repro.core.state import BroadcastState
from repro.errors import CacheError

if TYPE_CHECKING:  # runtime imports stay lazy (executor imports are cyclic)
    from repro.engine.executor import RunReport

#: Bump when the entry layout (or any payload encoding) changes.  Version
#: 2 dropped the t*-only sweep-cell kind (sweep cells are ``"run"``
#: entries now), so a version-1 file loads as stale and recomputes.
CACHE_FORMAT_VERSION = 2

#: Result kinds a cache entry may carry.  ``"task"`` holds one task-graph
#: node's encoded result (namespaced by its task kind inside the payload);
#: ``"graph"`` a whole graph job's outcome document.
ENTRY_KINDS = ("run", "sweep", "task", "graph")


def report_to_doc(report: "RunReport") -> Dict[str, Any]:
    """Serialize an uninstrumented :class:`RunReport` exactly.

    Only cache-shaped reports qualify: history/trees/trace/metrics are
    per-run instrumentation artifacts, inherently not content-addressable
    by spec (two identical specs may be run at different instrumentation
    levels), so carrying them would break the "cache hit == fresh
    recomputation" guarantee.  The final state is stored as the bit-packed
    dense matrix, which round-trips exactly on either backend.
    """
    if report.history or report.trees or report.trace is not None or report.metrics is not None:
        raise CacheError(
            "only uninstrumented RunReports are cacheable "
            "(instrumentation='none', keep_trees=False)"
        )
    state = report.final_state
    dense = state.reach_matrix  # dense bool copy, identical across backends
    return {
        "t_star": None if report.t_star is None else int(report.t_star),
        "n": int(report.n),
        "rounds": int(report.rounds),
        "adversary_name": str(report.adversary_name),
        "broadcasters": [int(b) for b in report.broadcasters],
        "seed": None if report.seed is None else int(report.seed),
        "compiled": bool(report.compiled),
        "executor": str(report.executor),
        "final_round": int(state.round_index),
        "reach_bits": np.packbits(dense).tobytes().hex(),
    }


def report_from_doc(doc: Dict[str, Any], backend: Any = None) -> "RunReport":
    """Rebuild the exact :class:`RunReport` serialized by :func:`report_to_doc`.

    ``backend`` selects the storage backend for the reconstructed final
    state (a cache hit should live in the same backend the spec asked
    for); the matrix contents are backend-independent.
    """
    from repro.engine.executor import RunReport

    try:
        n = int(doc["n"])
        bits = np.frombuffer(bytes.fromhex(doc["reach_bits"]), dtype=np.uint8)
        dense = np.unpackbits(bits, count=n * n).reshape(n, n).astype(np.bool_)
        state = BroadcastState(
            n, dense, round_index=int(doc["final_round"]), backend=backend
        )
        return RunReport(
            t_star=None if doc["t_star"] is None else int(doc["t_star"]),
            n=n,
            rounds=int(doc["rounds"]),
            adversary_name=str(doc["adversary_name"]),
            broadcasters=tuple(int(b) for b in doc["broadcasters"]),
            final_state=state,
            seed=None if doc["seed"] is None else int(doc["seed"]),
            compiled=bool(doc["compiled"]),
            executor=str(doc["executor"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CacheError(f"malformed run-report document: {exc!r}") from exc


class ResultCache:
    """Digest-keyed result store: bounded LRU + optional JSONL persistence.

    Parameters
    ----------
    path:
        Append-only JSONL store; ``None`` keeps the cache memory-only.
        An existing file is replayed on open (stale-version lines are
        rejected and counted, later duplicates win).
    capacity:
        Maximum entries held in memory; least-recently-used entries are
        evicted past it (the file, if any, is never trimmed by eviction).
    max_bytes:
        Optional byte budget for the memory tier: entries are sized by
        their serialized payload, and least-recently-used entries are
        evicted while the total exceeds the budget.  The most recent
        entry always survives (an oversized store must not be a silent
        no-op).  ``None`` disables the byte budget; the entry-count LRU
        applies either way.
    """

    def __init__(
        self,
        path: Optional[Union[str, Path]] = None,
        capacity: int = 4096,
        max_bytes: Optional[int] = None,
    ) -> None:
        if capacity < 1:
            raise CacheError(f"capacity must be >= 1, got {capacity}")
        if max_bytes is not None and max_bytes < 1:
            raise CacheError(f"max_bytes must be >= 1 or None, got {max_bytes}")
        self._path = Path(path) if path is not None else None
        self._capacity = capacity
        self._max_bytes = max_bytes
        self._bytes = 0
        self._lock = threading.RLock()
        self._entries: "OrderedDict[str, Tuple[str, Dict[str, Any], int]]" = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._stores = 0
        self._evictions = 0
        self._stale_rejected = 0
        self._loaded = 0
        self._compactions = 0
        self._evicted_bytes_since_compact = 0
        self._replaying = False
        if self._path is not None and self._path.exists():
            if self._path.stat().st_size > 0:
                raw = self._path.read_bytes()
                if not raw.endswith(b"\n"):
                    # A process killed mid-append leaves a torn final
                    # line; the entry was never acknowledged, so drop it
                    # rather than fail every future replay (and keep new
                    # appends off the fragment).
                    with self._path.open("r+b") as fh:
                        fh.truncate(raw.rfind(b"\n") + 1)
            self._replaying = True
            try:
                self._replay()
            finally:
                self._replaying = False

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def _replay(self) -> None:
        with self._path.open("r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise CacheError(
                        f"{self._path}:{lineno}: cache line is not valid JSON: {exc}"
                    ) from exc
                if not isinstance(entry, dict):
                    raise CacheError(f"{self._path}:{lineno}: cache line is not an object")
                if entry.get("format_version") != CACHE_FORMAT_VERSION:
                    # A stale-version entry must be rejected, never served.
                    self._stale_rejected += 1
                    continue
                try:
                    digest = str(entry["digest"])
                    kind = str(entry["kind"])
                    payload = entry["payload"]
                except KeyError as exc:
                    raise CacheError(
                        f"{self._path}:{lineno}: cache line is missing {exc}"
                    ) from exc
                if kind not in ENTRY_KINDS:
                    raise CacheError(f"{self._path}:{lineno}: unknown entry kind {kind!r}")
                self._insert(digest, kind, payload)
                self._loaded += 1

    @staticmethod
    def _entry_line(digest: str, kind: str, payload_json: str) -> str:
        # The payload is already serialized (shared with byte accounting);
        # splice it into the envelope rather than serializing twice.  Keys
        # stay in sorted order ("payload" sorts last), so the line is
        # byte-identical to a full ``json.dumps(entry, sort_keys=True)``.
        envelope = json.dumps(
            {"digest": digest, "format_version": CACHE_FORMAT_VERSION, "kind": kind},
            sort_keys=True,
        )
        return f'{envelope[:-1]}, "payload": {payload_json}}}\n'

    def _append_line(self, digest: str, kind: str, payload_json: str) -> None:
        with self._path.open("a", encoding="utf-8") as fh:
            fh.write(self._entry_line(digest, kind, payload_json))

    def compact(self) -> Dict[str, int]:
        """Atomically rewrite the file down to exactly the live entries.

        The append-only file otherwise accumulates every overwritten,
        evicted, and stale-version line forever.  The rewrite goes
        through a temp file in the same directory + ``os.replace``, so a
        crash mid-compaction leaves the old complete file; a reload of
        the compacted file reconstructs the live memory tier exactly
        (entries in insertion order, later-lines-win replay preserved).

        Returns ``{"before_bytes", "after_bytes", "entries"}``.  Raises
        :class:`CacheError` for memory-only caches.
        """
        if self._path is None:
            raise CacheError("compact() requires a cache with a persistence path")
        with self._lock:
            before = self._path.stat().st_size if self._path.exists() else 0
            tmp = self._path.with_name(self._path.name + ".compact.tmp")
            with tmp.open("w", encoding="utf-8") as fh:
                for digest, (kind, payload, _) in self._entries.items():
                    payload_json = self._payload_json(digest, payload)
                    fh.write(self._entry_line(digest, kind, payload_json))
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, self._path)
            after = self._path.stat().st_size
            self._compactions += 1
            self._evicted_bytes_since_compact = 0
            return {
                "before_bytes": before,
                "after_bytes": after,
                "entries": len(self._entries),
            }

    # ------------------------------------------------------------------
    # Core store/lookup
    # ------------------------------------------------------------------

    def _payload_json(self, digest: str, payload: Any) -> Optional[str]:
        """One canonical serialization, shared by accounting + persistence.

        ``None`` (memory-only caches, non-JSON payload) falls back to a
        ``repr``-based size; a persistent cache must refuse the entry
        instead of writing an unreplayable line.
        """
        try:
            return json.dumps(payload, sort_keys=True)
        except (TypeError, ValueError) as exc:
            if self._path is not None:
                raise CacheError(
                    f"payload for {digest!r} is not JSON-serializable: {exc}"
                ) from exc
            return None

    def _insert(
        self, digest: str, kind: str, payload: Any, nbytes: Optional[int] = None
    ) -> None:
        old = self._entries.pop(digest, None)
        if old is not None:
            self._bytes -= old[2]
        if nbytes is None:
            payload_json = self._payload_json(digest, payload)
            size = len(payload_json) if payload_json is not None else len(repr(payload))
            nbytes = len(digest) + size
        self._entries[digest] = (kind, payload, nbytes)
        self._bytes += nbytes
        over_budget = (
            lambda: len(self._entries) > self._capacity
            or (self._max_bytes is not None and self._bytes > self._max_bytes)
        )
        # Trim LRU-first, but never the entry just inserted: an oversized
        # store still lands (and the file keeps it regardless).
        while len(self._entries) > 1 and over_budget():
            _, (_, _, evicted_bytes) = self._entries.popitem(last=False)
            self._bytes -= evicted_bytes
            self._evictions += 1
            self._evicted_bytes_since_compact += evicted_bytes

    def store(self, digest: str, kind: str, payload: Any) -> None:
        """Insert (or overwrite) one entry; persists when a path is set."""
        if kind not in ENTRY_KINDS:
            raise CacheError(f"kind must be one of {ENTRY_KINDS}, got {kind!r}")
        payload_json = self._payload_json(digest, payload)
        size = len(payload_json) if payload_json is not None else len(repr(payload))
        with self._lock:
            self._insert(digest, kind, payload, nbytes=len(digest) + size)
            self._stores += 1
            if self._path is not None:
                self._append_line(digest, kind, payload_json)
                # Auto-compaction: once byte-budget evictions have
                # orphaned more than one full budget's worth of file
                # bytes, rewrite the file (the lock is re-entrant).
                if (
                    self._max_bytes is not None
                    and self._evicted_bytes_since_compact > self._max_bytes
                ):
                    self.compact()

    def lookup(self, digest: str, kind: Optional[str] = None) -> Optional[Any]:
        """The stored payload for ``digest``, or ``None`` (counted) on miss.

        ``kind`` (when given) must match the stored entry's kind; a
        mismatch is a miss, not an error.  One digest holds one entry.
        """
        with self._lock:
            entry = self._entries.get(digest)
            if entry is None or (kind is not None and entry[0] != kind):
                self._misses += 1
                return None
            self._entries.move_to_end(digest)
            self._hits += 1
            return entry[1]

    def entry_nbytes(self, digest: str) -> Optional[int]:
        """The accounted size of one entry, or ``None`` when absent.

        This is the hook per-tenant byte accounting charges against
        (:mod:`repro.service.tenancy`): the entry itself stays shared and
        deduplicated, but each tenant that uses the digest is billed its
        serialized size.  Does not touch recency or hit/miss counters.
        """
        with self._lock:
            entry = self._entries.get(digest)
            return None if entry is None else entry[2]

    def __contains__(self, digest: str) -> bool:
        with self._lock:
            return digest in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        """Drop every entry, truncating the persistent file if present."""
        with self._lock:
            self._entries.clear()
            self._bytes = 0
            self._evicted_bytes_since_compact = 0
            if self._path is not None and self._path.exists():
                self._path.write_text("")

    def stats(self) -> Dict[str, Any]:
        """Counter snapshot (hits/misses/stores/evictions/stale/loaded/size)."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "capacity": self._capacity,
                "bytes": self._bytes,
                "max_bytes": self._max_bytes,
                "hits": self._hits,
                "misses": self._misses,
                "stores": self._stores,
                "evictions": self._evictions,
                "stale_rejected": self._stale_rejected,
                "loaded_from_disk": self._loaded,
                "compactions": self._compactions,
                "file_bytes": (
                    self._path.stat().st_size
                    if self._path is not None and self._path.exists()
                    else 0
                ),
            }

    # ------------------------------------------------------------------
    # Typed convenience wrappers
    # ------------------------------------------------------------------

    def store_report(self, digest: str, report: "RunReport") -> None:
        """Cache a run report under its spec digest."""
        self.store(digest, "run", report_to_doc(report))

    def lookup_report(self, digest: str, backend: Any = None) -> Optional["RunReport"]:
        """The cached :class:`RunReport` for a digest, or ``None``."""
        doc = self.lookup(digest, kind="run")
        if doc is None:
            return None
        return report_from_doc(doc, backend=backend)

    def __repr__(self) -> str:
        where = "memory" if self._path is None else str(self._path)
        return f"ResultCache({where}, entries={len(self)})"


__all__ = [
    "CACHE_FORMAT_VERSION",
    "ENTRY_KINDS",
    "ResultCache",
    "report_from_doc",
    "report_to_doc",
]
