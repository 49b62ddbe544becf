"""Content-addressed result cache over a pluggable storage backend.

One :class:`ResultCache` stores JSON payloads under fingerprint keys (see
:mod:`repro.runtime.fingerprint`).  The cache owns *policy* — hit/miss/error
accounting, the bounded in-process memo, the enabled/disabled switch — while
the storage itself is a :class:`~repro.runtime.backends.CacheBackend`:

* ``ResultCache()`` — an :class:`~repro.runtime.backends.InMemoryBackend`;
  the default for library use, so importing ``repro`` never writes to disk.
* ``ResultCache(directory=...)`` — a
  :class:`~repro.runtime.backends.FilesystemBackend`: gzip-compressed entry
  files written atomically plus a persistent manifest
  (:mod:`repro.runtime.lifecycle`) so ``len()``, :meth:`ResultCache.usage`
  and garbage collection never scan the directory.
* ``ResultCache(backend=...)`` — any backend, e.g. the multi-process-safe
  :class:`~repro.runtime.backends.SharedDirectoryBackend` cluster workers
  share (``docs/cluster.md``), or a future object-store/redis backend.
* :meth:`ResultCache.disabled` — every lookup misses and stores are dropped
  (the ``--no-cache`` mode).

Corrupted entries (truncated writes, manual edits, schema drift) are treated
as misses: the backend drops the entry, ``stats.errors`` is incremented and
the caller recomputes.  The key scheme, the on-disk layout, the GC policy and
the backend interface are documented in ``docs/runtime.md``.
"""

from __future__ import annotations

import collections
from dataclasses import dataclass
from pathlib import Path

from repro.runtime import lifecycle
from repro.runtime.backends import (
    CacheBackend,
    CorruptEntry,
    FilesystemBackend,
    InMemoryBackend,
)

__all__ = ["CacheStats", "ResultCache", "DEFAULT_MEMO_ENTRIES"]

#: Default bound on the in-process memo of a *persistent* cache.  A long-lived
#: serve process used to retain every payload it ever touched; beyond this
#: many, the least-recently-used memo entries are dropped (the backend copy
#: still hits).
DEFAULT_MEMO_ENTRIES = 512


@dataclass
class CacheStats:
    """Counters describing how a cache behaved during a run.

    ``hits``/``misses``/``stores``/``errors`` are counters (summed by
    :meth:`merge`).  ``disk_entries``/``disk_bytes``/``memo_entries`` and
    ``oldest_age_seconds`` are *gauges* describing current cache state —
    populated by :meth:`ResultCache.snapshot`.  Gauges merge two ways:

    * ``distinct_caches=False`` (default) — by ``max``: the snapshots
      describe *one shared cache* seen from several views (pool workers, the
      serve stats views), so summing them would double its size.
    * ``distinct_caches=True`` — by sum: the snapshots describe *different
      caches* (one per cluster worker process); taking ``max`` would silently
      under-report aggregate footprint.  The cluster coordinator merges
      worker snapshots this way (``docs/cluster.md``).

    ``shared_gauges`` qualifies the distinct mode: a snapshot whose *storage*
    is shared across processes (the shared-directory backend, the network
    cache tier of ``docs/cachenet.md``) sets it, and its ``disk_entries``/
    ``disk_bytes`` then max-merge even under ``distinct_caches=True`` — every
    worker reports the same shared tier, and summing it once per worker would
    multiply the fleet's footprint by the worker count.  ``memo_entries``
    stays per-process (each worker's memo really is distinct) and still sums.
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0
    errors: int = 0
    disk_entries: int = 0
    disk_bytes: int = 0
    memo_entries: int = 0
    oldest_age_seconds: float = 0.0
    shared_gauges: bool = False

    def merge(self, other: "CacheStats | dict", distinct_caches: bool = False) -> None:
        """Accumulate counters (and max- or sum-merge gauges) from ``other``."""
        if isinstance(other, CacheStats):
            other = other.as_dict()
        self.hits += other.get("hits", 0)
        self.misses += other.get("misses", 0)
        self.stores += other.get("stores", 0)
        self.errors += other.get("errors", 0)
        shared = self.shared_gauges or bool(other.get("shared_gauges", False))
        gauge = (
            (lambda mine, theirs: mine + theirs)
            if distinct_caches and not shared
            else max
        )
        self.disk_entries = gauge(self.disk_entries, other.get("disk_entries", 0))
        self.disk_bytes = gauge(self.disk_bytes, other.get("disk_bytes", 0))
        memo = (lambda mine, theirs: mine + theirs) if distinct_caches else max
        self.memo_entries = memo(self.memo_entries, other.get("memo_entries", 0))
        self.shared_gauges = shared
        # Entry age is a maximum in both modes: ages never add up across
        # caches, the fleet's oldest entry is simply the oldest anywhere.
        self.oldest_age_seconds = max(
            self.oldest_age_seconds, other.get("oldest_age_seconds", 0.0)
        )

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "errors": self.errors,
            "disk_entries": self.disk_entries,
            "disk_bytes": self.disk_bytes,
            "memo_entries": self.memo_entries,
            "oldest_age_seconds": self.oldest_age_seconds,
            "shared_gauges": self.shared_gauges,
        }


class ResultCache:
    """Content-addressed cache of JSON payloads keyed by fingerprint."""

    def __init__(
        self,
        directory: str | Path | None = None,
        enabled: bool = True,
        memo_entries: int = DEFAULT_MEMO_ENTRIES,
        backend: CacheBackend | None = None,
    ) -> None:
        if backend is not None and directory is not None:
            raise ValueError("pass either directory or backend, not both")
        if backend is None:
            if enabled and directory is not None:
                backend = FilesystemBackend(directory)
            else:
                backend = InMemoryBackend()
        self.backend = backend
        self.enabled = enabled
        self.memo_entries = memo_entries
        self.stats = CacheStats()
        #: LRU memo keyed by ``(key, kind)`` — the kind is part of the memo
        #: key so an entry stored under one kind can never answer a lookup
        #: for another (the backend always enforced this).
        self._memory: collections.OrderedDict[tuple[str, str], dict] = (
            collections.OrderedDict()
        )

    @classmethod
    def disabled(cls) -> "ResultCache":
        """A cache that never hits and never stores."""
        return cls(directory=None, enabled=False)

    @property
    def directory(self) -> Path | None:
        """Directory of a filesystem-shaped backend, ``None`` otherwise."""
        return self.backend.directory

    @property
    def manifest(self) -> lifecycle.CacheManifest | None:
        """Manifest index of a filesystem-shaped backend, ``None`` otherwise."""
        return self.backend.manifest

    @property
    def persistent(self) -> bool:
        """Whether entries survive this process."""
        return self.enabled and self.backend.persistent

    # ------------------------------------------------------------------- memo
    def _memo_get(self, key: str, kind: str) -> dict | None:
        payload = self._memory.get((key, kind))
        if payload is not None:
            self._memory.move_to_end((key, kind))
        return payload

    def _memo_put(self, key: str, kind: str, payload: dict) -> None:
        self._memory[(key, kind)] = payload
        self._memory.move_to_end((key, kind))
        while len(self._memory) > self.memo_entries:
            self._memory.popitem(last=False)

    def _memo_drop(self, key: str) -> None:
        for memo_key in [mk for mk in self._memory if mk[0] == key]:
            del self._memory[memo_key]

    # ----------------------------------------------------------------- lookup
    def get(self, key: str, kind: str = "network_result") -> dict | None:
        """Payload stored under ``key``, or ``None`` on a miss."""
        if not self.enabled:
            self.stats.misses += 1
            return None
        payload = self._memo_get(key, kind)
        if payload is not None:
            self.stats.hits += 1
            # Memo hits must advance the backend's LRU clock too, or GC
            # would evict the hottest entries first (touch is throttled by
            # the manifest, so this stays cheap on the hot path).
            self.backend.touch(key)
            return payload
        try:
            payload = self.backend.load(key, kind)
        except CorruptEntry:
            self.stats.misses += 1
            self.stats.errors += 1
            return None
        if payload is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        self._memo_put(key, kind, payload)
        return payload

    def contains(self, key: str, kind: str = "network_result") -> bool:
        """Whether ``key`` resolves to a valid entry, without counting hit/miss.

        Used by the run planner to prune simulation jobs.  Validates the entry
        but deliberately does not retain its payload (the planning process
        never consumes the results, only the workers do); hit/miss counters
        are reserved for actual lookups, while corruption discovered during a
        probe still counts as an error and drops the entry.
        """
        if not self.enabled:
            return False
        if self._memo_get(key, kind) is not None:
            return True
        try:
            return self.backend.probe(key, kind)
        except CorruptEntry:
            self.stats.errors += 1
            return False

    # ------------------------------------------------------------------ store
    def put(self, key: str, payload: dict, kind: str = "network_result") -> None:
        """Store ``payload`` under ``key`` (atomic, compressed on disk).

        Backend failures (read-only directory, disk full) are not fatal: the
        entry stays available in memory for this process and the failure is
        counted in ``stats.errors``.
        """
        if not self.enabled:
            return
        self._memo_put(key, kind, payload)
        self.stats.stores += 1
        try:
            self.backend.store(key, payload, kind)
        except OSError:
            self.stats.errors += 1

    # -------------------------------------------------------------- lifecycle
    def usage(self) -> dict:
        """Current cache state: entries, disk bytes, ages, memo size.

        Numbers come from the backend (the manifest for filesystem-shaped
        backends) — no directory scan.
        """
        usage = self.backend.usage() if self.enabled else {"entries": 0, "disk_bytes": 0}
        payload = {
            "entries": usage.get("entries", 0),
            "memo_entries": len(self._memory),
            "directory": str(self.directory) if self.directory is not None else None,
            "backend": self.backend.describe(),
            "disk_bytes": usage.get("disk_bytes", 0),
            "oldest_age_seconds": usage.get("oldest_age_seconds"),
            "lru_age_seconds": usage.get("lru_age_seconds"),
        }
        # The network cache tier (docs/cachenet.md) reports extra gauges —
        # remote hit/miss/degraded counters, negative-lookup suppression —
        # that run summaries, the serve ``stats`` op and loadgen reports
        # surface; pass them through rather than flattening them away.
        for key, value in usage.items():
            if key.startswith(("remote_", "negative_", "suppressed_", "memory_")):
                payload[key] = value
        return payload

    def snapshot(self) -> CacheStats:
        """This cache's counters plus current state gauges (see CacheStats)."""
        snapshot = CacheStats()
        snapshot.merge(self.stats)
        usage = self.usage()
        snapshot.disk_entries = usage["entries"] if self.persistent else 0
        snapshot.disk_bytes = usage["disk_bytes"]
        snapshot.memo_entries = usage["memo_entries"]
        snapshot.oldest_age_seconds = usage["oldest_age_seconds"] or 0.0
        # Shared storage (shared directory, remote tier) is reported by every
        # process that mounts it; mark the gauges so fleet merges don't count
        # the same bytes once per worker (see CacheStats).
        snapshot.shared_gauges = self.enabled and self.backend.shared
        return snapshot

    def gc(
        self, max_bytes: int | None = None, max_age: float | None = None
    ) -> lifecycle.GCResult:
        """Garbage-collect the backend (LRU-first; see ``CacheManifest.gc``).

        Evicted keys are also dropped from the in-process memo so a bounded
        cache never serves an entry GC decided to retire.  A memory-only or
        disabled cache has nothing to collect and returns an empty result.
        """
        if not self.persistent:
            return lifecycle.GCResult()
        result = self.backend.gc(max_bytes=max_bytes, max_age=max_age)
        for key in result.removed_keys:
            self._memo_drop(key)
        return result

    def clear(self) -> int:
        """Remove every entry (backend and memo); returns backend entries removed."""
        removed = 0
        if self.enabled:
            removed = self.backend.clear()
        self._memory.clear()
        return removed

    def __len__(self) -> int:
        if not self.enabled:
            return 0
        return len(self.backend)
