"""Content-addressed result cache over a pluggable storage backend.

One :class:`ResultCache` stores JSON payloads under fingerprint keys (see
:mod:`repro.runtime.fingerprint`).  The cache owns *policy* — the bounded
in-process memo and its LRU touches — while the storage itself is a
:class:`~repro.runtime.backends.CacheBackend`:

* ``ResultCache()`` — an :class:`~repro.runtime.backends.InMemoryBackend`;
  the default for library use and what ``--no-cache`` mounts, so nothing
  persists while a run's jobs still hand results to each other.
* ``ResultCache(directory=...)`` — a
  :class:`~repro.runtime.backends.FilesystemBackend`: gzip-compressed entry
  files written atomically into a directory that is its own index
  (:mod:`repro.runtime.lifecycle`); ``len()``, :meth:`ResultCache.usage`
  and garbage collection are each one directory scan.
* ``ResultCache(backend=...)`` — any backend, e.g. the network cache tier of
  ``docs/cachenet.md``, or a future object-store/redis backend.

The cache counts nothing: a :class:`~repro.runtime.session.RuntimeSession`
counts each job's reads and writes into its own :class:`CacheStats`.  A
corrupted entry (truncated write, manual edit, schema drift) is dropped by
the backend and raised as :class:`~repro.runtime.backends.CorruptEntry`,
which the session counts as a miss and an error before the caller
recomputes.  What a store currently holds (entries, bytes, LRU age) is read
from :meth:`ResultCache.usage`, once per store.  The key scheme, the on-disk
layout, the GC policy and the backend interface are documented in
``docs/runtime.md``.
"""

from __future__ import annotations

import collections
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path

from repro.runtime import lifecycle
from repro.runtime.backends import CacheBackend, FilesystemBackend, InMemoryBackend

__all__ = ["CacheStats", "ResultCache", "DEFAULT_MEMO_ENTRIES"]

#: Default bound on the in-process memo of a *persistent* cache.  A long-lived
#: serve process used to retain every payload it ever touched; beyond this
#: many, the least-recently-used memo entries are dropped (the backend copy
#: still hits).
DEFAULT_MEMO_ENTRIES = 512

#: LRU-clock granularity of memo hits, in seconds.  A key answered from the
#: memo touches its backend copy at most once per window, so a warm hit makes
#: no syscall (and no round trip to a network tier).
USE_GRANULARITY = 60.0


@dataclass
class CacheStats:
    """Event counters of one session's cache reads and writes.

    Every field counts events, so :meth:`merge` is a plain sum whichever
    processes, jobs or workers the merged counters came from.  The state of
    a store (entries, bytes, LRU age) is not a counter and lives in
    :meth:`ResultCache.usage`.
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0
    errors: int = 0

    def merge(self, other: "CacheStats | dict") -> None:
        """Add ``other``'s counters to these."""
        if isinstance(other, CacheStats):
            other = other.as_dict()
        for name in ("hits", "misses", "stores", "errors"):
            setattr(self, name, getattr(self, name) + other.get(name, 0))

    def as_dict(self) -> dict:
        return asdict(self)


class ResultCache:
    """Content-addressed cache of JSON payloads keyed by fingerprint."""

    def __init__(
        self,
        directory: str | Path | None = None,
        memo_entries: int = DEFAULT_MEMO_ENTRIES,
        backend: CacheBackend | None = None,
    ) -> None:
        if backend is not None and directory is not None:
            raise ValueError("pass either directory or backend, not both")
        if backend is None:
            backend = InMemoryBackend() if directory is None else FilesystemBackend(directory)
        self.backend = backend
        self.memo_entries = memo_entries
        #: LRU memo keyed by ``(key, kind)`` — the kind is part of the memo
        #: key so an entry stored under one kind can never answer a lookup
        #: for another (the backend always enforced this).  Each slot is
        #: ``[payload, time.monotonic() of the backend copy's last touch]``.
        self._memory: collections.OrderedDict[tuple[str, str], list] = (
            collections.OrderedDict()
        )
        #: Serve's event loop and worker threads share the memo: without the
        #: lock, an eviction between a read's ``get`` and ``move_to_end``
        #: makes the read raise ``KeyError``.
        self._memo_lock = threading.Lock()

    @property
    def directory(self) -> Path | None:
        """Directory of a filesystem-shaped backend, ``None`` otherwise."""
        return self.backend.directory

    @property
    def persistent(self) -> bool:
        """Whether entries survive this process."""
        return self.backend.persistent

    # ------------------------------------------------------------------- memo
    def _memo_get(self, key: str, kind: str) -> list | None:
        with self._memo_lock:
            slot = self._memory.get((key, kind))
            if slot is not None:
                self._memory.move_to_end((key, kind))
            return slot

    def _memo_put(self, key: str, kind: str, payload: dict) -> None:
        with self._memo_lock:
            self._memory[(key, kind)] = [payload, time.monotonic()]
            self._memory.move_to_end((key, kind))
            while len(self._memory) > self.memo_entries:
                self._memory.popitem(last=False)

    def _memo_drop(self, key: str) -> None:
        with self._memo_lock:
            for memo_key in [mk for mk in self._memory if mk[0] == key]:
                del self._memory[memo_key]

    # ----------------------------------------------------------------- lookup
    def get(
        self, key: str, kind: str = "network_result", resident_only: bool = False
    ) -> dict | None:
        """Payload stored under ``key``, or ``None`` on a miss.

        Raises :class:`~repro.runtime.backends.CorruptEntry` for an entry the
        backend found damaged and dropped.  ``resident_only`` answers from
        the in-process memo alone: a key that is not memo-resident, or whose
        LRU touch is due, is ``None`` without a backend call.
        """
        slot = self._memo_get(key, kind)
        if slot is not None:
            payload, touched = slot
            now = time.monotonic()
            # Memo hits must advance the backend's LRU clock too, or GC
            # would evict the hottest entries first; once per window keeps
            # the hot path free of I/O.
            due = now - touched >= USE_GRANULARITY
            if due and resident_only:
                return None
            if due:
                slot[1] = now  # in place: never re-adds a key GC just dropped
                self.backend.touch(key)
            return payload
        if resident_only:
            return None
        payload = self.backend.load(key, kind)
        if payload is not None:
            self._memo_put(key, kind, payload)
        return payload

    def contains(self, key: str, kind: str = "network_result") -> bool:
        """Whether ``key`` resolves to a valid entry.

        Used by the run planner to prune simulation jobs.  Validates the entry
        but deliberately does not retain its payload (the planning process
        never consumes the results, only the workers do).  Raises
        :class:`~repro.runtime.backends.CorruptEntry` for an entry the probe
        found damaged and dropped.
        """
        if self._memo_get(key, kind) is not None:
            return True
        return self.backend.probe(key, kind)

    # ------------------------------------------------------------------ store
    def put(self, key: str, payload: dict, kind: str = "network_result") -> None:
        """Store ``payload`` under ``key`` (atomic, compressed on disk).

        The memo takes the entry first, so after a backend failure
        (read-only directory, disk full), whose ``OSError`` this raises, the
        entry still serves this process.
        """
        self._memo_put(key, kind, payload)
        self.backend.store(key, payload, kind)

    # -------------------------------------------------------------- lifecycle
    def usage(self) -> dict:
        """Current cache state: entries, disk bytes, LRU age, memo size.

        Numbers come from the backend (one directory scan for a
        filesystem-shaped backend).
        """
        usage = self.backend.usage()
        payload = {
            "entries": usage.get("entries", 0),
            "memo_entries": len(self._memory),
            "directory": str(self.directory) if self.directory is not None else None,
            "backend": self.backend.describe(),
            "disk_bytes": usage.get("disk_bytes", 0),
            "lru_age_seconds": usage.get("lru_age_seconds"),
        }
        # The network cache tier (docs/cachenet.md) reports extra gauges —
        # its endpoint, reachability and hit/miss/degraded counters — that
        # run summaries, the serve ``stats`` op and loadgen reports surface;
        # pass them through rather than flattening them away.
        for key, value in usage.items():
            if key.startswith("remote_"):
                payload[key] = value
        return payload

    def gc(
        self, max_bytes: int | None = None, max_age: float | None = None
    ) -> lifecycle.GCResult:
        """Garbage-collect the backend (LRU-first; see :func:`lifecycle.gc`).

        Evicted keys are also dropped from the in-process memo so a bounded
        cache never serves an entry GC decided to retire.  A memory-only
        cache has nothing to collect and returns an empty result.
        """
        result = self.backend.gc(max_bytes=max_bytes, max_age=max_age)
        for key in result.removed_keys:
            self._memo_drop(key)
        return result

    def clear(self) -> int:
        """Remove every entry (backend and memo); returns backend entries removed."""
        removed = self.backend.clear()
        with self._memo_lock:
            self._memory.clear()
        return removed

    def __len__(self) -> int:
        return len(self.backend)
