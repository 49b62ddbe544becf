"""Pluggable cache backends: where content-addressed entries actually live.

:class:`~repro.runtime.cache.ResultCache` used to *be* the filesystem layout —
one entry file per key plus a manifest — which tied every deployment shape to
one local directory.  Scaling the runtime out (many worker processes, many
machines, see ``docs/cluster.md``) needs the storage behind the cache to be a
seam, not a hard-coded layer.  This module is that seam:

* :class:`CacheBackend` — the abstract interface.  A backend stores validated
  JSON entries under ``(key, kind)``, reports usage, and optionally supports
  garbage collection.  ``ResultCache`` owns policy (enabled/disabled, the
  bounded memo, hit/miss/error counters); backends own persistence.
* :class:`InMemoryBackend` — a per-process dict.  The default for library
  use, so importing ``repro`` never writes to disk.
* :class:`FilesystemBackend` — the on-disk layout extracted from the old
  ``ResultCache``: gzip entry files written atomically plus the persistent
  manifest index of :mod:`repro.runtime.lifecycle`.  Any number of
  processes may share one directory (pool workers, serve processes, cluster
  workers): entry reads always go to the filesystem, and usage, size and GC
  re-sync the manifest from disk so one process's bookkeeping reflects its
  siblings' stores and evictions.

A future object-store or redis backend is one new subclass — the cache, the
sessions, the serve layer and the cluster coordinator are all agnostic.
Corrupted entries raise :class:`CorruptEntry`; the cache converts that into a
miss + error counter + recompute, so no backend has to invent its own
recovery story.  The interface contract is documented in ``docs/runtime.md``.
"""

from __future__ import annotations

import time
from pathlib import Path

from repro.runtime import lifecycle
from repro.runtime.lifecycle import GCResult

__all__ = [
    "CorruptEntry",
    "CacheBackend",
    "InMemoryBackend",
    "FilesystemBackend",
    "ENTRY_SCHEMA",
    "SYNC_INTERVAL",
]

#: Format version of stored entries; mismatches are treated as corruption.
ENTRY_SCHEMA = 1

#: Minimum seconds between manifest re-syncs of a :class:`FilesystemBackend`
#: answering usage/size queries.  Entry reads always go to the filesystem and
#: GC always re-syncs; this only bounds how often ``usage``/``len`` reload
#: sibling processes' bookkeeping, so the hot lookup path never pays for it.
SYNC_INTERVAL = 2.0


class CorruptEntry(ValueError):
    """A stored entry was unreadable or malformed (already dropped)."""


class CacheBackend:
    """Abstract storage behind a :class:`~repro.runtime.cache.ResultCache`.

    Implementations must be safe to call from multiple threads (the serve
    worker pool drives one shared cache concurrently).  ``load``/``probe``
    raise :class:`CorruptEntry` after dropping a damaged entry, so the caller
    can count the error and recompute; ``store`` raises ``OSError`` when the
    write fails (the caller degrades to its in-process memo).
    """

    #: Whether entries survive this process.
    persistent: bool = False

    #: Directory of a filesystem-shaped backend, ``None`` otherwise (kept on
    #: the interface because run reports and the serve ``stats`` op name it).
    directory: Path | None = None

    #: Manifest index of a filesystem-shaped backend, ``None`` otherwise.
    manifest: lifecycle.CacheManifest | None = None

    def load(self, key: str, kind: str) -> dict | None:
        """The payload stored under ``(key, kind)``, or ``None`` when absent."""
        raise NotImplementedError

    def probe(self, key: str, kind: str) -> bool:
        """Whether ``(key, kind)`` resolves to a valid entry (no payload kept)."""
        raise NotImplementedError

    def store(self, key: str, payload: dict, kind: str) -> None:
        """Persist ``payload`` under ``(key, kind)``."""
        raise NotImplementedError

    def touch(self, key: str) -> None:
        """Refresh ``key``'s LRU clock (no-op for backends without one)."""

    def usage(self) -> dict:
        """Current state: ``entries``, ``disk_bytes``, age gauges."""
        raise NotImplementedError

    def gc(self, max_bytes: int | None = None, max_age: float | None = None) -> GCResult:
        """Evict entries until the store fits the bounds; default: nothing to do."""
        return GCResult()

    def clear(self) -> int:
        """Remove every entry; returns how many were removed."""
        raise NotImplementedError

    def describe(self) -> str:
        """Short human-readable identity (for reports and stats payloads)."""
        return type(self).__name__

    def __len__(self) -> int:
        raise NotImplementedError


class InMemoryBackend(CacheBackend):
    """Per-process dict storage — nothing survives the interpreter.

    The default backend of library use: importing ``repro`` and running an
    experiment never touches the filesystem.  ``gc`` is a no-op (there is no
    LRU pressure a byte cap could relieve that process exit doesn't).
    """

    persistent = False

    def __init__(self) -> None:
        self._entries: dict[tuple[str, str], dict] = {}

    def load(self, key: str, kind: str) -> dict | None:
        return self._entries.get((key, kind))

    def probe(self, key: str, kind: str) -> bool:
        return (key, kind) in self._entries

    def store(self, key: str, payload: dict, kind: str) -> None:
        self._entries[(key, kind)] = payload

    def usage(self) -> dict:
        return {
            "entries": len(self._entries),
            "disk_bytes": 0,
            "oldest_age_seconds": None,
            "lru_age_seconds": None,
        }

    def clear(self) -> int:
        removed = len(self._entries)
        self._entries.clear()
        return removed

    def describe(self) -> str:
        return "memory"

    def __len__(self) -> int:
        return len(self._entries)


class FilesystemBackend(CacheBackend):
    """One directory of gzip entry files plus a persistent manifest index.

    This is the storage layer extracted from the pre-backend ``ResultCache``:
    atomic compressed writes (:func:`repro.runtime.lifecycle.write_entry`),
    transparent reads of legacy uncompressed entries, and the incrementally
    maintained manifest that makes ``len``/``usage``/GC O(1) instead of a
    directory scan.  Entry validation (schema + kind + payload shape) lives
    here so every filesystem-shaped backend rejects damage identically.

    The directory may be shared by many processes.  Writes are already safe
    (atomic entry files, merge-on-save manifest), but the in-memory manifest
    view goes stale the moment a sibling stores or evicts an entry, so
    ``usage``/``len`` re-sync it from disk (at most every
    :data:`SYNC_INTERVAL` seconds) and :meth:`gc` re-syncs before it
    collects.  Loads and probes go to the filesystem directly, so entry
    *reads* are always coherent.
    """

    persistent = True

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory).expanduser()
        self.directory.mkdir(parents=True, exist_ok=True)
        self.manifest = lifecycle.CacheManifest(self.directory)
        self._last_sync = 0.0

    def _sync(self) -> None:
        """Reload siblings' bookkeeping, throttled to :data:`SYNC_INTERVAL`."""
        now = time.monotonic()
        if now - self._last_sync < SYNC_INTERVAL:
            return
        self._last_sync = now
        self.manifest.refresh()

    # ------------------------------------------------------------------ entries
    def _drop(self, path: Path, key: str) -> None:
        """Remove a corrupted entry file and its manifest record."""
        try:
            path.unlink()
        except OSError:
            pass
        self.manifest.record_remove(key)

    def _read(self, key: str, kind: str) -> dict | None:
        """The validated payload of ``(key, kind)``; raises :class:`CorruptEntry`."""
        path = lifecycle.find_entry(self.directory, key)
        if path is None:
            return None
        try:
            entry = lifecycle.read_entry(path)
            if entry["schema"] != ENTRY_SCHEMA or entry["kind"] != kind:
                raise ValueError("cache entry schema mismatch")
            payload = entry["payload"]
            if not isinstance(payload, dict):
                raise ValueError("cache entry payload is not an object")
        except (OSError, ValueError, KeyError, TypeError) as error:
            self._drop(path, key)
            raise CorruptEntry(str(error)) from error
        return payload

    def load(self, key: str, kind: str) -> dict | None:
        payload = self._read(key, kind)
        if payload is not None:
            self.manifest.record_use(key)
        return payload

    def probe(self, key: str, kind: str) -> bool:
        # Validates without retaining the payload: planning probes never
        # consume results, so there is nothing worth keeping in memory.
        return self._read(key, kind) is not None

    def store(self, key: str, payload: dict, kind: str) -> None:
        entry = {"schema": ENTRY_SCHEMA, "kind": kind, "key": key, "payload": payload}
        size = lifecycle.write_entry(self.directory, key, entry)
        self.manifest.record_store(key, kind, size)

    def touch(self, key: str) -> None:
        self.manifest.record_use(key)

    # -------------------------------------------------------------- observation
    def usage(self) -> dict:
        self._sync()
        stats = self.manifest.stats()
        return {
            "entries": stats["entries"],
            "disk_bytes": stats["bytes"],
            "oldest_age_seconds": stats["oldest_age_seconds"],
            "lru_age_seconds": stats["lru_age_seconds"],
        }

    def gc(self, max_bytes: int | None = None, max_age: float | None = None) -> GCResult:
        # Collect against the directory's current state, not a stale view.
        self.manifest.refresh()
        self._last_sync = time.monotonic()
        return self.manifest.gc(max_bytes=max_bytes, max_age=max_age)

    def clear(self) -> int:
        return self.manifest.clear()

    def describe(self) -> str:
        return f"filesystem:{self.directory}"

    def __len__(self) -> int:
        self._sync()
        return len(self.manifest)
