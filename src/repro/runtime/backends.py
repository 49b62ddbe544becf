"""Pluggable cache backends: where content-addressed entries actually live.

:class:`~repro.runtime.cache.ResultCache` used to *be* the filesystem layout,
one entry file per key, which tied every deployment shape to one local
directory.  Scaling the runtime out (many worker processes, many
machines, see ``docs/cluster.md``) needs the storage behind the cache to be a
seam, not a hard-coded layer.  This module is that seam:

* :class:`CacheBackend` — the abstract interface.  A backend stores validated
  JSON entries under ``(key, kind)``, reports usage, and optionally supports
  garbage collection.  ``ResultCache`` owns policy (the bounded memo,
  hit/miss/error counters); backends own persistence.
* :class:`InMemoryBackend` — a per-process dict.  The default for library
  use and what ``--no-cache`` mounts, so nothing is written to disk.
* :class:`FilesystemBackend` — the on-disk layout of
  :mod:`repro.runtime.lifecycle`: gzip entry files written atomically, with
  the directory as the index and each file's mtime as its LRU clock.  Any
  number of processes may share one directory (pool workers, serve
  processes, cluster workers): every read, count and GC goes to the
  directory itself, so each process sees its siblings' stores and
  evictions at once.

A future object-store or redis backend is one new subclass — the cache, the
sessions, the serve layer and the cluster coordinator are all agnostic.
Corrupted entries raise :class:`CorruptEntry`; the cache converts that into a
miss + error counter + recompute, so no backend has to invent its own
recovery story.  The interface contract is documented in ``docs/runtime.md``.
"""

from __future__ import annotations

import contextlib
from pathlib import Path

from repro.runtime import lifecycle
from repro.runtime.lifecycle import GCResult

__all__ = [
    "CorruptEntry",
    "CacheBackend",
    "InMemoryBackend",
    "FilesystemBackend",
    "ENTRY_SCHEMA",
]

#: Format version of stored entries; mismatches are treated as corruption.
ENTRY_SCHEMA = 1


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
        """Current state: ``entries``, ``disk_bytes``, ``lru_age_seconds``."""
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

    The default backend of library use and of ``--no-cache``: running an
    experiment through it never touches the filesystem.  ``gc`` is a no-op
    (there is no LRU pressure a byte cap could relieve that process exit
    doesn't).
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
    """One directory of gzip entry files; the directory is its own index.

    Atomic compressed writes (:func:`repro.runtime.lifecycle.write_entry`)
    and entry validation (schema + kind + payload shape), so every
    filesystem-shaped backend rejects damage identically.  A store is one
    file write, a use sets the file's mtime (the LRU clock), and
    ``len``/``usage``/``gc``/``clear`` are each one directory scan.

    The backend holds no state beyond its path, so any number of processes
    may share one directory, and each sees its siblings' stores and
    evictions at once.
    """

    persistent = True

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory).expanduser()
        self.directory.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------ entries
    def _read(self, key: str, kind: str) -> tuple[Path, dict] | None:
        """The file and validated payload of ``(key, kind)``; raises
        :class:`CorruptEntry` after deleting a damaged file."""
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
            with contextlib.suppress(OSError):
                path.unlink()
            raise CorruptEntry(str(error)) from error
        return path, payload

    def load(self, key: str, kind: str) -> dict | None:
        found = self._read(key, kind)
        if found is None:
            return None
        path, payload = found
        lifecycle.touch(path)
        return payload

    def probe(self, key: str, kind: str) -> bool:
        # Validates without retaining the payload: planning probes never
        # consume results, so there is nothing worth keeping in memory.
        return self._read(key, kind) is not None

    def store(self, key: str, payload: dict, kind: str) -> None:
        entry = {"schema": ENTRY_SCHEMA, "kind": kind, "key": key, "payload": payload}
        lifecycle.write_entry(self.directory, key, entry)

    def touch(self, key: str) -> None:
        path = lifecycle.find_entry(self.directory, key)
        if path is not None:
            lifecycle.touch(path)

    # -------------------------------------------------------------- observation
    def usage(self) -> dict:
        return lifecycle.usage(lifecycle.scan(self.directory))

    def gc(self, max_bytes: int | None = None, max_age: float | None = None) -> GCResult:
        return lifecycle.gc(self.directory, max_bytes=max_bytes, max_age=max_age)

    def clear(self) -> int:
        return lifecycle.clear(self.directory)

    def describe(self) -> str:
        return f"filesystem:{self.directory}"

    def __len__(self) -> int:
        return len(lifecycle.scan(self.directory))
