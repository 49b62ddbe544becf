"""Cache lifecycle: the entry codec, the directory scan, and garbage collection.

A cache directory is its own index.  Every entry is one file named after its
key, so the directory already records everything an index would: which keys
exist (file names), how large they are (``st_size``) and when each was last
used (``st_mtime``, the LRU clock).  This module holds the operations over
that layout:

* **entry codec** — new entries are written as gzip-compressed
  ``<key>.json.gz`` files, atomically (temp file + rename); reads accept
  both the compressed form and legacy uncompressed ``<key>.json`` entries, so
  a cache populated before the format change keeps hitting after it.  A
  store is that one file write and nothing else.
* **scan** — :func:`scan` is one ``os.scandir`` pass over every file named
  ``<key>.json.gz``, ``<key>.json`` or ``<key>.npy`` (a trace tensor older
  releases wrote; nothing writes one now, but it still takes space, so it
  counts until GC or :func:`clear` removes it).  It skips dot-files
  (in-flight temp writes), subdirectories (``traces/``) and the
  ``manifest.json`` index older releases kept.  Usage, counts, garbage
  collection and clearing each make one scan.
* **garbage collection** — :func:`gc` enforces a byte cap and/or a maximum
  entry age, evicting least-recently-used entries first; :func:`clear`
  deletes every entry.

Keys are plain name tokens (:data:`KEY_PATTERN`).  The path builders refuse
anything else, so no key, local or from a network client, can name a file
outside its directory.

Concurrency needs no coordination.  Entry files are published by atomic
rename, a use is one ``os.utime``, and every process's next scan sees its
siblings' stores and evictions, because there is no second copy to keep
coherent.  ``docs/runtime.md`` documents the on-disk layout and the GC
policy.
"""

from __future__ import annotations

import contextlib
import gzip
import json
import os
import re
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

__all__ = [
    "COMPRESSED_SUFFIX",
    "LEGACY_SUFFIX",
    "KEY_PATTERN",
    "EntryFile",
    "GCResult",
    "clear",
    "entry_path",
    "find_entry",
    "gc",
    "gc_bounds",
    "is_key",
    "read_entry",
    "scan",
    "touch",
    "usage",
    "write_entry",
]

#: Preferred on-disk form of new entries.
COMPRESSED_SUFFIX = ".json.gz"

#: Uncompressed entries written before the format change; still readable.
LEGACY_SUFFIX = ".json"

#: Trace tensors older releases of the trace fabric wrote.  Nothing reads or
#: writes one now; scans count them so GC and :func:`clear` reclaim them.
OLD_TENSOR_SUFFIX = ".npy"

#: The index file older releases kept beside their entries.  It is never an
#: entry: scans skip it and :func:`clear` deletes it.
OLD_INDEX_NAME = "manifest.json"

#: A cache key is a plain name token.  SHA-256 hex digests fit; separators,
#: dots and absolute paths, which could name a file outside the directory,
#: do not.
KEY_PATTERN = re.compile(r"[0-9A-Za-z_-]{1,128}")


def is_key(key: object) -> bool:
    """Whether ``key`` is a valid cache key (:data:`KEY_PATTERN`)."""
    return isinstance(key, str) and KEY_PATTERN.fullmatch(key) is not None


def _checked(key: str) -> str:
    if not is_key(key):
        raise ValueError(f"invalid cache key: {key!r}")
    return key


# ------------------------------------------------------------------ entry codec
def entry_path(directory: Path, key: str) -> Path:
    """Where a *new* entry for ``key`` is written (compressed form).

    Like every path builder here, raises ``ValueError`` for an invalid key.
    """
    return directory / f"{_checked(key)}{COMPRESSED_SUFFIX}"


def legacy_path(directory: Path, key: str) -> Path:
    """Where the pre-compression format stored ``key``."""
    return directory / f"{_checked(key)}{LEGACY_SUFFIX}"


def _entry_files(directory: Path, key: str) -> tuple[Path, Path]:
    """Both readable forms of ``key``, compressed first."""
    return entry_path(directory, key), legacy_path(directory, key)


def find_entry(directory: Path, key: str) -> Path | None:
    """The existing on-disk file of ``key`` (compressed preferred), or ``None``."""
    for path in _entry_files(directory, key):
        if path.exists():
            return path
    return None


def read_entry(path: Path) -> dict:
    """Decode one entry file, transparently handling both formats.

    Raises ``OSError`` / ``ValueError`` on unreadable or malformed content —
    the cache treats either as corruption.
    """
    data = path.read_bytes()
    if data[:2] == b"\x1f\x8b":  # gzip magic; suffix-agnostic on purpose
        data = gzip.decompress(data)
    entry = json.loads(data.decode("utf-8"))
    if not isinstance(entry, dict):
        raise ValueError("cache entry is not an object")
    return entry


def write_entry(directory: Path, key: str, entry: dict) -> None:
    """Atomically write ``entry`` compressed: the whole of a store.

    A leftover legacy uncompressed copy of the same key is removed so the
    directory never holds two generations of one entry.  Raises ``OSError``
    on write failure (the caller degrades to its in-memory copy).
    """
    path = entry_path(directory, key)
    data = gzip.compress(
        json.dumps(entry, sort_keys=True).encode("utf-8"), mtime=0
    )
    tmp_name = None
    try:
        descriptor, tmp_name = tempfile.mkstemp(
            dir=directory, prefix=f".{key[:16]}-", suffix=".tmp"
        )
        with os.fdopen(descriptor, "wb") as handle:
            handle.write(data)
        os.replace(tmp_name, path)
    except OSError:
        if tmp_name is not None:
            with contextlib.suppress(OSError):
                os.unlink(tmp_name)
        raise
    with contextlib.suppress(OSError):
        legacy_path(directory, key).unlink()


def touch(path: Path) -> None:
    """Advance an entry's LRU clock: set its file's mtime to now (best effort)."""
    with contextlib.suppress(OSError):
        os.utime(path)


def _remove(directory: Path, key: str) -> None:
    """Delete every on-disk form of ``key``, an old tensor too (best effort)."""
    old_tensor = directory / f"{_checked(key)}{OLD_TENSOR_SUFFIX}"
    for path in (*_entry_files(directory, key), old_tensor):
        with contextlib.suppress(OSError):
            path.unlink()


# ------------------------------------------------------------------------ scan
class EntryFile(NamedTuple):
    """One entry as a scan saw it."""

    size: int  # bytes on disk
    used: float  # the file's mtime: the LRU clock


def _parse_name(name: str) -> str | None:
    """The key of an entry file name, ``None`` for anything else.

    Dot-files never parse: a key cannot contain a dot.
    """
    if name == OLD_INDEX_NAME:
        return None
    for suffix in (COMPRESSED_SUFFIX, LEGACY_SUFFIX, OLD_TENSOR_SUFFIX):
        if name.endswith(suffix):
            key = name[: -len(suffix)]
            return key if is_key(key) else None
    return None


def scan(directory: Path) -> dict[str, EntryFile]:
    """Every entry in ``directory`` by key, from one ``os.scandir`` pass.

    A key present in both generations (``.json.gz`` and legacy ``.json``)
    counts once; removing it removes both.  A missing directory scans empty.
    """
    entries: dict[str, EntryFile] = {}
    with contextlib.suppress(OSError), os.scandir(directory) as listing:
        for item in listing:
            key = _parse_name(item.name)
            if key is None:
                continue
            try:
                if not item.is_file():
                    continue
                info = item.stat()
            except OSError:
                continue  # removed mid-scan
            entries[key] = EntryFile(info.st_size, info.st_mtime)
    return entries


def usage(entries: dict[str, EntryFile]) -> dict:
    """The ``entries``/``disk_bytes``/``lru_age_seconds`` gauges of one scan."""
    oldest_use = min((entry.used for entry in entries.values()), default=None)
    return {
        "entries": len(entries),
        "disk_bytes": sum(entry.size for entry in entries.values()),
        "lru_age_seconds": (
            None if oldest_use is None else round(time.time() - oldest_use, 3)
        ),
    }


# ------------------------------------------------------------------ collection
@dataclass
class GCResult:
    """Outcome of one garbage-collection pass."""

    removed_entries: int = 0
    removed_bytes: int = 0
    remaining_entries: int = 0
    remaining_bytes: int = 0
    removed_keys: list[str] = field(default_factory=list)

    def summary(self) -> str:
        return (
            f"evicted {self.removed_entries} entries ({self.removed_bytes} bytes); "
            f"{self.remaining_entries} entries ({self.remaining_bytes} bytes) remain"
        )


def gc_bounds(message: dict) -> dict:
    """The ``max_bytes``/``max_age`` bounds of a ``gc`` request, checked.

    Both wire front-ends (the serve and cache-server ``gc`` ops) take their
    bounds from here.  A bound may be absent or ``None`` (not enforced);
    anything but a non-negative number raises ``ValueError``.
    """
    bounds = {}
    for name in ("max_bytes", "max_age"):
        value = message.get(name)
        if value is not None and (
            not isinstance(value, (int, float)) or isinstance(value, bool) or not value >= 0
        ):
            raise ValueError(f"{name} must be a non-negative number")
        bounds[name] = value
    return bounds


def gc(
    directory: Path, max_bytes: int | None = None, max_age: float | None = None
) -> GCResult:
    """Evict entries until ``directory`` fits ``max_bytes`` and ``max_age``.

    One scan, then least-recently-used first: an entry unused for more than
    ``max_age`` seconds goes, and so does every entry while the total
    exceeds ``max_bytes``.  Either bound may be ``None`` (not enforced).
    """
    entries = scan(directory)
    now = time.time()
    total = sum(entry.size for entry in entries.values())
    result = GCResult()
    for key, entry in sorted(entries.items(), key=lambda item: (item[1].used, item[0])):
        expired = max_age is not None and now - entry.used > max_age
        if not expired and (max_bytes is None or total <= max_bytes):
            break  # later entries are fresher, and the total only shrinks
        _remove(directory, key)
        total -= entry.size
        result.removed_entries += 1
        result.removed_bytes += entry.size
        result.removed_keys.append(key)
    result.remaining_entries = len(entries) - result.removed_entries
    result.remaining_bytes = total
    return result


def clear(directory: Path) -> int:
    """Delete every entry, and an old ``manifest.json``; returns entries removed."""
    entries = scan(directory)
    for key in entries:
        _remove(directory, key)
    with contextlib.suppress(OSError):
        (directory / OLD_INDEX_NAME).unlink()
    return len(entries)
