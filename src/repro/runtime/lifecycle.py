"""Cache lifecycle: the entry codec, the directory scan, and garbage collection.

A cache directory is its own index.  Every entry is one file named after its
key, so the directory already records everything an index would: which keys
exist (file names), how large they are (``st_size``) and when each was last
used (``st_mtime``, the LRU clock).  This module holds the operations over
that layout:

* **entry codec** — every entry is a gzip-compressed ``<key>.json.gz``
  file, written atomically (temp file + rename).  A store is that one file
  write and nothing else.
* **scan** — :func:`scan` is one ``os.scandir`` pass over every file named
  ``<key>.json.gz``, ``<key>.json`` or ``<key>.npy``.  The last two are
  formats older releases wrote (uncompressed entries, trace tensors);
  nothing reads or writes one now, but each still takes space, so it counts
  until GC or :func:`clear` removes it.  It skips dot-files
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
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

__all__ = [
    "COMPRESSED_SUFFIX",
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

#: The on-disk form of every entry.
COMPRESSED_SUFFIX = ".json.gz"

#: Files older releases wrote: uncompressed entries and trace tensors.
#: Nothing reads or writes one now; scans count them so GC and
#: :func:`clear` reclaim them.
OLD_SUFFIXES = (".json", ".npy")

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
    """The entry file of ``key``.

    Like every path builder here, raises ``ValueError`` for an invalid key.
    """
    return directory / f"{_checked(key)}{COMPRESSED_SUFFIX}"


def find_entry(directory: Path, key: str) -> Path | None:
    """The existing entry file of ``key``, or ``None``."""
    path = entry_path(directory, key)
    return path if path.exists() else None


def read_entry(path: Path) -> dict:
    """Decode one entry file.

    Raises ``OSError`` / ``ValueError`` on unreadable, truncated or
    malformed content — the cache treats either as corruption.
    """
    try:
        data = gzip.decompress(path.read_bytes())
    except (EOFError, zlib.error) as error:  # a cut-off or damaged stream
        raise ValueError(f"damaged entry: {error}") from error
    entry = json.loads(data.decode("utf-8"))
    if not isinstance(entry, dict):
        raise ValueError("cache entry is not an object")
    return entry


def write_entry(directory: Path, key: str, entry: dict) -> None:
    """Atomically write ``entry`` compressed: the whole of a store.

    Raises ``OSError`` on write failure (the caller degrades to its
    in-memory copy).
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


def touch(path: Path) -> None:
    """Advance an entry's LRU clock: set its file's mtime to now (best effort)."""
    with contextlib.suppress(OSError):
        os.utime(path)


def _remove(directory: Path, key: str) -> None:
    """Delete every file of ``key``, old formats too (best effort)."""
    for suffix in (COMPRESSED_SUFFIX, *OLD_SUFFIXES):
        with contextlib.suppress(OSError):
            (directory / f"{_checked(key)}{suffix}").unlink()


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
    for suffix in (COMPRESSED_SUFFIX, *OLD_SUFFIXES):
        if name.endswith(suffix):
            key = name[: -len(suffix)]
            return key if is_key(key) else None
    return None


def scan(directory: Path) -> dict[str, EntryFile]:
    """Every entry in ``directory`` by key, from one ``os.scandir`` pass.

    A key with files in several formats counts once; removing it removes
    them all.  A missing directory scans empty.
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
