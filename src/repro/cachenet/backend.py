"""Client-side cache backends for the network tier (``docs/cachenet.md``).

Two :class:`~repro.runtime.backends.CacheBackend` implementations plug the
cache server of :mod:`repro.cachenet.server` into everything the runtime
already does with a cache — sessions, the planner's probes, the ``cache``
section of serve ``stats``:

* :class:`RemoteBackend` — a synchronous TCP client (the cache is driven from
  worker threads, so there is nothing to gain from asyncio here).  Transport
  failures are bounded: connect/request timeouts, a bounded retry loop with
  exponential backoff plus jitter, and a circuit breaker that — once
  :data:`BREAKER_THRESHOLD` consecutive requests have failed — stops touching
  the network for :data:`BREAKER_COOLDOWN` seconds.  In every failure mode the
  backend *degrades to a cache miss*: a simulation recomputes instead of
  erroring, and the ``remote_degraded`` counter records that it happened.
* :class:`TieredBackend` — the write-through memory→remote composite selected
  by ``--cache-backend remote://host:port``: a bounded in-process LRU front
  absorbs repeat reads, stores go to both tiers, and *negative-lookup
  suppression* remembers recent remote misses for a short TTL so planning
  probes of absent keys do not hammer the server.

:func:`resolve_backend` maps the ``--cache-backend`` URI scheme
(``remote://host:port``, ``memory://``, or a plain directory path) to a
backend instance; the auth token travels via ``REPRO_CACHE_TOKEN``, never
argv.
"""

from __future__ import annotations

import collections
import os
import random
import socket
import threading
import time
from typing import BinaryIO

from repro.cachenet.protocol import FrameError, read_frame, write_frame
from repro.experiments.base import parse_endpoint
from repro.runtime.backends import (
    CacheBackend,
    CorruptEntry,
    FilesystemBackend,
    InMemoryBackend,
)
from repro.runtime.lifecycle import GCResult

__all__ = [
    "RemoteBackend",
    "RemoteUnavailable",
    "TieredBackend",
    "resolve_backend",
]

#: Consecutive transport failures before the circuit breaker opens.
BREAKER_THRESHOLD = 3
#: Seconds the breaker stays open before allowing one probe request.
BREAKER_COOLDOWN = 5.0
#: Seconds a remote miss suppresses repeat lookups of the same key (tiered).
NEGATIVE_TTL = 30.0


class RemoteUnavailable(OSError):
    """The cache server could not be reached within the retry budget."""


class RemoteBackend(CacheBackend):
    """Synchronous client for one cache server; degrades to miss, never fails.

    One persistent connection (re-established on demand) is shared behind a
    lock — requests are small and the serve worker pool's contention on it is
    negligible next to the simulations it is saving.  The
    ``remote_hits``/``remote_misses``/``remote_degraded`` counters are folded
    into :meth:`usage` so they surface through run summaries, the serve
    ``stats`` op and loadgen reports.
    """

    persistent = True

    def __init__(
        self,
        host: str,
        port: int,
        auth_token: str | None = None,
        connect_timeout: float = 2.0,
        request_timeout: float = 10.0,
        retries: int = 2,
        backoff: float = 0.1,
        breaker_threshold: int = BREAKER_THRESHOLD,
        breaker_cooldown: float = BREAKER_COOLDOWN,
    ) -> None:
        self.host = host
        self.port = port
        self.auth_token = auth_token
        self.connect_timeout = connect_timeout
        self.request_timeout = request_timeout
        self.retries = retries
        self.backoff = backoff
        self.breaker_threshold = breaker_threshold
        self.breaker_cooldown = breaker_cooldown
        self._lock = threading.Lock()
        self._sock: socket.socket | None = None
        self._stream: BinaryIO | None = None
        self._failures = 0
        self._breaker_open_until = 0.0
        # Client-side counters (guarded by ``_lock``).
        self.remote_hits = 0
        self.remote_misses = 0
        self.remote_degraded = 0

    # -------------------------------------------------------------- transport
    def _close_locked(self) -> None:
        for closer in (self._stream, self._sock):
            if closer is not None:
                try:
                    closer.close()
                except OSError:
                    pass
        self._stream = None
        self._sock = None

    def _connect_locked(self) -> None:
        sock = socket.create_connection(
            (self.host, self.port), timeout=self.connect_timeout
        )
        sock.settimeout(self.request_timeout)
        stream = sock.makefile("rwb")
        self._sock, self._stream = sock, stream
        if self.auth_token is not None:
            write_frame(stream, {"op": "auth", "token": self.auth_token})
            response = read_frame(stream)
            if not (response and response.get("ok")):
                self._close_locked()
                raise ConnectionError("cache server rejected the auth token")

    def _roundtrip_locked(self, message: dict) -> dict:
        if self._stream is None:
            self._connect_locked()
        assert self._stream is not None
        write_frame(self._stream, message)
        response = read_frame(self._stream)
        if response is None:
            raise ConnectionError("cache server closed the connection")
        return response

    def _request(self, message: dict) -> dict:
        """One request/response with retry, backoff+jitter and the breaker."""
        with self._lock:
            now = time.monotonic()
            if now < self._breaker_open_until:
                self.remote_degraded += 1
                raise RemoteUnavailable("circuit breaker open")
            last_error: Exception | None = None
            for attempt in range(self.retries + 1):
                try:
                    response = self._roundtrip_locked(message)
                except (OSError, FrameError, ConnectionError) as error:
                    last_error = error
                    self._close_locked()
                    if attempt < self.retries:
                        delay = self.backoff * (2**attempt)
                        time.sleep(delay * (0.5 + random.random() / 2))
                    continue
                self._failures = 0
                if not response.get("ok"):
                    raise RemoteUnavailable(
                        str(response.get("error") or "cache server error")
                    )
                return response
            self._failures += 1
            if self._failures >= self.breaker_threshold:
                self._breaker_open_until = time.monotonic() + self.breaker_cooldown
                self._failures = 0
            self.remote_degraded += 1
            raise RemoteUnavailable(str(last_error))

    # ---------------------------------------------------------------- backend
    def load(self, key: str, kind: str) -> dict | None:
        try:
            response = self._request({"op": "get", "key": key, "kind": kind})
        except RemoteUnavailable:
            return None  # degrade to miss; already counted
        if response.get("corrupt"):
            raise CorruptEntry(f"remote entry {key} was corrupt (dropped)")
        with self._lock:
            if response.get("hit"):
                self.remote_hits += 1
            else:
                self.remote_misses += 1
        if not response.get("hit"):
            return None
        payload = response.get("payload")
        return payload if isinstance(payload, dict) else None

    def probe(self, key: str, kind: str) -> bool:
        try:
            response = self._request({"op": "probe", "key": key, "kind": kind})
        except RemoteUnavailable:
            return False
        if response.get("corrupt"):
            raise CorruptEntry(f"remote entry {key} was corrupt (dropped)")
        # Probes count toward the hit/miss gauges too: a cluster coordinator
        # only ever probes (plan pruning), and its counters are what loadgen
        # reports as the tier's health.
        with self._lock:
            if response.get("hit"):
                self.remote_hits += 1
            else:
                self.remote_misses += 1
        return bool(response.get("hit"))

    def store(self, key: str, payload: dict, kind: str) -> None:
        # A dropped write must never fail the run: the caller's memo still
        # holds the payload, and ``remote_degraded`` records the loss.
        try:
            self._request({"op": "put", "key": key, "kind": kind, "payload": payload})
        except RemoteUnavailable:
            return

    def touch(self, key: str) -> None:
        try:
            self._request({"op": "touch", "key": key})
        except RemoteUnavailable:
            return

    def usage(self) -> dict:
        try:
            usage = dict(self._request({"op": "usage"}).get("usage") or {})
            usage.setdefault("entries", 0)
            usage.setdefault("disk_bytes", 0)
            reachable = True
        except RemoteUnavailable:
            usage = {
                "entries": 0,
                "disk_bytes": 0,
                "lru_age_seconds": None,
            }
            reachable = False
        with self._lock:
            usage.update(
                remote_endpoint=f"{self.host}:{self.port}",
                remote_reachable=reachable,
                remote_hits=self.remote_hits,
                remote_misses=self.remote_misses,
                remote_degraded=self.remote_degraded,
            )
        return usage

    def gc(self, max_bytes: int | None = None, max_age: float | None = None) -> GCResult:
        try:
            response = self._request(
                {"op": "gc", "max_bytes": max_bytes, "max_age": max_age}
            )
        except RemoteUnavailable:
            return GCResult()
        result = response.get("gc") or {}
        return GCResult(
            removed_entries=result.get("removed_entries", 0),
            removed_bytes=result.get("removed_bytes", 0),
            remaining_entries=result.get("remaining_entries", 0),
            remaining_bytes=result.get("remaining_bytes", 0),
            removed_keys=list(result.get("removed_keys", [])),
        )

    def clear(self) -> int:
        try:
            return int(self._request({"op": "clear"}).get("removed", 0))
        except RemoteUnavailable:
            return 0

    def describe(self) -> str:
        return f"remote:{self.host}:{self.port}"

    def close(self) -> None:
        with self._lock:
            self._close_locked()

    def __len__(self) -> int:
        return int(self.usage().get("entries", 0))


class TieredBackend(CacheBackend):
    """Write-through memory→remote composite with negative-lookup suppression.

    The remote tier is authoritative (``len``/``usage``/GC answer from it);
    the memory tier is a bounded LRU of payloads this process already pulled
    over the wire, and the negative cache remembers keys the remote recently
    missed so repeated planning probes of an absent key cost one lookup per
    :data:`NEGATIVE_TTL` window instead of one round trip each.  A ``store``
    always invalidates the key's negative entry before writing through.
    """

    persistent = True

    def __init__(
        self,
        remote: RemoteBackend,
        memory_entries: int = 512,
        negative_ttl: float = NEGATIVE_TTL,
        negative_entries: int = 4096,
    ) -> None:
        self.remote = remote
        self.memory_entries = memory_entries
        self.negative_ttl = negative_ttl
        self.negative_entries = negative_entries
        self._lock = threading.Lock()
        self._memory: collections.OrderedDict[tuple[str, str], dict] = (
            collections.OrderedDict()
        )
        self._negative: collections.OrderedDict[tuple[str, str], float] = (
            collections.OrderedDict()
        )
        self.suppressed = 0

    # ------------------------------------------------------------ memory tier
    def _memory_get(self, key: str, kind: str) -> dict | None:
        with self._lock:
            payload = self._memory.get((key, kind))
            if payload is not None:
                self._memory.move_to_end((key, kind))
            return payload

    def _memory_put(self, key: str, kind: str, payload: dict) -> None:
        with self._lock:
            self._memory[(key, kind)] = payload
            self._memory.move_to_end((key, kind))
            while len(self._memory) > self.memory_entries:
                self._memory.popitem(last=False)

    def _negative_hit(self, key: str, kind: str) -> bool:
        with self._lock:
            deadline = self._negative.get((key, kind))
            if deadline is None:
                return False
            if time.monotonic() >= deadline:
                del self._negative[(key, kind)]
                return False
            self.suppressed += 1
            return True

    def _negative_put(self, key: str, kind: str) -> None:
        with self._lock:
            self._negative[(key, kind)] = time.monotonic() + self.negative_ttl
            self._negative.move_to_end((key, kind))
            while len(self._negative) > self.negative_entries:
                self._negative.popitem(last=False)

    def _negative_drop(self, key: str, kind: str) -> None:
        with self._lock:
            self._negative.pop((key, kind), None)

    # ---------------------------------------------------------------- backend
    def load(self, key: str, kind: str) -> dict | None:
        payload = self._memory_get(key, kind)
        if payload is not None:
            return payload
        if self._negative_hit(key, kind):
            return None
        payload = self.remote.load(key, kind)
        if payload is None:
            self._negative_put(key, kind)
            return None
        self._memory_put(key, kind, payload)
        return payload

    def probe(self, key: str, kind: str) -> bool:
        if self._memory_get(key, kind) is not None:
            return True
        if self._negative_hit(key, kind):
            return False
        hit = self.remote.probe(key, kind)
        if not hit:
            self._negative_put(key, kind)
        return hit

    def store(self, key: str, payload: dict, kind: str) -> None:
        self._negative_drop(key, kind)
        self._memory_put(key, kind, payload)
        self.remote.store(key, payload, kind)

    def touch(self, key: str) -> None:
        self.remote.touch(key)

    def usage(self) -> dict:
        usage = self.remote.usage()
        with self._lock:
            usage.update(
                memory_entries=len(self._memory),
                negative_entries=len(self._negative),
                suppressed_lookups=self.suppressed,
            )
        return usage

    def gc(self, max_bytes: int | None = None, max_age: float | None = None) -> GCResult:
        result = self.remote.gc(max_bytes=max_bytes, max_age=max_age)
        if result.removed_keys:
            removed = set(result.removed_keys)
            with self._lock:
                for memo_key in [mk for mk in self._memory if mk[0] in removed]:
                    del self._memory[memo_key]
        return result

    def clear(self) -> int:
        with self._lock:
            self._memory.clear()
            self._negative.clear()
        return self.remote.clear()

    def describe(self) -> str:
        return f"tiered:memory+{self.remote.describe()}"

    def close(self) -> None:
        self.remote.close()

    def __len__(self) -> int:
        return len(self.remote)


def resolve_backend(spec: "str | CacheBackend") -> CacheBackend:
    """A backend for a ``--cache-backend`` spec (instances pass through).

    * ``remote://host:port`` — a :class:`TieredBackend` over a
      :class:`RemoteBackend`; auth token from ``REPRO_CACHE_TOKEN``.
    * ``memory://`` — a per-process :class:`InMemoryBackend`.
    * anything else — a directory path served by a
      :class:`~repro.runtime.backends.FilesystemBackend`.

    An unknown scheme or a malformed ``remote://`` endpoint (including a
    port outside 0–65535) raises ``ValueError``.
    """
    if isinstance(spec, CacheBackend):
        return spec
    if spec.startswith("remote://"):
        host, port = parse_endpoint(spec[len("remote://") :].rstrip("/"))
        token = os.environ.get("REPRO_CACHE_TOKEN") or None
        return TieredBackend(RemoteBackend(host, port, auth_token=token))
    if spec.startswith("memory://"):
        return InMemoryBackend()
    if "://" in spec:
        raise ValueError(f"unknown cache backend scheme: {spec!r}")
    return FilesystemBackend(spec)
