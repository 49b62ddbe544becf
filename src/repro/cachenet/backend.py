"""The client side of the network cache tier (``docs/cachenet.md``).

:class:`RemoteBackend` plugs the cache server of
:mod:`repro.cachenet.server` into everything the runtime already does with a
cache — sessions, the planner's probes, the ``cache`` section of serve
``stats``.  It is a synchronous TCP client (the cache is driven from worker
threads, so there is nothing to gain from asyncio here).  Transport failures
are bounded: connect/request timeouts, a bounded retry loop with exponential
backoff plus jitter, and a circuit breaker that — once
:data:`BREAKER_THRESHOLD` consecutive requests have failed — stops touching
the network for :data:`BREAKER_COOLDOWN` seconds.  In every failure mode the
backend *degrades to a cache miss*: a simulation recomputes instead of
erroring, and the ``remote_degraded`` counter records that it happened.

The backend keeps no payload or miss cache of its own: the
:class:`~repro.runtime.cache.ResultCache` memo above it already answers warm
hits without a round trip (and outlives a dead server), and every miss asks
the server, so a sibling's store is seen at once.

:func:`resolve_backend` mounts a ``--cache-backend`` spec, whose one scheme
is ``remote://host:port`` (``--no-cache`` and ``--cache-dir`` mount the
memory and directory stores); the auth token travels via
``REPRO_CACHE_TOKEN``, never argv.  :func:`parse_backend_spec` runs the same
checks as every CLI's ``--cache-backend`` argparse type, without mounting
anything.
"""

from __future__ import annotations

import argparse
import os
import random
import socket
import threading
import time
from typing import BinaryIO

from repro.cachenet.protocol import FrameError, read_frame, write_frame
from repro.experiments.base import parse_endpoint
from repro.runtime.backends import CacheBackend, CorruptEntry
from repro.runtime.lifecycle import GCResult

__all__ = [
    "RemoteBackend",
    "RemoteUnavailable",
    "parse_backend_spec",
    "resolve_backend",
]

#: Seconds allowed to open a connection to the cache server.
CONNECT_TIMEOUT = 2.0
#: Seconds allowed for one request/response on an open connection.
REQUEST_TIMEOUT = 10.0
#: Extra attempts after a failed request, before it degrades.
RETRIES = 2
#: Seconds before the first retry; each later retry doubles it (plus jitter).
BACKOFF = 0.1
#: Consecutive transport failures before the circuit breaker opens.
BREAKER_THRESHOLD = 3
#: Seconds the breaker stays open before allowing one probe request.
BREAKER_COOLDOWN = 5.0


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

    def __init__(self, host: str, port: int, auth_token: str | None = None) -> None:
        self.host = host
        self.port = port
        self.auth_token = auth_token
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
        sock = socket.create_connection((self.host, self.port), timeout=CONNECT_TIMEOUT)
        sock.settimeout(REQUEST_TIMEOUT)
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
            for attempt in range(RETRIES + 1):
                try:
                    response = self._roundtrip_locked(message)
                except (OSError, FrameError, ConnectionError) as error:
                    last_error = error
                    self._close_locked()
                    if attempt < RETRIES:
                        delay = BACKOFF * (2**attempt)
                        time.sleep(delay * (0.5 + random.random() / 2))
                    continue
                self._failures = 0
                if not response.get("ok"):
                    raise RemoteUnavailable(
                        str(response.get("error") or "cache server error")
                    )
                return response
            self._failures += 1
            if self._failures >= BREAKER_THRESHOLD:
                self._breaker_open_until = time.monotonic() + BREAKER_COOLDOWN
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


def _remote_endpoint(spec: str) -> tuple[str, int]:
    """The ``(host, port)`` of a ``--cache-backend`` spec.

    ``remote://host:port`` is the one scheme.  ``memory://`` and a bare
    directory raise ``ValueError`` naming the flag that mounts them
    (``--no-cache``, ``--cache-dir``); so do any other scheme and a
    malformed endpoint, including a port outside 0–65535.
    """
    if spec.startswith("remote://"):
        return parse_endpoint(spec[len("remote://") :].rstrip("/"))
    if spec.startswith("memory://"):
        raise ValueError("memory:// is not a cache backend: --no-cache keeps results in memory")
    if "://" not in spec:
        raise ValueError(f"{spec!r} is not a cache backend: mount a directory with --cache-dir")
    raise ValueError(f"unknown cache backend scheme: {spec!r} (expected remote://HOST:PORT)")


def resolve_backend(spec: "str | CacheBackend") -> CacheBackend:
    """A backend for a ``--cache-backend`` spec (instances pass through).

    ``remote://host:port`` mounts a :class:`RemoteBackend` that
    authenticates with ``REPRO_CACHE_TOKEN``; any other spec raises
    ``ValueError`` (see :func:`_remote_endpoint`).
    """
    if isinstance(spec, CacheBackend):
        return spec
    host, port = _remote_endpoint(spec)
    return RemoteBackend(host, port, auth_token=os.environ.get("REPRO_CACHE_TOKEN") or None)


def parse_backend_spec(value: str) -> str:
    """Shared argparse ``type=`` of every ``--cache-backend`` flag.

    The batch, serve, cluster and loadgen CLIs get the spec back unchanged
    if :func:`resolve_backend` would accept it, and a usage error otherwise.
    Nothing is connected or created at parse time.
    """
    try:
        _remote_endpoint(value)
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error)) from None
    return value
