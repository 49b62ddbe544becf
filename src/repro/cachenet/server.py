"""The standalone cache server behind ``python -m repro cacheserve``.

One :class:`CacheServer` owns a directory of cache entries — stored through
the exact :class:`~repro.runtime.backends.FilesystemBackend` every local cache
uses, so the gzip entry codec, schema validation and the directory-scan
lifecycle (age/size GC, usage gauges) are reused rather than reimplemented —
and serves them to remote :class:`~repro.cachenet.backend.RemoteBackend`
clients over the length-prefixed JSON frame protocol of
:mod:`repro.cachenet.protocol`.

Design points (documented in ``docs/cachenet.md``):

* **Threaded, synchronous.**  Every op is one small request/response over a
  backend whose only state is its directory; a thread-per-connection
  ``socketserver`` is the right tool (the asyncio machinery of the serve
  layer exists to multiplex long-running jobs, which the cache tier does
  not have).
* **Constant-time auth.**  With ``--auth-token`` set, a connection must send
  ``{"op": "auth", "token": ...}`` first; the comparison is
  ``hmac.compare_digest``, mirroring the serve layer's ``check_auth``.
* **Keys stay inside the directory.**  ``get``/``probe``/``put``/``touch``
  with a key that is not a plain name token
  (:data:`~repro.runtime.lifecycle.KEY_PATTERN`) get
  ``{"ok": false, "error": "invalid key"}`` and touch no file.
* **Corruption is the client's miss.**  A damaged entry is dropped server-side
  (the backend's :class:`~repro.runtime.backends.CorruptEntry` recovery) and
  reported as ``{"hit": false, "corrupt": true}`` so clients can keep the
  local error accounting they already have.
* **GC on request.**  The ``gc`` op collects the store LRU-first in one
  directory scan (:func:`repro.runtime.lifecycle.gc`).  The directory is its
  own index, so ``python -m repro --cache-gc --cache-dir DIR`` collects it
  just as well from another process while the server runs.
"""

from __future__ import annotations

import dataclasses
import hmac
import socket
import socketserver
import threading
from pathlib import Path

from repro.cachenet.protocol import FrameError, read_frame, write_frame
from repro.runtime.backends import CorruptEntry, FilesystemBackend
from repro.runtime.lifecycle import gc_bounds, is_key

__all__ = ["CacheServer"]

#: Ops a connection may issue before authenticating (when a token is set).
_PRE_AUTH_OPS = frozenset({"auth"})

#: Ops that name one entry by its ``key``.
_KEYED_OPS = frozenset({"get", "probe", "put", "touch"})

#: Seconds between the serving loop's checks for a shutdown request, which
#: bounds how long :meth:`CacheServer.stop` waits.
POLL_INTERVAL = 0.05


class _Handler(socketserver.StreamRequestHandler):
    """One connection: a loop of frames dispatched to the owning server."""

    def handle(self) -> None:  # pragma: no cover - exercised over real sockets
        server: CacheServer = self.server.cache_server  # type: ignore[attr-defined]
        authenticated = server.auth_token is None
        while True:
            try:
                message = read_frame(self.rfile)
            except FrameError:
                return
            if message is None:
                return
            response, authenticated, keep_open = server.handle_message(
                message, authenticated
            )
            try:
                write_frame(self.wfile, response)
            except (OSError, FrameError):
                return
            if not keep_open:
                return


class _TCPServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # Live connection sockets, so stop() can sever persistent clients —
        # shutdown() alone only closes the *listener*, and a RemoteBackend
        # would keep getting answers from its open handler thread.
        self._live_requests: set = set()
        self._live_lock = threading.Lock()

    def process_request(self, request, client_address) -> None:
        with self._live_lock:
            self._live_requests.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        with self._live_lock:
            self._live_requests.discard(request)
        super().shutdown_request(request)

    def close_all_connections(self) -> None:
        with self._live_lock:
            live = list(self._live_requests)
        for request in live:
            try:
                request.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                request.close()
            except OSError:
                pass


class CacheServer:
    """A network-shared cache tier over one entry directory.

    ``start()`` binds and serves on a daemon thread and returns the bound
    ``(host, port)``; ``stop()`` shuts the listener down.
    The server is embeddable in-process (the tests run it that way) as
    well as standalone.
    """

    def __init__(self, directory: str | Path, auth_token: str | None = None) -> None:
        self.backend = FilesystemBackend(directory)
        self.auth_token = auth_token
        self._lock = threading.Lock()
        self._server: _TCPServer | None = None
        self._thread: threading.Thread | None = None
        self._stopped = threading.Event()
        # Lifetime counters, surfaced by the ``stats`` op.
        self.requests = 0
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.corrupt = 0
        self.evicted = 0

    @property
    def directory(self) -> Path:
        return self.backend.directory

    # ---------------------------------------------------------------- dispatch
    def check_auth(self, token: object) -> bool:
        """Constant-time token check (mirrors the serve layer's)."""
        if self.auth_token is None:
            return True
        if not isinstance(token, str):
            return False
        # Bytes, not str: ``compare_digest`` refuses non-ASCII strings, and a
        # JSON string may even hold a lone surrogate.
        return hmac.compare_digest(
            token.encode("utf-8", "surrogatepass"), self.auth_token.encode("utf-8")
        )

    def handle_message(
        self, message: dict, authenticated: bool
    ) -> tuple[dict, bool, bool]:
        """Dispatch one frame; returns ``(response, authenticated, keep_open)``."""
        op = message.get("op")
        with self._lock:
            self.requests += 1
        if not isinstance(op, str):
            return {"ok": False, "error": "op must be a string"}, authenticated, True
        if not authenticated and op not in _PRE_AUTH_OPS:
            return {"ok": False, "error": "authentication required"}, False, True
        if op in _KEYED_OPS and not is_key(message.get("key")):
            return {"ok": False, "error": "invalid key"}, authenticated, True
        try:
            if op == "auth":
                if self.check_auth(message.get("token")):
                    return {"ok": True, "event": "authenticated"}, True, True
                return {"ok": False, "error": "invalid token"}, False, False
            if op == "ping":
                return {"ok": True, "event": "pong"}, authenticated, True
            if op == "get":
                return self._op_get(message), authenticated, True
            if op == "probe":
                return self._op_probe(message), authenticated, True
            if op == "put":
                return self._op_put(message), authenticated, True
            if op == "touch":
                self.backend.touch(message["key"])
                return {"ok": True}, authenticated, True
            if op == "usage":
                return {"ok": True, "usage": self.backend.usage()}, authenticated, True
            if op == "gc":
                try:
                    bounds = gc_bounds(message)
                except ValueError as error:
                    return {"ok": False, "error": str(error)}, authenticated, True
                result = self.backend.gc(**bounds)
                with self._lock:
                    self.evicted += result.removed_entries
                return {"ok": True, "gc": dataclasses.asdict(result)}, authenticated, True
            if op == "clear":
                removed = self.backend.clear()
                return {"ok": True, "removed": removed}, authenticated, True
            if op == "stats":
                return {"ok": True, "stats": self.stats()}, authenticated, True
            if op == "shutdown":
                threading.Thread(target=self.stop, daemon=True).start()
                return {"ok": True, "event": "shutting-down"}, authenticated, False
        except OSError as error:
            return {"ok": False, "error": str(error)}, authenticated, True
        return {"ok": False, "error": f"unknown op: {op!r}"}, authenticated, True

    def _op_get(self, message: dict) -> dict:
        key, kind = message["key"], str(message.get("kind"))
        try:
            payload = self.backend.load(key, kind)
        except CorruptEntry:
            with self._lock:
                self.corrupt += 1
            return {"ok": True, "hit": False, "corrupt": True}
        with self._lock:
            if payload is None:
                self.misses += 1
            else:
                self.hits += 1
        if payload is None:
            return {"ok": True, "hit": False}
        return {"ok": True, "hit": True, "payload": payload}

    def _op_probe(self, message: dict) -> dict:
        key, kind = message["key"], str(message.get("kind"))
        try:
            hit = self.backend.probe(key, kind)
        except CorruptEntry:
            with self._lock:
                self.corrupt += 1
            return {"ok": True, "hit": False, "corrupt": True}
        return {"ok": True, "hit": hit}

    def _op_put(self, message: dict) -> dict:
        key, kind = message["key"], str(message.get("kind"))
        payload = message.get("payload")
        if not isinstance(payload, dict):
            return {"ok": False, "error": "payload must be a JSON object"}
        self.backend.store(key, payload, kind)
        with self._lock:
            self.stores += 1
        return {"ok": True, "stored": True}

    # --------------------------------------------------------------- lifecycle
    def stats(self) -> dict:
        """Lifetime op counters plus the usage gauges of one directory scan."""
        with self._lock:
            counters = {
                "requests": self.requests,
                "hits": self.hits,
                "misses": self.misses,
                "stores": self.stores,
                "corrupt": self.corrupt,
                "evicted": self.evicted,
            }
        counters["usage"] = self.backend.usage()
        return counters

    def start(self, host: str = "127.0.0.1", port: int = 0) -> tuple[str, int]:
        """Bind, serve on a daemon thread, return the bound ``(host, port)``."""
        self._server = _TCPServer((host, port), _Handler)
        self._server.cache_server = self  # type: ignore[attr-defined]
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            args=(POLL_INTERVAL,),
            name="cacheserve",
            daemon=True,
        )
        self._thread.start()
        return self._server.server_address[:2]

    def stop(self) -> None:
        """Stop serving; safe to call more than once."""
        server, self._server = self._server, None
        if server is not None:
            server.shutdown()
            server.server_close()
            server.close_all_connections()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self._stopped.set()

    def wait_stopped(self, timeout: float | None = None) -> bool:
        """Block until :meth:`stop` ran (a client shutdown op counts)."""
        return self._stopped.wait(timeout)
