"""Fault injection: a misbehaving peer costs its documented degradation, within
a deadline, and never stalls what does not depend on it.

Each case sets up one fault deterministically, then asserts both the typed
error or degradation the docs promise and a bound on how long it took.
"""

from __future__ import annotations

import asyncio
import json
import socket
import time

import pytest

from repro.cachenet import backend as remote_backend
from repro.cachenet.backend import BREAKER_THRESHOLD, RemoteBackend
from repro.serve import ExperimentService, ServeClient


def _ping_after(port: int, delay: float) -> tuple[dict, float]:
    """Connect, wait ``delay`` seconds, then ping over a plain socket.

    Returns the reply and the seconds it took.  A blocking socket on its own
    thread keeps sending and timing while the server's event loop is stuck.
    """
    with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
        reader = sock.makefile("rb")
        time.sleep(delay)
        started = time.monotonic()
        sock.sendall(b'{"op": "ping"}\n')
        reply = json.loads(reader.readline())
        return reply, time.monotonic() - started


@pytest.mark.parametrize("op", ["stats", "gc"])
def test_a_store_op_against_a_stalled_cache_server_leaves_the_loop_free(monkeypatch, op):
    """The ``stats`` and ``gc`` ops call the cache backend.  Against a cache
    server that takes connections and never answers, the call waits out
    ``REQUEST_TIMEOUT`` off the event loop: a ``ping`` sent meanwhile on
    another connection answers at once, and the op still answers, with the
    backend unreachable."""
    monkeypatch.setattr(remote_backend, "REQUEST_TIMEOUT", 0.2)
    monkeypatch.setattr(remote_backend, "RETRIES", 0)
    monkeypatch.setattr(remote_backend, "BACKOFF", 0.0)

    async def scenario():
        # Listening without accepting: the kernel completes each handshake,
        # so the backend connects, sends its request and hears nothing.
        with socket.create_server(("127.0.0.1", 0), backlog=BREAKER_THRESHOLD + 1) as stalled:
            backend = RemoteBackend(*stalled.getsockname())
            async with ExperimentService(cache_backend=backend, workers=1) as service:
                server = await service.serve_tcp("127.0.0.1", 0)
                port = server.sockets[0].getsockname()[1]
                async with server:
                    client = await ServeClient.connect("127.0.0.1", port)
                    answer = asyncio.create_task(getattr(client, op)())
                    pong, seconds = await asyncio.to_thread(_ping_after, port, 0.05)
                    assert pong == {"event": "pong"}
                    assert seconds < 0.1
                    reply = await asyncio.wait_for(answer, 5)
                    await client.close()
            backend.close()
        return reply

    reply = asyncio.run(scenario())
    if op == "stats":
        assert reply["event"] == "stats"
        assert reply["cache"]["remote_reachable"] is False
    else:
        assert reply["event"] == "gc"
        assert reply["removed_entries"] == 0
