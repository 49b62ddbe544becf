"""Conformance suite for every :class:`CacheBackend` implementation.

One parametrized battery runs against all backends, pinning the interface
contract ``ResultCache`` (and therefore every layer above it) relies on:
store/load/probe semantics, usage accounting, clear, corruption handling and
persistence across instances.  The ``shared`` flavour is the filesystem
backend over a directory it shares with a sibling's in-flight temp write and
the ``traces/`` subdirectory and ``manifest.json`` older releases left: none
of them may count as an entry.  The network cache tier
(``docs/cachenet.md``) runs the same battery against an in-process,
token-protected :class:`CacheServer` — both a :class:`RemoteBackend` built
directly and the ``resolved`` flavour, which is what a deployment mounts:
``resolve_backend("remote://…")`` with ``REPRO_CACHE_TOKEN`` set, so spec
parsing and the auth handshake on every (re)connect are covered too.
Backend-specific behaviour (GC, sibling coherence, degradation) gets
targeted classes below the shared battery.
"""

import gzip
import io
import json
import os
import socket
import struct
import tempfile
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cachenet import backend as remote_backend
from repro.cachenet.protocol import FrameError, read_frame
from repro.runtime import lifecycle
from repro.runtime.backends import CorruptEntry, FilesystemBackend, InMemoryBackend
from repro.runtime.cache import ResultCache
from repro.runtime.session import RuntimeSession

BACKENDS = ("memory", "filesystem", "shared", "remote", "resolved")

#: The token the test cache servers require.
CACHE_TOKEN = "cachenet-test-token"


@pytest.fixture
def fail_fast(monkeypatch):
    """No retries or backoff: degradation tests fail fast."""
    monkeypatch.setattr(remote_backend, "RETRIES", 0)
    monkeypatch.setattr(remote_backend, "BACKOFF", 0.0)


@pytest.fixture
def make_backend(tmp_path, monkeypatch, fail_fast):
    """Factory building a fresh backend of the requested flavour.

    Repeated calls with the same flavour return backends over the *same*
    storage (a second filesystem backend sees the first one's entries), which
    is what the persistence and sharing tests need.  The remote flavours
    share one lazily started, token-protected in-process cache server per
    test, reachable as ``make_backend.cachenet_server``.
    """
    state = {"server": None, "endpoint": None, "clients": []}

    def build(flavour: str):
        if flavour == "memory":
            return InMemoryBackend()
        if flavour == "filesystem":
            return FilesystemBackend(tmp_path / "cache")
        if flavour == "shared":
            directory = tmp_path / "shared"
            if not directory.exists():
                (directory / "traces").mkdir(parents=True)
                (directory / ".k9-0123abcd.tmp").write_bytes(b"in flight")
                (directory / "manifest.json").write_text('{"schema": 1, "entries": {}}')
            return FilesystemBackend(directory)
        if flavour in ("remote", "resolved"):
            from repro.cachenet.server import CacheServer

            if state["server"] is None:
                state["server"] = CacheServer(
                    directory=tmp_path / "remote-cache", auth_token=CACHE_TOKEN
                )
                state["endpoint"] = state["server"].start()
                build.cachenet_server = state["server"]
            host, port = state["endpoint"]
            if flavour == "remote":
                remote = remote_backend.RemoteBackend(host, port, auth_token=CACHE_TOKEN)
            else:
                monkeypatch.setenv("REPRO_CACHE_TOKEN", CACHE_TOKEN)
                remote = remote_backend.resolve_backend(f"remote://{host}:{port}")
            state["clients"].append(remote)
            return remote
        raise AssertionError(flavour)

    yield build
    for client in state["clients"]:
        client.close()
    if state["server"] is not None:
        state["server"].stop()


@pytest.mark.parametrize("flavour", BACKENDS)
class TestBackendConformance:
    def test_store_load_round_trip(self, make_backend, flavour):
        backend = make_backend(flavour)
        payload = {"cycles": [1.5, 2.0], "name": "alexnet"}
        backend.store("k1", payload, "network_result")
        assert backend.load("k1", "network_result") == payload
        assert backend.load("absent", "network_result") is None

    def test_kind_namespaces_do_not_alias(self, make_backend, flavour):
        backend = make_backend(flavour)
        backend.store("k1", {"a": 1}, "network_result")
        # A lookup under the wrong kind must never return the payload —
        # returning None or raising CorruptEntry are both conforming.
        try:
            assert backend.load("k1", "statistics") is None
        except CorruptEntry:
            pass

    def test_probe_does_not_lie(self, make_backend, flavour):
        backend = make_backend(flavour)
        assert not backend.probe("k1", "network_result")
        backend.store("k1", {"a": 1}, "network_result")
        assert backend.probe("k1", "network_result")

    def test_store_overwrites(self, make_backend, flavour):
        backend = make_backend(flavour)
        backend.store("k1", {"v": 1}, "network_result")
        backend.store("k1", {"v": 2}, "network_result")
        assert backend.load("k1", "network_result") == {"v": 2}
        assert len(backend) == 1

    def test_len_and_usage(self, make_backend, flavour):
        backend = make_backend(flavour)
        assert len(backend) == 0
        backend.store("k1", {"a": 1}, "network_result")
        backend.store("k2", {"b": 2}, "statistics")
        assert len(backend) == 2
        usage = backend.usage()
        assert usage["entries"] == 2
        assert "disk_bytes" in usage
        if backend.persistent:
            assert usage["disk_bytes"] > 0

    def test_clear(self, make_backend, flavour):
        backend = make_backend(flavour)
        backend.store("k1", {"a": 1}, "network_result")
        backend.store("k2", {"b": 2}, "network_result")
        assert backend.clear() == 2
        assert len(backend) == 0
        assert backend.load("k1", "network_result") is None

    def test_describe_is_informative(self, make_backend, flavour):
        backend = make_backend(flavour)
        assert isinstance(backend.describe(), str) and backend.describe()

    def test_persistence_across_instances(self, make_backend, flavour):
        backend = make_backend(flavour)
        backend.store("k1", {"a": 1}, "network_result")
        again = make_backend(flavour)
        if backend.persistent:
            assert again.load("k1", "network_result") == {"a": 1}
        else:
            assert again.load("k1", "network_result") is None

    def test_result_cache_over_backend(self, make_backend, flavour):
        """ResultCache policy (the memo), and a session counting over it, work
        over every backend."""
        session = RuntimeSession(cache=ResultCache(backend=make_backend(flavour)))
        assert session.lookup("k1") is None
        session.store("k1", {"a": 1})
        assert session.lookup("k1") == {"a": 1}
        counters = session.stats().cache
        assert counters.misses == 1
        assert counters.hits == 1
        assert counters.stores == 1
        assert session.contains("k1")
        assert len(session.cache) == 1

    def test_result_cache_memo_eviction_falls_back_to_backend(
        self, make_backend, flavour
    ):
        cache = ResultCache(backend=make_backend(flavour), memo_entries=2)
        for index in range(4):
            cache.put(f"k{index}", {"v": index})
        assert len(cache._memory) == 2  # memo bounded...
        assert cache.get("k0") == {"v": 0}  # ...but the backend still serves


class TestPersistentBackendCorruption:
    @pytest.mark.parametrize("flavour", ["filesystem", "shared"])
    def test_corrupt_entry_raises_and_drops(self, make_backend, flavour):
        backend = make_backend(flavour)
        backend.store("k1", {"a": 1}, "network_result")
        path = lifecycle.entry_path(backend.directory, "k1")
        path.write_bytes(b"not gzip, not json")
        with pytest.raises(CorruptEntry):
            backend.load("k1", "network_result")
        assert not path.exists()  # dropped, not left to fail forever
        assert backend.load("k1", "network_result") is None

    @pytest.mark.parametrize("flavour", ["filesystem", "shared"])
    def test_wrong_schema_is_corruption(self, make_backend, flavour):
        backend = make_backend(flavour)
        entry = {"schema": 999, "kind": "network_result", "key": "k1", "payload": {}}
        path = lifecycle.entry_path(backend.directory, "k1")
        path.write_bytes(gzip.compress(json.dumps(entry).encode()))
        with pytest.raises(CorruptEntry):
            backend.probe("k1", "network_result")

    @pytest.mark.parametrize("flavour", ["filesystem", "shared"])
    def test_result_cache_counts_corruption_as_miss(self, make_backend, flavour):
        session = RuntimeSession(cache=ResultCache(backend=make_backend(flavour)))
        session.store("k1", {"a": 1})
        session.cache._memory.clear()  # force the next get through the backend
        lifecycle.entry_path(session.cache.directory, "k1").write_bytes(b"garbage")
        assert session.lookup("k1") is None
        assert session.stats().cache.errors == 1

    def test_an_entry_nested_too_deep_to_parse_is_a_counted_miss(self, tmp_path):
        session = RuntimeSession(cache=ResultCache(directory=tmp_path))
        path = lifecycle.entry_path(tmp_path, "k1")
        path.write_bytes(gzip.compress(b"[" * 5000))
        assert session.lookup("k1") is None
        counters = session.stats().cache
        assert (counters.misses, counters.errors) == (1, 1)
        assert not path.exists()


class TestPersistentBackendGC:
    @pytest.mark.parametrize("flavour", ["filesystem", "shared"])
    def test_gc_enforces_byte_cap(self, make_backend, flavour):
        backend = make_backend(flavour)
        for index in range(3):
            backend.store(f"k{index}", {"blob": "x" * 200, "i": index}, "network_result")
        result = backend.gc(max_bytes=1)
        assert result.removed_entries == 3
        assert len(backend) == 0

    def test_memory_backend_gc_is_a_noop(self):
        backend = InMemoryBackend()
        backend.store("k1", {"a": 1}, "network_result")
        result = backend.gc(max_bytes=0)
        assert result.removed_entries == 0
        assert backend.load("k1", "network_result") == {"a": 1}


class TestSharedDirectoryBackend:
    """One filesystem backend per process, all over one shared directory."""

    def test_sibling_stores_are_visible(self, tmp_path):
        """Two backends on one directory see each other's entries and sizes."""
        a = FilesystemBackend(tmp_path)
        b = FilesystemBackend(tmp_path)
        a.store("k1", {"a": 1}, "network_result")
        # Entry reads always go to the filesystem: immediately coherent.
        assert b.load("k1", "network_result") == {"a": 1}
        assert b.probe("k1", "network_result")
        # Usage scans the shared directory.
        assert b.usage()["entries"] == 1
        assert len(b) == 1

    def test_sibling_gc_respected(self, tmp_path):
        a = FilesystemBackend(tmp_path)
        b = FilesystemBackend(tmp_path)
        a.store("k1", {"a": 1}, "network_result")
        assert b.usage()["entries"] == 1
        a.gc(max_bytes=0)
        assert b.load("k1", "network_result") is None
        assert b.usage()["entries"] == 0

    def test_gc_collects_entries_a_sibling_stored_after_load(self, tmp_path):
        a = FilesystemBackend(tmp_path)
        b = FilesystemBackend(tmp_path)
        a.store("k1", {"a": 1}, "network_result")
        b.store("k2", {"b": 2}, "network_result")
        result = a.gc(max_bytes=0)
        assert result.remaining_entries == 0
        assert not lifecycle.entry_path(tmp_path, "k2").exists()
        assert sorted(result.removed_keys) == ["k1", "k2"]

    def test_sibling_store_shows_in_usage_at_once(self, tmp_path):
        a = FilesystemBackend(tmp_path)
        b = FilesystemBackend(tmp_path)
        assert b.usage()["entries"] == 0
        a.store("k1", {"a": 1}, "network_result")
        # No second copy of the directory goes stale: the very next query
        # counts the sibling's entry.
        assert b.usage()["entries"] == 1
        assert len(b) == 1


class TestNetworkCacheTier:
    """Cachenet-specific semantics the shared battery cannot express."""

    @pytest.mark.parametrize("flavour", ["remote", "resolved"])
    def test_corrupt_server_entry_recovers_as_miss(self, make_backend, flavour):
        """Server-side damage surfaces as CorruptEntry once, then a miss."""
        backend = make_backend(flavour)
        backend.store("k1", {"a": 1}, "network_result")
        server = make_backend.cachenet_server
        lifecycle.entry_path(server.backend.directory, "k1").write_bytes(b"garbage")
        reader = make_backend(flavour)
        with pytest.raises(CorruptEntry):
            reader.load("k1", "network_result")
        # The server dropped the damaged entry: subsequent loads miss cleanly.
        assert reader.load("k1", "network_result") is None

    @pytest.mark.parametrize("flavour", ["remote", "resolved"])
    def test_result_cache_recomputes_after_remote_corruption(
        self, make_backend, flavour
    ):
        cache = ResultCache(backend=make_backend(flavour))
        cache.put("k1", {"a": 1})
        cache._memory.clear()  # force the next get through the backend
        server = make_backend.cachenet_server
        lifecycle.entry_path(server.backend.directory, "k1").write_bytes(b"garbage")
        fresh = RuntimeSession(cache=ResultCache(backend=make_backend(flavour)))
        assert fresh.lookup("k1") is None
        assert fresh.stats().cache.errors == 1
        fresh.store("k1", {"a": 2})  # recompute-and-store works afterwards
        assert ResultCache(backend=make_backend(flavour)).get("k1") == {"a": 2}

    @pytest.mark.parametrize("flavour", ["remote", "resolved"])
    def test_ttl_expiry_through_remote_gc(self, make_backend, flavour):
        backend = make_backend(flavour)
        backend.store("k1", {"a": 1}, "network_result")
        time.sleep(0.02)
        result = backend.gc(max_age=0.01)
        assert result.removed_entries == 1
        assert "k1" in result.removed_keys
        reader = make_backend(flavour)
        assert reader.load("k1", "network_result") is None

    def test_batch_cache_gc_collects_a_served_directory(self, make_backend, capsys):
        """The server runs no GC of its own: ``--cache-gc`` bounds its directory.

        The directory is its own index, so the batch verb collects it while
        it is being served, as a cron job in another process would.
        """
        from repro.experiments.runner import main as runner_main

        backend = make_backend("remote")
        backend.store("k1", {"a": 1}, "network_result")
        assert backend.usage()["entries"] == 1
        directory = make_backend.cachenet_server.directory
        argv = ["--cache-gc", "--max-bytes", "1", "--cache-dir", str(directory)]
        assert runner_main(argv) == 0
        assert "evicted 1" in capsys.readouterr().out
        usage = backend.usage()
        assert usage["remote_reachable"] is True
        assert usage["entries"] == 0
        assert backend.load("k1", "network_result") is None

    @pytest.mark.parametrize("flavour", ["remote", "resolved"])
    def test_dead_server_degrades_to_miss(self, make_backend, flavour):
        cache = ResultCache(backend=make_backend(flavour))
        cache.put("k1", {"a": 1})
        make_backend.cachenet_server.stop()
        # The cache's memo holds the warm copy: it outlives the server.
        assert cache.get("k1") == {"a": 1}
        # A fresh client (no warm memo) degrades to a miss, not a raise.
        reader = make_backend(flavour)
        assert reader.load("k1", "network_result") is None
        assert reader.probe("k1", "network_result") is False
        reader.store("k2", {"b": 2}, "network_result")  # swallowed, not raised
        reader.touch("k1")
        usage = reader.usage()
        assert usage["remote_reachable"] is False
        assert usage["remote_degraded"] > 0

    def test_a_stalled_server_degrades_each_load_then_opens_the_breaker(
        self, monkeypatch, fail_fast
    ):
        """A cache server that takes connections and never answers: each of
        the first ``BREAKER_THRESHOLD`` loads waits out ``REQUEST_TIMEOUT``
        and degrades to a miss, then the open breaker answers at once."""
        from repro.cachenet.backend import BREAKER_THRESHOLD, RemoteBackend

        monkeypatch.setattr(remote_backend, "REQUEST_TIMEOUT", 0.2)
        # Listening without accepting: the kernel completes each handshake,
        # so the client connects, sends its request and hears nothing.
        with socket.create_server(("127.0.0.1", 0), backlog=BREAKER_THRESHOLD + 1) as stalled:
            backend = RemoteBackend(*stalled.getsockname())
            for degraded in range(1, BREAKER_THRESHOLD + 1):
                started = time.monotonic()
                assert backend.load("k1", "network_result") is None
                assert time.monotonic() - started < 1.0
                assert backend.remote_degraded == degraded
            started = time.monotonic()
            assert backend.load("k1", "network_result") is None
            assert backend.usage()["remote_reachable"] is False
            assert time.monotonic() - started < 0.1
            backend.close()

    def test_wrong_auth_token_degrades(self, tmp_path, fail_fast):
        from repro.cachenet.backend import RemoteBackend
        from repro.cachenet.server import CacheServer

        server = CacheServer(directory=tmp_path / "secured", auth_token="secret")
        host, port = server.start()
        try:
            good = RemoteBackend(host, port, auth_token="secret")
            good.store("k1", {"a": 1}, "network_result")
            assert good.load("k1", "network_result") == {"a": 1}
            bad = RemoteBackend(host, port, auth_token="wrong")
            assert bad.load("k1", "network_result") is None  # degraded miss
            assert bad.usage()["remote_degraded"] > 0
            good.close()
            bad.close()
        finally:
            server.stop()

    def test_sibling_store_is_seen_at_once(self, make_backend):
        """A key probed as missing is found as soon as another client stores it."""
        cache = ResultCache(backend=make_backend("resolved"))
        assert not cache.contains("k1")
        assert cache.get("k1") is None
        make_backend("remote").store("k1", {"a": 1}, "network_result")
        assert cache.contains("k1")
        assert cache.get("k1") == {"a": 1}

    def test_resolve_backend_specs(self, make_backend, tmp_path):
        from repro.cachenet.backend import RemoteBackend, resolve_backend

        make_backend("remote")  # boot the shared server
        host, port = make_backend.cachenet_server._server.server_address
        remote = resolve_backend(f"remote://{host}:{port}")
        assert isinstance(remote, RemoteBackend)
        assert remote.describe() == f"remote:{host}:{port}"
        memory = InMemoryBackend()
        assert resolve_backend(memory) is memory  # an instance passes through
        # The memory and directory stores have their own flags.
        for spec, flag in (("memory://", "--no-cache"), (str(tmp_path / "plain"), "--cache-dir")):
            with pytest.raises(ValueError, match=flag):
                resolve_backend(spec)
        assert not (tmp_path / "plain").exists()
        with pytest.raises(ValueError):
            resolve_backend("redis://nope:1")
        remote.close()


class TestCacheServerKeys:
    """Client keys cannot name a file outside the server's directory."""

    @pytest.mark.parametrize("op", ["get", "probe", "put", "touch"])
    def test_traversal_keys_touch_nothing_outside(self, tmp_path, op):
        from repro.cachenet.server import CacheServer

        server = CacheServer(directory=tmp_path / "cache")
        outside = tmp_path / "outside"
        outside.mkdir()
        victims = {
            "../outside/settings": outside / "settings.json",
            str(outside / "tensor"): outside / "tensor.npy",
        }
        for path in victims.values():
            path.write_text("not a cache entry")
            os.utime(path, (1000.0, 1000.0))

        def state():
            return {
                path.name: (path.read_bytes(), path.stat().st_mtime_ns)
                for path in sorted(outside.iterdir())
            }

        before = state()
        replies = [
            server.handle_message(
                {"op": op, "key": key, "kind": "network_result", "payload": {"a": 1}},
                True,
            )
            for key in [*victims, None, 7]
        ]
        assert state() == before
        assert list((tmp_path / "cache").iterdir()) == []
        for response, authenticated, keep_open in replies:
            assert response == {"ok": False, "error": "invalid key"}
            assert authenticated and keep_open

    def test_path_builders_refuse_non_token_keys(self, tmp_path):
        for key in ("../x", "/abs/x", "a.b", "", "x" * 129, None):
            with pytest.raises(ValueError):
                lifecycle.entry_path(tmp_path, key)
        assert lifecycle.entry_path(tmp_path, "f" * 64) == tmp_path / f"{'f' * 64}.json.gz"


#: Any JSON value, including the non-finite floats Python's decoder accepts.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=6,
)

#: Every op the server knows, plus values that are not one.
OPS = st.sampled_from(
    ["auth", "ping", "get", "probe", "put", "touch", "usage", "gc", "clear",
     "stats", "shutdown", "nope"]
) | JSON_VALUES


class TestCacheServerMessages:
    """``handle_message`` answers every JSON object with a reply and never raises."""

    @pytest.mark.parametrize(
        "bounds, name",
        [
            ({"max_bytes": "abc"}, "max_bytes"),
            ({"max_bytes": -1}, "max_bytes"),
            ({"max_age": -5}, "max_age"),
            ({"max_age": True}, "max_age"),
            ({"max_age": float("nan")}, "max_age"),
        ],
        ids=["string", "negative-bytes", "negative-age", "bool", "nan"],
    )
    def test_gc_rejects_bad_bounds_and_evicts_nothing(self, tmp_path, bounds, name):
        from repro.cachenet.server import CacheServer

        server = CacheServer(directory=tmp_path / "cache")
        server.backend.store("k1", {"a": 1}, "network_result")
        response, authenticated, keep_open = server.handle_message(
            {"op": "gc", **bounds}, True
        )
        assert response == {"ok": False, "error": f"{name} must be a non-negative number"}
        assert authenticated and keep_open
        assert server.backend.load("k1", "network_result") == {"a": 1}

    @settings(max_examples=150, deadline=None)
    @given(
        message=st.fixed_dictionaries(
            {},
            optional={
                "op": OPS,
                "key": st.sampled_from(["k1", "k2", "../k1"]) | JSON_VALUES,
                "kind": JSON_VALUES,
                "payload": JSON_VALUES,
                "token": st.sampled_from([CACHE_TOKEN]) | JSON_VALUES,
                "max_bytes": JSON_VALUES,
                "max_age": JSON_VALUES,
            },
        ),
        authenticated=st.booleans(),
    )
    @example(message={"op": "auth", "token": "é"}, authenticated=False)
    @example(message={"op": "auth", "token": "\ud800"}, authenticated=False)
    @example(message={"op": ["gc"]}, authenticated=False)
    @example(message={"op": "gc", "max_bytes": "abc"}, authenticated=True)
    def test_every_json_object_gets_a_reply(self, message, authenticated):
        from repro.cachenet.server import CacheServer

        with tempfile.TemporaryDirectory() as directory:
            server = CacheServer(directory=directory, auth_token=CACHE_TOKEN)
            server.backend.store("k1", {"a": 1}, "network_result")
            response, still_authenticated, keep_open = server.handle_message(
                message, authenticated
            )
        assert isinstance(response, dict) and isinstance(response.get("ok"), bool)
        assert isinstance(still_authenticated, bool) and isinstance(keep_open, bool)
        json.dumps(response)  # every reply can go back as a frame


def _frame(body: bytes) -> bytes:
    """``body`` behind a frame header that states its length."""
    return struct.pack(">I", len(body)) + body


#: Byte streams: arbitrary bytes, arbitrary framed bodies, framed JSON.
FRAME_STREAMS = (
    st.binary(max_size=64)
    | st.binary(max_size=64).map(_frame)
    | JSON_VALUES.map(lambda value: _frame(json.dumps(value).encode("utf-8")))
)


class TestFrameDecoding:
    """A frame the JSON parser refuses drops its connection, nothing more."""

    @settings(max_examples=200, deadline=None)
    @given(stream=FRAME_STREAMS)
    @example(stream=_frame(b"[" * 5000))
    @example(stream=_frame(b"\xff\xfe"))
    @example(stream=_frame(b"1" * 5000))
    def test_any_bytes_read_as_a_message_none_or_a_frame_error(self, stream):
        try:
            message = read_frame(io.BytesIO(stream))
        except FrameError:
            return
        assert message is None or isinstance(message, dict)

    def test_the_server_drops_a_nested_frame_quietly_and_serves_on(self, tmp_path, capsys):
        from repro.cachenet.server import CacheServer

        server = CacheServer(directory=tmp_path / "cache")
        host, port = server.start()
        try:
            with socket.create_connection((host, port), timeout=10) as peer:
                peer.sendall(_frame(b"[" * 5000))
                assert peer.recv(1) == b""  # dropped without a reply
            client = remote_backend.RemoteBackend(host, port)
            try:
                client.store("k1", {"a": 1}, "network_result")
                assert client.load("k1", "network_result") == {"a": 1}
            finally:
                client.close()
        finally:
            server.stop()
        assert "Traceback" not in capsys.readouterr().err
