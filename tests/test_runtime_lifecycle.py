"""Tests for the cache-lifecycle layer: directory index, compression, GC, CLI verbs.

The lifecycle contract: the cache directory is its own index.  A store is one
entry-file write, entry counts and disk usage are one directory scan, an
entry's LRU clock is its file's mtime, garbage collection evicts
least-recently-used entries first under a byte cap, entries are
gzip-compressed while files an older release left (uncompressed entries, a
``manifest.json``) are counted and reclaimed but never read, and the
in-process memo of a disk cache is bounded without ever losing disk hits.
"""

import gzip
import json
import os
import time

import pytest

from repro.experiments.runner import main as runner_main
from repro.runtime import cache as cache_module
from repro.runtime.backends import FilesystemBackend
from repro.runtime.cache import ResultCache
from repro.runtime.session import RuntimeSession

PAYLOAD = {"network": "alexnet", "accelerator": "x", "layers": []}


def legacy_entry(key: str, payload: dict, kind: str = "network_result") -> str:
    """An entry in the pre-compression on-disk format (no longer read)."""
    return json.dumps({"schema": 1, "kind": kind, "key": key, "payload": payload})


def set_last_use(directory, key: str, when: float) -> None:
    """Set ``key``'s LRU clock, which is its entry file's mtime."""
    os.utime(directory / f"{key}.json.gz", (when, when))


def file_states(directory) -> dict:
    """Every file's ``(st_ino, st_size, st_mtime_ns, bytes)`` by name."""
    states = {}
    for path in directory.iterdir():
        info = path.stat()
        states[path.name] = (info.st_ino, info.st_size, info.st_mtime_ns, path.read_bytes())
    return states


# ------------------------------------------------------------- directory index
class TestManifest:
    """The directory is the manifest: counts, sizes and LRU order come from
    the entry files themselves, so no second copy can disagree with them."""

    def test_a_removed_entry_file_is_no_longer_counted(self, tmp_path):
        cache = ResultCache(directory=tmp_path)
        cache.put("aaa", PAYLOAD)
        cache.put("bbb", PAYLOAD)
        (tmp_path / "aaa.json.gz").unlink()
        assert len(cache) == 1
        usage = cache.usage()
        assert usage["entries"] == 1
        assert usage["disk_bytes"] == (tmp_path / "bbb.json.gz").stat().st_size

    def test_legacy_entries_are_counted(self, tmp_path):
        (tmp_path / "old.json").write_text(legacy_entry("old", PAYLOAD))
        cache = ResultCache(directory=tmp_path)
        assert len(cache) == 1
        assert cache.usage()["disk_bytes"] == (tmp_path / "old.json").stat().st_size

    def test_external_clear_is_not_resurrected_by_a_live_process(self, tmp_path):
        live = ResultCache(directory=tmp_path)
        live.put("aaa", PAYLOAD)
        # Another process clears the cache.
        ResultCache(directory=tmp_path).clear()
        # The live process's next store must not bring the cleared entry back.
        live.put("bbb", PAYLOAD)
        assert [path.name for path in tmp_path.iterdir()] == ["bbb.json.gz"]
        assert ResultCache(directory=tmp_path).usage()["entries"] == 1

    def test_memo_hits_advance_the_lru_clock(self, tmp_path, monkeypatch):
        # Regression: a hot entry answered from the in-process memo must not
        # look least-recently-used to GC.
        monkeypatch.setattr(cache_module, "USE_GRANULARITY", 0.0)
        cache = ResultCache(directory=tmp_path)
        cache.put("aaa", PAYLOAD)
        cache.put("bbb", PAYLOAD)
        set_last_use(tmp_path, "aaa", 1000.0)
        set_last_use(tmp_path, "bbb", 2000.0)
        assert cache.get("aaa") == PAYLOAD  # memo hit (real-time timestamp)
        mtime = {key: (tmp_path / f"{key}.json.gz").stat().st_mtime for key in ("aaa", "bbb")}
        assert mtime["aaa"] > mtime["bbb"]

    def test_memo_hits_touch_the_backend_once_per_window(self, tmp_path, monkeypatch):
        cache = ResultCache(directory=tmp_path)
        cache.put("aaa", PAYLOAD)
        touched = []
        monkeypatch.setattr(cache.backend, "touch", touched.append)
        for _ in range(100):
            assert cache.get("aaa") == PAYLOAD
        assert touched == []  # the store itself set the clock this window
        monkeypatch.setattr(cache_module, "USE_GRANULARITY", 0.0)
        assert cache.get("aaa") == PAYLOAD
        assert touched == ["aaa"]

    def test_concurrent_writers_merge_instead_of_clobbering(self, tmp_path):
        # Two processes sharing one directory are modeled by two instances
        # that both counted the directory before either stored anything.
        first = ResultCache(directory=tmp_path)
        second = ResultCache(directory=tmp_path)
        assert len(first) == 0 and len(second) == 0
        first.put("aaa", PAYLOAD)
        second.put("bbb", PAYLOAD)
        assert len(first) == len(second) == 2

    def test_a_store_writes_one_file_and_scans_nothing(self, tmp_path, monkeypatch):
        backend = FilesystemBackend(tmp_path)
        for index in range(200):
            backend.store(f"k{index:03d}", {"i": index}, "network_result")
        before = file_states(tmp_path)
        listings = []
        for name in ("scandir", "listdir"):
            real = getattr(os, name)

            def spy(*args, _real=real, _name=name, **kwargs):
                listings.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(os, name, spy)
        backend.store("fresh", PAYLOAD, "network_result")
        monkeypatch.undo()
        assert listings == []
        after = file_states(tmp_path)
        assert set(after) - set(before) == {"fresh.json.gz"}
        assert {name: after[name] for name in before} == before


# -------------------------------------------------------------- parent layout
class TestParentLayout:
    """A directory in the manifest-indexed layout of older releases."""

    def build(self, directory):
        for key in ("aaa", "bbb"):
            entry = {"schema": 1, "kind": "network_result", "key": key, "payload": PAYLOAD}
            data = gzip.compress(json.dumps(entry).encode("utf-8"), mtime=0)
            (directory / f"{key}.json.gz").write_bytes(data)
        (directory / "old.json").write_text(legacy_entry("old", PAYLOAD))
        index = {
            key: {"kind": None, "size": 1, "created": 1000.0, "last_used": 1000.0}
            for key in ("aaa", "bbb", "old")
        }
        (directory / "manifest.json").write_text(json.dumps({"schema": 1, "entries": index}))

    @pytest.mark.parametrize("with_index", [True, False])
    def test_cache_stats_counts_entries_and_writes_nothing(
        self, monkeypatch, tmp_path, capsys, with_index
    ):
        self.build(tmp_path)
        if not with_index:
            (tmp_path / "manifest.json").unlink()
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        before = file_states(tmp_path)
        assert runner_main(["--cache-stats"]) == 0
        assert "entries: 3\n" in capsys.readouterr().out
        assert file_states(tmp_path) == before

    def test_entries_hit_and_cache_clear_empties_the_directory(
        self, monkeypatch, tmp_path, capsys
    ):
        self.build(tmp_path)
        cache = ResultCache(directory=tmp_path)
        assert all(cache.get(key) == PAYLOAD for key in ("aaa", "bbb"))
        assert cache.get("old") is None  # uncompressed: counted, never read
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert runner_main(["--cache-clear"]) == 0
        assert "cleared 3 entries" in capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []

    def test_gc_and_clear_reclaim_what_the_trace_fabric_left(
        self, monkeypatch, tmp_path, capsys
    ):
        self.build(tmp_path)
        (tmp_path / f"{'1f' * 32}.npy").write_bytes(b"\x93NUMPY")  # an old trace tensor
        traces = tmp_path / "traces"  # where later releases kept calibrations
        traces.mkdir()
        (traces / f"{'0f' * 32}.json.gz").write_bytes(gzip.compress(b"{}"))
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert runner_main(["--cache-stats"]) == 0
        assert "entries: 4\n" in capsys.readouterr().out  # the .npy counts, traces/ not
        assert runner_main(["--cache-gc", "--max-bytes", "0"]) == 0
        assert "evicted 4 entries" in capsys.readouterr().out
        assert runner_main(["--cache-clear"]) == 0
        assert "cleared 0 entries" in capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []


# ----------------------------------------------------------------- compression
class TestCompression:
    def test_new_entries_are_compressed_and_round_trip(self, tmp_path):
        cache = ResultCache(directory=tmp_path)
        cache.put("aaa", PAYLOAD)
        data = (tmp_path / "aaa.json.gz").read_bytes()
        assert data[:2] == b"\x1f\x8b"  # gzip magic
        assert json.loads(gzip.decompress(data))["payload"] == PAYLOAD
        fresh = ResultCache(directory=tmp_path)
        assert fresh.get("aaa") == PAYLOAD


# -------------------------------------------------------------------------- gc
class TestGarbageCollection:
    def fill(self, tmp_path, keys):
        cache = ResultCache(directory=tmp_path)
        for index, key in enumerate(keys):
            cache.put(key, {**PAYLOAD, "index": index})
            # Deterministic, strictly increasing LRU timestamps.
            set_last_use(tmp_path, key, 1000.0 + index)
        return cache

    def test_gc_respects_the_byte_cap_evicting_lru_first(self, tmp_path):
        cache = self.fill(tmp_path, ["aaa", "bbb", "ccc"])
        sizes = {path.name[:3]: path.stat().st_size for path in tmp_path.iterdir()}
        # Cap leaves room for exactly the two most recently used entries.
        result = cache.gc(max_bytes=sizes["bbb"] + sizes["ccc"])
        assert result.removed_keys == ["aaa"]
        assert result.remaining_entries == 2
        assert cache.get("aaa") is None  # memo cannot resurrect an evicted key
        assert cache.get("bbb") is not None
        assert cache.get("ccc") is not None

    def test_gc_max_age_evicts_stale_entries(self, tmp_path):
        cache = self.fill(tmp_path, ["aaa", "bbb"])
        set_last_use(tmp_path, "bbb", time.time())
        result = cache.gc(max_age=3600.0)
        # aaa was last used at 1000 (decades ago), bbb just now.
        assert result.removed_keys == ["aaa"]
        assert len(cache) == 1

    def test_gc_without_bounds_is_a_no_op(self, tmp_path):
        cache = self.fill(tmp_path, ["aaa"])
        result = cache.gc()
        assert result.removed_entries == 0
        assert result.remaining_entries == 1

    def test_gc_on_a_memory_cache_is_empty(self):
        cache = ResultCache()
        cache.put("aaa", PAYLOAD)
        assert cache.gc(max_bytes=0).removed_entries == 0
        assert cache.get("aaa") == PAYLOAD

    def test_clear_removes_entries_and_manifest(self, tmp_path):
        cache = self.fill(tmp_path, ["aaa", "bbb"])
        (tmp_path / "manifest.json").write_text("{}")  # an older release's index
        assert cache.clear() == 2
        assert len(cache) == 0
        assert list(tmp_path.iterdir()) == []
        assert cache.get("aaa") is None
        # A cleared cache keeps working.
        cache.put("ccc", PAYLOAD)
        assert ResultCache(directory=tmp_path).get("ccc") == PAYLOAD

    def test_clear_removes_unindexed_orphan_files(self, tmp_path):
        cache = ResultCache(directory=tmp_path)
        cache.put("aaa", PAYLOAD)
        # An entry file no instance of this process wrote still goes.
        (tmp_path / "orphan.json.gz").write_bytes(gzip.compress(b"{}"))
        assert cache.clear() == 2
        assert list(tmp_path.iterdir()) == []

    def test_survivors_still_hit_after_gc_across_instances(self, tmp_path):
        cache = self.fill(tmp_path, ["aaa", "bbb", "ccc"])
        cache.gc(max_bytes=cache.usage()["disk_bytes"] - 1)  # evicts aaa only
        fresh = RuntimeSession(cache=ResultCache(directory=tmp_path))
        assert fresh.lookup("bbb") is not None
        assert fresh.lookup("ccc") is not None
        assert fresh.stats().cache.misses == 0


# ----------------------------------------------------------------- bounded memo
class TestBoundedMemo:
    def test_memo_evicts_without_losing_disk_hits(self, tmp_path):
        session = RuntimeSession(cache=ResultCache(directory=tmp_path, memo_entries=2))
        for key in ("aaa", "bbb", "ccc", "ddd"):
            session.store(key, {**PAYLOAD, "key": key})
        assert len(session.cache._memory) == 2  # bounded despite 4 stores
        for key in ("aaa", "bbb", "ccc", "ddd"):
            assert session.lookup(key) == {**PAYLOAD, "key": key}  # disk backs the memo
        assert session.stats().cache.misses == 0
        assert len(session.cache._memory) == 2

    def test_memory_mode_memo_is_never_evicted(self):
        session = RuntimeSession(cache=ResultCache(memo_entries=2))
        for key in ("aaa", "bbb", "ccc", "ddd"):
            session.store(key, {**PAYLOAD, "key": key})
        for key in ("aaa", "bbb", "ccc", "ddd"):
            assert session.lookup(key) == {**PAYLOAD, "key": key}
        assert session.stats().cache.misses == 0


# ------------------------------------------------------------------ observation
class TestObservation:
    def test_run_report_carries_manifest_backed_usage(self, tmp_path):
        from repro.experiments.base import get_preset
        from repro.runtime import run_experiments

        preset = get_preset("smoke")
        report = run_experiments(["table3"], preset=preset, cache_dir=tmp_path)
        assert report.cache["entries"] == len(ResultCache(directory=tmp_path))
        assert f"cache dir: {tmp_path}" in report.summary()
        assert "entries," in report.summary()

    def test_run_report_names_a_network_cache_tier(self, tmp_path):
        from repro.cachenet.backend import resolve_backend
        from repro.cachenet.server import CacheServer
        from repro.runtime import run_experiments

        server = CacheServer(directory=tmp_path / "tier")
        host, port = server.start()
        tier = resolve_backend(f"remote://{host}:{port}")  # as --cache-backend does
        try:
            for index in range(4):
                tier.store(f"k{index}", {"i": index}, "network_result")
            report = run_experiments([], cache_backend=tier)
        finally:
            tier.close()
            server.stop()
        assert f"cache backend: remote:{host}:{port}" in report.summary()
        assert "(4 entries, " in report.summary()


# ------------------------------------------------------------------- CLI verbs
class TestCacheCLI:
    def populate(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        cache = ResultCache(directory=tmp_path)
        cache.put("aaa", PAYLOAD)
        cache.put("bbb", PAYLOAD)
        return cache

    def test_cache_stats_reports_manifest_numbers(self, monkeypatch, tmp_path, capsys):
        self.populate(monkeypatch, tmp_path)
        assert runner_main(["--cache-stats"]) == 0
        out = capsys.readouterr().out
        assert f"cache dir: {tmp_path}" in out
        assert "entries: 2" in out
        assert "disk bytes:" in out

    def test_cache_gc_enforces_the_byte_cap(self, monkeypatch, tmp_path, capsys):
        cache = self.populate(monkeypatch, tmp_path)
        set_last_use(tmp_path, "bbb", 9e9)  # bbb most recently used
        assert runner_main(["--cache-gc", "--max-bytes", "1"]) == 0
        assert "evicted 2 entries" in capsys.readouterr().out
        assert len(ResultCache(directory=tmp_path)) == 0

    def test_cache_clear_empties_the_directory(self, monkeypatch, tmp_path, capsys):
        self.populate(monkeypatch, tmp_path)
        assert runner_main(["--cache-clear"]) == 0
        assert "cleared 2 entries" in capsys.readouterr().out
        assert not (tmp_path / "aaa.json.gz").exists()

    def test_cache_stats_on_a_missing_directory_has_no_side_effects(
        self, monkeypatch, tmp_path, capsys
    ):
        target = tmp_path / "nope"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(target))
        assert runner_main(["--cache-stats"]) == 0
        assert "does not exist" in capsys.readouterr().out
        assert not target.exists()  # the read-only verb created nothing

    @pytest.mark.parametrize(
        "verb",
        [["--cache-stats"], ["--cache-gc", "--max-bytes", "1"], ["--cache-clear"]],
        ids=["stats", "gc", "clear"],
    )
    def test_cache_verbs_refuse_a_cache_backend(self, monkeypatch, tmp_path, capsys, verb):
        """The verbs act on a directory: naming a network tier is a usage
        error, not a silent pass over the local default directory."""
        self.populate(monkeypatch, tmp_path)
        with pytest.raises(SystemExit) as raised:
            runner_main([*verb, "--cache-backend", "remote://127.0.0.1:1"])
        assert raised.value.code == 2
        message = capsys.readouterr().err.splitlines()[-1]
        assert "--cache-backend" in message and "gc op" in message
        assert len(ResultCache(directory=tmp_path)) == 2

    def test_cache_gc_requires_a_bound(self, monkeypatch, tmp_path):
        self.populate(monkeypatch, tmp_path)
        with pytest.raises(SystemExit):
            runner_main(["--cache-gc"])

    def test_size_and_age_suffix_parsing(self):
        from repro.experiments.base import parse_age, parse_size

        assert parse_size("1024") == 1024
        assert parse_size("2K") == 2048
        assert parse_size("500M") == 500 * 1024**2
        assert parse_size("1g") == 1024**3
        assert parse_age("90") == 90.0
        assert parse_age("2m") == 120.0
        assert parse_age("3h") == 10800.0
        assert parse_age("30d") == 30 * 86400.0
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            parse_size("lots")
        with pytest.raises(argparse.ArgumentTypeError):
            parse_age("-5")


class TestEnvVarResolution:
    def test_cache_dir_env_var_is_resolved_at_call_time(self, monkeypatch, tmp_path):
        # Regression: DEFAULT_CACHE_DIR used to snapshot $REPRO_CACHE_DIR at
        # import time, silently ignoring later changes.
        from repro.runtime.session import DEFAULT_CACHE_DIR, default_cache_dir

        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert default_cache_dir() == DEFAULT_CACHE_DIR
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "late"))
        assert default_cache_dir() == tmp_path / "late"
        monkeypatch.setenv("REPRO_CACHE_DIR", "")  # empty means unset
        assert default_cache_dir() == DEFAULT_CACHE_DIR
