"""Tests for the content-addressed result cache and the trace store."""

import gzip
import json
import sys
import threading
import time

import pytest

from repro.arch.tiling import SamplingConfig
from repro.core.variants import pallet_variant
from repro.runtime.cache import ResultCache
from repro.runtime.engine import SimulationRequest, simulate
from repro.runtime.session import RuntimeSession
from repro.runtime.trace_store import TraceSpec, TraceStore

PAYLOAD = {"network": "alexnet", "accelerator": "x", "layers": []}


class TestMemoryCache:
    def test_miss_then_hit(self):
        cache = ResultCache()
        assert cache.get("k") is None
        cache.put("k", PAYLOAD)
        assert cache.get("k") == PAYLOAD
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
        assert cache.stats.stores == 1


class TestDiskCache:
    def test_entries_survive_across_instances(self, tmp_path):
        first = ResultCache(directory=tmp_path)
        first.put("deadbeef", PAYLOAD)
        second = ResultCache(directory=tmp_path)
        assert second.get("deadbeef") == PAYLOAD
        assert second.stats.hits == 1
        assert len(second) == 1

    def test_contains_does_not_touch_stats(self, tmp_path):
        cache = ResultCache(directory=tmp_path)
        cache.put("k", PAYLOAD)
        fresh = ResultCache(directory=tmp_path)
        assert fresh.contains("k")
        assert not fresh.contains("missing")
        assert fresh.stats.hits == 0
        assert fresh.stats.misses == 0

    @pytest.mark.parametrize(
        "garbage",
        ["not json at all", "[]", '{"schema": 99, "kind": "network_result", "payload": {}}'],
    )
    def test_corrupted_entries_recover_as_misses(self, tmp_path, garbage):
        cache = ResultCache(directory=tmp_path)
        cache.put("k", PAYLOAD)
        path = tmp_path / "k.json.gz"
        path.write_text(garbage)  # not even gzip anymore
        fresh = ResultCache(directory=tmp_path)
        assert fresh.get("k") is None
        assert fresh.stats.errors == 1
        assert fresh.stats.misses == 1
        assert not path.exists()  # the bad entry was dropped

    @pytest.mark.parametrize(
        "damage",
        [
            lambda data: data[:-8],  # cut short: EOFError from gzip
            lambda data: data[:12] + bytes(b ^ 0xFF for b in data[12:-8]) + data[-8:],
        ],
        ids=["truncated", "flipped"],
    )
    def test_damaged_gzip_streams_recover_as_misses(self, tmp_path, damage):
        cache = ResultCache(directory=tmp_path)
        cache.put("k", PAYLOAD)
        path = tmp_path / "k.json.gz"
        path.write_bytes(damage(path.read_bytes()))
        fresh = ResultCache(directory=tmp_path)
        assert fresh.get("k") is None
        assert fresh.stats.errors == 1
        assert not path.exists()

    def test_kind_mismatch_is_corruption(self, tmp_path):
        cache = ResultCache(directory=tmp_path)
        cache.put("k", PAYLOAD, kind="other_kind")
        fresh = ResultCache(directory=tmp_path)
        assert fresh.get("k", kind="network_result") is None
        assert fresh.stats.errors == 1

    def test_unwritable_directory_degrades_to_memory(self, tmp_path):
        cache = ResultCache(directory=tmp_path / "c")
        # Make writes fail by replacing the cache directory with a file.
        (tmp_path / "c").rmdir()
        (tmp_path / "c").write_text("not a directory")
        cache.put("k", PAYLOAD)
        assert cache.stats.errors == 1
        assert cache.get("k") == PAYLOAD  # memory copy still serves this process

    def test_entries_are_gzipped_json_documents(self, tmp_path):
        cache = ResultCache(directory=tmp_path)
        cache.put("k", PAYLOAD)
        entry = json.loads(gzip.decompress((tmp_path / "k.json.gz").read_bytes()))
        assert entry["key"] == "k"
        assert entry["payload"] == PAYLOAD

    def test_memo_is_keyed_by_kind(self, tmp_path):
        # Regression: the in-memory memo used to ignore ``kind``, so an entry
        # stored under one kind answered same-process lookups for another.
        cache = ResultCache(directory=tmp_path)
        cache.put("k", PAYLOAD, kind="network_result")
        assert cache.get("k", kind="statistics_result") is None
        assert cache.get("k", kind="network_result") == PAYLOAD
        # Memory-only caches enforce the same contract.
        memory = ResultCache()
        memory.put("k", PAYLOAD, kind="network_result")
        assert memory.get("k", kind="statistics_result") is None
        assert not memory.contains("k", kind="statistics_result")
        assert memory.contains("k", kind="network_result")

    def test_memo_reads_survive_concurrent_evictions(self):
        """Threads reading the memo while others fill and evict it (serve's
        event loop beside its worker threads) never see a torn memo."""
        cache = ResultCache(memo_entries=1)
        errors = []
        deadline = time.monotonic() + 1.0

        def read():
            while time.monotonic() < deadline and not errors:
                for key in ("a", "b"):
                    try:
                        cache.get(key)
                    except Exception as error:  # noqa: BLE001 - the invariant under test
                        errors.append(error)

        def write():
            while time.monotonic() < deadline and not errors:
                for key in ("a", "b"):
                    cache.put(key, PAYLOAD)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read) for _ in range(3)]
            threads += [threading.Thread(target=write) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []

    def test_a_resident_only_get_answers_from_the_memo_alone(self, tmp_path, monkeypatch):
        ResultCache(directory=tmp_path).put("k", PAYLOAD)
        cache = ResultCache(directory=tmp_path)
        assert cache.get("k", resident_only=True) is None  # on disk only
        assert cache.stats.as_dict() == {"hits": 0, "misses": 0, "stores": 0, "errors": 0}
        assert cache.get("k") == PAYLOAD  # the backend read fills the memo
        assert cache.get("k", resident_only=True) == PAYLOAD
        monkeypatch.setattr("repro.runtime.cache.USE_GRANULARITY", 0.0)
        assert cache.get("k", resident_only=True) is None  # its LRU touch is due
        assert cache.stats.hits == 2


class TestTraceStore:
    def test_builds_each_spec_once(self):
        store = TraceStore()
        spec = TraceSpec(network="alexnet", seed=3)
        first = store.get(spec)
        second = store.get(spec)
        assert first is second
        assert store.builds == 1
        assert store.reuses == 1

    def test_fetch_without_build_answers_only_a_stored_trace(self):
        store = TraceStore()
        spec = TraceSpec(network="alexnet", seed=3)
        assert store.fetch(spec, build=False) == (None, False)
        assert (store.builds, store.reuses, len(store)) == (0, 0, 0)
        trace = store.get(spec)
        assert store.fetch(spec, build=False) == (trace, False)

    def test_distinct_specs_build_distinct_traces(self):
        store = TraceStore()
        a = store.get(TraceSpec(network="alexnet", seed=3))
        b = store.get(TraceSpec(network="alexnet", seed=4))
        assert a is not b
        assert store.builds == 2


class TestCorruptionEndToEnd:
    def test_simulate_recovers_from_a_corrupted_entry(self, tmp_path):
        request = SimulationRequest(
            trace=TraceSpec(network="alexnet", seed=0),
            configs=(("PRA-2b", pallet_variant(2)),),
            sampling=SamplingConfig(max_pallets=1, seed=0),
        )
        session = RuntimeSession(cache=ResultCache(directory=tmp_path))
        reference = simulate(request, session=session)["PRA-2b"]
        (key,) = request.keys().values()
        (tmp_path / f"{key}.json.gz").write_text("{truncated")

        recovered_session = RuntimeSession(cache=ResultCache(directory=tmp_path))
        recovered = simulate(request, session=recovered_session)["PRA-2b"]
        assert recovered == reference
        assert recovered_session.cache.stats.errors == 1
        assert recovered_session.sweep_stats.configs_simulated == 1
        # The recomputed entry was re-stored and is valid again.
        final_session = RuntimeSession(cache=ResultCache(directory=tmp_path))
        assert simulate(request, session=final_session)["PRA-2b"] == reference
        assert final_session.sweep_stats.configs_simulated == 0
