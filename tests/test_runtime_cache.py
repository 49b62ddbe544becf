"""Tests for the content-addressed result cache, the trace store, and the
session that counts each job's use of them."""

import gzip
import json
import sys
import threading
import time

import pytest

from repro.arch.tiling import SamplingConfig
from repro.core.variants import pallet_variant
from repro.runtime.backends import CorruptEntry
from repro.runtime.cache import ResultCache
from repro.runtime.engine import SimulationRequest, simulate
from repro.runtime.session import NotResident, RuntimeSession
from repro.runtime.trace_store import TRACE_ENTRIES, TraceSpec, TraceStore

PAYLOAD = {"network": "alexnet", "accelerator": "x", "layers": []}


def _session(directory=None) -> RuntimeSession:
    """A session over a fresh cache of ``directory`` (memory when ``None``)."""
    return RuntimeSession(cache=ResultCache(directory=directory))


class TestMemoryCache:
    def test_miss_then_hit(self):
        session = _session()
        assert session.lookup("k") is None
        session.store("k", PAYLOAD)
        assert session.lookup("k") == PAYLOAD
        counters = session.stats().cache
        assert counters.misses == 1
        assert counters.hits == 1
        assert counters.stores == 1


class TestDiskCache:
    def test_entries_survive_across_instances(self, tmp_path):
        first = ResultCache(directory=tmp_path)
        first.put("deadbeef", PAYLOAD)
        second = _session(tmp_path)
        assert second.lookup("deadbeef") == PAYLOAD
        assert second.stats().cache.hits == 1
        assert len(second.cache) == 1

    def test_contains_does_not_touch_stats(self, tmp_path):
        cache = ResultCache(directory=tmp_path)
        cache.put("k", PAYLOAD)
        fresh = _session(tmp_path)
        assert fresh.contains("k")
        assert not fresh.contains("missing")
        assert fresh.stats().cache.hits == 0
        assert fresh.stats().cache.misses == 0

    @pytest.mark.parametrize(
        "garbage",
        ["not json at all", "[]", '{"schema": 99, "kind": "network_result", "payload": {}}'],
    )
    def test_corrupted_entries_recover_as_misses(self, tmp_path, garbage):
        cache = ResultCache(directory=tmp_path)
        cache.put("k", PAYLOAD)
        path = tmp_path / "k.json.gz"
        path.write_text(garbage)  # not even gzip anymore
        fresh = _session(tmp_path)
        assert fresh.lookup("k") is None
        assert fresh.stats().cache.errors == 1
        assert fresh.stats().cache.misses == 1
        assert not path.exists()  # the bad entry was dropped

    @pytest.mark.parametrize(
        "probe", [ResultCache.get, ResultCache.contains], ids=["get", "contains"]
    )
    def test_the_cache_raises_a_corrupt_entry_it_dropped(self, tmp_path, probe):
        ResultCache(directory=tmp_path).put("k", PAYLOAD)
        path = tmp_path / "k.json.gz"
        path.write_text("garbage")
        with pytest.raises(CorruptEntry):
            probe(ResultCache(directory=tmp_path), "k")
        assert not path.exists()

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
        fresh = _session(tmp_path)
        assert fresh.lookup("k") is None
        assert fresh.stats().cache.errors == 1
        assert not path.exists()

    def test_kind_mismatch_is_corruption(self, tmp_path):
        cache = ResultCache(directory=tmp_path)
        cache.put("k", PAYLOAD, kind="other_kind")
        fresh = _session(tmp_path)
        assert fresh.lookup("k", kind="network_result") is None
        assert fresh.stats().cache.errors == 1

    def test_unwritable_directory_degrades_to_memory(self, tmp_path):
        session = _session(tmp_path / "c")
        # Make writes fail by replacing the cache directory with a file.
        (tmp_path / "c").rmdir()
        (tmp_path / "c").write_text("not a directory")
        session.store("k", PAYLOAD)
        assert session.stats().cache.errors == 1
        assert session.stats().cache.stores == 1
        assert session.lookup("k") == PAYLOAD  # memory copy still serves this process
        # The cache itself raises the failed write, after its memo took the entry.
        with pytest.raises(OSError):
            session.cache.put("k2", PAYLOAD)
        assert session.cache.get("k2") == PAYLOAD

    def test_entries_are_gzipped_json_documents(self, tmp_path):
        cache = ResultCache(directory=tmp_path)
        cache.put("k", PAYLOAD)
        entry = json.loads(gzip.decompress((tmp_path / "k.json.gz").read_bytes()))
        assert entry["key"] == "k"
        assert entry["payload"] == PAYLOAD

    def test_memo_is_keyed_by_kind(self, tmp_path):
        # Regression: the in-memory memo used to ignore ``kind``, so an entry
        # stored under one kind answered same-process lookups for another.
        session = _session(tmp_path)
        session.store("k", PAYLOAD, kind="network_result")
        assert session.lookup("k", kind="statistics_result") is None
        assert session.lookup("k", kind="network_result") == PAYLOAD
        # Memory-only caches enforce the same contract.
        memory = _session()
        memory.store("k", PAYLOAD, kind="network_result")
        assert memory.lookup("k", kind="statistics_result") is None
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
        session = _session(tmp_path)
        resident = session.job(resident_only=True)
        assert session.cache.get("k", resident_only=True) is None  # on disk only
        with pytest.raises(NotResident):
            resident.lookup("k")
        assert resident.stats().cache.as_dict() == {
            "hits": 0, "misses": 0, "stores": 0, "errors": 0
        }
        assert session.lookup("k") == PAYLOAD  # the backend read fills the memo
        assert resident.lookup("k") == PAYLOAD
        monkeypatch.setattr("repro.runtime.cache.USE_GRANULARITY", 0.0)
        with pytest.raises(NotResident):
            resident.lookup("k")  # its LRU touch is due
        assert session.stats().cache.hits + resident.stats().cache.hits == 2

    def test_a_resident_only_session_stores_probes_and_builds_nothing(self, tmp_path):
        resident = _session(tmp_path).job(resident_only=True)
        spec = TraceSpec(network="alexnet", seed=3)
        for attempt in (
            lambda: resident.store("k", PAYLOAD),
            lambda: resident.contains("k"),
            lambda: resident.trace(spec),
        ):
            with pytest.raises(NotResident):
                attempt()
        assert list(tmp_path.iterdir()) == []
        assert len(resident.traces) == 0
        assert resident.stats() == RuntimeSession().stats()


class TestTraceStore:
    def test_builds_each_spec_once(self):
        session = RuntimeSession()
        spec = TraceSpec(network="alexnet", seed=3)
        first = session.trace(spec)
        second = session.trace(spec)
        assert first is second
        assert session.stats().traces_built == 1
        assert session.stats().traces_reused == 1

    def test_fetch_without_build_answers_only_a_stored_trace(self):
        store = TraceStore()
        spec = TraceSpec(network="alexnet", seed=3)
        assert store.fetch(spec, build=False) == (None, False)
        assert len(store) == 0
        trace, built = store.fetch(spec)
        assert built
        assert store.fetch(spec, build=False) == (trace, False)

    def test_distinct_specs_build_distinct_traces(self):
        session = RuntimeSession()
        a = session.trace(TraceSpec(network="alexnet", seed=3))
        b = session.trace(TraceSpec(network="alexnet", seed=4))
        assert a is not b
        assert session.stats().traces_built == 2

    def test_the_store_keeps_the_most_recently_used_traces(self):
        store = TraceStore()
        specs = [TraceSpec(network="alexnet", seed=seed) for seed in range(TRACE_ENTRIES + 1)]
        kept, _ = store.fetch(specs[0])
        for spec in specs[1:-1]:
            store.fetch(spec)
        assert store.fetch(specs[0], build=False) == (kept, False)  # a touch
        store.fetch(specs[-1])
        assert len(store) == TRACE_ENTRIES
        assert store.fetch(specs[0], build=False) == (kept, False)
        assert store.fetch(specs[1], build=False) == (None, False)  # least recent
        rebuilt, built = store.fetch(specs[1])
        assert built and rebuilt is not None
        assert len(store) == TRACE_ENTRIES


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
        assert recovered_session.stats().cache.errors == 1
        assert recovered_session.stats().sweep.configs_simulated == 1
        # The recomputed entry was re-stored and is valid again.
        final_session = RuntimeSession(cache=ResultCache(directory=tmp_path))
        assert simulate(request, session=final_session)["PRA-2b"] == reference
        assert final_session.stats().sweep.configs_simulated == 0
