"""Tests for sessions and run statistics.

The serving layer reports per-request stats as dicts over the wire and
rebuilds them with ``RunStats.merge``, so the dict path and the
merge-after-``as_dict`` round trip are load-bearing contracts here.  Every
entry point mounts its storage through one rule, checked last.
"""

import threading
from pathlib import Path

import pytest

from repro.cluster import ClusterService
from repro.runtime import (
    FilesystemBackend,
    InMemoryBackend,
    RunStats,
    RuntimeSession,
    configure_session,
    current_session,
    default_trace_dir,
    run_experiments,
    scheduler,
    session as session_module,
    use_session,
)
from repro.serve.service import ExperimentService


def stats_with(hits=0, misses=0, stores=0, errors=0, sims=0, drains=0, built=0, reused=0):
    stats = RunStats()
    stats.cache.hits = hits
    stats.cache.misses = misses
    stats.cache.stores = stores
    stats.cache.errors = errors
    stats.sweep.configs_simulated = sims
    stats.sweep.drain_groups_computed = drains
    stats.traces_built = built
    stats.traces_reused = reused
    return stats


class TestRunStatsMerge:
    def test_merge_accepts_runstats(self):
        total = stats_with(hits=1, sims=2, built=1)
        total.merge(stats_with(hits=2, misses=3, sims=4, reused=5))
        assert total.cache.hits == 3
        assert total.cache.misses == 3
        assert total.sweep.configs_simulated == 6
        assert total.traces_built == 1
        assert total.traces_reused == 5

    def test_merge_accepts_dict(self):
        # The wire path: workers and serve responses ship as_dict() payloads.
        total = stats_with(stores=1, drains=2)
        total.merge(
            {
                "cache": {"hits": 4, "stores": 1},
                "sweep": {"drain_groups_computed": 3},
                "traces_built": 2,
                "traces_reused": 7,
            }
        )
        assert total.cache.hits == 4
        assert total.cache.stores == 2
        assert total.sweep.drain_groups_computed == 5
        assert total.traces_built == 2
        assert total.traces_reused == 7

    def test_merge_accepts_partial_and_empty_dicts(self):
        total = stats_with(hits=1, sims=1)
        total.merge({})
        total.merge({"cache": {}})
        assert total.cache.hits == 1
        assert total.sweep.configs_simulated == 1

    def test_merge_after_as_dict_round_trip(self):
        original = stats_with(hits=3, misses=2, stores=1, errors=1, sims=9, drains=4, built=2, reused=6)
        rebuilt = RunStats()
        rebuilt.merge(original.as_dict())
        assert rebuilt.as_dict() == original.as_dict()
        # Merging the round-tripped dict again doubles every counter.
        rebuilt.merge(original.as_dict())
        assert rebuilt.cache.hits == 6
        assert rebuilt.sweep.configs_simulated == 18
        assert rebuilt.traces_reused == 12

    def test_summary_mentions_every_counter_family(self):
        text = stats_with(hits=1, sims=2, built=3).summary()
        assert "cache 1 hits" in text
        assert "simulated 2 configs" in text
        assert "traces 3 built" in text


class TestThreadScopedSessions:
    def test_use_session_overrides_only_the_calling_thread(self):
        outer = current_session()
        inner = RuntimeSession()
        seen_in_thread = []

        def observe():
            seen_in_thread.append(current_session())

        with use_session(inner):
            assert current_session() is inner
            worker = threading.Thread(target=observe)
            worker.start()
            worker.join()
        assert current_session() is outer
        # The other thread saw the process default, not this thread's override.
        assert seen_in_thread == [outer]

    def test_use_session_nests(self):
        first, second = RuntimeSession(), RuntimeSession()
        with use_session(first):
            with use_session(second):
                assert current_session() is second
            assert current_session() is first

    def test_concurrent_threads_hold_distinct_sessions(self):
        sessions = [RuntimeSession() for _ in range(4)]
        observed = {}
        barrier = threading.Barrier(len(sessions))

        def work(index):
            with use_session(sessions[index]):
                barrier.wait()  # all overrides active simultaneously
                observed[index] = current_session()

        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(sessions))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(observed[i] is sessions[i] for i in range(len(sessions)))


# ------------------------------------------------------------ one storage rule
CACHE, TRACES = Path("cache"), Path("elsewhere")

#: Flags every entry point accepts -> (result backend, trace-fabric directory).
#: Paths are relative to the test's working directory.
STORAGE_RULE = {
    "cache-dir": ({"cache_dir": CACHE}, FilesystemBackend, default_trace_dir(CACHE)),
    "trace-dir": ({"cache_dir": CACHE, "trace_dir": TRACES}, FilesystemBackend, TRACES),
    "no-trace-cache": ({"cache_dir": CACHE, "no_trace_cache": True}, FilesystemBackend, None),
    "cache-backend": (
        {"cache_dir": CACHE, "cache_backend": InMemoryBackend()},
        InMemoryBackend,
        default_trace_dir(CACHE),
    ),
    "no-cache": ({"cache_dir": CACHE, "no_cache": True}, InMemoryBackend, None),
    "no-cache-trace-dir": ({"no_cache": True, "trace_dir": TRACES}, InMemoryBackend, TRACES),
}


def _configured(monkeypatch, **flags):
    monkeypatch.setattr(session_module, "_DEFAULT", session_module._DEFAULT)
    return configure_session(**flags)


def _run(monkeypatch, **flags):
    sessions = []
    build_plan = scheduler.build_plan

    def spy(names, preset, seed, session):
        sessions.append(session)
        return build_plan(names, preset, seed, session)

    monkeypatch.setattr(scheduler, "build_plan", spy)
    run_experiments([], **flags)
    return sessions[0]


def _served(monkeypatch, **flags):
    return ExperimentService(**flags).session


def _planned(monkeypatch, **flags):
    """The coordinator's planning session (a cluster always caches results)."""
    return ClusterService(connect=[("127.0.0.1", 1)], **flags).session


@pytest.mark.parametrize(
    "entry, name",
    [
        pytest.param(entry, name, id=f"{entry.__name__.strip('_')}-{name}")
        for entry in (_configured, _run, _served, _planned)
        for name, (flags, _, _) in STORAGE_RULE.items()
        if entry is not _planned or "no_cache" not in flags
    ],
)
def test_every_entry_point_mounts_the_same_storage(entry, name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    flags, backend, traces = STORAGE_RULE[name]
    session = entry(monkeypatch, **flags)
    assert type(session.cache.backend) is backend
    artifacts = getattr(session.traces, "artifacts", None)
    assert (artifacts.directory if artifacts is not None else None) == traces
