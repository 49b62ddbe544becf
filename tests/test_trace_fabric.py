"""Tests for the trace fabric (:mod:`repro.runtime.trace_cache`).

The fabric persists network calibrations and nothing else, so its
load-bearing claims are that a fabric-wired trace produces exactly the values
a memory-only trace does, that a persisted calibration is reused (and a
corrupt one dropped and recomputed), and that the directory's lifecycle —
usage, GC, clear — also reclaims the ``.npy`` tensors older releases wrote.
"""

import numpy as np
import pytest

from repro.runtime.session import RuntimeSession, resolve_trace_dir
from repro.runtime.trace_cache import TraceArtifactStore, default_trace_dir
from repro.runtime.trace_store import TraceSpec, TraceStore

#: A name an older release gave a trace tensor: a key plus ``.npy``.
OLD_TENSOR_NAME = "0f" * 32 + ".npy"


def _random_specs(count: int) -> list[TraceSpec]:
    """Randomized-but-reproducible specs spanning network/seed/representation."""
    rng = np.random.default_rng(20260808)
    specs = []
    for _ in range(count):
        specs.append(
            TraceSpec(
                network=str(rng.choice(["alexnet", "nin"])),
                seed=int(rng.integers(0, 100)),
                dense_first_layer=bool(rng.integers(0, 2)),
            )
        )
    return specs


def _fabric_trace(directory, spec):
    """A trace wired through a fabric store rooted at ``directory``."""
    artifacts = TraceArtifactStore(directory)
    trace = TraceStore(artifacts=artifacts).get(spec)
    return artifacts, trace


def _plant_old_tensor(directory):
    """A ``.npy`` tensor as an older release left it; returns its path."""
    path = directory / OLD_TENSOR_NAME
    np.save(path, np.arange(4096, dtype=np.int64))
    return path


def _calibration_file(directory):
    (path,) = directory.glob("*.json.gz")
    return path


class TestGoldenBitIdentity:
    """A fabric-wired trace yields exactly a memory-only trace's values."""

    @pytest.mark.parametrize("spec", _random_specs(3), ids=lambda s: f"{s.network}-s{s.seed}")
    def test_backed_equals_generated_exactly(self, tmp_path, spec):
        directory = tmp_path / "traces"
        _, trace = _fabric_trace(directory, spec)
        pure = TraceStore().get(spec)
        for layer_index in (0, trace.network.num_layers - 1):
            wired = trace.layer_input(layer_index)
            golden = pure.layer_input(layer_index)
            assert wired.dtype == golden.dtype
            assert np.array_equal(wired, golden)
        # Exact mode generates on demand: the fabric holds calibrations only.
        assert not list(directory.glob("*.npy"))

    def test_sampling_is_independent_of_backing(self, tmp_path):
        spec = TraceSpec(network="alexnet", seed=5)
        _, cold = _fabric_trace(tmp_path / "traces", spec)
        warm_store, warm = _fabric_trace(tmp_path / "traces", spec)
        assert warm_store.counters()["trace_calibrations_loaded"] == 1
        pure = TraceStore().get(spec)
        for trace in (cold, warm):
            assert np.array_equal(
                trace.sample_layer_values(0, 512), pure.sample_layer_values(0, 512)
            )

    def test_corrupt_artifact_is_dropped_and_rebuilt(self, tmp_path):
        spec = TraceSpec(network="alexnet", seed=5)
        directory = tmp_path / "traces"
        _, trace = _fabric_trace(directory, spec)
        _calibration_file(directory).write_bytes(b"not a calibration entry")

        fresh, again = _fabric_trace(directory, spec)
        assert fresh.errors == 1
        assert fresh.counters() == {
            "trace_calibrations_computed": 1,
            "trace_calibrations_loaded": 0,
        }
        assert again.params == trace.params
        # The recomputed calibration was persisted again, readable this time.
        reader, _ = _fabric_trace(directory, spec)
        assert reader.counters()["trace_calibrations_loaded"] == 1
        assert reader.errors == 0


class TestCalibrationPersistence:
    def test_second_store_loads_instead_of_computing(self, tmp_path):
        spec = TraceSpec(network="alexnet", seed=9)
        directory = tmp_path / "traces"
        cold = TraceArtifactStore(directory)
        trace_cold = TraceStore(artifacts=cold).get(spec)
        assert cold.counters()["trace_calibrations_computed"] == 1
        assert cold.counters()["trace_calibrations_loaded"] == 0

        warm = TraceArtifactStore(directory)
        trace_warm = TraceStore(artifacts=warm).get(spec)
        counters = warm.counters()
        assert counters["trace_calibrations_computed"] == 0
        assert counters["trace_calibrations_loaded"] == 1
        # A persisted calibration yields the identical trace parameterization.
        assert trace_warm.params == trace_cold.params
        assert trace_warm.precisions == trace_cold.precisions

    def test_usage_classifies_both_kinds(self, tmp_path):
        directory = tmp_path / "traces"
        artifacts, _ = _fabric_trace(directory, TraceSpec(network="alexnet", seed=9))
        old = _plant_old_tensor(directory)
        usage = artifacts.usage()
        assert usage["entries"] == len(artifacts) == 2
        assert usage["disk_bytes"] == (
            _calibration_file(directory).stat().st_size + old.stat().st_size
        )


class TestLifecycleGC:
    def test_gc_evicts_tensor_artifacts_then_rematerializes(self, tmp_path):
        spec = TraceSpec(network="alexnet", seed=13)
        directory = tmp_path / "traces"
        artifacts, _ = _fabric_trace(directory, spec)
        old = _plant_old_tensor(directory)

        result = artifacts.gc(max_bytes=0)
        assert result.removed_entries == len(result.removed_keys) == 2
        assert result.remaining_entries == 0
        assert not old.exists()
        assert artifacts.usage()["entries"] == 0

        # The fabric degrades gracefully: the next store recomputes.
        again, _ = _fabric_trace(directory, spec)
        assert again.counters()["trace_calibrations_computed"] == 1
        assert again.counters()["trace_calibrations_loaded"] == 0
        assert _calibration_file(directory).exists()

    def test_old_npy_beside_a_calibration_is_counted_then_reclaimed(self, tmp_path):
        spec = TraceSpec(network="alexnet", seed=13)
        for reclaim in ("gc", "clear"):
            directory = tmp_path / reclaim
            artifacts, _ = _fabric_trace(directory, spec)
            old = _plant_old_tensor(directory)
            assert artifacts.usage()["entries"] == 2
            if reclaim == "gc":
                assert artifacts.gc(max_bytes=0).removed_entries == 2
            else:
                assert artifacts.clear() == 2
            assert not old.exists()
            assert not list(directory.iterdir())

    def test_instance_caps_are_gc_defaults(self, tmp_path):
        spec = TraceSpec(network="alexnet", seed=13)
        artifacts = TraceArtifactStore(tmp_path / "traces", max_bytes=0)
        TraceStore(artifacts=artifacts).get(spec)
        assert len(artifacts) == 1
        assert artifacts.gc().remaining_entries == 0

    def test_gc_without_caps_is_a_noop(self, tmp_path):
        spec = TraceSpec(network="alexnet", seed=13)
        artifacts, _ = _fabric_trace(tmp_path / "traces", spec)
        before = len(artifacts)
        result = artifacts.gc()
        assert result.remaining_entries == before == len(artifacts) == 1

    def test_clear_removes_everything(self, tmp_path):
        spec = TraceSpec(network="alexnet", seed=13)
        artifacts, _ = _fabric_trace(tmp_path / "traces", spec)
        removed = artifacts.clear()
        assert removed == 1  # the calibration
        assert len(artifacts) == 0


class TestSessionWiring:
    def test_resolve_trace_dir_policy(self, tmp_path):
        assert resolve_trace_dir(None, None, False) is None
        assert resolve_trace_dir(None, None, True) is None
        assert resolve_trace_dir(tmp_path, None, False) == default_trace_dir(tmp_path)
        assert resolve_trace_dir(tmp_path, tmp_path / "t", False) == tmp_path / "t"
        # --no-cache --trace-dir keeps the fabric on (independent tiers)...
        assert resolve_trace_dir(None, tmp_path / "t", False) == tmp_path / "t"
        # ...while --no-trace-cache always wins.
        assert resolve_trace_dir(tmp_path, tmp_path / "t", True) is None

    def test_session_stats_surface_fabric_counters(self, tmp_path):
        spec = TraceSpec(network="alexnet", seed=5)
        for computed, loaded in ((1, 0), (0, 1)):
            artifacts = TraceArtifactStore(tmp_path / "traces")
            session = RuntimeSession(traces=TraceStore(artifacts=artifacts))
            session.trace(spec)
            stats = session.stats()
            assert stats.trace_calibrations_computed == computed
            assert stats.trace_calibrations_loaded == loaded
            assert "fabric" in stats.summary()
            wire = stats.as_dict()
            assert wire["trace_calibrations_computed"] == computed
            assert wire["trace_calibrations_loaded"] == loaded

    def test_reset_counters_zeroes_the_snapshot(self, tmp_path):
        spec = TraceSpec(network="alexnet", seed=5)
        artifacts, _ = _fabric_trace(tmp_path / "traces", spec)
        artifacts.reset_counters()
        assert all(value == 0 for value in artifacts.counters().values())
