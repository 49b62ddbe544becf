"""The zero-copy trace fabric: content-addressed, mmap-backed trace artifacts.

Every process used to pay the full trace cold-start privately: re-run the
calibration bisection (:func:`repro.nn.calibration.calibrate_network`, 40
bisection steps over sampled layers) and regenerate full layer tensors it
touched — the per-process cost ROADMAP item 4 calls out as what caps worker
count per machine.  This module makes traces a shared on-host resource:

* **tensor artifacts** — each ``(TraceSpec, layer)`` full tensor is
  materialized exactly once per host into
  ``<trace-dir>/<content-hash>.npy`` (atomic temp-file + rename publication)
  and opened by everyone else with ``np.load(..., mmap_mode="r")``: a
  read-only memory map, so N workers on one host share one physical copy and
  a warm start costs an ``mmap`` instead of a generation pass.
* **persisted calibrations** — :class:`~repro.nn.calibration.NetworkCalibration`
  results are stored as ordinary gzip JSON entries in the same directory, so
  workers skip the bisection entirely on a warm host.
* **the same cache discipline as results** — keys are content hashes over the
  spec plus the trace code fingerprint
  (:func:`repro.runtime.fingerprint.trace_tensor_key`); editing ``nn`` or
  ``numerics`` source invalidates artifacts exactly like editing simulation
  source invalidates cached results.  The artifact directory is its own
  index, as a result-cache directory is (:mod:`repro.runtime.lifecycle`):
  a use sets the file's mtime, and usage and the size/age-capped GC are
  one directory scan each, so ``--cache-gc``/``--cache-stats`` and serve
  background GC see the artifacts.

Bit-identity is by construction — an artifact holds exactly the bytes the
generate-on-demand path produces for that key — and proven by the fabric's
golden tests (``tests/test_trace_fabric.py``).  Concurrent publication is
safe without locks: two builders of one key produce identical bytes, each
publishes via its own temp file + ``os.replace``, and whichever rename lands
last simply overwrites the same content; readers only ever see a complete
file.  ``docs/runtime.md`` documents the artifact layout and invalidation
rule; ``docs/cluster.md`` the per-host sharing story.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import tempfile
import threading
from pathlib import Path

import numpy as np

from repro.nn.traces import TraceBacking
from repro.runtime import lifecycle
from repro.runtime.fingerprint import calibration_key, trace_tensor_key

__all__ = [
    "CALIBRATION_SAMPLES",
    "CALIBRATION_SEED",
    "TRACES_SUBDIR",
    "MmapTraceBacking",
    "TraceArtifactStore",
    "default_trace_dir",
]

#: Subdirectory of a result-cache directory the fabric defaults to, keeping
#: trace artifacts out of the result cache's scans.
TRACES_SUBDIR = "traces"

#: The :func:`~repro.nn.calibration.calibrate_network` defaults the fabric
#: persists calibrations under (the trace path always calls it with these).
CALIBRATION_SAMPLES = 8192
CALIBRATION_SEED = 12345


def default_trace_dir(cache_dir: str | Path) -> Path:
    """Where trace artifacts live next to a result cache: ``<cache-dir>/traces``."""
    return Path(cache_dir).expanduser() / TRACES_SUBDIR


class TraceArtifactStore:
    """Per-host artifact store of trace tensors and persisted calibrations.

    Thread-safe (serve worker threads resolve tensors concurrently) and
    multi-process-safe (cluster workers share one directory; see the module
    docstring for the publication protocol).  ``max_bytes``/``max_age`` are
    enforced on each :meth:`gc` call, through :func:`lifecycle.gc`.

    Counters (read via :meth:`counters`, surfaced as session stats):

    * ``tensors_built`` — full tensors this process generated and published;
    * ``tensors_mapped`` — read-only mmap opens of an existing artifact
      (``traces_mapped`` in :class:`~repro.runtime.session.RunStats`);
    * ``bytes_mapped`` — artifact bytes those opens shared instead of
      duplicating (``trace_bytes_shared``);
    * ``calibrations_computed`` / ``calibrations_loaded`` — bisections run
      vs. persisted results reused;
    * ``errors`` — corrupt or unwritable artifacts (degraded to in-memory).
    """

    def __init__(
        self,
        directory: str | Path,
        max_bytes: int | None = None,
        max_age: float | None = None,
    ) -> None:
        self.directory = Path(directory).expanduser()
        self.directory.mkdir(parents=True, exist_ok=True)
        self.max_bytes = max_bytes
        self.max_age = max_age
        self._lock = threading.Lock()
        self.tensors_built = 0
        self.tensors_mapped = 0
        self.bytes_mapped = 0
        self.calibrations_computed = 0
        self.calibrations_loaded = 0
        self.errors = 0

    # ----------------------------------------------------------------- tensors
    def layer_tensor(self, spec, layer_index: int, builder) -> np.ndarray:
        """The ``(spec, layer)`` tensor: an existing artifact's read-only mmap,
        or ``builder()``'s result published for every other process on the host.

        ``builder`` must return the generate-on-demand ground truth
        (:meth:`repro.nn.traces.NetworkTrace.generate_layer_input`); identical
        keys imply identical bytes, which is what makes lock-free concurrent
        publication safe.
        """
        key = trace_tensor_key(spec, layer_index)
        path = lifecycle.tensor_path(self.directory, key)
        tensor = self._open(path)
        if tensor is not None:
            lifecycle.touch(path)
            return tensor
        values = np.ascontiguousarray(builder())
        if not self._publish(key, path, values):
            return values  # unwritable directory: degrade to private memory
        with self._lock:
            self.tensors_built += 1
        tensor = self._open(path)
        return tensor if tensor is not None else values

    def _open(self, path: Path) -> np.ndarray | None:
        """Map an artifact read-only; a torn/corrupt file is dropped (rebuild)."""
        if not path.exists():
            return None
        try:
            tensor = np.load(path, mmap_mode="r")
            size = path.stat().st_size
        except (OSError, ValueError):
            with self._lock:
                self.errors += 1
            with contextlib.suppress(OSError):
                path.unlink()
            return None
        with self._lock:
            self.tensors_mapped += 1
            self.bytes_mapped += size
        return tensor

    def _publish(self, key: str, path: Path, values: np.ndarray) -> bool:
        """Atomically publish a tensor artifact; returns whether it landed."""
        tmp_name = None
        try:
            descriptor, tmp_name = tempfile.mkstemp(
                dir=self.directory, prefix=f".{key[:16]}-", suffix=".tmp"
            )
            with os.fdopen(descriptor, "wb") as handle:
                np.save(handle, values)
            os.replace(tmp_name, path)
        except OSError:
            if tmp_name is not None:
                with contextlib.suppress(OSError):
                    os.unlink(tmp_name)
            with self._lock:
                self.errors += 1
            return False
        return True

    # ------------------------------------------------------------ calibrations
    def network_calibration(self, spec):
        """The persisted :class:`NetworkCalibration` for ``spec``, computing
        (and persisting) it on first request per host."""
        from repro.nn.calibration import NetworkCalibration, calibrate_network

        key = calibration_key(
            spec.network,
            spec.representation,
            spec.suffix_bits,
            CALIBRATION_SAMPLES,
            CALIBRATION_SEED,
            spec.dense_first_layer,
        )
        path = lifecycle.find_entry(self.directory, key)
        if path is not None:
            try:
                entry = lifecycle.read_entry(path)
                calibration = NetworkCalibration(**entry["calibration"])
            except (OSError, ValueError, KeyError, TypeError):
                with self._lock:
                    self.errors += 1
                with contextlib.suppress(OSError):
                    path.unlink()
            else:
                with self._lock:
                    self.calibrations_loaded += 1
                lifecycle.touch(path)
                return calibration
        calibration = calibrate_network(
            spec.network,
            representation=spec.representation,
            suffix_bits=spec.suffix_bits,
            samples_per_layer=CALIBRATION_SAMPLES,
            seed=CALIBRATION_SEED,
            dense_first_layer=spec.dense_first_layer,
        )
        with self._lock:
            self.calibrations_computed += 1
        try:
            lifecycle.write_entry(
                self.directory, key, {"calibration": dataclasses.asdict(calibration)}
            )
        except OSError:
            with self._lock:
                self.errors += 1
        return calibration

    def prewarm(self) -> dict:
        """Open every existing artifact once (elastic-join pre-warm).

        A worker joining a host with a warm fabric (``docs/cluster.md``)
        scans the directory once, maps each tensor artifact and validates
        each calibration entry up front, so its first planned job starts from
        read-only mmaps instead of discovering (or torn-file-recovering) the
        artifacts one by one on the hot path.  Returns how many of each kind
        were warmed.
        """
        tensors = calibrations = 0
        for key, artifact in lifecycle.scan(self.directory).items():
            if artifact.tensor:
                if self._open(lifecycle.tensor_path(self.directory, key)) is not None:
                    tensors += 1
                continue
            entry_path = lifecycle.find_entry(self.directory, key)
            if entry_path is None:
                continue
            try:
                lifecycle.read_entry(entry_path)
            except (OSError, ValueError):
                continue
            calibrations += 1
        return {"tensors": tensors, "calibrations": calibrations}

    # -------------------------------------------------------------- observation
    def counters(self) -> dict:
        """Snapshot of the fabric counters (the session stats overlay)."""
        with self._lock:
            return {
                "trace_tensors_built": self.tensors_built,
                "traces_mapped": self.tensors_mapped,
                "trace_bytes_shared": self.bytes_mapped,
                "trace_calibrations_computed": self.calibrations_computed,
                "trace_calibrations_loaded": self.calibrations_loaded,
            }

    def reset_counters(self) -> None:
        """Zero the per-process counters (scheduler per-job stats deltas)."""
        with self._lock:
            self.tensors_built = 0
            self.tensors_mapped = 0
            self.bytes_mapped = 0
            self.calibrations_computed = 0
            self.calibrations_loaded = 0

    def usage(self) -> dict:
        """Current artifact-tier state, split by kind (one directory scan)."""
        artifacts = lifecycle.scan(self.directory)
        tensors = [artifact for artifact in artifacts.values() if artifact.tensor]
        return {
            "directory": str(self.directory),
            **lifecycle.usage(artifacts),
            "tensors": len(tensors),
            "tensor_bytes": sum(artifact.size for artifact in tensors),
            "calibrations": len(artifacts) - len(tensors),
        }

    # --------------------------------------------------------------- lifecycle
    def gc(
        self, max_bytes: int | None = None, max_age: float | None = None
    ) -> lifecycle.GCResult:
        """LRU-first collection of the artifact tier (defaults to the caps)."""
        return lifecycle.gc(
            self.directory,
            max_bytes=self.max_bytes if max_bytes is None else max_bytes,
            max_age=self.max_age if max_age is None else max_age,
        )

    def clear(self) -> int:
        """Delete every artifact (tensors and calibrations)."""
        return lifecycle.clear(self.directory)

    def __len__(self) -> int:
        return len(lifecycle.scan(self.directory))


class MmapTraceBacking(TraceBacking):
    """The :class:`~repro.nn.traces.TraceBacking` the fabric attaches to traces.

    Resolves a trace's full layer tensors through a
    :class:`TraceArtifactStore`, using the trace's own on-demand generator as
    the builder — so the first resolution per host materializes the artifact
    and every later one (any process) maps it read-only.
    """

    def __init__(self, store: TraceArtifactStore, spec) -> None:
        self.store = store
        self.spec = spec

    def layer_tensor(self, trace, layer_index: int) -> np.ndarray | None:
        return self.store.layer_tensor(
            self.spec, layer_index, lambda: trace.generate_layer_input(layer_index)
        )
