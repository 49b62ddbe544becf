"""The retired trace fabric: persisted network calibrations.

Nothing in ``src/`` imports this module.  Every trace build now calibrates
through :func:`repro.nn.calibration.calibrate_network`, whose per-process
memo is the one calibration cache, and no calibration is persisted
(``docs/runtime.md``, Calibrations).  The module stays only because the
benchmark's span list still names
:meth:`TraceArtifactStore.network_calibration`; the benchmark change that
drops that target deletes this file together with the two helpers it
imports, :func:`repro.runtime.fingerprint.calibration_key` and
:func:`repro.runtime.fingerprint.trace_code_fingerprint`.

What it did: it stored each :class:`~repro.nn.calibration.NetworkCalibration`
as a gzip JSON entry, ``<trace-dir>/<key>.json.gz``, keyed by every
``calibrate_network`` argument plus the ``nn``/``numerics`` source, so a
host calibrated each network once.  ``lifecycle.clear`` removes a
``traces/`` directory it left beside a result cache.
"""

from __future__ import annotations

import contextlib
import dataclasses
import threading
from pathlib import Path

from repro.runtime import lifecycle
from repro.runtime.fingerprint import calibration_key

__all__ = [
    "CALIBRATION_SAMPLES",
    "CALIBRATION_SEED",
    "TRACES_SUBDIR",
    "TraceArtifactStore",
    "default_trace_dir",
]

#: Subdirectory of a result-cache directory the fabric defaults to, keeping
#: calibrations out of the result cache's scans.
TRACES_SUBDIR = "traces"

#: The :func:`~repro.nn.calibration.calibrate_network` defaults the fabric
#: persists calibrations under (the trace path always calls it with these).
CALIBRATION_SAMPLES = 8192
CALIBRATION_SEED = 12345


def default_trace_dir(cache_dir: str | Path) -> Path:
    """Where the fabric lives next to a result cache: ``<cache-dir>/traces``."""
    return Path(cache_dir).expanduser() / TRACES_SUBDIR


class TraceArtifactStore:
    """Per-host store of persisted network calibrations.

    Thread-safe (serve worker threads build traces concurrently) and
    multi-process-safe (cluster workers share one directory; see the module
    docstring).  ``max_bytes``/``max_age`` are enforced on each :meth:`gc`
    call, through :func:`lifecycle.gc`.

    Counters (read via :meth:`counters`, surfaced as session stats):

    * ``calibrations_computed`` / ``calibrations_loaded`` — bisections run
      vs. persisted results reused;
    * ``errors`` — corrupt or unwritable entries (dropped and recomputed, or
      kept in memory only).
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
        self.calibrations_computed = 0
        self.calibrations_loaded = 0
        self.errors = 0

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

    # -------------------------------------------------------------- observation
    def counters(self) -> dict:
        """Snapshot of the fabric counters (the session stats overlay)."""
        with self._lock:
            return {
                "trace_calibrations_computed": self.calibrations_computed,
                "trace_calibrations_loaded": self.calibrations_loaded,
            }

    def reset_counters(self) -> None:
        """Zero the per-process counters (scheduler per-job stats deltas)."""
        with self._lock:
            self.calibrations_computed = 0
            self.calibrations_loaded = 0

    def usage(self) -> dict:
        """The directory's entry count, bytes and LRU age (one scan).

        A ``.npy`` tensor an older release wrote counts as an entry until GC
        or :meth:`clear` removes it.
        """
        return {
            "directory": str(self.directory),
            **lifecycle.usage(lifecycle.scan(self.directory)),
        }

    # --------------------------------------------------------------- lifecycle
    def gc(
        self, max_bytes: int | None = None, max_age: float | None = None
    ) -> lifecycle.GCResult:
        """LRU-first collection of the directory (defaults to the caps)."""
        return lifecycle.gc(
            self.directory,
            max_bytes=self.max_bytes if max_bytes is None else max_bytes,
            max_age=self.max_age if max_age is None else max_age,
        )

    def clear(self) -> int:
        """Delete every entry (calibrations and old ``.npy`` tensors)."""
        return lifecycle.clear(self.directory)

    def __len__(self) -> int:
        return len(lifecycle.scan(self.directory))
