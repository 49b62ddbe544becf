"""Trace specifications and the per-session calibrated-trace store.

A :class:`TraceSpec` is the declarative description of a calibrated activation
trace — everything :func:`repro.nn.calibration.calibrated_trace` needs, as a
hashable value object.  Being declarative makes it both the cache-key
component for simulations over the trace and the memoization key of the
:class:`TraceStore`, which guarantees each network's trace is materialized
once per session no matter how many experiments consume it.

A store may additionally be wired to a
:class:`repro.runtime.trace_cache.TraceArtifactStore` (the trace fabric):
newly built traces then load their calibration from the host-shared
directory instead of recomputing it privately.  See ``docs/runtime.md`` for
how traces fit the session and cache-key model.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.nn.precision import DEFAULT_SUFFIX_BITS
from repro.nn.traces import NetworkTrace

__all__ = ["TraceSpec", "TraceStore"]


@dataclass(frozen=True)
class TraceSpec:
    """Declarative description of one calibrated network trace.

    Attributes mirror the parameters of
    :func:`repro.nn.calibration.calibrated_trace`.
    """

    network: str
    representation: str = "fixed16"
    suffix_bits: int = DEFAULT_SUFFIX_BITS
    seed: int = 0
    precisions: tuple[int, ...] | None = None
    dense_first_layer: bool = True

    def build(self, calibration=None) -> NetworkTrace:
        """Materialize the trace (calibrating the network if necessary).

        ``calibration`` short-circuits the bisection with a persisted
        :class:`~repro.nn.calibration.NetworkCalibration` (the trace fabric's
        warm path).
        """
        from repro.nn.calibration import calibrated_trace

        return calibrated_trace(
            self.network,
            representation=self.representation,
            suffix_bits=self.suffix_bits,
            seed=self.seed,
            precisions=self.precisions,
            dense_first_layer=self.dense_first_layer,
            calibration=calibration,
        )


class TraceStore:
    """Session-scoped store building each distinct trace exactly once.

    Traces are stateless value generators (layer values are derived on demand
    from per-layer seeds), so one instance can safely serve every experiment
    in a session.  The lock keeps the store safe under concurrent access from
    scheduler threads; process-pool workers each hold their own store.

    With ``artifacts`` set, the store participates in the trace fabric:
    calibrations are loaded from (or persisted to) the shared directory.
    """

    def __init__(self, artifacts=None) -> None:
        self._traces: dict[TraceSpec, NetworkTrace] = {}
        self._lock = threading.Lock()
        self.artifacts = artifacts
        self.builds = 0
        self.reuses = 0

    def get(self, spec: TraceSpec) -> NetworkTrace:
        """The trace described by ``spec``, building it on first request."""
        return self.fetch(spec)[0]

    def fetch(self, spec: TraceSpec, build: bool = True) -> tuple[NetworkTrace | None, bool]:
        """Like :meth:`get`, also reporting whether *this call* built the trace.

        The boolean lets per-request stats views (the serve worker pool)
        count builds exactly, without a check-then-act race against other
        threads fetching the same spec concurrently.  With ``build=False`` a
        trace not yet in the store is ``(None, False)``, never built.
        """
        with self._lock:
            trace = self._traces.get(spec)
            if trace is not None:
                self.reuses += 1
                return trace, False
        if not build:
            return None, False
        built = self._build(spec)
        with self._lock:
            trace = self._traces.setdefault(spec, built)
            if trace is built:
                self.builds += 1
                return trace, True
            self.reuses += 1
            return trace, False

    def _build(self, spec: TraceSpec) -> NetworkTrace:
        """Build ``spec``'s trace, through the fabric when one is wired."""
        if self.artifacts is None:
            return spec.build()
        return spec.build(calibration=self.artifacts.network_calibration(spec))

    def __len__(self) -> int:
        return len(self._traces)
