"""Trace specifications and the per-session calibrated-trace store.

A :class:`TraceSpec` is the declarative description of a calibrated activation
trace — everything :func:`repro.nn.calibration.calibrated_trace` needs, as a
hashable value object.  Being declarative makes it both the cache-key
component for simulations over the trace and the memoization key of the
:class:`TraceStore`, which keeps the :data:`TRACE_ENTRIES` most recently used
traces, so a trace is built once however many experiments consume it.
Building a trace calibrates its network through
:func:`repro.nn.calibration.calibrate_network`, whose per-process memo
answers every repeat.  The store counts nothing: the session that fetches a
trace counts the build or reuse.  See ``docs/runtime.md`` for how traces fit
the session and cache-key model.
"""

from __future__ import annotations

import collections
import threading
from dataclasses import dataclass

from repro.nn.precision import DEFAULT_SUFFIX_BITS
from repro.nn.traces import NetworkTrace

__all__ = ["TRACE_ENTRIES", "TraceSpec", "TraceStore"]

#: Traces a :class:`TraceStore` keeps, least recently used out first: the
#: size of ``calibrate_network``'s memo, so an evicted trace rebuilds from a
#: memo hit (40–100 µs) instead of a calibration.
TRACE_ENTRIES = 128


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

    def build(self) -> NetworkTrace:
        """Materialize the trace (calibrating the network if necessary)."""
        from repro.nn.calibration import calibrated_trace

        return calibrated_trace(
            self.network,
            representation=self.representation,
            suffix_bits=self.suffix_bits,
            seed=self.seed,
            precisions=self.precisions,
            dense_first_layer=self.dense_first_layer,
        )


class TraceStore:
    """Session-scoped LRU of the :data:`TRACE_ENTRIES` most recent traces.

    Traces are stateless value generators (layer values are derived on demand
    from per-layer seeds), so one instance can safely serve every experiment
    in a session.  The lock keeps the store safe under concurrent access from
    scheduler threads; process-pool workers each hold their own store.
    """

    def __init__(self) -> None:
        self._traces: collections.OrderedDict[TraceSpec, NetworkTrace] = collections.OrderedDict()
        self._lock = threading.Lock()

    def fetch(self, spec: TraceSpec, build: bool = True) -> tuple[NetworkTrace | None, bool]:
        """The trace described by ``spec``, and whether *this call* built it.

        The boolean lets a session count builds exactly, without a
        check-then-act race against other threads fetching the same spec.
        With ``build=False`` a trace not in the store is ``(None, False)``.
        """
        with self._lock:
            trace = self._traces.get(spec)
            if trace is not None:
                self._traces.move_to_end(spec)
                return trace, False
        if not build:
            return None, False
        built = spec.build()
        with self._lock:
            trace = self._traces.setdefault(spec, built)
            self._traces.move_to_end(spec)
            while len(self._traces) > TRACE_ENTRIES:
                self._traces.popitem(last=False)
        return trace, trace is built

    def __len__(self) -> int:
        return len(self._traces)
