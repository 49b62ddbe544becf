"""repro.runtime — parallel, cached experiment execution engine.

The runtime decomposes an experiment run into ``(network, preset,
config-group)`` simulation jobs with explicit dependencies, fans them out over
a process pool (``--jobs N``) and reassembles the results deterministically.
Expensive cycle simulations are memoized in a content-addressed on-disk cache
keyed by a stable fingerprint of (trace spec, sampling config, accelerator
config, code version), and each network's calibrated trace is built once per
session through a shared trace store.

Layering::

    fingerprint   stable content hashes (no repro dependencies)
    serialization NetworkResult/LayerResult <-> JSON payloads
    lifecycle     gzip entry codec, directory scan, LRU garbage collection
    backends      pluggable storage (memory / filesystem)
    cache         content-addressed result cache (policy over one backend)
    trace_store   TraceSpec + per-session calibrated-trace store
    session       RuntimeSession (cache + traces + stats), the one session
                  builder and the active session
    engine        simulate()/analyze(): cached execution against the session
    jobs          job model and run planning (dedup across experiments)
    scheduler     process-pool execution, serial fallback, run reports

The job model, cache-key scheme and session semantics are documented in
``docs/runtime.md``; :mod:`repro.serve` builds the async serving front-end on
top of this package, and :mod:`repro.cachenet` (``docs/cachenet.md``) plugs a
network-shared cache tier into the ``backends`` seam
(``--cache-backend remote://host:port``).
"""

from repro.core.progress import ProgressToken, SweepCancelled
from repro.runtime.backends import (
    CacheBackend,
    CorruptEntry,
    FilesystemBackend,
    InMemoryBackend,
)
from repro.runtime.cache import CacheStats, ResultCache
from repro.runtime.engine import SimulationRequest, StatisticsRequest, analyze, simulate
from repro.runtime.fingerprint import (
    code_fingerprint,
    fingerprint,
    simulation_key,
    statistics_key,
)
from repro.runtime.jobs import (
    ExperimentJob,
    RunPlan,
    SimulationJob,
    StatisticsJob,
    build_plan,
)
from repro.runtime.lifecycle import GCResult
from repro.runtime.scheduler import RunReport, run_experiments
from repro.runtime.session import (
    DEFAULT_CACHE_DIR,
    RunStats,
    RuntimeSession,
    build_session,
    configure_session,
    current_session,
    default_cache_dir,
    resolve_cache_dir,
    use_session,
)
from repro.runtime.trace_store import TraceSpec, TraceStore

__all__ = [
    "CacheBackend",
    "CacheStats",
    "CorruptEntry",
    "FilesystemBackend",
    "InMemoryBackend",
    "ProgressToken",
    "SweepCancelled",
    "DEFAULT_CACHE_DIR",
    "GCResult",
    "ResultCache",
    "default_cache_dir",
    "SimulationRequest",
    "StatisticsRequest",
    "analyze",
    "simulate",
    "code_fingerprint",
    "fingerprint",
    "simulation_key",
    "statistics_key",
    "ExperimentJob",
    "RunPlan",
    "SimulationJob",
    "StatisticsJob",
    "build_plan",
    "RunReport",
    "run_experiments",
    "RunStats",
    "RuntimeSession",
    "build_session",
    "configure_session",
    "current_session",
    "use_session",
    "resolve_cache_dir",
    "TraceSpec",
    "TraceStore",
]
