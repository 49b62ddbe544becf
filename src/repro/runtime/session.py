"""The runtime session: cache + trace store + stats, its builder, the active session.

Experiments do not thread runtime handles through their signatures — they ask
for :func:`current_session` and the runtime configures it once per process
(the CLI at startup, the scheduler in each pool worker, tests through
:func:`use_session`).  The default session uses an
in-memory cache, so importing ``repro`` and calling ``fig9.run()`` never
touches the filesystem.

Session activation is *thread-scoped*: :func:`use_session` installs a session
on the calling thread only, while :func:`configure_session` replaces the
process-wide default every thread falls back to.  This is what lets the serve
layer (:mod:`repro.serve`) execute concurrent jobs on worker threads, each
under its own per-request stats view of one shared session.  See
``docs/runtime.md`` for the full session model.
"""

from __future__ import annotations

import contextlib
import os
import threading
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.progress import ProgressToken
from repro.core.sweep import SweepStats
from repro.runtime.cache import CacheStats, ResultCache
from repro.runtime.trace_store import TraceStore

__all__ = [
    "DEFAULT_CACHE_DIR",
    "RunStats",
    "RuntimeSession",
    "build_session",
    "configure_session",
    "current_session",
    "default_cache_dir",
    "resolve_cache_dir",
    "use_session",
]

#: Fallback on-disk cache location of the CLI when ``REPRO_CACHE_DIR`` is
#: unset.  Deliberately *not* resolved against the environment here: the env
#: var is read at call time by :func:`default_cache_dir`, so setting it after
#: ``repro`` is imported (tests, embedding apps, serve wrappers) still works.
DEFAULT_CACHE_DIR = Path("~/.cache/repro-pragmatic")


def default_cache_dir() -> Path:
    """The CLI's default cache directory, resolving ``REPRO_CACHE_DIR`` *now*."""
    return Path(os.environ.get("REPRO_CACHE_DIR") or DEFAULT_CACHE_DIR)


@dataclass
class RunStats:
    """Aggregate statistics of one run (merged across pool workers).

    Every field is an event counter, so :meth:`merge` is a plain sum.
    """

    cache: CacheStats = field(default_factory=CacheStats)
    sweep: SweepStats = field(default_factory=SweepStats)
    traces_built: int = 0
    traces_reused: int = 0

    def merge(self, other: "RunStats | dict") -> None:
        """Add ``other``'s counters (a ``RunStats`` or its wire dict) to these."""
        if isinstance(other, RunStats):
            other = other.as_dict()
        self.cache.merge(other.get("cache", {}))
        self.sweep.merge(other.get("sweep", {}))
        self.traces_built += other.get("traces_built", 0)
        self.traces_reused += other.get("traces_reused", 0)

    def as_dict(self) -> dict:
        return {
            "cache": self.cache.as_dict(),
            "sweep": self.sweep.as_dict(),
            "traces_built": self.traces_built,
            "traces_reused": self.traces_reused,
        }

    def summary(self) -> str:
        """One-line, human-readable rendering for run summaries."""
        return (
            f"cache {self.cache.hits} hits / {self.cache.misses} misses / "
            f"{self.cache.stores} stores / {self.cache.errors} errors; "
            f"simulated {self.sweep.configs_simulated} configs "
            f"({self.sweep.drain_groups_computed} drain groups); "
            f"traces {self.traces_built} built / {self.traces_reused} reused"
        )


class RuntimeSession:
    """Shared state of one experiment-execution session.

    ``progress`` optionally carries a :class:`~repro.core.progress.ProgressToken`
    through the session: the execution funnels (:func:`repro.runtime.engine.simulate`
    / :func:`~repro.runtime.engine.analyze`) and the experiment runner read it
    from the *active* session, check it at cooperative checkpoints (raising
    :class:`~repro.core.progress.SweepCancelled` once cancelled) and emit
    per-layer/per-network progress events through it.  Attach tokens to
    short-lived per-request sessions (the serve layer's stats views), never to
    a session shared by concurrent jobs.
    """

    def __init__(
        self,
        cache: ResultCache | None = None,
        traces: TraceStore | None = None,
        progress: "ProgressToken | None" = None,
    ) -> None:
        self.cache = cache if cache is not None else ResultCache()
        self.traces = traces if traces is not None else TraceStore()
        self.sweep_stats = SweepStats()
        self.progress = progress

    def trace(self, spec) -> object:
        """The calibrated trace for ``spec``, via the shared store."""
        return self.traces.get(spec)

    def stats(self) -> RunStats:
        """Snapshot of this session's counters."""
        stats = RunStats()
        stats.cache.merge(self.cache.stats)
        stats.sweep.merge(self.sweep_stats)
        stats.traces_built = self.traces.builds
        stats.traces_reused = self.traces.reuses
        return stats


#: The process-wide default session (memory-cached); threads without an
#: explicit :func:`use_session` override fall back to it.
_DEFAULT = RuntimeSession()

#: Per-thread stack of :func:`use_session` overrides.
_LOCAL = threading.local()


def current_session() -> RuntimeSession:
    """The active session: this thread's override, or the process default."""
    stack = getattr(_LOCAL, "stack", None)
    if stack:
        return stack[-1]
    return _DEFAULT


def resolve_cache_dir(
    cache_dir: str | Path | None = None,
    no_cache: bool = False,
    cache_backend: object | None = None,
) -> str | Path | None:
    """The result-cache directory a CLI run uses.

    ``--no-cache`` uses none.  With ``--cache-backend`` the results go to the
    backend and only an explicit ``--cache-dir`` is passed on (it anchors
    nothing there), so the default directory is not conjured.  Otherwise
    ``--cache-dir`` or :func:`default_cache_dir`.
    """
    if no_cache:
        return None
    if cache_backend is not None:
        return cache_dir
    return cache_dir or default_cache_dir()


def build_session(
    cache_dir: str | Path | None = None,
    no_cache: bool = False,
    cache_backend: object | None = None,
) -> RuntimeSession:
    """A fresh session over the result cache these flags select.

    The one storage rule of every entry point — :func:`configure_session`,
    :func:`~repro.runtime.scheduler.run_experiments`, the serve and cluster
    services and ``serve --worker``.  ``cache_dir`` selects the on-disk
    cache (a :class:`~repro.runtime.backends.FilesystemBackend`, safe to
    share between processes); ``None`` keeps it in memory.  ``no_cache``
    keeps it in memory whatever the other flags say: nothing persists, but
    a run's jobs still hand results to each other.  ``cache_backend``
    replaces ``cache_dir`` for the *result* tier: a ``remote://host:port``
    spec or a :class:`~repro.runtime.backends.CacheBackend` instance,
    resolved by :func:`repro.cachenet.backend.resolve_backend`
    (``docs/cachenet.md``).  Every session gets its own trace store;
    calibrations come from :func:`repro.nn.calibration.calibrate_network`'s
    per-process memo and are never persisted.
    """
    if no_cache:
        cache = ResultCache()
    elif cache_backend is not None:
        from repro.cachenet.backend import resolve_backend

        cache = ResultCache(backend=resolve_backend(cache_backend))
    else:
        cache = ResultCache(directory=cache_dir)
    return RuntimeSession(cache=cache)


def configure_session(
    cache_dir: str | Path | None = None,
    no_cache: bool = False,
    cache_backend: object | None = None,
) -> RuntimeSession:
    """Install (and return) a fresh process-wide default session.

    The arguments select storage exactly as in :func:`build_session`.
    """
    global _DEFAULT
    _DEFAULT = build_session(cache_dir, no_cache, cache_backend)
    return _DEFAULT


@contextlib.contextmanager
def use_session(session: RuntimeSession):
    """Temporarily make ``session`` the active session *for this thread*.

    Overrides nest; concurrent threads (the serve worker pool) can each hold
    a different active session without interfering.
    """
    stack = getattr(_LOCAL, "stack", None)
    if stack is None:
        stack = _LOCAL.stack = []
    stack.append(session)
    try:
        yield session
    finally:
        stack.pop()

