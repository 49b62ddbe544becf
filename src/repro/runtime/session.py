"""The runtime session: cache + trace store + stats, its builder, the active session.

Experiments do not thread runtime handles through their signatures — they ask
for :func:`current_session` and the runtime configures it once per process
(the CLI at startup, the scheduler in each pool worker, tests through
:func:`use_session`).  The default session uses an
in-memory cache, so importing ``repro`` and calling ``fig9.run()`` never
touches the filesystem.

A session is the one place that counts: cache reads and writes, trace
fetches and sweeps go through its methods into its own :class:`RunStats`,
and the stores keep no counters.  Every unit of work (a serve request, a
cluster or pool job, a batch run) runs under a :meth:`RuntimeSession.job`
session and reports its :meth:`~RuntimeSession.stats`.

Session activation is *thread-scoped*: :func:`use_session` installs a session
on the calling thread only, while :func:`configure_session` replaces the
process-wide default every thread falls back to.  This is what lets the serve
layer (:mod:`repro.serve`) execute concurrent jobs on worker threads, each
under its own job session.  See ``docs/runtime.md`` for the full session
model.
"""

from __future__ import annotations

import contextlib
import os
import threading
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.progress import ProgressToken
from repro.core.sweep import SweepStats, sweep_network
from repro.runtime.backends import CorruptEntry
from repro.runtime.cache import CacheStats, ResultCache
from repro.runtime.trace_store import TraceSpec, TraceStore

__all__ = [
    "DEFAULT_CACHE_DIR",
    "NotResident",
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


class NotResident(Exception):
    """A resident-only session needed more than this process holds."""


class RuntimeSession:
    """The stores a unit of work uses, which :meth:`job` sessions share, and
    the counters of what this session's calls cost (:meth:`stats`).

    ``progress`` optionally carries a :class:`~repro.core.progress.ProgressToken`
    through the session: the execution funnels (:func:`repro.runtime.engine.simulate`
    / :func:`~repro.runtime.engine.analyze`) and the experiment runner read it
    from the *active* session, check it at cooperative checkpoints (raising
    :class:`~repro.core.progress.SweepCancelled` once cancelled) and emit
    per-layer/per-network progress events through it.  Attach tokens to
    short-lived job sessions, never to a session shared by concurrent jobs.

    A ``resident_only`` session raises :class:`NotResident` instead of a
    miss, a backend read, a due LRU touch, a store, a probe or a trace build,
    and records in :attr:`reads` what it did read; :meth:`resident` tells
    whether all of that is still resident.
    """

    def __init__(
        self,
        cache: ResultCache | None = None,
        traces: TraceStore | None = None,
        progress: "ProgressToken | None" = None,
        resident_only: bool = False,
    ) -> None:
        self.cache = cache if cache is not None else ResultCache()
        self.traces = traces if traces is not None else TraceStore()
        self.progress = progress
        self.resident_only = resident_only
        #: A resident-only session's reads, in order: the ``(key, kind)`` of
        #: each lookup it answered and each :class:`TraceSpec` it fetched.
        self.reads: list[tuple[str, str] | TraceSpec] = []
        self._stats = RunStats()

    def job(
        self, progress: "ProgressToken | None" = None, resident_only: bool = False
    ) -> "RuntimeSession":
        """A session with fresh counters over this one's cache and trace store."""
        return RuntimeSession(self.cache, self.traces, progress, resident_only)

    def lookup(self, key: str, kind: str = "network_result") -> dict | None:
        """The payload under ``key``, or ``None``; a corrupt entry is a miss and an error."""
        counters = self._stats.cache
        try:
            payload = self.cache.get(key, kind, resident_only=self.resident_only)
        except CorruptEntry:
            counters.misses += 1
            counters.errors += 1
            return None
        if payload is not None:
            counters.hits += 1
            if self.resident_only:
                self.reads.append((key, kind))
        elif self.resident_only:
            raise NotResident(key)
        else:
            counters.misses += 1
        return payload

    def store(self, key: str, payload: dict, kind: str = "network_result") -> None:
        """Store ``payload`` under ``key``; a failed backend write is a store and
        an error, and the memo still serves the entry to this process."""
        if self.resident_only:
            raise NotResident(key)
        self._stats.cache.stores += 1
        try:
            self.cache.put(key, payload, kind)
        except OSError:
            self._stats.cache.errors += 1

    def contains(self, key: str, kind: str = "network_result") -> bool:
        """Whether ``key`` holds a valid entry (run planning), counting no hit
        or miss; a corrupt entry is dropped, counted as an error and absent."""
        if self.resident_only:
            raise NotResident(key)
        try:
            return self.cache.contains(key, kind)
        except CorruptEntry:
            self._stats.cache.errors += 1
            return False

    def trace(self, spec) -> object:
        """The calibrated trace for ``spec``, built only if the store lacks it."""
        trace, built = self.traces.fetch(spec, build=not self.resident_only)
        if trace is None:
            raise NotResident(spec)
        if self.resident_only:
            self.reads.append(spec)
        if built:
            self._stats.traces_built += 1
        else:
            self._stats.traces_reused += 1
        return trace

    def resident(self, reads) -> bool:
        """Whether every one of ``reads`` (a resident-only session's
        :attr:`reads`) is still resident, through the same memo and trace-store
        calls a resident-only session makes, with the same LRU effects."""
        for read in reads:
            if isinstance(read, TraceSpec):
                if self.traces.fetch(read, build=False)[0] is None:
                    return False
            elif self.cache.get(*read, resident_only=True) is None:
                return False
        return True

    def sweep(self, trace, configs: dict, sampling) -> dict:
        """:func:`~repro.core.sweep.sweep_network` of ``configs`` over ``trace``,
        counted in this session and checked against its progress token."""
        return sweep_network(
            trace, configs, sampling=sampling, stats=self._stats.sweep, progress=self.progress
        )

    def stats(self) -> RunStats:
        """Snapshot of this session's counters."""
        snapshot = RunStats()
        snapshot.merge(self._stats)
        return snapshot


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

