"""Execution of run plans, serially in-process or over a process pool.

The scheduler executes a :class:`~repro.runtime.jobs.RunPlan`, whose
simulation and statistics jobs are merged across experiments so each
``(trace, sampling)`` is swept once.  Both modes run the same jobs through
one dispatcher (:func:`_run_job`):

* :func:`run_plan` executes it in-process, experiment by experiment: the
  jobs an experiment depends on that have not run yet, then the experiment,
  which finds its inputs as warm hits in the session cache.  ``jobs <= 1``,
  the serial fallback and serve's ``run_all`` use it;
* ``jobs > 1`` executes it as a dependency wavefront over a
  ``concurrent.futures`` process pool: each experiment job is submitted as
  soon as the jobs it depends on have populated the shared cache, and
  results are reassembled in the caller's order so a parallel run is
  indistinguishable from a serial one.

A job hands its results to a later one through the cache, so every run
executes the same plan whatever it persists.  The pool workers mount the
session's persistent store or, without one (``--no-cache``, a library
session), a temporary directory the run removes afterwards.  If the
platform cannot create a process pool at all, the run silently degrades to
serial execution and says so in the report.

``docs/runtime.md`` describes the scheduler's place in the job model;
``docs/architecture.md`` walks a request through the whole stack.
"""

from __future__ import annotations

import concurrent.futures
import multiprocessing
import tempfile
import time
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

from repro.experiments.base import ExperimentResult, Preset, get_preset
from repro.runtime.cache import ResultCache
from repro.runtime.engine import analyze, simulate
from repro.runtime.jobs import (
    ExperimentJob,
    RunPlan,
    SimulationJob,
    StatisticsJob,
    build_plan,
)
from repro.runtime.session import (
    RunStats,
    RuntimeSession,
    build_session,
    configure_session,
    current_session,
    use_session,
)

__all__ = ["RunReport", "run_experiments", "run_plan"]


@dataclass
class RunReport:
    """Everything a run produced: results, statistics, and how it executed."""

    results: dict[str, ExperimentResult]
    stats: RunStats
    preset: str
    seed: int
    jobs: int
    simulation_jobs: int
    planned_cache_hits: int
    elapsed_seconds: float
    mode: str  # "parallel" | "serial" | "serial-fallback"
    statistics_jobs: int = 0
    #: :meth:`~repro.runtime.cache.ResultCache.usage` of the run's cache when
    #: it is persistent (a directory or a network tier), ``None`` otherwise.
    cache: dict | None = None

    def summary(self) -> str:
        """Multi-line, human-readable run summary (printed by the CLI)."""
        cache = self.cache
        if cache is None:
            cache_line = "cache dir: (memory only)"
        else:
            where = (
                f"cache dir: {cache['directory']}" if cache["directory"] is not None
                else f"cache backend: {cache['backend']}"
            )
            cache_line = f"{where}  ({cache['entries']} entries, {cache['disk_bytes']} bytes)"
        lines = [
            "== run summary ==",
            f"experiments: {len(self.results)}  preset: {self.preset}  seed: {self.seed}",
            f"mode: {self.mode}  jobs: {self.jobs}  "
            f"simulation jobs: {self.simulation_jobs}  "
            f"statistics jobs: {self.statistics_jobs}  "
            f"planned cache hits: {self.planned_cache_hits}",
            f"{self.stats.summary()}",
            cache_line,
            f"elapsed: {self.elapsed_seconds:.1f}s",
        ]
        return "\n".join(lines)


# --------------------------------------------------------------------- workers
def _init_worker(cache_dir: str | None, cache_backend: str | None = None) -> None:
    """Pool initializer: give the worker process its own configured session."""
    configure_session(cache_dir=cache_dir, cache_backend=cache_backend)


def _run_job(
    job: SimulationJob | StatisticsJob | ExperimentJob, session: RuntimeSession
) -> ExperimentResult | None:
    """Execute one plan job in ``session``; only experiment jobs return a result."""
    if isinstance(job, SimulationJob):
        simulate(job.request, session=session)
        return None
    if isinstance(job, StatisticsJob):
        analyze(job.request, session=session)
        return None
    from repro.experiments.runner import run_experiment

    with use_session(session):
        return run_experiment(job.experiment, preset=job.preset, seed=job.seed)


def _execute_job(
    job: SimulationJob | StatisticsJob | ExperimentJob,
) -> tuple[str, ExperimentResult | None, dict]:
    """Run one job in a job session of the worker's; returns (job id, result, stats)."""
    session = current_session().job()
    result = _run_job(job, session)
    return job.job_id, result, session.stats().as_dict()


# ------------------------------------------------------------------ execution
def run_plan(
    plan: RunPlan, session: RuntimeSession
) -> Iterator[tuple[str, ExperimentResult]]:
    """Execute ``plan`` in ``session`` experiment by experiment, yielding each
    ``(name, result)``: an experiment runs right after its unrun dependencies."""
    pending = {job.job_id: job for job in (*plan.simulations, *plan.statistics)}
    for job in plan.experiments:
        for dep in job.deps:
            if dep in pending:
                _run_job(pending.pop(dep), session)
        yield job.experiment, _run_job(job, session)


def _run_parallel(
    plan: RunPlan,
    jobs: int,
    session: RuntimeSession,
    stats: RunStats,
    cache_backend: str | None = None,
) -> dict[str, ExperimentResult]:
    """Dependency-wavefront execution over a process pool.

    The workers mount the session's persistent store (its directory, or
    ``cache_backend``).  Without one they share a run-scoped temporary
    directory instead, removed when the pool is done.
    """
    if not session.cache.persistent:
        with tempfile.TemporaryDirectory(
            prefix="repro-run-cache-", ignore_cleanup_errors=True
        ) as scratch:
            shared = RuntimeSession(cache=ResultCache(directory=scratch), traces=session.traces)
            return _run_parallel(plan, jobs, shared, stats)
    cache_dir = str(session.cache.directory) if session.cache.directory else None
    context = multiprocessing.get_context("spawn")
    results: dict[str, ExperimentResult] = {}
    waiting = [*plan.simulations, *plan.statistics, *plan.experiments]
    done_ids: set[str] = set()

    try:
        pool = concurrent.futures.ProcessPoolExecutor(
            max_workers=jobs,
            mp_context=context,
            initializer=_init_worker,
            initargs=(cache_dir, cache_backend),
        )
    except (OSError, PermissionError) as error:
        # Normalize "cannot create a pool at all" to the executor failure the
        # caller handles with the serial fallback.
        raise concurrent.futures.BrokenExecutor(
            f"could not create process pool: {error}"
        ) from error
    try:
        running: dict[concurrent.futures.Future, str] = {}
        while waiting or running:
            ready = [job for job in waiting if all(dep in done_ids for dep in job.deps)]
            waiting = [job for job in waiting if not all(dep in done_ids for dep in job.deps)]
            for job in ready:
                running[pool.submit(_execute_job, job)] = job.job_id
            if not running:
                raise RuntimeError(
                    "run plan deadlocked: jobs "
                    f"{[job.job_id for job in waiting]} have unsatisfiable dependencies"
                )
            finished, _ = concurrent.futures.wait(
                running, return_when=concurrent.futures.FIRST_COMPLETED
            )
            for future in finished:
                running.pop(future)
                job_id, result, job_stats = future.result()
                done_ids.add(job_id)
                stats.merge(job_stats)
                if result is not None:
                    results[job_id.removeprefix("exp:")] = result
    except BaseException:
        # A failing job must fail the run *now*: drop everything still queued
        # and don't wait for sibling futures already executing — they write
        # only to the shared cache, which tolerates abandoned writers.
        pool.shutdown(wait=False, cancel_futures=True)
        raise
    pool.shutdown(wait=True)
    return results


def run_experiments(
    names: list[str],
    preset: str | Preset = "fast",
    seed: int = 0,
    jobs: int = 1,
    cache_dir: str | Path | None = None,
    no_cache: bool = False,
    cache_backend: str | None = None,
) -> RunReport:
    """Run experiments through the runtime and reassemble results deterministically.

    Parameters
    ----------
    names:
        Experiment ids, in the order results should be reported.
    preset, seed:
        Forwarded to every experiment.
    jobs:
        Worker processes; ``1`` (the default) executes the plan serially
        in-process.
    cache_dir:
        Directory of the shared on-disk result cache; when neither ``cache_dir``
        nor ``no_cache`` is given the run uses the stores of the caller's
        active session (so a cache installed with
        :func:`~repro.runtime.session.configure_session` is honored) under a
        job session of its own: the run's counters are reported in
        :attr:`RunReport.stats` only, never added to the caller's session.
    no_cache:
        Keep results in memory: nothing persists, and the run's jobs still
        hand results to each other.
    cache_backend:
        ``--cache-backend`` spec (``remote://host:port``) selecting the
        network cache tier instead of ``cache_dir``; resolved by
        :func:`repro.cachenet.backend.resolve_backend` and re-resolved in
        every pool worker (a backend instance cannot cross a process spawn).
    """
    preset = get_preset(preset)
    started = time.perf_counter()
    if no_cache or cache_dir is not None or cache_backend is not None:
        session = build_session(cache_dir, no_cache, cache_backend)
    else:
        session = current_session().job()
    stats = RunStats()
    mode = "serial"
    plan = build_plan(names, preset, seed, session)
    if jobs > 1:
        try:
            unordered = _run_parallel(plan, jobs, session, stats, cache_backend)
            mode = "parallel"
        except concurrent.futures.BrokenExecutor:
            # The platform cannot sustain a worker pool (spawn blocked, workers
            # killed): degrade gracefully.  Genuine exceptions raised *by* an
            # experiment or simulation propagate to the caller instead.
            stats = RunStats()  # discard partial worker counters
            mode = "serial-fallback"
    if mode != "parallel":
        unordered = dict(run_plan(plan, session))
    results = {name: unordered[name] for name in names}
    stats.merge(session.stats())
    return RunReport(
        results=results,
        stats=stats,
        preset=preset.name,
        seed=seed,
        jobs=jobs,
        simulation_jobs=len(plan.simulations),
        planned_cache_hits=plan.planned_hits,
        elapsed_seconds=time.perf_counter() - started,
        mode=mode,
        statistics_jobs=len(plan.statistics),
        cache=session.cache.usage() if session.cache.persistent else None,
    )
