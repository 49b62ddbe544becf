"""The bounded worker pool: executing serve jobs against one shared session.

Each worker is an asyncio task that pulls jobs off the
:class:`~repro.serve.queue.RequestQueue` and executes them on a thread
(``asyncio.to_thread``), so the event loop stays responsive while numpy does
the heavy lifting.  A new job whose every input is already resident (memo
hits, built traces) is answered on the event loop instead, before it would
be queued (:meth:`WorkerPool.run_inline`), and a repeat of such an answer
is replayed while everything it read is still resident.  Every job runs
under a *job session* of the shared :class:`~repro.runtime.session.RuntimeSession`
(:meth:`~repro.runtime.session.RuntimeSession.job`): it reads and writes the
one warm ``ResultCache`` + ``TraceStore`` but counts hits/misses/stores,
sweep work and trace builds into its own ``RunStats`` — which is how each
response can report exactly what *its* request cost.  Thread-scoped session
activation (see :mod:`repro.runtime.session`) keeps concurrent jobs from
interfering.

``docs/serving.md`` describes the execution model; ``docs/runtime.md`` the
session semantics underneath it.
"""

from __future__ import annotations

import asyncio
import collections
import time

from repro.core.progress import ProgressToken, SweepCancelled
from repro.runtime import RuntimeSession, simulate, use_session
from repro.runtime.jobs import build_plan, plan_hook
from repro.runtime.scheduler import run_plan
from repro.runtime.serialization import network_result_to_dict
from repro.runtime.session import NotResident
from repro.serve.protocol import (
    ExperimentRequest,
    RunAllRequest,
    ServeRequest,
    SimulateRequest,
)
from repro.serve.queue import Job, RequestQueue

__all__ = ["REPLAY_ENTRIES", "WorkerPool", "execute_request", "run_request"]

#: Inline answers a :class:`WorkerPool` keeps for replay, least recently used
#: out first: as many as a session's trace store keeps traces.
REPLAY_ENTRIES = 128


def _declares_inputs(request: ServeRequest) -> bool:
    """Whether a warm run of ``request`` is only cache reads plus assembly:
    a ``simulate``, or an experiment that declares ``plan`` (the others
    compute from traces or analytically, and ``run_all`` runs them all).
    """
    from repro.experiments.runner import EXPERIMENTS

    if isinstance(request, SimulateRequest):
        return True
    return (
        isinstance(request, ExperimentRequest)
        and request.experiment in EXPERIMENTS
        and plan_hook(request.experiment) is not None
    )


def execute_request(
    request: ServeRequest,
    shared: RuntimeSession,
    progress: ProgressToken | None = None,
) -> tuple[dict, dict]:
    """Execute one typed request against the shared session (worker thread).

    Returns ``(result payload, per-request RunStats dict)``: the request runs
    under a fresh job session of ``shared`` (:func:`run_request`), whose
    counters are the stats.
    """
    session = shared.job(progress)
    return run_request(request, session), session.stats().as_dict()


def run_request(request: ServeRequest, session: RuntimeSession) -> dict:
    """Execute one typed request under the job ``session``; returns its payload.

    The payload is JSON-ready: experiment results via
    ``ExperimentResult.to_dict``, raw simulations via
    :func:`network_result_to_dict`.  A ``run_all`` plans every experiment in
    ``session`` and executes the merged plan as the batch CLI does
    (:func:`~repro.runtime.scheduler.run_plan`).

    The session's progress token rides down into the runtime funnels: the
    sweep checks it at cooperative checkpoints (raising
    :class:`SweepCancelled` once the last interested ticket cancelled) and
    per-layer/per-network progress events flow back through it.  ``run_all``
    additionally emits one ``experiment_done`` event with the partial result
    as each experiment completes.

    A resident-only session (:meth:`WorkerPool.run_inline`) raises
    :class:`NotResident` unless the request declares its inputs and every one
    of them is resident, so the attempt makes no cache-backend call and
    builds nothing.
    """
    from repro.experiments.runner import EXPERIMENTS, run_experiment

    if session.resident_only and not _declares_inputs(request):
        raise NotResident(request.op)
    progress = session.progress
    if progress is not None:
        progress.checkpoint()
    with use_session(session):
        if isinstance(request, ExperimentRequest):
            result = run_experiment(
                request.experiment, preset=request.resolved_preset(), seed=request.seed
            )
            payload = {"kind": "experiment", "experiment": result.to_dict()}
        elif isinstance(request, RunAllRequest):
            plan = build_plan(
                list(EXPERIMENTS), request.resolved_preset(), request.seed, session
            )
            results = {}
            for name, result in run_plan(plan, session):
                results[name] = result.to_dict()
                if progress is not None:
                    progress.emit(
                        {
                            "stage": "experiment_done",
                            "experiment": name,
                            "completed": len(results),
                            "total": len(plan.experiments),
                            "result": results[name],
                        }
                    )
            payload = {"kind": "run_all", "experiments": results}
        elif isinstance(request, SimulateRequest):
            results = simulate(request.simulation_request())
            payload = {
                "kind": "simulation",
                "results": {
                    label: network_result_to_dict(result)
                    for label, result in results.items()
                },
            }
        else:  # pragma: no cover - parse_request guards this
            raise TypeError(f"unsupported request type {type(request).__name__}")
    return payload


class WorkerPool:
    """``workers`` asyncio tasks executing queue jobs.

    ``executor`` decides *how* a job runs and defaults to
    :func:`execute_request` on a thread (``asyncio.to_thread``), keeping the
    event loop responsive while numpy works.  An ``async def`` executor is
    awaited on the loop instead — that is how the cluster coordinator
    substitutes its network-bound sharding dispatcher (``docs/cluster.md``)
    without changing the queue, ticketing, or cancellation machinery.  Either
    way the signature is ``executor(request, session, token) -> (payload,
    stats_dict)`` and a cancelled execution raises :class:`SweepCancelled`.
    Beside a thread executor, :meth:`run_inline` answers a job whose inputs
    are all resident with :func:`run_request` itself, and replays its
    recorded answers; beside an ``async def`` one nothing runs inline.
    """

    def __init__(
        self,
        queue: RequestQueue,
        session: RuntimeSession,
        workers: int = 2,
        executor=None,
    ) -> None:
        if workers < 1:
            raise ValueError("worker pool needs at least one worker")
        self.queue = queue
        self.session = session
        self.workers = workers
        self.executor = executor if executor is not None else execute_request
        self._awaits = asyncio.iscoroutinefunction(self.executor)
        self._tasks: list[asyncio.Task] = []
        #: Successful inline answers by job key: ``(reads, progress events,
        #: outcome)``, the last :data:`REPLAY_ENTRIES` used.
        self._replays: collections.OrderedDict[str, tuple[list, list[dict], dict]] = (
            collections.OrderedDict()
        )
        #: Jobs :meth:`run_inline` answered from :attr:`_replays`.
        self.replayed = 0

    async def start(self) -> None:
        """Spawn the worker tasks (idempotent)."""
        if self._tasks:
            return
        self._tasks = [
            asyncio.create_task(self._worker(index), name=f"repro-serve-worker-{index}")
            for index in range(self.workers)
        ]

    async def stop(self) -> None:
        """Drain-free shutdown: running jobs complete, queued jobs are failed.

        Workers finish the job they are currently executing (a simulation on
        a thread cannot be interrupted) but pull nothing further; every job
        still waiting in the queue is completed with an error so its tickets
        unblock instead of hanging.
        """
        self.queue.stop_workers()
        await asyncio.gather(*self._tasks, return_exceptions=True)
        self._tasks = []
        self.queue.abandon_pending()

    def run_inline(self, job: Job) -> tuple[list[dict], dict] | None:
        """Execute a new ``job`` on the event loop if all it reads is resident.

        Returns the progress events it emitted and its outcome (keyword
        arguments of :meth:`RequestQueue.finish`), or ``None`` when the job
        must be queued instead.  An abandoned attempt emits no event, and
        its job session's counters are dropped with it.

        A successful answer is kept with what its resident-only session
        read, and a later job with the same key is answered from that record
        without executing while all of it is still resident
        (:meth:`RuntimeSession.resident`): it is what executing again would
        give.  The record's events and outcome are shared, not copied.
        """
        if self._awaits:
            return None
        started = time.perf_counter()
        replay = self._replays.get(job.key)
        if replay is not None and self.session.resident(replay[0]):
            self._replays.move_to_end(job.key)
            self.replayed += 1
            job.started = started
            return replay[1], replay[2]
        progress: list[dict] = []
        job.token.on_progress = progress.append
        session = self.session.job(job.token, resident_only=True)
        try:
            payload = run_request(job.request, session)
        except NotResident:
            return None
        except Exception as error:  # noqa: BLE001 - failures become responses
            outcome = {"error": f"{type(error).__name__}: {error}"}
        else:
            outcome = {"result": payload, "stats": session.stats().as_dict()}
            self._replays[job.key] = (session.reads, progress, outcome)
            self._replays.move_to_end(job.key)
            if len(self._replays) > REPLAY_ENTRIES:
                self._replays.popitem(last=False)
        job.started = started
        return progress, outcome

    async def _worker(self, index: int) -> None:
        loop = asyncio.get_running_loop()
        while True:
            job = await self.queue.next_job()
            if job is None:
                return
            # Progress events originate on the simulating thread; marshal
            # them onto the event loop before they touch queue/ticket state.
            job.token.on_progress = (
                lambda payload, job=job: loop.call_soon_threadsafe(
                    self.queue.deliver_progress, job, payload
                )
            )
            self.queue.mark_running(job)
            try:
                if self._awaits:
                    payload, stats = await self.executor(
                        job.request, self.session, job.token
                    )
                else:
                    payload, stats = await asyncio.to_thread(
                        self.executor, job.request, self.session, job.token
                    )
            except asyncio.CancelledError:
                self.queue.finish(job, error="worker cancelled")
                raise
            except SweepCancelled:
                # Every interested ticket is gone; the checkpoint freed us.
                self.queue.finish(
                    job, error="cancelled at a cooperative checkpoint", cancelled=True
                )
            except Exception as error:  # noqa: BLE001 - failures become responses
                self.queue.finish(job, error=f"{type(error).__name__}: {error}")
            else:
                self.queue.finish(job, result=payload, stats=stats)
