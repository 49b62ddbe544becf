"""The cluster coordinator: shard planned jobs across worker processes.

:class:`ClusterService` speaks the *unchanged* public serve protocol to
clients — it **is** an :class:`~repro.serve.service.ExperimentService`, with
the local thread executor swapped for a sharding dispatcher.  One client
request flows through the coordinator like this (``docs/cluster.md`` walks
the full lifecycle):

1. the request enters the inherited queue (coalescing identical in-flight
   client requests exactly as a single serve process would);
2. the executor plans it with the existing job graph
   (:func:`repro.runtime.jobs.build_plan`), pruning units the shared cache
   already holds;
3. each primitive simulation/statistics job is dispatched to a worker chosen
   by rendezvous hash of its content key (:mod:`repro.cluster.hashing`) —
   stable shards keep per-worker trace stores and memos warm, and identical
   jobs needed by concurrent client requests meet in one worker's queue,
   which coalesces them;
4. once an experiment's dependency jobs land, its assembly
   (``run_experiment``) is dispatched at a raised priority — every input is
   a warm cache hit by then, so assembly is cheap presentation logic;
5. per-worker ``RunStats`` counters come back on each ``done`` event and are
   summed; streamed progress events hop worker → coordinator → client, and a
   client's cancel cancels the task the job's work runs in (through
   :attr:`~repro.core.progress.ProgressToken.on_cancel`), which withdraws
   the job's worker tickets.

The coordinator mounts the workers' shared store through the same session
builder they use (:func:`~repro.runtime.session.build_session`): its planning
probes see their stores, and its ``stats`` op reports that store's gauges
once, in the ``cache`` section.

Worker death is handled by requeueing: a dispatch whose worker connection
drops walks its rendezvous preference order onto the next live worker.
Everything the dead worker completed is already in the shared cache backend,
so a requeued job only recomputes the remainder.

Membership is **elastic** (``docs/cluster.md``): a background monitor task
auto-respawns spawned workers that die (relaunch + handshake under the same
worker id, so subsequent rendezvous walks see the replacement).  Pending
dispatches need no special handling on membership changes: every dispatch
re-walks the rendezvous rank over the *currently* live links, which is
exactly the reshuffle.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import secrets
import shutil
import sys
import tempfile
from pathlib import Path

from repro.core.progress import SweepCancelled
from repro.runtime import RunStats
from repro.runtime.jobs import build_plan
from repro.serve.cli import reap, spawn_server
from repro.serve.client import ServeClient
from repro.serve.protocol import (
    ExperimentRequest,
    RunAllRequest,
    SimulateRequest,
)
from repro.serve.service import ExperimentService
from repro.cluster.hashing import rendezvous_rank
from repro.cluster.plan import SimulationJobRequest, StatisticsJobRequest

__all__ = ["ClusterError", "WorkerDied", "WorkerLink", "ClusterService"]

#: Seconds allowed for a spawned worker to print its listening endpoint.
SPAWN_TIMEOUT = 60.0

#: Seconds allowed for the auth + ``stats`` handshake with one worker.
HANDSHAKE_TIMEOUT = 30.0

#: Per-worker bound on the (concurrent) stats fan-out of the ``stats`` op.
STATS_TIMEOUT = 5.0

#: Poll cadence of the membership monitor (death detection + respawn).
MONITOR_INTERVAL = 0.25

#: A dispatched job gives up after this many worker deaths (each one requeues).
MAX_FLIGHT_REQUEUES = 8

#: Bound on client jobs the coordinator plans and dispatches concurrently
#: (the inherited pool size).
CONCURRENT_REQUESTS = 4


class ClusterError(RuntimeError):
    """A cluster-level failure (no live workers, handshake failure, ...)."""


class WorkerDied(ClusterError):
    """The worker connection dropped while a job was dispatched to it."""


class _JobFailed(ClusterError):
    """A worker reported a genuine job failure (not a death)."""


class WorkerLink:
    """Coordinator-side handle of one worker: connection, identity, process."""

    def __init__(
        self,
        worker_id: str,
        host: str,
        port: int,
        client: ServeClient,
        info: dict,
        process: asyncio.subprocess.Process | None = None,
    ) -> None:
        self.worker_id = worker_id
        self.host = host
        self.port = port
        self.client = client
        self.info = info
        self.process = process
        self.dispatched = 0
        self.completed = 0

    @property
    def alive(self) -> bool:
        return not self.client.closed.is_set()

    @property
    def pid(self) -> int | None:
        return self.info.get("pid")

    def describe(self) -> dict:
        return {
            "worker": self.worker_id,
            "endpoint": f"{self.host}:{self.port}",
            "pid": self.pid,
            "alive": self.alive,
            "spawned": self.process is not None,
            "slots": self.info.get("slots"),
            "dispatched": self.dispatched,
            "completed": self.completed,
        }

    async def close(self) -> None:
        with contextlib.suppress(Exception):
            await self.client.close()
        if self.process is not None:
            await reap(self.process)


def _describe(error: BaseException) -> str:
    """``"<Type>: <message>"`` of ``error``, as the ``stats`` op reports it."""
    return f"{type(error).__name__}: {error}"


class _JobContext:
    """Cluster-side execution state of one client job."""

    def __init__(self, token) -> None:
        self.token = token
        self.stats = RunStats()
        self.planned_units = 0
        self.planned_hits = 0
        #: Summed worker-side execution seconds of this job's dispatches — the
        #: ``timings`` blocks the workers report, forwarded so a client sees
        #: the cluster-wide compute its request cost (not just coordinator
        #: wall time, which overlaps dispatches).
        self.worker_execution_seconds = 0.0

    def credit(self, done: dict) -> None:
        """Fold a worker ``done`` event's stats and timings into this job.

        A coalesced worker ticket shares a job that another ticket created,
        and that ticket's client job is credited instead, so cluster totals
        never count one execution twice.
        """
        if done.get("coalesced"):
            return
        stats = done.get("stats")
        if stats:
            self.stats.merge(stats)
        timings = done.get("timings") or {}
        self.worker_execution_seconds += timings.get("execution_seconds", 0.0)


class ClusterService(ExperimentService):
    """Serve-protocol front-end that shards execution across worker processes.

    Parameters
    ----------
    spawn_workers:
        Number of local worker processes to spawn on :meth:`start` (each is
        ``python -m repro serve --tcp 127.0.0.1:0 --worker`` sharing
        ``cache_dir``).
    connect:
        ``(host, port)`` endpoints of pre-started workers to attach
        (``repro cluster --connect``); they must share a cache backend with
        each other for cross-worker reuse to function.
    cache_dir:
        Shared cache directory.  ``None`` creates a private temporary
        directory (removed on :meth:`stop`, or when :meth:`start` fails) —
        correct for a self-contained local cluster, while a real deployment
        points every worker at one shared path.
    worker_processes:
        ``--workers`` passed to each spawned worker (its own job-execution
        bound).
    worker_token:
        Shared secret every worker demands; generated when omitted.
        Spawned workers receive it via ``REPRO_SERVE_TOKEN`` in their
        environment, never on their command line.
    auth_token:
        Optional client-facing shared secret (same semantics as
        ``repro serve --auth-token``).
    cache_backend:
        Optional ``--cache-backend`` spec (``remote://host:port``, see
        ``docs/cachenet.md``) forwarded to every spawned worker and used for
        the coordinator's own planning session.  The result tier then lives
        in the network cache instead of the shared directory; ``cache_dir``
        then anchors nothing, although spawned workers still receive it.
    """

    def __init__(
        self,
        spawn_workers: int = 0,
        connect: list[tuple[str, int]] | None = None,
        cache_dir: str | Path | None = None,
        worker_processes: int = 2,
        worker_token: str | None = None,
        auth_token: str | None = None,
        cache_backend: str | None = None,
    ) -> None:
        if spawn_workers < 0:
            raise ValueError("spawn_workers must be non-negative")
        if spawn_workers == 0 and not connect:
            raise ValueError("a cluster needs spawned workers and/or --connect endpoints")
        self._own_cache_dir = cache_dir is None
        if cache_dir is None:
            cache_dir = tempfile.mkdtemp(prefix="repro-cluster-cache-")
        # The coordinator's own session exists to *plan* (cache probes prune
        # warm units) and must see the workers' stores: same shared backend.
        super().__init__(
            cache_dir=cache_dir,
            cache_backend=cache_backend,
            workers=CONCURRENT_REQUESTS,
            auth_token=auth_token,
            executor=self._execute_cluster,
        )
        self.cache_dir = Path(cache_dir)
        self.cache_backend = cache_backend
        self.spawn_workers = spawn_workers
        self.connect_endpoints = list(connect or [])
        self.worker_processes = worker_processes
        self.worker_token = worker_token or secrets.token_hex(16)
        self.links: dict[str, WorkerLink] = {}
        #: Worker-ticket cancellations sent by cancelled dispatches.
        self._withdrawals: set[asyncio.Task] = set()
        self._monitor_task: asyncio.Task | None = None
        #: Cluster-level counters surfaced by the ``stats`` op: planned jobs
        #: dispatched (one per job, however often it requeues) and requeues.
        self.flights_dispatched = 0
        self.flights_requeued = 0
        self.workers_respawned = 0
        self.respawn_failures = 0
        #: ``"<Type>: <message>"`` of the latest failed respawn, or ``None``.
        self.last_respawn_error: str | None = None

    # ----------------------------------------------------------------- lifecycle
    async def start(self) -> None:
        first_start = not self.links
        await super().start()
        if first_start:
            spawned = [
                self._spawn_worker(f"w{index}") for index in range(self.spawn_workers)
            ]
            attached = [
                self._handshake(f"c{index}", host, port, process=None)
                for index, (host, port) in enumerate(self.connect_endpoints)
            ]
            outcomes = await asyncio.gather(*spawned, *attached, return_exceptions=True)
            failures = [o for o in outcomes if isinstance(o, BaseException)]
            for link in outcomes:
                if isinstance(link, WorkerLink):
                    self.links[link.worker_id] = link
            if failures:
                # A partial fleet must not leak: stop closes (and terminates)
                # every worker that *did* come up, and removes a private
                # cache directory, before the failure surfaces.
                await self.stop()
                raise failures[0]
            self._monitor_task = asyncio.create_task(
                self._monitor(), name="repro-cluster-monitor"
            )

    async def stop(self) -> None:
        await super().stop()  # drain running client jobs first: they need links
        if self._monitor_task is not None:
            self._monitor_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._monitor_task
            self._monitor_task = None
        for task in list(self._withdrawals):
            task.cancel()
        if self._withdrawals:
            await asyncio.gather(*self._withdrawals, return_exceptions=True)
        await asyncio.gather(*(link.close() for link in self.links.values()))
        if self._own_cache_dir:
            shutil.rmtree(self.cache_dir, ignore_errors=True)

    async def _spawn_worker(self, worker_id: str) -> WorkerLink:
        """Start one local worker process and complete the handshake."""
        env = dict(os.environ)
        env["REPRO_SERVE_TOKEN"] = self.worker_token
        argv = [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--tcp",
            "127.0.0.1:0",
            "--worker",
            "--cache-dir",
            str(self.cache_dir),
            "--workers",
            str(self.worker_processes),
        ]
        if self.cache_backend is not None:
            argv.extend(["--cache-backend", str(self.cache_backend)])
        try:
            process, host, port = await spawn_server(argv, SPAWN_TIMEOUT, env)
        except ChildProcessError as error:
            raise ClusterError(f"worker {worker_id} {error}") from error
        try:
            return await self._handshake(worker_id, host, port, process)
        except BaseException:
            await reap(process)
            raise

    async def _handshake(
        self,
        worker_id: str,
        host: str,
        port: int,
        process: asyncio.subprocess.Process | None,
    ) -> WorkerLink:
        """Authenticate, then check by one ``stats`` roundtrip that the peer
        is a worker: one whose ``job_ops`` lack ``sim_job`` is refused."""

        async def shake() -> WorkerLink:
            client = await ServeClient.connect(host, port, auth_token=self.worker_token)
            try:
                stats = await client.stats()
                if "sim_job" not in stats.get("job_ops", ()):
                    raise ClusterError(
                        f"{host}:{port} is not a cluster worker: "
                        f"{stats.get('error') or 'it accepts no sim_job op'}"
                    )
            except BaseException:
                await client.close()
                raise
            info = {
                "pid": stats["pid"],
                "slots": stats["workers"],
                "cache_dir": stats["cache"]["directory"],
            }
            return WorkerLink(worker_id, host, port, client, info, process)

        try:
            return await asyncio.wait_for(shake(), HANDSHAKE_TIMEOUT)
        except asyncio.TimeoutError as error:
            raise ClusterError(f"worker {host}:{port} handshake timed out") from error

    # --------------------------------------------------------------- membership
    async def _monitor(self) -> None:
        """Elastic-membership loop: respawn dead spawned workers.

        Only *spawned* links are managed — an attached (``--connect``) worker
        belongs to whoever started it, so its death merely removes it from
        the live set (its jobs requeue onto survivors via the rendezvous
        walk).
        """
        while True:
            await asyncio.sleep(MONITOR_INTERVAL)
            for worker_id, link in list(self.links.items()):
                if link.process is None or self.links.get(worker_id) is not link:
                    continue
                if not link.alive:
                    await self._replace(worker_id, link)

    async def _replace(self, worker_id: str, old: WorkerLink) -> None:
        """Close ``old`` and install a freshly spawned worker under its id.

        The replacement goes through the normal handshake, so from the
        routing layer's point of view a respawned worker is
        indistinguishable from a new one: the next rendezvous walk simply
        sees a live link under the same id again.
        """
        await old.close()
        try:
            fresh = await self._spawn_worker(worker_id)
        except Exception as error:
            # Leave the dead link in place: it keeps the loss visible in
            # stats and the monitor retries on its next pass.
            self.respawn_failures += 1
            self.last_respawn_error = _describe(error)
            return
        if self.links.get(worker_id) is old:
            self.links[worker_id] = fresh
            self.workers_respawned += 1
        else:  # pragma: no cover - lost a replace race; keep the winner
            await fresh.close()

    # ------------------------------------------------------------------ routing
    def live_links(self) -> list[WorkerLink]:
        return [link for link in self.links.values() if link.alive]

    # ----------------------------------------------------------------- dispatch
    async def _dispatch(
        self, ctx: _JobContext, key: str, message: dict, priority: int
    ) -> dict:
        """Run one planned job on the workers; returns its ``done`` event.

        The job goes to the first live worker in the rendezvous rank of
        ``key``, so identical jobs of concurrent client jobs meet in one
        worker's queue, which coalesces them, raises a queued job's priority
        and cancels a job when its last ticket leaves.  A worker death
        requeues the job onto the next worker in the rank.  The ``done``
        event's counters are credited to ``ctx`` (:meth:`_JobContext.credit`).
        """
        self.flights_dispatched += 1
        if priority:
            message = {**message, "priority": priority}
        tried: set[str] = set()
        requeues = 0
        while True:
            live = [link.worker_id for link in self.live_links()]
            candidates = [
                worker_id for worker_id in rendezvous_rank(key, live) if worker_id not in tried
            ]
            if not candidates:
                if live and requeues < MAX_FLIGHT_REQUEUES:
                    # Every live id was already tried, but membership is
                    # elastic: a live link under a tried id is a *fresh*
                    # process the monitor respawned since.
                    # Give the monitor a beat and walk the rank again —
                    # the requeue cap bounds this, since every tried id
                    # corresponds to a dispatch that died.
                    tried.clear()
                    await asyncio.sleep(MONITOR_INTERVAL)
                    continue
                raise ClusterError(
                    "no live workers left for this job "
                    f"({len(tried)} tried, {len(live)} alive, {requeues} requeue(s))"
                )
            link = self.links[candidates[0]]
            tried.add(link.worker_id)
            try:
                done = await self._run_on(link, ctx, message)
            except WorkerDied:
                self.flights_requeued += 1
                requeues += 1
                continue
            ctx.credit(done)
            return done

    async def _run_on(self, link: WorkerLink, ctx: _JobContext, message: dict) -> dict:
        """Run ``message`` on one worker; returns its ``done`` event.

        Progress events stream back to ``ctx``'s client job as they arrive.
        Raises :class:`WorkerDied` when the link drops (requeue),
        :class:`_JobFailed` on a genuine job failure, and
        :class:`SweepCancelled` when the worker cancelled the job.  When the
        calling task is cancelled, the job's worker ticket is withdrawn.
        """
        link.dispatched += 1
        ticket = None
        try:
            async for event in link.client.stream(message):
                name = event.get("event")
                if name in ("queued", "running"):
                    ticket = event.get("ticket", ticket)
                elif name == "progress":
                    ctx.token.emit({**event.get("progress", {}), "worker": link.worker_id})
                elif name == "done":
                    link.completed += 1
                    return event
                elif name == "cancelled":
                    raise SweepCancelled("cancelled on worker")
                elif name in ("failed", "error"):
                    error = event.get("error", "worker failure")
                    if not link.alive:
                        raise WorkerDied(f"worker {link.worker_id} died: {error}")
                    raise _JobFailed(f"worker {link.worker_id}: {error}")
        except asyncio.CancelledError:
            if ticket is not None and link.alive:
                withdrawal = asyncio.create_task(
                    self._cancel_on_worker(link, ticket), name="repro-withdraw"
                )
                self._withdrawals.add(withdrawal)
                withdrawal.add_done_callback(self._withdrawals.discard)
            raise
        # Stream ended without a terminal event: the connection is gone.
        raise WorkerDied(f"worker {link.worker_id} stream ended unexpectedly")

    @staticmethod
    async def _cancel_on_worker(link: WorkerLink, ticket: str) -> None:
        with contextlib.suppress(Exception):
            await link.client.cancel(ticket)

    # ---------------------------------------------------------------- execution
    @staticmethod
    def _planning_info(ctx: _JobContext) -> dict:
        """Additive payload section describing how the request was sharded.

        ``planned_units`` is the number of distinct simulation units the plan
        dispatched — on a cold cache with no worker deaths, the merged
        ``sweep.configs_simulated`` must equal it (each simulation performed
        exactly once cluster-wide); warm, both are zero.
        """
        return {
            "planned_units": ctx.planned_units,
            "planned_hits": ctx.planned_hits,
            "worker_execution_seconds": round(ctx.worker_execution_seconds, 6),
        }

    async def _execute_cluster(self, request, session, token):
        """The coordinator's executor: plan, shard, dispatch, reassemble.

        Same contract as :func:`repro.serve.workers.execute_request` — returns
        ``(payload, stats_dict)``, raises :class:`SweepCancelled` when the
        client job was cancelled.  The work runs in its own task, which the
        job's token cancels: every dispatch it awaits is cancelled with it
        and withdraws its worker ticket.
        """
        if not self.live_links():
            raise ClusterError("no live workers")
        job = self.queue._inflight.get(request.key())
        ctx = _JobContext(token)
        work = asyncio.ensure_future(
            self._execute(ctx, request, job.priority if job is not None else 0)
        )
        loop = asyncio.get_running_loop()
        token.on_cancel = lambda: loop.call_soon_threadsafe(work.cancel)
        if token.cancelled:  # cancelled before the hook was set
            work.cancel()
        try:
            payload = await work
        except asyncio.CancelledError:
            if token.cancelled:
                raise SweepCancelled("cluster job cancelled") from None
            raise
        finally:
            token.on_cancel = None
        return payload, ctx.stats.as_dict()

    async def _execute(self, ctx: _JobContext, request, priority: int) -> dict:
        """Run one client request on the workers; returns its result payload."""
        if isinstance(request, SimulateRequest):
            # One network's simulation is one job: route it to its shard whole.
            done = await self._dispatch(ctx, request.key(), request.to_message(), priority)
            return {
                **done["result"],
                "cluster": {
                    "worker_execution_seconds": round(ctx.worker_execution_seconds, 6)
                },
            }
        if isinstance(request, ExperimentRequest):
            results = await self._execute_experiments(
                ctx, request, [request.experiment], priority
            )
            return {
                "kind": "experiment",
                "experiment": results[request.experiment],
                "cluster": self._planning_info(ctx),
            }
        if isinstance(request, RunAllRequest):
            from repro.experiments.runner import EXPERIMENTS

            results = await self._execute_experiments(
                ctx, request, list(EXPERIMENTS), priority
            )
            return {
                "kind": "run_all",
                "experiments": results,
                "cluster": self._planning_info(ctx),
            }
        raise TypeError(  # pragma: no cover - parse_request guards this
            f"unsupported request type {type(request).__name__}"
        )

    async def _execute_experiments(
        self, ctx, request, names: list[str], priority: int
    ) -> dict:
        """Shard one or many experiments: planned jobs first, then assemblies.

        The planning probes run under a job session whose counters (a corrupt
        entry's error) are credited to the client job.
        """
        planning = self.session.job()
        plan = await asyncio.to_thread(
            build_plan, names, request.resolved_preset(), request.seed, planning
        )
        ctx.stats.merge(planning.stats())
        ctx.planned_hits = plan.planned_hits
        ctx.planned_units = sum(len(job.request.configs) for job in plan.simulations)
        wires = [(job.job_id, SimulationJobRequest(job.request)) for job in plan.simulations]
        wires += [(job.job_id, StatisticsJobRequest(job.request)) for job in plan.statistics]
        deps = {
            job_id: asyncio.ensure_future(
                self._dispatch(ctx, wire.key(), wire.to_message(), priority)
            )
            for job_id, wire in wires
        }

        async def assemble(exp_job) -> dict:
            for dep in exp_job.deps:
                await deps[dep]
            # Key the assembly by the equivalent single-experiment request, so
            # a run_all and a direct run_experiment of the same experiment
            # meet in one worker's queue.  Assemblies outrank planned jobs:
            # their inputs are warm, so finishing them frees client responses
            # without delaying sweeps.
            assembly = ExperimentRequest(
                experiment=exp_job.experiment,
                preset=request.preset,
                seed=request.seed,
                overrides=request.overrides,
            )
            done = await self._dispatch(
                ctx, assembly.key(), assembly.to_message(), priority + 1
            )
            return done["result"]["experiment"]

        assemblies = [asyncio.ensure_future(assemble(job)) for job in plan.experiments]
        results: dict[str, dict] = {}
        try:
            for index, (exp_job, pending) in enumerate(zip(plan.experiments, assemblies)):
                result = await pending
                results[exp_job.experiment] = result
                if len(plan.experiments) > 1:
                    ctx.token.emit(
                        {
                            "stage": "experiment_done",
                            "experiment": exp_job.experiment,
                            "completed": index + 1,
                            "total": len(plan.experiments),
                            "result": result,
                        }
                    )
        finally:
            # A failed or cancelled client job leaves no dispatch running (or
            # failing later, unretrieved) behind it.
            tasks = [*deps.values(), *assemblies]
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)
        return {name: results[name] for name in names}

    # -------------------------------------------------------------------- stats
    async def stats(self) -> dict:
        payload = await super().stats()
        payload["cluster"] = {
            "workers": [link.describe() for link in self.links.values()],
            "flights_dispatched": self.flights_dispatched,
            "flights_requeued": self.flights_requeued,
            "workers_lost": sum(1 for link in self.links.values() if not link.alive),
            "workers_respawned": self.workers_respawned,
            "respawn_failures": self.respawn_failures,
            "last_respawn_error": self.last_respawn_error,
            "cache_backend": self.cache_backend,
            "cache_dir": str(self.cache_dir),
        }
        return payload

    async def cluster_stats(self) -> dict:
        """The ``stats`` payload plus live per-worker stats.

        Queries every live worker's ``stats`` op and sums their lifetime
        ``RunStats`` counters into a ``fleet`` section, and their queues'
        ``coalescing`` sections into ``coalescing``: how many planned jobs
        the workers' queues coalesced.  A worker whose ``stats`` fails or
        outlasts ``STATS_TIMEOUT`` is left out of both sums and named in
        ``stats_errors`` with the reason.  Store gauges are not summed
        anywhere: the shared store's entries and bytes are the coordinator's
        own ``cache`` section, read once.
        """
        payload = await self.stats()
        fleet = RunStats()
        coalescing = dict.fromkeys(("tickets_attached", "tickets_coalesced", "jobs_executed"), 0)
        per_worker: dict[str, dict] = {}
        errors: dict[str, str] = {}
        links = self.live_links()

        async def query(link: WorkerLink) -> dict:
            try:  # a hung worker must not stall the stats op
                reply = await asyncio.wait_for(link.client.stats(), STATS_TIMEOUT)
            except asyncio.TimeoutError:
                raise TimeoutError(f"no stats reply within {STATS_TIMEOUT:g} s") from None
            if reply.get("event") != "stats":
                raise ClusterError(f"stats ended {reply.get('event')!r}: {reply.get('error')}")
            return reply

        answers = await asyncio.gather(
            *(query(link) for link in links), return_exceptions=True
        )
        for link, answer in zip(links, answers):
            if isinstance(answer, BaseException):
                errors[link.worker_id] = _describe(answer)
                continue
            stats = answer.get("stats", {})
            per_worker[link.worker_id] = stats
            fleet.merge(stats)
            for key in coalescing:
                coalescing[key] += answer.get("coalescing", {}).get(key, 0)
        attached = coalescing["tickets_attached"]
        coalescing["hit_rate"] = (
            round(coalescing["tickets_coalesced"] / attached, 6) if attached else 0.0
        )
        payload["cluster"]["coalescing"] = coalescing
        payload["cluster"]["fleet"] = fleet.as_dict()
        payload["cluster"]["per_worker_stats"] = per_worker
        payload["cluster"]["stats_errors"] = errors
        return payload

    async def handle_message(self, message, send, context=None) -> bool:
        # Intercept ``stats`` only for authenticated (or local) callers — the
        # base auth gate must keep rejecting everything else first, or an
        # unauthenticated connection could read fleet topology.
        authenticated = context is None or context.authenticated
        if message.get("op") == "stats" and authenticated:
            client_id = message.get("id")
            payload = await self.cluster_stats()
            send({"id": client_id, **payload} if client_id is not None else payload)
            return True
        return await super().handle_message(message, send, context=context)
