"""Tests for repro.cluster: routing, wire codec, worker mode, coordinator.

Most end-to-end tests run a real coordinator against *in-process* worker
services connected over loopback TCP — separate ``WorkerService`` instances
with separate sessions sharing one cache directory, the exact topology of a
local cluster minus the subprocess spawn.
``TestSpawnedWorkers`` covers what only real worker processes show: a cold
run that simulates each planned unit once, a terminated process respawned,
a network cache tier that outlives (and survives the loss of) its server,
and a worker started by hand with ``serve --tcp HOST:PORT --worker``.
"""

import asyncio
import gc
import json
import os
import re
import socket
import sys
import tempfile

import pytest

from repro.cluster import (
    ClusterError,
    ClusterService,
    SimulationJobRequest,
    StatisticsJobRequest,
    WorkerService,
    parse_internal_request,
    rendezvous_owner,
    rendezvous_rank,
)
from repro.cluster.cli import main as cluster_main
from repro.cluster.plan import (
    simulation_request_from_wire,
    simulation_request_to_wire,
    statistics_request_from_wire,
    statistics_request_to_wire,
)
from repro.arch.tiling import SamplingConfig
from repro.core.variants import fig9_variants
from repro.experiments.base import get_preset
from repro.cachenet import CacheServer
from repro.runtime import SimulationRequest, StatisticsRequest, TraceSpec
from repro.serve.cli import reap, spawn_server
from repro.serve.protocol import ExperimentRequest, ProtocolError, SimulateRequest
from repro.serve.service import ConnectionContext, ExperimentService

#: Tiny fast-preset override so cluster simulations take seconds.
TINY = {"networks": ["alexnet"], "max_pallets": 2, "samples_per_layer": 1500}

#: Two networks, so a run plans several jobs for two worker processes.
TWO_NETWORKS = (
    ("max_pallets", 2), ("networks", ("alexnet", "vgg_m")), ("samples_per_layer", 1500),
)

TOKEN = "cluster-test-token"


def run(coro):
    return asyncio.run(coro)


# ------------------------------------------------------------------- rendezvous
class TestRendezvousHashing:
    def test_deterministic_and_complete(self):
        members = [f"w{i}" for i in range(5)]
        ranked = rendezvous_rank("some-content-key", members)
        assert sorted(ranked) == sorted(members)
        assert ranked == rendezvous_rank("some-content-key", members)
        assert rendezvous_owner("some-content-key", members) == ranked[0]

    def test_distributes_keys(self):
        members = ["w0", "w1", "w2"]
        owners = {rendezvous_owner(f"key-{i}", members) for i in range(64)}
        assert owners == set(members)  # every worker owns something

    def test_minimal_disruption_on_member_loss(self):
        """Removing one member only moves the keys that member owned."""
        members = ["w0", "w1", "w2", "w3"]
        keys = [f"key-{i}" for i in range(128)]
        before = {key: rendezvous_owner(key, members) for key in keys}
        survivors = [m for m in members if m != "w1"]
        for key in keys:
            after = rendezvous_owner(key, survivors)
            if before[key] != "w1":
                assert after == before[key]  # unaffected keys keep their shard
            else:
                assert after in survivors

    def test_empty_membership_rejected(self):
        with pytest.raises(ValueError):
            rendezvous_owner("key", [])


# ------------------------------------------------------------------- wire codec
class TestPlanWireCodec:
    def _simulation_request(self):
        preset = get_preset("smoke")
        return SimulationRequest(
            trace=TraceSpec(network="alexnet", precisions=(9, 8, 5)),
            configs=tuple(fig9_variants().items()),
            sampling=preset.sampling(),
        )

    def test_simulation_round_trip_preserves_cache_keys(self):
        request = self._simulation_request()
        wire = json.loads(json.dumps(simulation_request_to_wire(request)))
        rebuilt = simulation_request_from_wire(wire)
        assert rebuilt == request
        assert rebuilt.keys() == request.keys()  # byte-identical fingerprints

    def test_encoding_round_trips_and_defaults(self):
        """Non-default encodings survive the wire; old wire payloads that
        predate the field decode as positional."""
        from repro.core.variants import encoding_variants

        preset = get_preset("smoke")
        request = SimulationRequest(
            trace=TraceSpec(network="alexnet"),
            configs=tuple(encoding_variants().items()),
            sampling=preset.sampling(),
        )
        wire = json.loads(json.dumps(simulation_request_to_wire(request)))
        rebuilt = simulation_request_from_wire(wire)
        assert rebuilt == request
        assert rebuilt.keys() == request.keys()
        assert [config.encoding for _, config in rebuilt.configs] == [
            name for name, _ in request.configs
        ]
        # A pre-encoding wire dict (no "encoding" key) decodes to positional.
        legacy = json.loads(json.dumps(simulation_request_to_wire(request)))
        for _, config_wire in legacy["configs"]:
            config_wire.pop("encoding")
        from_legacy = simulation_request_from_wire(legacy)
        assert all(c.encoding == "positional" for _, c in from_legacy.configs)

    def test_statistics_round_trip(self):
        request = StatisticsRequest(
            statistic="fig2_terms",
            trace=TraceSpec(network="vgg_m", seed=3),
            samples_per_layer=1234,
        )
        wire = json.loads(json.dumps(statistics_request_to_wire(request)))
        rebuilt = statistics_request_from_wire(wire)
        assert rebuilt == request
        assert rebuilt.key() == request.key()

    def test_internal_requests_have_stable_keys(self):
        request = self._simulation_request()
        a = SimulationJobRequest(request)
        b = SimulationJobRequest(simulation_request_from_wire(
            simulation_request_to_wire(request)
        ))
        assert a.key() == b.key()
        assert "alexnet" in a.describe()

    def test_parse_internal_request(self):
        request = self._simulation_request()
        parsed = parse_internal_request(SimulationJobRequest(request).to_message())
        assert isinstance(parsed, SimulationJobRequest)
        assert parsed.request == request
        stat = StatisticsRequest(statistic="fig3_terms", trace=TraceSpec(network="alexnet"))
        parsed = parse_internal_request(StatisticsJobRequest(stat).to_message())
        assert isinstance(parsed, StatisticsJobRequest)

    def test_parse_rejects_malformed(self):
        with pytest.raises(ProtocolError):
            parse_internal_request({"op": "sim_job"})  # no request object
        with pytest.raises(ProtocolError):
            parse_internal_request({"op": "sim_job", "request": {"trace": {}}})
        with pytest.raises(ProtocolError):
            parse_internal_request({"op": "unknown_job", "request": {}})
        with pytest.raises(ProtocolError):
            parse_internal_request(
                {
                    "op": "stat_job",
                    "request": statistics_request_to_wire(
                        StatisticsRequest(
                            statistic="no_such_statistic",
                            trace=TraceSpec(network="alexnet"),
                        )
                    ),
                }
            )


# ------------------------------------------------------------------ worker mode
class TestWorkerService:
    def test_worker_requires_auth_token(self, tmp_path):
        with pytest.raises(ValueError):
            WorkerService(cache_dir=tmp_path)

    def test_internal_ops_need_only_the_auth_gate(self, tmp_path):
        """The token check is the trust boundary: before it a ``sim_job`` is
        refused and reaches no queue; after it the job runs with no other
        op, and ``register`` is no op at all."""

        async def scenario():
            service = WorkerService(cache_dir=tmp_path, workers=1, auth_token=TOKEN)
            message = SimulationJobRequest(
                SimulationRequest(
                    trace=TraceSpec(network="alexnet"),
                    configs=tuple(fig9_variants().items())[:1],
                    sampling=SamplingConfig(max_pallets=2),
                )
            ).to_message()
            sent = []
            keep = await service.handle_message(
                message, sent.append, context=ConnectionContext(authenticated=False)
            )
            assert keep is False
            assert sent[-1]["error"] == "authentication required"
            assert service.queue.submitted == 0
            context = ConnectionContext(authenticated=True)
            await service.handle_message({"op": "register"}, sent.append, context=context)
            assert sent[-1]["error"].startswith("unknown op 'register'")
            await service.handle_message(message, sent.append, context=context)
            assert sent[-1]["event"] == "queued"
            (ticket,) = context.tickets
            await asyncio.wait_for(ticket.job.done.wait(), timeout=60)
            await service.stop()
            assert sent[-1]["event"] == "done", sent[-1]
            assert sent[-1]["result"]["configs"] == 1

        run(scenario())

    def test_planned_jobs_never_run_inline(self, tmp_path):
        """A ``sim_job`` whose units are all memo-resident still runs on a
        worker thread: internal ops are never answered on the event loop."""

        async def scenario():
            async with WorkerService(cache_dir=tmp_path, workers=1, auth_token=TOKEN) as service:
                job = SimulationJobRequest(
                    SimulationRequest(
                        trace=TraceSpec(network="alexnet"),
                        configs=tuple(fig9_variants().items())[:1],
                        sampling=SamplingConfig(max_pallets=2),
                    )
                )
                for simulated in (1, 0):
                    response = await service.wait(await service.submit(job))
                    assert response["event"] == "done"
                    assert response["stats"]["sweep"]["configs_simulated"] == simulated
                assert (await service.stats())["queue"]["inline"] == 0

        run(scenario())

    def test_unauthenticated_connection_rejected_before_queue(self, tmp_path):
        async def scenario():
            service = WorkerService(cache_dir=tmp_path, workers=1, auth_token=TOKEN)
            sent = []
            context = ConnectionContext(authenticated=False)
            keep = await service.handle_message(
                {"op": "run_experiment", "experiment": "fig9"}, sent.append,
                context=context,
            )
            assert keep is False  # connection closed
            assert sent[-1]["error"] == "authentication required"
            assert service.queue.submitted == 0  # nothing reached the queue
            # Wrong token also closes.
            keep = await service.handle_message(
                {"op": "auth", "token": "wrong"}, sent.append,
                context=ConnectionContext(authenticated=False),
            )
            assert keep is False
            # The right token authenticates.
            context = ConnectionContext(authenticated=False)
            keep = await service.handle_message(
                {"op": "auth", "token": TOKEN}, sent.append, context=context
            )
            assert keep is True and context.authenticated
            await service.stop()

        run(scenario())


# ------------------------------------------------------------------ end to end
class _Cluster:
    """A coordinator plus N workers over loopback TCP.

    Workers are in-process services, or with ``spawn=True`` worker
    processes the coordinator spawns itself; ``options`` go to its
    constructor.  In-process workers mount the same ``cache_backend``
    option, as spawned ones do.
    """

    def __init__(self, cache_dir, workers=2, spawn=False, **options):
        self.cache_dir = cache_dir
        self.worker_count = workers
        self.spawn = spawn
        self.options = options
        self.workers = []
        self.servers = []
        self.coordinator = None

    async def __aenter__(self):
        endpoints = []
        for _ in range(0 if self.spawn else self.worker_count):
            service = WorkerService(
                cache_dir=self.cache_dir,
                workers=2,
                auth_token=TOKEN,
                cache_backend=self.options.get("cache_backend"),
            )
            server = await service.serve_tcp("127.0.0.1", 0)
            endpoints.append(("127.0.0.1", server.sockets[0].getsockname()[1]))
            self.workers.append(service)
            self.servers.append(server)
        self.coordinator = ClusterService(
            spawn_workers=self.worker_count if self.spawn else 0,
            connect=endpoints,
            cache_dir=self.cache_dir,
            worker_token=TOKEN,
            **self.options,
        )
        await self.coordinator.start()
        return self

    async def __aexit__(self, *exc_info):
        await self.coordinator.stop()
        for server in self.servers:
            server.close()
            await server.wait_closed()
        for worker in self.workers:
            await worker.stop()


async def _exactly_once_then_warm(coordinator):
    """fig9 on one network twice: every unit runs once, the rerun plans none."""
    request = ExperimentRequest(
        experiment="fig9",
        overrides=(("max_pallets", 2), ("networks", ("alexnet",)),
                   ("samples_per_layer", 1500)),
    )
    ticket = await coordinator.submit(request)
    response = await coordinator.wait(ticket)
    assert response["event"] == "done", response.get("error")
    planned = response["result"]["cluster"]["planned_units"]
    assert planned == 5  # the fig9 design points of one network
    assert response["stats"]["sweep"]["configs_simulated"] == planned
    assert response["result"]["experiment"]["rows"]
    # Warm rerun: planner prunes everything, nothing re-simulates
    # anywhere in the cluster.
    ticket = await coordinator.submit(request)
    warm = await coordinator.wait(ticket)
    assert warm["event"] == "done"
    assert warm["result"]["cluster"]["planned_units"] == 0
    assert warm["stats"]["sweep"]["configs_simulated"] == 0
    assert warm["result"]["experiment"] == response["result"]["experiment"]


class TestClusterExecution:
    def test_sharded_experiment_exactly_once_and_warm_rerun(self, tmp_path):
        async def scenario():
            async with _Cluster(tmp_path / "cache") as cluster:
                await _exactly_once_then_warm(cluster.coordinator)

        run(scenario())

    def test_a_repeated_hot_simulate_is_answered_inline_by_a_worker(self, tmp_path):
        """The coordinator queues every request (its executor is async), and
        the worker that ran the first simulate answers the repeat inline."""

        async def scenario():
            async with _Cluster(tmp_path / "cache") as cluster:
                request = SimulateRequest(
                    network="alexnet", overrides=(("max_pallets", 2),)
                )
                responses = []
                for _ in range(2):
                    ticket = await cluster.coordinator.submit(request)
                    responses.append(await cluster.coordinator.wait(ticket))
                assert [r["event"] for r in responses] == ["done", "done"]
                assert responses[1]["stats"]["sweep"]["configs_simulated"] == 0
                assert responses[1]["result"]["cluster"]["worker_execution_seconds"] > 0
                inline = [(await worker.stats())["queue"]["inline"] for worker in cluster.workers]
                assert sorted(inline) == [0, 1]
                assert cluster.coordinator.queue.inline == 0

        run(scenario())

    def test_warm_rerun_over_a_network_cache_prunes(self, tmp_path):
        """The coordinator's planning probes see what the workers stored."""
        server = CacheServer(directory=tmp_path / "remote")
        host, port = server.start()

        async def scenario():
            async with _Cluster(
                tmp_path / "cache", cache_backend=f"remote://{host}:{port}"
            ) as cluster:
                await _exactly_once_then_warm(cluster.coordinator)

        try:
            run(scenario())
        finally:
            server.stop()

    def test_cross_client_flight_coalescing(self, tmp_path):
        """Overlapping requests from different clients share planned jobs:
        rendezvous sends identical jobs to one worker, whose queue
        coalesces them."""

        async def scenario():
            async with _Cluster(tmp_path / "cache") as cluster:
                coordinator = cluster.coordinator
                narrow = ExperimentRequest(
                    experiment="fig9",
                    overrides=(("max_pallets", 2), ("networks", ("alexnet",)),
                               ("samples_per_layer", 1500)),
                )
                wide = ExperimentRequest(
                    experiment="fig9",
                    overrides=(("max_pallets", 2),
                               ("networks", ("alexnet", "vgg_m")),
                               ("samples_per_layer", 1500)),
                )
                assert narrow.key() != wide.key()  # distinct client requests
                tickets = await asyncio.gather(
                    coordinator.submit(narrow), coordinator.submit(wide)
                )
                responses = await asyncio.gather(
                    *(coordinator.wait(t) for t in tickets)
                )
                assert all(r["event"] == "done" for r in responses)
                # The alexnet job is shared: a worker queue coalesced the
                # second request's copy onto the first.
                stats = await coordinator.cluster_stats()
                coalescing = stats["cluster"]["coalescing"]
                assert coalescing["tickets_coalesced"] >= 1
                assert coalescing["tickets_attached"] == sum(
                    worker.queue.submitted for worker in cluster.workers
                )
                # Exactly once cluster-wide: 5 alexnet + 5 vgg_m units, even
                # though alexnet units were planned by both requests.
                total = sum(
                    r["stats"]["sweep"]["configs_simulated"] for r in responses
                )
                assert total == 10
                assert stats["cluster"]["fleet"]["sweep"]["configs_simulated"] == 10

        run(scenario())

    def test_worker_death_requeues_onto_survivor(self, tmp_path):
        async def scenario():
            async with _Cluster(tmp_path / "cache") as cluster:
                coordinator = cluster.coordinator
                request = ExperimentRequest(
                    experiment="fig9",
                    seed=7,  # fresh trace spec: cold even if other tests ran
                    overrides=(("max_pallets", 2), ("networks", ("alexnet",)),
                               ("samples_per_layer", 1500)),
                )
                killed = []

                def on_progress(ticket, payload):
                    worker_id = payload.get("worker")
                    link = coordinator.links.get(worker_id)
                    if not killed and link is not None:
                        killed.append(worker_id)
                        # Dropping the link is exactly what a worker crash
                        # looks like from the coordinator's side.
                        asyncio.ensure_future(link.client.close())

                ticket = await coordinator.submit(request, on_progress=on_progress)
                response = await coordinator.wait(ticket)
                assert killed, "no progress event ever identified a worker"
                assert response["event"] == "done", response.get("error")
                assert coordinator.flights_requeued >= 1
                assert response["result"]["experiment"]["rows"]
                stats = await coordinator.stats()
                assert stats["cluster"]["workers_lost"] == 1
                assert stats["cluster"]["flights_requeued"] >= 1

        run(scenario())

    def test_streamed_cancellation_reaches_the_worker(self, tmp_path):
        async def scenario():
            async with _Cluster(tmp_path / "cache") as cluster:
                coordinator = cluster.coordinator
                request = ExperimentRequest(
                    experiment="fig10",
                    seed=11,
                    overrides=(("max_pallets", 2), ("networks", ("alexnet",)),
                               ("samples_per_layer", 1500)),
                )
                events = []
                cancelled = []

                def on_event(ticket, event):
                    events.append(event)

                def on_progress(ticket, payload):
                    if not cancelled:
                        cancelled.append(True)
                        coordinator.cancel(ticket.ticket_id)

                ticket = await coordinator.submit(
                    request, on_event=on_event, on_progress=on_progress
                )
                await ticket.job.done.wait()
                assert cancelled, "no progress to cancel on"
                assert ticket.state == "cancelled"
                # The worker-side jobs must actually unwind: no worker keeps
                # a queued or running job for the cancelled client.
                await _until(
                    lambda: all(
                        worker.queue.depth()["queued"] == worker.queue.depth()["running"] == 0
                        for worker in cluster.workers
                    ),
                    timeout=30,
                )
                # The coordinator withdrew the worker ticket that was running.
                assert sum(worker.queue.cancelled for worker in cluster.workers) >= 1
                # And the cluster still serves: a follow-up request lands.
                follow_up = await coordinator.submit(
                    ExperimentRequest(experiment="table3", preset="smoke")
                )
                done = await coordinator.wait(follow_up)
                assert done["event"] == "done"

        run(scenario())

    def test_cluster_stats_sum_fleet_counters_and_count_the_store_once(self, tmp_path):
        async def scenario():
            async with _Cluster(tmp_path / "cache") as cluster:
                coordinator = cluster.coordinator
                request = ExperimentRequest(
                    experiment="fig9",
                    overrides=(("max_pallets", 2), ("networks", ("alexnet",)),
                               ("samples_per_layer", 1500)),
                )
                ticket = await coordinator.submit(request)
                response = await coordinator.wait(ticket)
                assert response["event"] == "done"
                # Worker-side compute is forwarded: the response's cluster
                # section sums the execution_seconds its dispatches reported.
                assert response["result"]["cluster"]["worker_execution_seconds"] > 0
                payload = await coordinator.cluster_stats()
                cluster_section = payload["cluster"]
                assert len(cluster_section["workers"]) == 2
                assert [w["slots"] for w in cluster_section["workers"]] == [2, 2]
                assert cluster_section["flights_dispatched"] >= 2
                # The fleet's queue coalescing, in serve's keys: one isolated
                # request shares nothing, and every dispatch is one ticket.
                assert cluster_section["coalescing"] == {
                    "tickets_attached": cluster_section["flights_dispatched"],
                    "tickets_coalesced": 0,
                    "jobs_executed": cluster_section["flights_dispatched"],
                    "hit_rate": 0.0,
                }
                fleet = cluster_section["fleet"]
                # The fleet section saw the simulations the workers ran.
                assert fleet["sweep"]["configs_simulated"] == 5
                per_worker = cluster_section["per_worker_stats"]
                assert set(per_worker) <= {"w0", "w1", "c0", "c1"}
                # Counters only: the fleet sums events, never store gauges.
                assert set(fleet["cache"]) == {"hits", "misses", "stores", "errors"}
                assert fleet["cache"]["stores"] == sum(
                    stats["cache"]["stores"] for stats in per_worker.values()
                )
                # The shared store's gauges are read once, by the coordinator.
                entries = list((tmp_path / "cache").glob("*.json.gz"))
                assert len(entries) >= 2
                assert payload["cache"]["entries"] == len(entries)

        run(scenario())

    @pytest.mark.parametrize(
        "fault, reason",
        [
            ("hang", "TimeoutError: no stats reply within 0.2 s"),
            ("drop", "ClusterError: stats ended 'failed': connection closed"),
        ],
        ids=["hang", "drop"],
    )
    def test_a_worker_without_stats_is_named_with_its_reason(
        self, tmp_path, monkeypatch, fault, reason
    ):
        monkeypatch.setattr("repro.cluster.coordinator.STATS_TIMEOUT", 0.2)

        async def scenario():
            async with _Cluster(tmp_path / "cache") as cluster:
                faulty = cluster.workers[0]  # attached as c0
                answer = faulty.handle_message
                release = asyncio.Event()

                async def faulty_stats(message, send, *args, **kwargs):
                    if message.get("op") == "stats":
                        if fault == "drop":
                            return False  # close the connection unanswered
                        await release.wait()
                    return await answer(message, send, *args, **kwargs)

                faulty.handle_message = faulty_stats
                started = asyncio.get_running_loop().time()
                try:
                    payload = await asyncio.wait_for(
                        cluster.coordinator.cluster_stats(), timeout=2
                    )
                finally:
                    release.set()
                assert asyncio.get_running_loop().time() - started < 2
                section = payload["cluster"]
                assert section["stats_errors"] == {"c0": reason}
                assert set(section["per_worker_stats"]) == {"c1"}

        run(scenario())

    def test_a_failed_respawn_keeps_its_reason(self, tmp_path, monkeypatch):
        async def scenario():
            async with _Cluster(tmp_path / "cache", workers=1) as cluster:
                coordinator = cluster.coordinator
                assert (await coordinator.stats())["cluster"]["last_respawn_error"] is None

                async def fail(worker_id):
                    raise ClusterError("boom")

                monkeypatch.setattr(coordinator, "_spawn_worker", fail)
                link = coordinator.links["c0"]
                # A spawned link whose worker process has exited.
                link.process = await asyncio.create_subprocess_exec(
                    sys.executable, "-c", "pass"
                )
                await link.process.wait()
                await link.client.close()
                await coordinator._replace("c0", link)
                section = (await coordinator.stats())["cluster"]
                assert section["respawn_failures"] >= 1
                assert section["last_respawn_error"] == "ClusterError: boom"
                assert coordinator.links["c0"] is link

        run(scenario())

    def test_no_live_workers_fails_cleanly(self, tmp_path):
        async def scenario():
            async with _Cluster(tmp_path / "cache", workers=1) as cluster:
                coordinator = cluster.coordinator
                for link in coordinator.links.values():
                    await link.client.close()
                ticket = await coordinator.submit(
                    ExperimentRequest(experiment="table3", preset="smoke")
                )
                response = await coordinator.wait(ticket)
                assert response["event"] == "failed"
                assert "no live workers" in response["error"]

        run(scenario())

    def test_a_failed_flight_takes_the_job_s_other_flights_down(self, tmp_path, monkeypatch):
        """A job whose dependency fails is told ``failed``, and its other
        dispatches stop with it: none is left running, and none fails later
        as a never-retrieved exception."""

        async def scenario():
            unhandled = []
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: unhandled.append(context)
            )
            async with _Cluster(tmp_path / "cache") as cluster:
                coordinator = cluster.coordinator
                answered = asyncio.Event()
                dispatched = []
                running = set()

                async def run_on(link, ctx, message):
                    # The first dispatch fails at once; every other one
                    # would fail too, but only after the client has its answer.
                    index = len(dispatched)
                    dispatched.append(message["op"])
                    running.add(index)
                    try:
                        if index:
                            await answered.wait()
                        raise ClusterError("injected flight failure")
                    finally:
                        running.discard(index)

                monkeypatch.setattr(coordinator, "_run_on", run_on)
                ticket = await coordinator.submit(
                    ExperimentRequest(experiment="fig9", overrides=TWO_NETWORKS)
                )
                response = await asyncio.wait_for(coordinator.wait(ticket), timeout=30)
                assert response["event"] == "failed"
                assert "injected flight failure" in response["error"]
                assert dispatched == ["sim_job", "sim_job"]  # one job per network
                assert not running  # the client's answer came after the cleanup
                answered.set()
            gc.collect()  # an unretrieved failure is reported when collected
            return unhandled

        assert run(scenario()) == []

    @pytest.mark.parametrize(
        "child, timeout, message",
        [
            ("import sys; sys.exit(3)", 60, "worker w0 exited with status 3 before its banner"),
            ("import time; time.sleep(60)", 0.5, "worker w0 printed no endpoint banner within 0.5 s"),
        ],
        ids=["exits-before-banner", "no-banner-in-time"],
    )
    def test_a_worker_without_its_banner_fails_start(
        self, tmp_path, monkeypatch, child, timeout, message
    ):
        _substitute_workers(monkeypatch, child)
        monkeypatch.setattr("repro.cluster.coordinator.SPAWN_TIMEOUT", timeout)

        async def scenario():
            coordinator = ClusterService(
                spawn_workers=1, cache_dir=tmp_path / "cache", worker_token=TOKEN
            )
            try:
                with pytest.raises(ClusterError, match=re.escape(message)):
                    await coordinator.start()
            finally:
                await coordinator.stop()

        run(scenario())

    def test_a_plain_serve_is_refused_as_a_worker(self, tmp_path):
        """A peer that passes the token check but accepts no ``sim_job`` is
        not a worker: start fails naming it, and no link stays open."""

        async def scenario():
            plain = ExperimentService(cache_dir=tmp_path / "plain", workers=1, auth_token=TOKEN)
            server = await plain.serve_tcp("127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            coordinator = ClusterService(
                connect=[("127.0.0.1", port)], cache_dir=tmp_path / "cache", worker_token=TOKEN
            )
            try:
                with pytest.raises(ClusterError, match=f"127.0.0.1:{port} is not a cluster worker"):
                    await coordinator.start()
                assert not coordinator.links
            finally:
                await coordinator.stop()
                server.close()
                await server.wait_closed()
                await plain.stop()

        run(scenario())


def _substitute_workers(monkeypatch, child: str) -> None:
    """Make every spawned worker process run ``python -c child`` instead."""
    spawn = asyncio.create_subprocess_exec

    async def substitute(*argv, **kwargs):
        return await spawn(sys.executable, "-c", child, **kwargs)

    monkeypatch.setattr(asyncio, "create_subprocess_exec", substitute)


class TestClusterCLI:
    """A cluster that cannot start says why in one line and leaks nothing."""

    def test_worker_processes_below_one_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as raised:
            cluster_main(["--workers", "1", "--worker-processes", "0", "--stdio"])
        assert raised.value.code == 2
        assert "--worker-processes" in capsys.readouterr().err.splitlines()[-1]

    @pytest.mark.parametrize("case", ["refused-connect", "worker-exits"])
    def test_a_failed_start_is_one_line_and_removes_the_private_cache(
        self, case, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        _substitute_workers(monkeypatch, "import sys; sys.exit(3)")
        with socket.socket() as closed:  # bound, never listening: refuses
            closed.bind(("127.0.0.1", 0))
            port = closed.getsockname()[1]
            if case == "refused-connect":
                argv, reason = ["--workers", "0", "--connect", f"127.0.0.1:{port}"], str(port)
            else:
                argv, reason = ["--workers", "1"], "worker w0 exited with status 3 before its banner"
            assert cluster_main([*argv, "--stdio"]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("repro cluster: ") and reason in line
        assert not list(tmp_path.glob("repro-cluster-cache-*"))


async def _run_done(coordinator, experiment, on_progress=None):
    request = ExperimentRequest(experiment=experiment, overrides=TWO_NETWORKS)
    ticket = await coordinator.submit(request, on_progress=on_progress)
    response = await asyncio.wait_for(coordinator.wait(ticket), timeout=60)
    assert response["event"] == "done", response.get("error")
    return response


async def _until(condition, timeout=30.0):
    deadline = asyncio.get_running_loop().time() + timeout
    while not condition():
        assert asyncio.get_running_loop().time() < deadline, "condition never held"
        await asyncio.sleep(0.1)


@pytest.mark.slow
class TestSpawnedWorkers:
    def test_cold_run_simulates_each_planned_unit_once(self, tmp_path):
        async def scenario():
            async with _Cluster(tmp_path / "cache", spawn=True) as cluster:
                coordinator = cluster.coordinator
                # fig10 needs fig9's traces again, on whichever worker its
                # flights are routed to.
                for experiment in ("fig9", "fig10"):
                    response = await _run_done(coordinator, experiment)
                    planned = response["result"]["cluster"]["planned_units"]
                    assert response["stats"]["sweep"]["configs_simulated"] == planned > 0

        run(scenario())

    def test_terminated_worker_requeues_and_respawns_under_its_id(self, tmp_path):
        async def scenario():
            async with _Cluster(tmp_path / "cache", spawn=True) as cluster:
                coordinator = cluster.coordinator
                killed = {}

                def on_progress(ticket, payload):
                    link = coordinator.links.get(payload.get("worker"))
                    if not killed and link is not None:
                        killed[link.worker_id] = link.pid
                        link.process.terminate()

                await _run_done(coordinator, "fig9", on_progress=on_progress)
                assert killed, "no progress event ever identified a worker"
                assert coordinator.flights_requeued >= 1
                (worker_id, pid), = killed.items()
                await _until(
                    lambda: coordinator.workers_respawned >= 1
                    and coordinator.links[worker_id].alive
                )
                assert coordinator.links[worker_id].pid != pid

        run(scenario())

    def test_network_cache_warms_a_fresh_cluster_and_degrades_when_gone(self, tmp_path):
        server = CacheServer(directory=tmp_path / "remote")
        host, port = server.start()

        async def fresh_cluster_run():
            """fig9 on a new cluster whose only result cache is the server."""
            async with _Cluster(
                None, spawn=True, cache_backend=f"remote://{host}:{port}"
            ) as cluster:
                coordinator = cluster.coordinator
                assert all(
                    link.info.get("cache_dir") is None
                    for link in coordinator.links.values()
                )
                response = await _run_done(coordinator, "fig9")
                return response, coordinator.session.cache.usage()

        try:
            cold, _ = run(fresh_cluster_run())
            planned = cold["result"]["cluster"]["planned_units"]
            assert cold["stats"]["sweep"]["configs_simulated"] == planned > 0
            assert len(server.backend) > 0
            warm, _ = run(fresh_cluster_run())
            assert warm["stats"]["sweep"]["configs_simulated"] == 0
            server.stop()
            degraded, usage = run(fresh_cluster_run())
            assert degraded["stats"]["sweep"]["configs_simulated"] >= planned
            assert usage["remote_degraded"] >= 1
        finally:
            server.stop()

    def test_a_pre_started_worker_serves_a_coordinator_that_connects(self, tmp_path):
        """The documented recipe: ``serve --tcp HOST:PORT --worker`` started by
        hand with the token in its environment, attached with ``connect``."""

        async def scenario():
            process, host, port = await spawn_server(
                [sys.executable, "-m", "repro", "serve", "--tcp", "127.0.0.1:0",
                 "--worker", "--cache-dir", str(tmp_path / "cache")],
                timeout=60,
                env={**os.environ, "REPRO_SERVE_TOKEN": TOKEN},
            )
            try:
                async with ClusterService(
                    connect=[(host, port)], cache_dir=tmp_path / "cache", worker_token=TOKEN
                ) as coordinator:
                    await _exactly_once_then_warm(coordinator)
                    (worker,) = (await coordinator.cluster_stats())["cluster"]["workers"]
                    assert (worker["pid"], worker["slots"]) == (process.pid, 2)
            finally:
                await reap(process)

        run(scenario())
