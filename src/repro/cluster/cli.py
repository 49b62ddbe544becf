"""``python -m repro cluster`` — run a sharded multi-worker cluster.

Modes (all share the worker flags; topology details in ``docs/cluster.md``):

* ``--tcp HOST:PORT`` / ``--stdio`` — serve the public protocol from a
  coordinator backed by ``--workers N`` spawned local worker processes
  and/or ``--connect HOST:PORT`` pre-started workers.
* ``--run EXPERIMENT|all`` — one-shot batch: start the cluster, execute the
  request, print the result summary and the merged cluster ``RunStats``,
  verify each simulation ran exactly once cluster-wide (merged
  ``sweep.configs_simulated`` equals the planned unit count), and exit.
* ``--selftest`` — spawn 2 local workers, shard a multi-network experiment
  across them, kill one worker mid-run and assert the coordinator requeues
  its jobs onto the survivor *and* auto-respawns the casualty; then exercise
  warm-cache exactness and a cross-process streamed cancellation.  CI runs
  this on every tier-1 platform.
* ``--selftest-elastic`` — elastic-membership checks: recycling after
  ``--max-jobs-per-worker`` completed jobs and respawn-after-kill, both on a
  live cluster.
* ``repro cacheserve --selftest`` delegates here too
  (:func:`run_cachenet_selftest`): a cold run against a network cache tier
  (``--cache-backend remote://host:port``, see ``docs/cachenet.md``), a warm
  rerun from a *host-fresh* cluster with zero local filesystem result cache,
  and graceful degradation to recomputation once the cache server is gone.

``--cache-dir`` names the shared cache every worker mounts; omitting it
gives the cluster a private temporary directory (useful for selftests and
benchmarks, wrong for durable deployments).  ``--cache-backend`` replaces
the shared-directory result tier with a network cache tier; ``--cache-dir``
then only anchors the trace fabric.  Worker registration is always
token-protected: ``--worker-token`` (or ``REPRO_SERVE_TOKEN``) supplies the
secret, which spawned workers inherit through their environment; a separate
``--auth-token`` protects the client-facing endpoint.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import sys

from repro.experiments.base import parse_endpoint

__all__ = ["main", "run_cachenet_selftest"]

#: Small two-network workload for the selftest (sharding needs >1 trace).
_SELFTEST_OVERRIDES = {
    "networks": ["alexnet", "vgg_m"],
    "max_pallets": 2,
    "samples_per_layer": 1500,
}


def _fail(message: str) -> int:
    print(f"cluster: {message}", file=sys.stderr)
    return 1


async def _run_batch(args) -> int:
    """Start a cluster, run one request through it, verify, and exit."""
    from repro.cluster.coordinator import ClusterService
    from repro.serve.protocol import ExperimentRequest, RunAllRequest

    service = ClusterService(
        spawn_workers=args.workers,
        connect=args.connect,
        cache_dir=args.cache_dir,
        worker_processes=args.worker_processes,
        worker_token=args.worker_token,
        trace_dir=args.trace_dir,
        no_trace_cache=args.no_trace_cache,
        cache_backend=args.cache_backend,
        max_jobs_per_worker=args.max_jobs_per_worker,
    )
    if args.run == "all":
        request = RunAllRequest(preset=args.preset, seed=args.seed)
    else:
        request = ExperimentRequest(
            experiment=args.run, preset=args.preset, seed=args.seed
        )
    async with service:
        ticket = await service.submit(request)
        response = await service.wait(ticket)
        fleet = (await service.cluster_stats())["cluster"]["fleet"]
    if response["event"] != "done":
        return _fail(f"batch request failed: {response.get('error')}")
    stats = response["stats"]
    info = response["result"].get("cluster", {})
    simulated = stats["sweep"]["configs_simulated"]
    planned = info.get("planned_units", 0)
    requeued = service.flights_requeued
    print(
        f"cluster run {request.describe()}: planned {planned} unit(s), "
        f"planned cache hits {info.get('planned_hits', 0)}, "
        f"simulated {simulated} configs across "
        f"{len(service.links)} worker(s), {requeued} requeue(s)"
    )
    print(
        "stats: "
        f"cache {stats['cache']['hits']} hits / {stats['cache']['misses']} misses / "
        f"{stats['cache']['stores']} stores; "
        f"simulated {simulated} configs; "
        f"traces {stats['traces_built']} built / {stats['traces_reused']} reused"
    )
    print(
        f"fleet fabric: {fleet['trace_calibrations_computed']} calibrations, "
        f"{fleet['trace_tensors_built']} tensor builds, "
        f"{fleet['traces_mapped']} mmaps "
        f"({fleet['trace_bytes_shared']} bytes shared)"
    )
    if requeued == 0 and simulated != planned:
        return _fail(
            f"exactly-once violated: planned {planned} units but "
            f"simulated {simulated} configs"
        )
    return 0


async def _selftest_sharded_run(service, client) -> int:
    """Cold sharded experiment: every planned unit simulated exactly once."""
    response = await client.run_experiment("fig9", overrides=_SELFTEST_OVERRIDES)
    if not response.ok or not response.result:
        print(f"selftest: sharded run failed: {response.error}", file=sys.stderr)
        return 1
    planned = response.result.get("cluster", {}).get("planned_units", 0)
    simulated = response.stats.sweep.configs_simulated
    if planned == 0 or simulated != planned:
        print(
            f"selftest: expected exactly-once execution of {planned} planned "
            f"unit(s), merged stats report {simulated} simulated configs",
            file=sys.stderr,
        )
        return 1
    shards = {link.worker_id: link.completed for link in service.links.values()}
    workers_used = sum(1 for count in shards.values() if count > 0)
    print(
        f"selftest ok: fig9 sharded over {workers_used}/{len(shards)} workers "
        f"({planned} units, each simulated once; completions {shards})"
    )
    return 0


async def _selftest_warm_rerun(client) -> int:
    """A warm rerun recomputes nothing anywhere in the cluster."""
    response = await client.run_experiment("fig9", overrides=_SELFTEST_OVERRIDES)
    if not response.ok:
        print(f"selftest: warm rerun failed: {response.error}", file=sys.stderr)
        return 1
    simulated = response.stats.sweep.configs_simulated
    if simulated != 0:
        print(
            f"selftest: warm rerun simulated {simulated} configs (expected 0)",
            file=sys.stderr,
        )
        return 1
    print("selftest ok: warm rerun reported simulated 0 configs cluster-wide")
    return 0


async def _selftest_trace_fabric(service, client) -> int:
    """Across 2 workers, every trace artifact was materialized exactly once.

    The zero-copy trace fabric keys artifacts by content, and rendezvous
    routing sends each network's jobs to one worker — so summed over the
    fleet, calibrations computed (and tensors built) must equal the artifact
    count on disk: nothing was recomputed by the sibling worker, which
    loaded/mapped instead.  Runs after the cold + warm checks and before the
    worker-kill check (a killed worker's counters are unqueryable).
    """
    from repro.runtime import TraceArtifactStore

    payload = await service.cluster_stats()
    fleet = payload["cluster"]["fleet"]
    trace_dir = payload["cluster"]["trace_dir"]
    usage = TraceArtifactStore(trace_dir).usage()
    computed = fleet["trace_calibrations_computed"]
    built = fleet["trace_tensors_built"]
    if usage["calibrations"] == 0:
        print("selftest: no calibration artifacts materialized", file=sys.stderr)
        return 1
    if computed != usage["calibrations"] or built != usage["tensors"]:
        print(
            f"selftest: trace fabric built-once violated: fleet computed "
            f"{computed} calibrations / built {built} tensors for "
            f"{usage['calibrations']} calibration / {usage['tensors']} tensor "
            f"artifact(s) on disk",
            file=sys.stderr,
        )
        return 1
    print(
        f"selftest ok: {usage['calibrations'] + usage['tensors']} trace "
        f"artifact(s) each materialized exactly once across "
        f"{len(service.links)} workers "
        f"(fleet: {computed} calibrations computed, "
        f"{fleet['trace_calibrations_loaded']} loaded)"
    )
    return 0


async def _selftest_worker_kill(service, client) -> int:
    """Killing a worker mid-run requeues its jobs onto the survivor."""
    # Fresh trace spec (different seed) so this run is cold again.
    killed = []
    terminal = None
    terminal_event: dict = {}
    message = {
        "op": "run_experiment",
        "experiment": "fig10",
        "seed": 1,
        "overrides": _SELFTEST_OVERRIDES,
    }
    async for event in client.stream(message):
        name = event.get("event")
        if name == "progress" and not killed:
            worker_id = event.get("progress", {}).get("worker")
            link = service.links.get(worker_id)
            if link is not None and link.process is not None:
                killed.append(worker_id)
                link.process.terminate()
        if name in ("done", "failed", "cancelled", "error"):
            terminal = name
            terminal_event = event
    if not killed:
        print("selftest: no worker progress observed to kill on", file=sys.stderr)
        return 1
    if terminal != "done":
        print(
            f"selftest: run ended {terminal!r} after killing {killed[0]} "
            f"({terminal_event.get('error')})",
            file=sys.stderr,
        )
        return 1
    if service.flights_requeued < 1:
        print(
            "selftest: worker killed mid-flight but nothing was requeued",
            file=sys.stderr,
        )
        return 1
    # The membership monitor must relaunch + re-register the casualty: wait
    # for the respawn counter, then for a live link under the killed id.
    loop = asyncio.get_running_loop()
    deadline = loop.time() + 90.0
    while service.workers_respawned < 1 or not (
        (replacement := service.links.get(killed[0])) is not None and replacement.alive
    ):
        if loop.time() >= deadline:
            print(
                f"selftest: killed worker {killed[0]} was not respawned "
                f"(respawned={service.workers_respawned})",
                file=sys.stderr,
            )
            return 1
        await asyncio.sleep(0.2)
    print(
        f"selftest ok: killed {killed[0]} mid-run; {service.flights_requeued} "
        f"flight(s) requeued onto survivors, run completed, casualty "
        f"respawned as pid {replacement.pid}"
    )
    return 0


async def _selftest_cancellation(service, client) -> int:
    """A client cancel mid-run must interrupt the owning worker process."""
    cancelled = False
    terminal = None
    message = {
        "op": "run_experiment",
        "experiment": "fig12",
        "seed": 2,
        "overrides": _SELFTEST_OVERRIDES,
    }
    async for event in client.stream(message):
        name = event.get("event")
        if name == "progress" and not cancelled:
            cancelled = True
            await client.cancel(event["ticket"])
        if name in ("done", "failed", "cancelled", "error"):
            terminal = name
    if not cancelled:
        print("selftest: no progress to cancel on", file=sys.stderr)
        return 1
    if terminal != "cancelled":
        print(
            f"selftest: expected terminal cancelled, got {terminal!r}", file=sys.stderr
        )
        return 1
    follow_up = await asyncio.wait_for(
        client.run_experiment("table3", preset="smoke"), timeout=60
    )
    if not follow_up.ok:
        print(f"selftest: post-cancel request failed: {follow_up.error}", file=sys.stderr)
        return 1
    print(
        "selftest ok: cross-process cancellation interrupted the worker "
        "(terminal cancelled, survivors still serving)"
    )
    return 0


async def _selftest_recycle(service, client) -> int:
    """With ``max_jobs_per_worker`` set, workers are recycled once idle."""
    response = await client.run_experiment(
        "fig9", seed=4, overrides=_SELFTEST_OVERRIDES
    )
    if not response.ok:
        print(f"selftest: recycle run failed: {response.error}", file=sys.stderr)
        return 1
    loop = asyncio.get_running_loop()
    deadline = loop.time() + 90.0
    while service.workers_recycled < 1:
        if loop.time() >= deadline:
            print(
                "selftest: no worker was recycled after the run "
                f"(max_jobs_per_worker={service.max_jobs_per_worker}, "
                f"completions "
                f"{ {l.worker_id: l.completed for l in service.links.values()} })",
                file=sys.stderr,
            )
            return 1
        await asyncio.sleep(0.2)
    # The recycled fleet must keep serving: a warm rerun through the fresh
    # processes answers entirely from the shared cache backend.
    follow_up = await client.run_experiment(
        "fig9", seed=4, overrides=_SELFTEST_OVERRIDES
    )
    if not follow_up.ok:
        print(
            f"selftest: post-recycle request failed: {follow_up.error}",
            file=sys.stderr,
        )
        return 1
    if follow_up.stats.sweep.configs_simulated != 0:
        print(
            "selftest: post-recycle warm rerun simulated "
            f"{follow_up.stats.sweep.configs_simulated} configs (expected 0)",
            file=sys.stderr,
        )
        return 1
    print(
        f"selftest ok: {service.workers_recycled} worker(s) recycled after "
        f"{service.max_jobs_per_worker} job(s); recycled fleet served a warm "
        "rerun (simulated 0 configs)"
    )
    return 0


async def _selftest_elastic(args) -> int:
    """Elastic membership: recycling after N jobs, respawn after a kill."""
    from repro.cluster.coordinator import ClusterService
    from repro.serve.client import ServeClient

    workers = max(args.workers, 2)
    service = ClusterService(
        spawn_workers=workers,
        cache_dir=args.cache_dir,
        worker_processes=args.worker_processes,
        worker_token=args.worker_token,
        trace_dir=args.trace_dir,
        no_trace_cache=args.no_trace_cache,
        cache_backend=args.cache_backend,
        max_jobs_per_worker=args.max_jobs_per_worker or 1,
    )
    async with service:
        server = await service.serve_tcp("127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        async with server:
            client = await ServeClient.connect("127.0.0.1", port)
            try:
                print(
                    f"selftest-elastic: {workers} workers up, recycling after "
                    f"{service.max_jobs_per_worker} completed job(s)"
                )
                for check in (
                    lambda: _selftest_recycle(service, client),
                    lambda: _selftest_worker_kill(service, client),
                ):
                    status = await check()
                    if status:
                        return status
                return 0
            finally:
                await client.close()


async def _cachenet_run(spec: str, *, label: str) -> tuple[int, dict]:
    """One cold-start 2-worker batch against the network cache tier ``spec``.

    Returns ``(exit_status, info)`` where ``info`` carries the merged
    ``simulated`` count, the ``planned`` unit count and the coordinator's own
    remote-tier gauges (``remote_degraded`` in particular) — each call builds
    a *fresh* cluster with a private temporary cache directory, so any warmth
    can only come from the remote tier.
    """
    from repro.cluster.coordinator import ClusterService
    from repro.serve.protocol import parse_request

    service = ClusterService(spawn_workers=2, cache_backend=spec)
    request = parse_request(
        {"op": "run_experiment", "experiment": "fig9", "overrides": _SELFTEST_OVERRIDES}
    )
    async with service:
        local_dirs = [
            link.info.get("cache_dir") for link in service.links.values()
        ]
        ticket = await service.submit(request)
        response = await service.wait(ticket)
        usage = service.session.cache.usage()
    if response["event"] != "done":
        print(
            f"cachenet selftest: {label} run failed: {response.get('error')}",
            file=sys.stderr,
        )
        return 1, {}
    if any(directory is not None for directory in local_dirs):
        print(
            f"cachenet selftest: workers report local result caches "
            f"{local_dirs} (expected none under {spec})",
            file=sys.stderr,
        )
        return 1, {}
    info = {
        "simulated": response["stats"]["sweep"]["configs_simulated"],
        "planned": response["result"].get("cluster", {}).get("planned_units", 0),
        "remote_degraded": usage.get("remote_degraded", 0),
        "remote_hits": usage.get("remote_hits", 0),
    }
    return 0, info


async def _cachenet_selftest() -> int:
    """Cold → host-fresh warm → degraded, all against one cache server."""
    import shutil
    import tempfile
    from pathlib import Path

    from repro.cachenet.backend import RemoteBackend
    from repro.cachenet.server import CacheServer

    scratch = tempfile.mkdtemp(prefix="repro-cachenet-selftest-")
    server = CacheServer(directory=Path(scratch) / "cache")
    host, port = server.start()
    spec = f"remote://{host}:{port}"
    try:
        print(f"cachenet selftest: cache server on {spec}")
        status, cold = await _cachenet_run(spec, label="cold")
        if status:
            return status
        if cold["simulated"] == 0 or cold["simulated"] != cold["planned"]:
            print(
                f"cachenet selftest: cold run simulated {cold['simulated']} "
                f"configs for {cold['planned']} planned unit(s)",
                file=sys.stderr,
            )
            return 1
        stored = len(server.backend)
        if stored == 0:
            print("cachenet selftest: cold run stored nothing remotely", file=sys.stderr)
            return 1
        print(
            f"cachenet selftest ok: cold run simulated {cold['simulated']} "
            f"configs, {stored} entr(ies) now in the remote tier"
        )

        # A brand-new cluster — fresh worker processes, fresh private cache
        # directory, zero local filesystem result cache — must serve warm
        # purely from the network tier.
        status, warm = await _cachenet_run(spec, label="warm")
        if status:
            return status
        if warm["simulated"] != 0:
            print(
                f"cachenet selftest: host-fresh rerun simulated "
                f"{warm['simulated']} configs (expected 0)",
                file=sys.stderr,
            )
            return 1
        print(
            "cachenet selftest ok: host-fresh cluster served warm "
            "(simulated 0 configs, zero local filesystem cache)"
        )

        # Kill the cache server: the tier degrades to recomputation — the
        # run still succeeds, and the degraded counter records every miss
        # the dead tier caused.
        server.stop()
        probe = RemoteBackend(host, port, connect_timeout=1.0, retries=0)
        if probe.load("0" * 16, "network_result") is not None:
            print("cachenet selftest: dead server served a payload?", file=sys.stderr)
            return 1
        if probe.remote_degraded < 1:
            print(
                "cachenet selftest: dead-server lookup did not count as degraded",
                file=sys.stderr,
            )
            return 1
        probe.close()
        status, degraded = await _cachenet_run(spec, label="degraded")
        if status:
            return status
        # Exactly-once is a *cache* property and the cache is gone: the run
        # must merely complete, recomputing at least every planned unit
        # (assemblies recompute what they cannot look up).
        if degraded["simulated"] < degraded["planned"] or degraded["simulated"] == 0:
            print(
                f"cachenet selftest: degraded run simulated "
                f"{degraded['simulated']} configs for "
                f"{degraded['planned']} planned unit(s)",
                file=sys.stderr,
            )
            return 1
        if degraded["remote_degraded"] < 1:
            print(
                "cachenet selftest: degraded run reported no degraded "
                "remote operations",
                file=sys.stderr,
            )
            return 1
        print(
            f"cachenet selftest ok: cache server gone — run degraded to "
            f"recomputation ({degraded['simulated']} configs, "
            f"{degraded['remote_degraded']} degraded remote op(s) on the "
            "coordinator alone)"
        )
        return 0
    finally:
        server.stop()
        shutil.rmtree(scratch, ignore_errors=True)


def run_cachenet_selftest() -> int:
    """Backing implementation of ``repro cacheserve --selftest``.

    Lives here (not in :mod:`repro.cachenet.cli`) because it drives a full
    :class:`~repro.cluster.coordinator.ClusterService` and reuses this
    module's selftest workload; ``docs/cachenet.md`` describes the three
    phases (cold, host-fresh warm, degraded).
    """
    return asyncio.run(_cachenet_selftest())


async def _selftest(args) -> int:
    """Spawn 2 workers, shard, kill one mid-run, cancel cross-process."""
    from repro.cluster.coordinator import ClusterService
    from repro.serve.client import ServeClient

    workers = max(args.workers, 2)
    service = ClusterService(
        spawn_workers=workers,
        cache_dir=args.cache_dir,
        worker_processes=args.worker_processes,
        worker_token=args.worker_token,
        trace_dir=args.trace_dir,
        no_trace_cache=args.no_trace_cache,
        cache_backend=args.cache_backend,
    )
    async with service:
        server = await service.serve_tcp("127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        async with server:
            client = await ServeClient.connect("127.0.0.1", port)
            try:
                pids = [link.pid for link in service.links.values()]
                print(f"selftest: {workers} workers up (pids {pids})")
                for check in (
                    lambda: _selftest_sharded_run(service, client),
                    lambda: _selftest_warm_rerun(client),
                    lambda: _selftest_trace_fabric(service, client),
                    lambda: _selftest_worker_kill(service, client),
                    lambda: _selftest_cancellation(service, client),
                ):
                    status = await check()
                    if status:
                        return status
                return 0
            finally:
                await client.close()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro cluster",
        description="Shard experiment execution across worker processes "
        "behind the standard serve protocol.",
    )
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--tcp",
        type=parse_endpoint,
        metavar="HOST:PORT",
        help="serve the public protocol on HOST:PORT (port 0 = ephemeral)",
    )
    mode.add_argument(
        "--stdio",
        action="store_true",
        help="serve the public protocol over stdin/stdout",
    )
    mode.add_argument(
        "--run",
        metavar="EXPERIMENT|all",
        help="one-shot batch: run one experiment (or 'all'), verify "
        "exactly-once execution, print merged stats, exit",
    )
    mode.add_argument(
        "--selftest",
        action="store_true",
        help="spawn 2 workers, shard a run, kill one worker mid-run, "
        "assert requeue + respawn + completion + cross-process cancellation",
    )
    mode.add_argument(
        "--selftest-elastic",
        action="store_true",
        help="elastic-membership checks: recycle workers after "
        "--max-jobs-per-worker (default 1 here) and respawn a killed worker",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=2,
        metavar="N",
        help="local worker processes to spawn (default: 2; 0 with --connect)",
    )
    parser.add_argument(
        "--connect",
        type=parse_endpoint,
        action="append",
        default=[],
        metavar="HOST:PORT",
        help="attach a pre-started worker (repeatable); workers must share "
        "a cache backend",
    )
    parser.add_argument(
        "--worker-processes",
        type=int,
        default=2,
        metavar="K",
        help="concurrent jobs per spawned worker (default: 2)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="shared result cache all workers mount (default: a private "
        "temporary directory, removed on exit)",
    )
    parser.add_argument(
        "--cache-backend",
        default=None,
        metavar="SPEC",
        help="result-cache backend spec every worker mounts instead of the "
        "shared directory (e.g. remote://HOST:PORT, docs/cachenet.md); "
        "--cache-dir then only anchors the trace fabric",
    )
    parser.add_argument(
        "--max-jobs-per-worker",
        type=int,
        default=None,
        metavar="N",
        help="recycle a spawned worker (relaunch + re-register) after it "
        "completes N jobs, bounding per-process memory (default: never)",
    )
    parser.add_argument(
        "--trace-dir",
        default=None,
        metavar="DIR",
        help="trace-fabric artifact directory every worker shares "
        "(default: <cache-dir>/traces)",
    )
    parser.add_argument(
        "--no-trace-cache",
        action="store_true",
        help="disable the zero-copy trace fabric on every worker",
    )
    parser.add_argument(
        "--worker-token",
        default=None,
        metavar="TOKEN",
        help="shared secret for worker registration (default: "
        "$REPRO_SERVE_TOKEN, or generated per run)",
    )
    parser.add_argument(
        "--auth-token",
        default=None,
        metavar="TOKEN",
        help="require clients of the coordinator's endpoint to authenticate",
    )
    parser.add_argument("--preset", default="fast", help="preset for --run (default: fast)")
    parser.add_argument("--seed", type=int, default=0, help="seed for --run (default: 0)")
    args = parser.parse_args(argv)
    if args.workers < 0:
        parser.error("--workers must be non-negative")
    if args.workers == 0 and not args.connect:
        parser.error("a cluster needs --workers >= 1 and/or --connect endpoints")
    if args.max_jobs_per_worker is not None and args.max_jobs_per_worker < 1:
        parser.error("--max-jobs-per-worker must be positive")
    if args.worker_token is None:
        args.worker_token = os.environ.get("REPRO_SERVE_TOKEN") or None

    try:
        if args.selftest:
            return asyncio.run(_selftest(args))
        if args.selftest_elastic:
            return asyncio.run(_selftest_elastic(args))
        if args.run:
            from repro.experiments.runner import EXPERIMENTS

            if args.run != "all" and args.run not in EXPERIMENTS:
                parser.error(
                    f"unknown experiment {args.run!r}; "
                    f"available: all, {', '.join(EXPERIMENTS)}"
                )
            return asyncio.run(_run_batch(args))
        if args.tcp is None and not args.stdio:
            parser.error(
                "pick a mode: --tcp, --stdio, --run, --selftest or "
                "--selftest-elastic"
            )

        from repro.cluster.coordinator import ClusterService

        service = ClusterService(
            spawn_workers=args.workers,
            connect=args.connect,
            cache_dir=args.cache_dir,
            worker_processes=args.worker_processes,
            worker_token=args.worker_token,
            auth_token=args.auth_token,
            trace_dir=args.trace_dir,
            no_trace_cache=args.no_trace_cache,
            cache_backend=args.cache_backend,
            max_jobs_per_worker=args.max_jobs_per_worker,
        )

        async def run_tcp(host: str, port: int) -> None:
            async with service:
                server = await service.serve_tcp(host, port)
                bound = server.sockets[0].getsockname()
                print(
                    f"repro cluster: coordinator on {bound[0]}:{bound[1]} "
                    f"({len(service.links)} workers)",
                    file=sys.stderr,
                )
                async with server:
                    await service.wait_shutdown()

        if args.tcp:
            asyncio.run(run_tcp(*args.tcp))
        else:
            asyncio.run(service.run_stdio())
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
