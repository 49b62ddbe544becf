"""``python -m repro cluster`` — run a sharded multi-worker cluster.

Modes (all share the worker flags; topology details in ``docs/cluster.md``):

* ``--tcp HOST:PORT`` / ``--stdio`` — serve the public protocol from a
  coordinator backed by ``--workers N`` spawned local worker processes
  and/or ``--connect HOST:PORT`` pre-started workers.
* ``--run EXPERIMENT|all`` — one-shot batch: start the cluster, execute the
  request, print the result summary and the merged cluster ``RunStats``,
  verify each simulation ran exactly once cluster-wide (merged
  ``sweep.configs_simulated`` equals the planned unit count), and exit.

``--cache-dir`` names the shared cache every worker mounts; omitting it
gives the cluster a private temporary directory (useful for tests and
benchmarks, wrong for durable deployments).  ``--cache-backend`` replaces
the shared cache directory as the result tier with a network cache tier
(``remote://host:port``, see ``docs/cachenet.md``); ``--cache-dir`` then
only anchors the trace fabric.  Worker registration is always
token-protected: ``--worker-token`` (or ``REPRO_SERVE_TOKEN``) supplies the
secret, which spawned workers inherit through their environment; a separate
``--auth-token`` protects the client-facing endpoint.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import sys

from repro.cachenet.backend import parse_backend_spec
from repro.experiments.base import parse_endpoint

__all__ = ["main"]


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
        f"fleet fabric: {fleet['trace_calibrations_computed']} calibrations computed, "
        f"{fleet['trace_calibrations_loaded']} loaded"
    )
    if requeued == 0 and simulated != planned:
        return _fail(
            f"exactly-once violated: planned {planned} units but "
            f"simulated {simulated} configs"
        )
    return 0


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
        type=parse_backend_spec,
        default=None,
        metavar="SPEC",
        help="network cache tier every worker mounts instead of the shared "
        "directory: remote://HOST:PORT (see docs/cachenet.md); --cache-dir "
        "then only anchors the trace fabric",
    )
    parser.add_argument(
        "--trace-dir",
        default=None,
        metavar="DIR",
        help="trace-fabric directory every worker shares "
        "(default: <cache-dir>/traces)",
    )
    parser.add_argument(
        "--no-trace-cache",
        action="store_true",
        help="disable the trace fabric on every worker",
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
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.worker_token is None:
        args.worker_token = os.environ.get("REPRO_SERVE_TOKEN") or None

    try:
        if args.run:
            from repro.experiments.runner import EXPERIMENTS

            if args.run != "all" and args.run not in EXPERIMENTS:
                parser.error(
                    f"unknown experiment {args.run!r}; "
                    f"available: all, {', '.join(EXPERIMENTS)}"
                )
            return asyncio.run(_run_batch(args))
        if args.tcp is None and not args.stdio:
            parser.error("pick a mode: --tcp, --stdio or --run")

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
