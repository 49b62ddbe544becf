"""``python -m repro cluster`` — run a sharded multi-worker cluster.

``--tcp HOST:PORT`` or ``--stdio`` serves the public protocol from a
coordinator backed by ``--workers N`` spawned local worker processes and/or
``--connect HOST:PORT`` pre-started workers (topology in
``docs/cluster.md``).  A one-shot batch is a protocol request: pipe
``{"op": "run_all"}`` (or ``run_experiment``) into ``--stdio``; its ``done``
event carries the merged ``stats.sweep.configs_simulated`` and the plan's
``result.cluster.planned_units``, which a cold run without worker deaths
matches exactly.

``--cache-dir`` names the shared cache every worker mounts; omitting it
gives the cluster a private temporary directory (useful for tests and
benchmarks, wrong for durable deployments).  ``--cache-backend`` replaces
the shared cache directory as the result tier with a network cache tier
(``remote://host:port``, see ``docs/cachenet.md``); ``--cache-dir`` then
anchors nothing, although spawned workers still receive it.  Every worker
demands a token:
``--worker-token`` (or ``REPRO_SERVE_TOKEN``) supplies the secret, which
spawned workers inherit through their environment; a separate
``--auth-token`` protects the client-facing endpoint.  A cluster that
cannot start (a worker that dies or cannot be reached, a port in use) exits
1 with one line naming the reason.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import sys

from repro.cachenet.backend import parse_backend_spec
from repro.experiments.base import parse_endpoint

__all__ = ["main"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro cluster",
        description="Shard experiment execution across worker processes "
        "behind the standard serve protocol.",
    )
    mode = parser.add_mutually_exclusive_group(required=True)
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
        "directory: remote://HOST:PORT (see docs/cachenet.md)",
    )
    parser.add_argument(
        "--worker-token",
        default=None,
        metavar="TOKEN",
        help="shared secret every worker demands (default: "
        "$REPRO_SERVE_TOKEN, or generated per run)",
    )
    parser.add_argument(
        "--auth-token",
        default=None,
        metavar="TOKEN",
        help="require clients of the coordinator's endpoint to authenticate",
    )
    args = parser.parse_args(argv)
    if args.workers < 0:
        parser.error("--workers must be non-negative")
    if args.workers == 0 and not args.connect:
        parser.error("a cluster needs --workers >= 1 and/or --connect endpoints")
    if args.worker_processes < 1:
        parser.error("--worker-processes must be at least 1")
    if args.worker_token is None:
        args.worker_token = os.environ.get("REPRO_SERVE_TOKEN") or None

    from repro.cluster.coordinator import ClusterError, ClusterService

    service = ClusterService(
        spawn_workers=args.workers,
        connect=args.connect,
        cache_dir=args.cache_dir,
        worker_processes=args.worker_processes,
        worker_token=args.worker_token,
        auth_token=args.auth_token,
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

    try:
        if args.tcp:
            asyncio.run(run_tcp(*args.tcp))
        else:
            asyncio.run(service.run_stdio())
    except (OSError, ClusterError) as error:
        print(f"repro cluster: {error}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
