"""``python -m repro serve`` — command-line entry of the serving front-end.

Modes:

* ``--stdio`` (default) — speak the line-delimited JSON protocol over
  stdin/stdout until EOF or a ``shutdown`` op.
* ``--tcp HOST:PORT`` — listen for concurrent protocol connections
  (``PORT 0`` picks an ephemeral port, printed on startup).
* ``--worker`` — cluster worker mode (``docs/cluster.md``): a TCP service
  with the registration handshake and internal job ops a
  ``python -m repro cluster`` coordinator drives, storing through the cache
  its sibling workers share.  Requires an auth token and prints a one-line
  JSON banner (bound host/port/pid) on stdout.

``--workers`` bounds concurrent job execution; ``--cache-dir``/``--no-cache``
select the shared result cache exactly like the batch CLI (``--no-cache``
keeps it in memory, so repeated requests are still answered from it).  ``--auth-token``
(or ``REPRO_SERVE_TOKEN``) demands a constant-time-compared shared secret
from every TCP connection before anything reaches the queue.  The server
runs no background housekeeping: a long-lived server's disk cache is bounded
by the ``gc`` op, or by ``python -m repro --cache-gc --cache-dir DIR`` run
from any process (cron, say) while it serves.  See ``docs/serving.md`` for
the protocol and examples.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys

from repro.cachenet.backend import parse_backend_spec
from repro.experiments.base import parse_endpoint
from repro.runtime.session import default_cache_dir, resolve_cache_dir, resolve_trace_dir

__all__ = ["main"]


async def _run_worker(args) -> int:
    """Cluster worker mode: a WorkerService plus a machine-readable banner.

    The coordinator spawns this subprocess, reads one JSON line from stdout
    to learn the bound endpoint, then connects, authenticates and registers
    (see ``docs/cluster.md``).
    """
    from repro.cluster.worker import WorkerService

    cache_dir = args.cache_dir or default_cache_dir()
    try:
        service = WorkerService(
            cache_dir=cache_dir,
            trace_dir=args.trace_dir,
            no_trace_cache=args.no_trace_cache,
            cache_backend=args.cache_backend,
            workers=args.workers,
            auth_token=args.auth_token,
        )
    except ValueError as error:
        print(f"repro serve: {error}", file=sys.stderr)
        return 2
    async with service:
        server = await service.serve_tcp(*args.worker_endpoint)
        bound = server.sockets[0].getsockname()
        print(
            json.dumps(
                {
                    "event": "worker-listening",
                    "host": bound[0],
                    "port": bound[1],
                    "pid": os.getpid(),
                    "cache_dir": str(cache_dir),
                    "trace_dir": str(resolve_trace_dir(
                        cache_dir, args.trace_dir, args.no_trace_cache
                    )),
                }
            ),
            flush=True,
        )
        async with server:
            await service.wait_shutdown()
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Serve experiment/simulation requests from one warm runtime session.",
    )
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--stdio",
        action="store_true",
        help="speak the JSON-lines protocol over stdin/stdout (default)",
    )
    mode.add_argument(
        "--tcp",
        type=parse_endpoint,
        metavar="HOST:PORT",
        help="listen for protocol connections on HOST:PORT (port 0 = ephemeral)",
    )
    mode.add_argument(
        "--worker",
        action="store_true",
        help="cluster worker mode: TCP service with a registration handshake "
        "and a multi-process-safe shared cache (requires an auth token; "
        "prints a JSON banner with the bound endpoint on stdout)",
    )
    parser.add_argument(
        "--worker-endpoint",
        type=parse_endpoint,
        default=("127.0.0.1", 0),
        metavar="HOST:PORT",
        help="endpoint of --worker mode (default: 127.0.0.1:0, ephemeral)",
    )
    parser.add_argument(
        "--auth-token",
        default=None,
        metavar="TOKEN",
        help="require TCP clients to authenticate with this shared secret "
        "before anything reaches the queue (default: $REPRO_SERVE_TOKEN; "
        "mandatory in --worker mode)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=2,
        metavar="N",
        help="bound on concurrently executing jobs (default: 2)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="shared on-disk result cache (default: ~/.cache/repro-pragmatic "
        "or $REPRO_CACHE_DIR)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="keep results in memory: nothing persists, and a repeated "
        "request is still answered from memory",
    )
    parser.add_argument(
        "--cache-backend",
        type=parse_backend_spec,
        default=None,
        metavar="SPEC",
        help="network cache tier instead of --cache-dir: remote://HOST:PORT "
        "(see docs/cachenet.md)",
    )
    parser.add_argument(
        "--trace-dir",
        default=None,
        metavar="DIR",
        help="trace-fabric directory (default: <cache-dir>/traces); "
        "processes sharing it calibrate each network once",
    )
    parser.add_argument(
        "--no-trace-cache",
        action="store_true",
        help="disable the trace fabric (calibrate each network in-process)",
    )
    args = parser.parse_args(argv)
    if args.workers < 1:
        parser.error("--workers must be at least 1")

    if args.auth_token is None:
        args.auth_token = os.environ.get("REPRO_SERVE_TOKEN") or None

    if args.worker:
        if args.no_cache:
            parser.error("--worker needs the shared cache (drop --no-cache)")
        return asyncio.run(_run_worker(args))

    from repro.serve.service import ExperimentService

    service = ExperimentService(
        cache_dir=resolve_cache_dir(args.cache_dir, args.no_cache, args.cache_backend),
        no_cache=args.no_cache,
        workers=args.workers,
        auth_token=args.auth_token,
        trace_dir=args.trace_dir,
        no_trace_cache=args.no_trace_cache,
        cache_backend=args.cache_backend,
    )

    async def run_tcp(host: str, port: int) -> None:
        async with service:
            server = await service.serve_tcp(host, port)
            bound = server.sockets[0].getsockname()
            print(f"repro serve: listening on {bound[0]}:{bound[1]}", file=sys.stderr)
            async with server:
                # Returns when a client sends the shutdown op (or on ^C).
                await service.wait_shutdown()

    try:
        if args.tcp:
            asyncio.run(run_tcp(*args.tcp))
        else:
            asyncio.run(service.run_stdio())
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
