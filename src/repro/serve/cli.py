"""``python -m repro serve`` — command-line entry of the serving front-end.

Modes:

* ``--stdio`` (default) — speak the line-delimited JSON protocol over
  stdin/stdout until EOF or a ``shutdown`` op.
* ``--tcp HOST:PORT`` — listen for concurrent protocol connections
  (``PORT 0`` picks an ephemeral port).  The bound endpoint is announced on
  stderr as ``repro serve: listening on HOST:PORT``.
* ``--tcp HOST:PORT --worker`` — a cluster worker (``docs/cluster.md``): the
  same TCP service, plus the internal job ops a ``python -m repro cluster``
  coordinator drives, storing through the cache its sibling workers share.
  It requires an auth token: the token check is the cluster's trust boundary.

``--workers`` bounds concurrent job execution; ``--cache-dir``/``--no-cache``
select the shared result cache exactly like the batch CLI (``--no-cache``
keeps it in memory, so repeated requests are still answered from it).  ``--auth-token``
(or ``REPRO_SERVE_TOKEN``) demands a constant-time-compared shared secret
from every TCP connection before anything reaches the queue.  The server
runs no background housekeeping: a long-lived server's disk cache is bounded
by the ``gc`` op, or by ``python -m repro --cache-gc --cache-dir DIR`` run
from any process (cron, say) while it serves.  See ``docs/serving.md`` for
the protocol and examples.

:func:`spawn_server` starts a serve, cluster or cacheserve subprocess and
finds its endpoint in that banner; :func:`reap` stops one.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import os
import re
import sys

from repro.cachenet.backend import parse_backend_spec
from repro.experiments.base import parse_endpoint
from repro.runtime.session import resolve_cache_dir

__all__ = ["main", "reap", "spawn_server"]

#: The endpoint banner serve and cacheserve (``listening on``) and cluster
#: (``coordinator on``) print on stderr once they listen.
BANNER = re.compile(r"(?:listening on|coordinator on) ([\d.]+):(\d+)")

#: Stderr pumps of spawned servers (the event loop keeps tasks weakly).
_PUMPS: set[asyncio.Task] = set()


async def _pump(process: asyncio.subprocess.Process, endpoint: asyncio.Future) -> None:
    """Copy ``process``'s stderr lines to ours until EOF, so it never blocks
    on a full pipe; its first banner line resolves ``endpoint`` instead."""
    while True:
        try:
            line = await process.stderr.readline()
        except ValueError:  # a line over the stream limit: its bytes are dropped
            continue
        if not line:
            break
        match = None if endpoint.done() else BANNER.search(line.decode("utf-8", "replace"))
        if match:
            endpoint.set_result((match.group(1), int(match.group(2))))
            continue
        with contextlib.suppress(OSError, ValueError):  # our own stderr is gone
            sys.stderr.write(line.decode("utf-8", "replace"))
            sys.stderr.flush()
    if not endpoint.done():
        status = await process.wait()
        endpoint.set_exception(
            ChildProcessError(f"exited with status {status} before its banner")
        )


async def spawn_server(
    argv: list[str], timeout: float, env: dict | None = None
) -> tuple[asyncio.subprocess.Process, str, int]:
    """Start a server subprocess; returns it with the endpoint of its banner.

    Under one ``timeout``, reads the child's stderr until :data:`BANNER`.
    Every other stderr line, before and after the banner, is forwarded to
    this process's stderr.  A child that exits first, or prints no banner in
    time, is reaped and raises :class:`ChildProcessError`.
    """
    process = await asyncio.create_subprocess_exec(
        *argv,
        env=env,
        stdin=asyncio.subprocess.DEVNULL,
        stdout=asyncio.subprocess.DEVNULL,
        stderr=asyncio.subprocess.PIPE,
    )
    endpoint = asyncio.get_running_loop().create_future()
    pump = asyncio.create_task(_pump(process, endpoint))
    _PUMPS.add(pump)
    pump.add_done_callback(_PUMPS.discard)
    try:
        host, port = await asyncio.wait_for(endpoint, timeout)
    except asyncio.TimeoutError:
        await reap(process)
        raise ChildProcessError(f"printed no endpoint banner within {timeout:g} s") from None
    except BaseException:
        await reap(process)
        raise
    return process, host, port


async def reap(process: asyncio.subprocess.Process) -> None:
    """Terminate ``process`` (kill it if that is not enough) and wait for it."""
    if process.returncode is None:
        with contextlib.suppress(ProcessLookupError):
            process.terminate()
    try:
        await asyncio.wait_for(process.wait(), timeout=10)
    except asyncio.TimeoutError:  # pragma: no cover - last resort
        with contextlib.suppress(ProcessLookupError):
            process.kill()
        await process.wait()


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
    parser.add_argument(
        "--worker",
        action="store_true",
        help="with --tcp: serve as a cluster worker, accepting a coordinator's "
        "internal job ops (requires an auth token and the shared cache)",
    )
    parser.add_argument(
        "--auth-token",
        default=None,
        metavar="TOKEN",
        help="require TCP clients to authenticate with this shared secret "
        "before anything reaches the queue (default: $REPRO_SERVE_TOKEN; "
        "mandatory with --worker)",
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
        if not args.tcp:
            parser.error("--worker needs --tcp HOST:PORT")
        if not args.auth_token:
            parser.error("--worker needs an auth token (--auth-token or REPRO_SERVE_TOKEN)")
        if args.no_cache:
            parser.error("--worker needs the shared cache (drop --no-cache)")
        from repro.cluster.worker import WorkerService as Service
    else:
        from repro.serve.service import ExperimentService as Service

    service = Service(
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
    except OSError as error:  # cannot listen, say: the port is taken
        print(f"repro serve: {error}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
