"""``python -m repro cacheserve`` — the standalone network cache server.

``--tcp HOST:PORT`` (default ``127.0.0.1:0``) serves the length-prefixed JSON
frame protocol of ``docs/cachenet.md`` until interrupted or a client sends
the ``shutdown`` op.  The bound endpoint is announced on stderr
(``repro cacheserve: listening on HOST:PORT``), so port ``0`` works in
scripts; an endpoint it cannot bind ends it with one line and exit status 1.

``--cache-dir`` names the entry directory (the standard gzip entry files, with
the directory as their index — a cache server can adopt any existing cache
directory).  ``--auth-token`` (or ``REPRO_CACHE_TOKEN``) demands a
constant-time-compared shared secret from every connection.  The server runs
no background GC: bound the store with the ``gc`` op, or with
``python -m repro --cache-gc --max-bytes SIZE --cache-dir DIR`` run from any
process (cron, say) while it serves.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.experiments.base import parse_endpoint
from repro.runtime.session import default_cache_dir

__all__ = ["main"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro cacheserve",
        description="Serve one shared result-cache tier to remote backends over TCP.",
    )
    parser.add_argument(
        "--tcp",
        type=parse_endpoint,
        default=("127.0.0.1", 0),
        metavar="HOST:PORT",
        help="endpoint to listen on (default: 127.0.0.1:0, ephemeral)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="entry directory to serve (default: ~/.cache/repro-pragmatic "
        "or $REPRO_CACHE_DIR)",
    )
    parser.add_argument(
        "--auth-token",
        default=None,
        metavar="TOKEN",
        help="require clients to authenticate with this shared secret "
        "(default: $REPRO_CACHE_TOKEN)",
    )
    args = parser.parse_args(argv)

    if args.auth_token is None:
        args.auth_token = os.environ.get("REPRO_CACHE_TOKEN") or None

    from repro.cachenet.server import CacheServer

    server = CacheServer(args.cache_dir or default_cache_dir(), auth_token=args.auth_token)
    try:
        host, port = server.start(*args.tcp)
    except OSError as error:  # cannot listen, say: the port is taken
        print(f"repro cacheserve: cannot listen on {':'.join(map(str, args.tcp))}: {error}",
              file=sys.stderr)
        return 1
    print(
        f"repro cacheserve: listening on {host}:{port} "
        f"(cache dir: {server.directory})",
        file=sys.stderr,
        flush=True,
    )
    try:
        # serve_forever runs on the daemon thread; park until interrupted or
        # a client's shutdown op stops the server from within.
        while not server.wait_stopped(timeout=0.5):
            pass
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
