"""``python -m repro loadgen`` — drive sustained traffic and report.

Replays a seeded request mix against a serve-protocol endpoint and emits the
report: human-readable text on stderr, schema-checked JSON on stdout (or
``--json FILE``).  The target is either an existing server
(``--connect HOST:PORT``) or — for hermetic runs — a target this command
spawns with its own CLI defaults and tears down itself: ``--spawn serve``
(one process, 2 execution slots, private temp cache) or ``--spawn cluster``
(a coordinator over 2 worker processes of 2 slots each, private temp cache).

The mix is the JSON spec ``--mix FILE`` names, or the default
:class:`~repro.loadgen.mix.MixSpec` without it (see ``docs/loadgen.md``);
every run is deterministic in the spec's ``seed``.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import sys
import tempfile
from pathlib import Path

from repro.loadgen.mix import MixError, MixSpec
from repro.loadgen.report import validate_report
from repro.loadgen.swarm import LoadSwarm
from repro.serve.cli import reap, spawn_server

__all__ = ["main"]

#: Seconds allowed for a spawned target to print its endpoint banner
#: (cluster startup includes per-worker spawn + handshake).
SPAWN_TIMEOUT = 180.0


class _SpawnedTarget:
    """A serve/cluster subprocess owned by this load run (hermetic)."""

    def __init__(self, kind: str, cache_backend: str | None = None) -> None:
        self.kind = kind
        self.cache_backend = cache_backend
        self.process: asyncio.subprocess.Process | None = None
        self.host: str | None = None
        self.port: int | None = None
        self._tmp: tempfile.TemporaryDirectory | None = None

    def _command(self) -> list[str]:
        command = [sys.executable, "-m", "repro", self.kind, "--tcp", "127.0.0.1:0"]
        if self.kind == "serve":
            self._tmp = tempfile.TemporaryDirectory(prefix="repro-loadgen-cache-")
            command.extend(["--cache-dir", self._tmp.name])
        # A cluster gets no --cache-dir on purpose: the coordinator creates
        # and removes a private shared directory itself.
        if self.cache_backend is not None:
            command.extend(["--cache-backend", self.cache_backend])
        return command

    async def __aenter__(self) -> "_SpawnedTarget":
        self.process, self.host, self.port = await spawn_server(self._command(), SPAWN_TIMEOUT)
        return self

    async def __aexit__(self, *exc_info) -> None:
        """Ask the target to shut down via the protocol; escalate if deaf."""
        from repro.serve.client import ServeClient

        if self.process.returncode is None:
            with contextlib.suppress(Exception):
                client = await ServeClient.connect(self.host, self.port)
                await asyncio.wait_for(client.shutdown(), timeout=15)
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(self.process.wait(), timeout=30)
        await reap(self.process)
        if self._tmp is not None:
            self._tmp.cleanup()


async def _run(args, mix: MixSpec) -> int:
    if args.spawn:
        async with _SpawnedTarget(args.spawn, cache_backend=args.cache_backend) as target:
            swarm = LoadSwarm(
                mix, target.host, target.port, auth_token=args.auth_token, target=args.spawn
            )
            report = await swarm.run()
    else:
        host, port = args.connect
        swarm = LoadSwarm(mix, host, port, auth_token=args.auth_token, target="connect")
        report = await swarm.run()

    payload = report.to_dict()
    validate_report(payload)  # a malformed report must fail loudly, not ship
    print(report.to_text(), file=sys.stderr)
    rendered = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.json:
        Path(args.json).write_text(rendered, encoding="utf-8")
        print(f"loadgen: report written to {args.json}", file=sys.stderr)
    else:
        sys.stdout.write(rendered)
    if report.done == 0:
        print("loadgen: no request completed", file=sys.stderr)
        return 1
    if report.failed:
        print(f"loadgen: {report.failed} request(s) failed", file=sys.stderr)
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    from repro.cachenet.backend import parse_backend_spec
    from repro.experiments.base import parse_endpoint

    parser = argparse.ArgumentParser(
        prog="repro loadgen",
        description="Sustained-traffic load harness for serve and cluster.",
    )
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--connect", type=parse_endpoint, metavar="HOST:PORT",
        help="load an already-running serve/cluster endpoint",
    )
    mode.add_argument(
        "--spawn", choices=("serve", "cluster"),
        help="spawn the target for a hermetic run with its CLI defaults "
        "(serve: 2 slots; cluster: 2 workers of 2 slots) and a private temp "
        "cache, tear it down afterwards",
    )
    parser.add_argument("--auth-token", default=None, help="shared secret of the target")
    parser.add_argument(
        "--cache-backend", type=parse_backend_spec, default=None, metavar="SPEC",
        help="--spawn: mount a network cache tier on the target "
        "(remote://HOST:PORT, see docs/cachenet.md) instead of its "
        "private temp cache; the report then carries a remote_cache block",
    )
    parser.add_argument(
        "--mix", metavar="FILE",
        help="JSON mix spec (see docs/loadgen.md; default: the built-in mix)",
    )
    out = parser.add_argument_group("output")
    out.add_argument("--json", metavar="FILE", help="write the JSON report here instead of stdout")
    args = parser.parse_args(argv)

    if not args.spawn and not args.connect:
        parser.error("pick a target: --spawn serve|cluster or --connect HOST:PORT")
    if args.cache_backend and not args.spawn:
        parser.error("--cache-backend requires --spawn (a connected target "
                     "already chose its backend)")
    try:
        mix = MixSpec.from_file(args.mix) if args.mix else MixSpec()
    except MixError as error:
        parser.error(str(error))
    try:
        return asyncio.run(_run(args, mix))
    except ChildProcessError as error:
        print(f"loadgen: spawned {args.spawn} {error}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        return 130


if __name__ == "__main__":
    raise SystemExit(main())
