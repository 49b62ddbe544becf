"""The experiment-serving service: one warm session, many concurrent clients.

:class:`ExperimentService` owns a single long-lived
:class:`~repro.runtime.session.RuntimeSession` (shared ``ResultCache`` +
``TraceStore``), an async :class:`~repro.serve.queue.RequestQueue` and a
bounded :class:`~repro.serve.workers.WorkerPool`.  Clients reach it three
ways, all speaking the same typed requests:

* **in process** — ``await service.submit(request)`` / ``await service.wait``,
  used by tests and embedders;
* **TCP** — :meth:`ExperimentService.serve_tcp`, line-delimited JSON
  (:mod:`repro.serve.protocol`) for many concurrent remote clients;
* **stdio** — :meth:`ExperimentService.run_stdio`, the same protocol over
  stdin/stdout for single-operator and subprocess use.

The request lifecycle (``queued → running → done/failed/cancelled``,
inline answers of jobs whose inputs are all resident, coalescing,
cooperative cancellation of running jobs, ``stream`` progress events) is
documented in ``docs/serving.md``; the architecture map in
``docs/architecture.md`` places this layer at the top of the stack.
"""

from __future__ import annotations

import asyncio
import contextlib
import hmac
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

from repro.runtime import RunStats, build_session
from repro.runtime.lifecycle import gc_bounds
from repro.serve.protocol import (
    CONTROL_OPS,
    JOB_OPS,
    ProtocolError,
    ServeRequest,
    decode,
    encode,
    parse_request,
)
from repro.serve.queue import RequestQueue, Ticket
from repro.serve.workers import WorkerPool

__all__ = ["ConnectionContext", "ExperimentService"]

#: Upper bound on flushing a closing connection's outbox (seconds).  A peer
#: that disconnected or stopped reading cannot hold the close path hostage.
CLOSE_DRAIN_TIMEOUT = 5.0

#: Longest request line a connection accepts (asyncio's default stream limit:
#: bytes over TCP, characters over stdio).  A longer line gets one ``error``
#: event carrying :data:`LINE_TOO_LONG` and ends the connection.
LINE_LIMIT = 64 * 1024

#: The error both transports answer an over-long request line with.
LINE_TOO_LONG = f"request line exceeds the {LINE_LIMIT}-byte limit"

#: Most events a TCP connection's outbox holds while its peer is not reading.
#: A peer that lets it fill is disconnected at once, and its jobs are
#: disowned as on any disconnect, so it cannot make the server grow.
OUTBOX_LIMIT = 1024


@dataclass
class ConnectionContext:
    """Per-connection state threaded through :meth:`ExperimentService.handle_message`.

    ``tickets`` collects the live jobs the connection submitted (disowned on
    disconnect).  ``authenticated`` starts ``False`` on TCP connections of a
    token-protected service and flips after a valid ``auth`` op; in-process
    and stdio callers are local operators and start authenticated.
    """

    tickets: list[Ticket] = field(default_factory=list)
    authenticated: bool = True


class ExperimentService:
    """Async front-end serving experiment/simulation requests.

    Parameters
    ----------
    cache_dir:
        Directory of the shared on-disk result cache; ``None`` keeps the warm
        cache in memory (still shared across every request of this service).
    no_cache:
        Keep the result cache in memory even when ``cache_dir`` is given:
        nothing persists, and a repeated request is still answered from
        memory, as with ``cache_dir=None``.
    workers:
        Bound on concurrently executing jobs.
    auth_token:
        Optional shared secret.  When set, TCP connections must authenticate
        (``{"op": "auth", "token": ...}``, constant-time compare) before any
        other message reaches the queue; unauthenticated or wrong-token
        connections are closed.  Stdio and in-process callers are the local
        operator and are never challenged.
    executor:
        Override for how jobs execute (see :class:`~repro.serve.workers.WorkerPool`);
        the cluster coordinator substitutes its sharding dispatcher here.
    cache_backend:
        ``--cache-backend`` spec (``remote://host:port``, the network cache
        tier of ``docs/cachenet.md``) or a backend instance, selecting the
        result tier instead of ``cache_dir``.
    """

    #: Wire ops this service parses into queue jobs (subclasses may extend).
    job_ops: tuple[str, ...] = JOB_OPS

    def __init__(
        self,
        cache_dir: str | Path | None = None,
        no_cache: bool = False,
        workers: int = 2,
        auth_token: str | None = None,
        executor=None,
        cache_backend: object | None = None,
    ) -> None:
        self.session = build_session(cache_dir, no_cache, cache_backend)
        self.auth_token = auth_token
        self.queue = RequestQueue()
        self.queue.on_finish = self._on_job_finish
        self.pool = WorkerPool(self.queue, self.session, workers=workers, executor=executor)
        self.queue.run_inline = self.pool.run_inline
        self.totals = RunStats()
        self._started = False
        self._shutdown = asyncio.Event()

    def _on_job_finish(self, job) -> None:
        """Fold one finished job's per-request counters into service totals."""
        if job.stats:
            self.totals.merge(job.stats)

    # ----------------------------------------------------------------- lifecycle
    async def start(self) -> None:
        """Start the worker pool (idempotent)."""
        await self.pool.start()
        self._started = True

    async def stop(self) -> None:
        """Stop the workers; queued jobs are abandoned."""
        if self._started:
            await self.pool.stop()
            self._started = False
        self._shutdown.set()

    async def __aenter__(self) -> "ExperimentService":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    async def wait_shutdown(self) -> None:
        """Block until a ``shutdown`` op arrives (or :meth:`stop` is called).

        TCP front-ends await this instead of ``serve_forever`` so a client's
        ``shutdown`` request actually stops the server.
        """
        await self._shutdown.wait()

    # ----------------------------------------------------------------- requests
    async def submit(
        self, request: ServeRequest, on_event=None, on_progress=None, priority: int = 0
    ) -> Ticket:
        """Enqueue a typed request; returns its ticket immediately.

        ``on_progress(ticket, payload)`` — when given — receives every
        structured progress event the job's execution emits (per-layer,
        per-network, per-experiment), in order, before the terminal event.
        ``priority`` orders queued jobs (highest first, FIFO within a level);
        coalescing onto a queued job raises its priority when this one is
        higher.

        After :meth:`stop` the queue is stopping: the request is not enqueued
        (and the worker pool is *not* restarted) — the returned ticket fails
        immediately so the caller's wait resolves instead of hanging.
        """
        if not self._started and not self.queue.stopping:
            await self.start()
        return self.queue.submit(
            request, on_event=on_event, on_progress=on_progress, priority=priority
        )

    async def wait(self, ticket: Ticket) -> dict:
        """Wait for a ticket's job and return its terminal response payload."""
        await ticket.job.done.wait()
        return self.response(ticket)

    def response(self, ticket: Ticket) -> dict:
        """The terminal protocol payload of a finished (or cancelled) ticket."""
        job = ticket.job
        payload = {
            "event": ticket.state,
            "ticket": ticket.ticket_id,
            "coalesced": ticket.coalesced,
            "request": job.request.describe(),
        }
        if job.elapsed is not None:
            payload["elapsed_seconds"] = round(job.elapsed, 6)
        timings = job.timings()
        if timings is not None:
            payload["timings"] = timings
        if ticket.state == "done":
            payload["result"] = job.result
            payload["stats"] = job.stats
        elif ticket.state == "failed":
            payload["error"] = job.error
        return payload

    # ----------------------------------------------------------------- control
    def cancel(self, ticket_id: str) -> dict:
        try:
            changed, state = self.queue.cancel(ticket_id)
        except KeyError as error:
            return {"event": "error", "error": error.args[0]}
        return {"event": "cancelled", "ticket": ticket_id, "changed": changed, "state": state}

    def stats(self) -> dict:
        """The ``stats`` op: lifetime counters, and gauges read once per store.

        ``stats`` holds the summed per-job counters; the ``cache`` section is
        :meth:`~repro.runtime.cache.ResultCache.usage` of the store this
        service mounts.  ``pid`` and ``job_ops`` say which process answers
        and which job ops it accepts (a cluster coordinator checks a worker
        by them).
        """
        return {
            "event": "stats",
            "pid": os.getpid(),
            "job_ops": list(self.job_ops),
            "stats": self.totals.as_dict(),
            "queue": self.queue.depth(),
            "coalescing": self.coalescing_stats(),
            "cache": self.session.cache.usage(),
            "traces": len(self.session.traces),
            "workers": self.pool.workers,
        }

    def coalescing_stats(self) -> dict:
        """Coalescing effectiveness since service start (the ``stats`` op).

        ``tickets_attached`` counts every submitted client request,
        ``jobs_executed`` the executions actually performed for them
        (completed + failed + interrupted-while-running); the difference is
        work the coalescer absorbed.  ``hit_rate`` is the fraction of tickets
        that attached to an already-in-flight job.
        """
        depth = self.queue.depth()
        attached = depth["submitted"]
        coalesced = depth["coalesced"]
        return {
            "tickets_attached": attached,
            "tickets_coalesced": coalesced,
            "jobs_executed": depth["completed"] + depth["failed"] + depth["interrupted"],
            "hit_rate": round(coalesced / attached, 6) if attached else 0.0,
        }

    def collect_garbage(self, max_bytes: int | None = None, max_age: float | None = None) -> dict:
        """Garbage-collect the shared disk cache (the ``gc`` op)."""
        cache = self.session.cache
        if not cache.persistent:
            return {"event": "error", "error": "no disk cache to garbage-collect"}
        result = cache.gc(max_bytes=max_bytes, max_age=max_age)
        return {
            "event": "gc",
            "removed_entries": result.removed_entries,
            "removed_bytes": result.removed_bytes,
            "remaining_entries": result.remaining_entries,
            "remaining_bytes": result.remaining_bytes,
        }

    def list_experiments(self) -> dict:
        from repro.experiments.base import PRESETS
        from repro.experiments.runner import EXPERIMENTS, experiment_description

        return {
            "event": "experiments",
            "experiments": [
                {"name": name, "description": experiment_description(name)}
                for name in EXPERIMENTS
            ],
            "presets": sorted(PRESETS),
        }

    # ----------------------------------------------------------------- protocol
    def parse_job(self, message: dict) -> ServeRequest:
        """Parse a job-submitting message into a typed request.

        Subclasses extending :attr:`job_ops` (the cluster worker mode)
        override this to parse their additional ops.
        """
        return parse_request(message)

    def check_auth(self, message: dict) -> bool:
        """Whether an ``auth`` op's token matches (constant-time compare)."""
        token = message.get("token")
        if self.auth_token is None:
            return True
        if not isinstance(token, str):
            return False
        # A JSON string may hold a lone surrogate, which strict UTF-8 refuses.
        return hmac.compare_digest(
            token.encode("utf-8", "surrogatepass"), self.auth_token.encode("utf-8")
        )

    async def handle_message(
        self, message: dict, send, context: ConnectionContext | None = None
    ) -> bool:
        """Dispatch one decoded protocol message; ``False`` requests shutdown.

        ``send`` is a callable taking one response dict; job lifecycle events
        are delivered through it as they happen.  A job op with a truthy
        ``stream`` field additionally receives one ``progress`` event per
        structured progress report, before the terminal event.  ``context``
        carries per-connection state (auth, submitted tickets); in-process
        callers may omit it (fully trusted).
        """
        if context is None:
            context = ConnectionContext()
        client_id = message.get("id")

        def reply(payload: dict) -> None:
            if client_id is not None:
                payload = {"id": client_id, **payload}
            send(payload)

        op = message.get("op")
        if not context.authenticated:
            # Nothing — not even ping — reaches the queue before auth.
            if op != "auth":
                reply({"event": "error", "error": "authentication required"})
                return False
            if not self.check_auth(message):
                reply({"event": "error", "error": "invalid auth token"})
                return False
            context.authenticated = True
            reply({"event": "authenticated"})
            return True
        if op == "auth":
            # Authenticating an already-trusted connection (or a service
            # without a token) is a harmless no-op handshake.
            if not self.check_auth(message):
                reply({"event": "error", "error": "invalid auth token"})
                return False
            reply({"event": "authenticated"})
        elif op == "ping":
            reply({"event": "pong"})
        elif op == "list":
            reply(self.list_experiments())
        elif op == "stats":
            reply(self.stats())
        elif op == "gc":
            try:
                bounds = gc_bounds(message)
            except ValueError as error:
                reply({"event": "error", "error": str(error)})
                return True
            reply(self.collect_garbage(**bounds))
        elif op == "cancel":
            reply(self.cancel(str(message.get("ticket", ""))))
        elif op == "shutdown":
            reply({"event": "shutdown"})
            self._shutdown.set()  # wakes wait_shutdown() (TCP front-ends)
            return False
        elif op in self.job_ops:
            priority = message.get("priority", 0)
            if not isinstance(priority, int) or isinstance(priority, bool):
                reply({"event": "error", "error": "priority must be an integer"})
                return True
            try:
                request = self.parse_job(message)
            except ProtocolError as error:
                reply({"event": "error", "error": str(error)})
                return True

            def on_event(ticket: Ticket, event: str) -> None:
                if event in ("done", "failed", "cancelled"):
                    reply(self.response(ticket))
                else:
                    reply(
                        {
                            "event": event,
                            "ticket": ticket.ticket_id,
                            "coalesced": ticket.coalesced,
                        }
                    )

            on_progress = None
            if message.get("stream"):

                def on_progress(ticket: Ticket, payload: dict) -> None:
                    reply(
                        {
                            "event": "progress",
                            "ticket": ticket.ticket_id,
                            "progress": payload,
                        }
                    )

            ticket = await self.submit(
                request, on_event=on_event, on_progress=on_progress, priority=priority
            )
            # Drop tickets that already reached a terminal state so a
            # long-lived connection doesn't pin every result payload it
            # ever received (only live jobs need disowning on disconnect).
            context.tickets[:] = [t for t in context.tickets if not t.retired]
            context.tickets.append(ticket)
        else:
            reply(
                {
                    "event": "error",
                    "error": f"unknown op {op!r}; ops: {', '.join(self.job_ops + CONTROL_OPS)}",
                }
            )
        return True

    def _disown_connection_tickets(self, tickets: list[Ticket]) -> None:
        """Detach a dead connection from every job it submitted.

        Without this, the per-ticket event callbacks keep appending to the
        closed connection's outbox for as long as their jobs live — a slow
        leak in a long-lived server.  Each ticket is neutralized and then
        cancelled: a sole-ticket job is dropped (queued) or cooperatively
        interrupted (running); a job shared with other connections keeps
        running and only this connection's ticket detaches.
        """
        for ticket in tickets:
            ticket.on_event = None
            ticket.on_progress = None
            if ticket.cancelled or ticket.job.state in ("done", "failed", "cancelled"):
                continue
            with contextlib.suppress(KeyError):
                self.queue.cancel(ticket.ticket_id)

    async def handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve one TCP client: JSON lines in, event lines out.

        On a token-protected service the connection starts unauthenticated:
        the first message must be a valid ``auth`` op, and anything else
        closes the connection before it can touch the queue.  Events wait in
        an outbox of at most :data:`OUTBOX_LIMIT`; an event that finds it
        full aborts the connection instead of waiting for the peer.
        """
        outbox: asyncio.Queue[dict | None] = asyncio.Queue(OUTBOX_LIMIT)
        overflowed = False
        context = ConnectionContext(authenticated=self.auth_token is None)
        tickets = context.tickets

        async def drain_outbox() -> None:
            while True:
                payload = await outbox.get()
                if payload is None:
                    break
                writer.write(encode(payload))
                try:
                    await writer.drain()
                except (ConnectionError, RuntimeError):
                    break

        def send(payload: dict) -> None:
            nonlocal overflowed
            if overflowed:
                return
            if outbox.full():
                # The peer stopped reading: drop it now rather than queue
                # every event its jobs emit.  Aborting ends the read below.
                overflowed = True
                writer.transport.abort()
                return
            outbox.put_nowait(payload)

        sender = asyncio.create_task(drain_outbox())
        try:
            while not overflowed:
                try:
                    line = await reader.readline()
                except ValueError:
                    # The line outgrew the reader's buffer limit; its framing
                    # is lost, so answer once and drop the connection.
                    send({"event": "error", "error": LINE_TOO_LONG})
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                try:
                    message = decode(line)
                except ProtocolError as error:
                    send({"event": "error", "error": str(error)})
                    continue
                if not await self.handle_message(message, send, context=context):
                    break
        except asyncio.CancelledError:
            pass  # server shutting down mid-connection; fall through to cleanup
        finally:
            self._disown_connection_tickets(tickets)
            if overflowed or outbox.full():
                sender.cancel()  # nothing left to flush to a peer this far behind
            else:
                outbox.put_nowait(None)
            # Bound the final drain: a peer that stopped reading must not be
            # able to hang connection close on writer.drain() forever.
            # wait_for cancels the sender on timeout.
            with contextlib.suppress(asyncio.TimeoutError, asyncio.CancelledError):
                await asyncio.wait_for(sender, timeout=CLOSE_DRAIN_TIMEOUT)
            writer.close()
            with contextlib.suppress(ConnectionError, OSError, asyncio.CancelledError):
                await writer.wait_closed()

    async def serve_tcp(self, host: str = "127.0.0.1", port: int = 0) -> asyncio.Server:
        """Listen for protocol connections; returns the (started) server."""
        await self.start()
        return await asyncio.start_server(
            self.handle_connection, host, port, limit=LINE_LIMIT
        )

    async def run_stdio(self, stdin=None, stdout=None) -> None:
        """Speak the protocol over stdin/stdout until EOF, ``shutdown`` or an
        over-long line.

        At EOF or after an over-long line, every job the input submitted runs
        to its terminal event before the service stops, so a batch piped in
        is answered in full.  A ``shutdown`` op stops at once.
        """
        stdin = stdin if stdin is not None else sys.stdin
        stdout = stdout if stdout is not None else sys.stdout
        await self.start()
        loop = asyncio.get_running_loop()
        # Stdio is the local operator: trusted, never challenged for a token.
        context = ConnectionContext()

        def send(payload: dict) -> None:
            stdout.write(encode(payload).decode("utf-8"))
            stdout.flush()

        while True:
            line = await loop.run_in_executor(None, stdin.readline, LINE_LIMIT + 1)
            if not line:
                break
            if len(line) > LINE_LIMIT and not line.endswith("\n"):
                # As over TCP: answer once and stop reading.
                send({"event": "error", "error": LINE_TOO_LONG})
                break
            if not line.strip():
                continue
            try:
                message = decode(line)
            except ProtocolError as error:
                send({"event": "error", "error": str(error)})
                continue
            if not await self.handle_message(message, send, context=context):
                await self.stop()
                return
        for ticket in context.tickets:
            if not ticket.retired:
                await ticket.job.done.wait()
        await self.stop()
