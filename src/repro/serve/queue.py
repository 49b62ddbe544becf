"""The async request queue: tickets, jobs, coalescing and cancellation.

A **job** is one unit of execution, identified by its request's content hash.
A **ticket** is one client request.  Submitting a request whose hash matches
an in-flight (queued or running) job attaches a new ticket to that job instead
of enqueueing a second execution — that is the request coalescing the serving
layer promises: N concurrent identical requests cost one simulation pass, and
every ticket receives the same result and stats.  Queued jobs are ordered by
**priority** (highest first, FIFO within a level); a coalesced ticket carrying
a higher priority raises the pending job's priority.

Lifecycle: ``queued → running → done | failed``, with ``cancelled`` reachable
from ``queued`` *and* from ``running``: every job carries a
:class:`~repro.core.progress.ProgressToken`, and cancelling the last live
ticket of a running job cancels the token — the sweep observes it at its next
cooperative checkpoint, raises ``SweepCancelled`` and frees the worker
(cancelling a ticket that shares its job with other live tickets still just
detaches that ticket).  The same token carries per-layer/per-network progress
events back up; tickets that registered an ``on_progress`` callback (the
protocol's ``stream`` flag) receive them as they happen.  All state lives on
the event loop — only the execution itself leaves it (see
:mod:`repro.serve.workers`), and not even that for a job whose every input
is already resident: :attr:`RequestQueue.run_inline` answers such a job
before it would be pushed, so it never waits, coalesces or occupies a
worker, and its ticket receives its whole lifecycle within one call.  The
queue indexes live tickets only: a ticket leaves it when it reaches a
terminal state, and callers that hold the :class:`Ticket` keep reading its
state and result.  ``docs/serving.md`` walks through the model.
"""

from __future__ import annotations

import asyncio
import heapq
import itertools
import time
from typing import Callable

from repro.core.progress import ProgressToken
from repro.serve.protocol import ServeRequest

__all__ = ["Ticket", "Job", "RequestQueue"]


class Job:
    """One coalesced unit of execution (1..N tickets share it).

    ``token`` is the job's cooperative cancellation/progress handle: the
    worker hands it to the execution (where the sweep checkpoints it) and
    wires its progress callback back to the queue's live tickets.
    """

    def __init__(self, key: str, request: ServeRequest, priority: int = 0) -> None:
        self.key = key
        self.request = request
        self.priority = priority
        self.state = "queued"
        self.result: dict | None = None
        self.error: str | None = None
        self.stats: dict = {}
        self.tickets: list[Ticket] = []
        self.done = asyncio.Event()
        self.enqueued: float = time.perf_counter()
        self.started: float | None = None
        self.finished_at: float | None = None
        self.elapsed: float | None = None
        self.token = ProgressToken()

    def timings(self) -> dict | None:
        """Server-side wall-clock breakdown of a *finished* job.

        ``queue_wait_seconds`` covers enqueue → first execution (the whole
        life for a job that never ran), ``execution_seconds`` the worker's
        share, ``total_seconds`` enqueue → terminal state.  Measured on the
        server so load-generator latency breakdowns do not depend solely on
        client-side clocks; ``None`` while the job is still in flight.
        """
        if self.finished_at is None:
            return None
        started = self.started if self.started is not None else self.finished_at
        return {
            "queue_wait_seconds": round(max(0.0, started - self.enqueued), 6),
            "execution_seconds": round(
                self.finished_at - self.started if self.started is not None else 0.0, 6
            ),
            "total_seconds": round(self.finished_at - self.enqueued, 6),
        }

    @property
    def live_tickets(self) -> list["Ticket"]:
        return [ticket for ticket in self.tickets if not ticket.cancelled]


class Ticket:
    """One client request, attached to (possibly sharing) a job.

    ``on_event`` receives lifecycle transitions (``queued``, ``running``,
    ``done``, ``failed``, ``cancelled``); ``on_progress`` — when registered —
    additionally receives every structured progress event the job's execution
    emits (the ``stream: true`` protocol flag).
    """

    def __init__(
        self,
        ticket_id: str,
        job: Job,
        coalesced: bool,
        on_event: Callable[["Ticket", str], None] | None = None,
        on_progress: Callable[["Ticket", dict], None] | None = None,
    ) -> None:
        self.ticket_id = ticket_id
        self.job = job
        self.coalesced = coalesced
        self.cancelled = False
        self.retired = False
        self.on_event = on_event
        self.on_progress = on_progress

    @property
    def state(self) -> str:
        return "cancelled" if self.cancelled else self.job.state

    def notify(self, event: str) -> None:
        if self.on_event is not None and not self.cancelled:
            self.on_event(self, event)

    def notify_progress(self, payload: dict) -> None:
        if self.on_progress is not None and not self.cancelled:
            self.on_progress(self, payload)


class RequestQueue:
    """Priority queue of jobs with content-hash deduplication of in-flight requests.

    Jobs pop highest-priority-first, FIFO within a priority level (priority 0
    is the default, so a priority-free deployment behaves exactly like the
    old FIFO).  Coalescing and priorities compose: a coalesced ticket can
    raise — never lower — the priority of a still-queued job.
    """

    def __init__(self) -> None:
        #: Pending jobs as a max-priority heap of ``(-priority, seq, job)``.
        #: Raising a queued job's priority pushes a *second* entry instead of
        #: re-heapifying; stale entries (priority no longer current, or job no
        #: longer queued) are skipped lazily at pop time.
        self._pending: list[tuple[int, int, Job]] = []
        self._pending_seq = itertools.count()
        self._pending_wakeup = asyncio.Event()
        self._inflight: dict[str, Job] = {}
        #: Cancelled-while-running jobs still occupying a worker until their
        #: next cooperative checkpoint (detached from ``_inflight`` so fresh
        #: identical requests don't coalesce onto them, but still *running*
        #: as far as capacity accounting goes).
        self._unwinding: set[Job] = set()
        #: Live tickets by id; a terminal ticket leaves (see :meth:`_retire`).
        self._tickets: dict[str, Ticket] = {}
        self._counter = itertools.count(1)
        #: Set by stop_workers(): workers stop pulling jobs immediately.
        self.stopping = False
        #: Optional hook invoked once per finished job (before ticket events).
        self.on_finish: Callable[[Job], None] | None = None
        #: Optional hook offered each new job before it is pushed: returns
        #: ``(progress events, finish() keywords)`` if it answered the job,
        #: ``None`` to queue it (:meth:`WorkerPool.run_inline`).
        self.run_inline: Callable[[Job], tuple[list[dict], dict] | None] | None = None
        #: Totals since service start.
        self.submitted = 0
        self.coalesced = 0
        self.completed = 0
        self.failed = 0
        self.cancelled = 0
        #: Jobs interrupted *while running* via their cooperative token.
        self.interrupted = 0
        #: Jobs :attr:`run_inline` answered without queueing them.
        self.inline = 0

    # ------------------------------------------------------------------ submit
    def _push_pending(self, job: Job) -> None:
        """Heap-insert ``job`` at its current priority and wake a worker."""
        heapq.heappush(self._pending, (-job.priority, next(self._pending_seq), job))
        self._pending_wakeup.set()

    def submit(
        self,
        request: ServeRequest,
        on_event: Callable[[Ticket, str], None] | None = None,
        on_progress: Callable[[Ticket, dict], None] | None = None,
        priority: int = 0,
    ) -> Ticket:
        """Enqueue ``request`` (or coalesce it onto an identical in-flight job).

        ``priority`` orders *queued* jobs: workers pop the highest priority
        first, FIFO within a priority level.  Coalescing preserves the
        strongest demand — a ticket attaching to a queued job with a higher
        priority raises that job's priority (never lowers it).

        A new job is first offered to :attr:`run_inline`.  If that answers
        it, the job is never pushed: its ticket receives ``queued``,
        ``running``, its progress and its terminal event before this returns.

        Once :meth:`stop_workers` has been called the backlog is already
        abandoned and no worker will ever pull again, so a late submission
        is failed immediately — its ticket resolves (and its events fire)
        instead of hanging forever.
        """
        key = request.key()
        if self.stopping:
            job = Job(key, request, priority)
            ticket = Ticket(f"t{next(self._counter)}", job, False, on_event, on_progress)
            job.tickets.append(ticket)
            self.submitted += 1
            self.finish(job, error="service is stopping; submission rejected")
            return ticket
        job = self._inflight.get(key)
        coalesced = job is not None
        ran = None
        if job is None:
            job = Job(key, request, priority)
            if self.run_inline is not None:
                ran = self.run_inline(job)
            if ran is None:
                self._inflight[key] = job
                self._push_pending(job)
        elif priority > job.priority and job.state == "queued":
            # A coalesced ticket may raise a pending job's priority: push a
            # fresh heap entry; the old (lower) one is skipped at pop time.
            job.priority = priority
            self._push_pending(job)
        ticket = Ticket(f"t{next(self._counter)}", job, coalesced, on_event, on_progress)
        job.tickets.append(ticket)
        self._tickets[ticket.ticket_id] = ticket
        self.submitted += 1
        if coalesced:
            self.coalesced += 1
        ticket.notify(job.state)  # "queued", or "running" when coalescing late
        if ran is not None:
            self._finish_inline(job, *ran)
        return ticket

    def _finish_inline(self, job: Job, progress: list[dict], outcome: dict) -> None:
        """Deliver a job :attr:`run_inline` answered: running, progress, outcome."""
        self.inline += 1
        job.state = "running"  # job.started is when run_inline took the job
        for ticket in job.live_tickets:
            ticket.notify("running")
        for payload in progress:
            self.deliver_progress(job, payload)
        self.finish(job, **outcome)

    # ------------------------------------------------------------------ workers
    async def next_job(self) -> Job | None:
        """The next executable job, highest priority first; ``None`` stops.

        Within one priority level jobs pop FIFO.  Fully-cancelled jobs and
        stale heap entries (a job whose priority was raised after it was
        pushed, or that already started) are skipped.  Once
        :meth:`stop_workers` has been called, returns ``None`` without
        draining the backlog — shutdown abandons queued jobs rather than
        executing them.
        """
        while True:
            if self.stopping:
                return None
            while self._pending:
                neg_priority, _, job = heapq.heappop(self._pending)
                if job.state != "queued" or -neg_priority != job.priority:
                    continue  # cancelled, already started, or a stale entry
                return job
            self._pending_wakeup.clear()
            await self._pending_wakeup.wait()

    def mark_running(self, job: Job) -> None:
        job.state = "running"
        job.started = time.perf_counter()
        for ticket in job.live_tickets:
            ticket.notify("running")

    def deliver_progress(self, job: Job, payload: dict) -> None:
        """Fan one progress event out to the job's streaming tickets.

        Invoked on the event loop (the worker marshals events off the
        simulating thread with ``call_soon_threadsafe``); events arriving
        after the job reached a terminal state are dropped.
        """
        if job.state != "running":
            return
        for ticket in job.live_tickets:
            ticket.notify_progress(payload)

    def finish(
        self,
        job: Job,
        result: dict | None = None,
        error: str | None = None,
        stats: dict | None = None,
        cancelled: bool = False,
    ) -> None:
        """Complete a job and fan its outcome out to every live ticket.

        ``cancelled=True`` marks a job whose *running* execution was
        interrupted at a cooperative checkpoint: it terminates in state
        ``cancelled`` instead of ``failed``/``done``.
        """
        job.result = result
        job.error = error
        job.stats = stats or {}
        job.finished_at = time.perf_counter()
        job.elapsed = (
            job.finished_at - job.started if job.started is not None else None
        )
        if cancelled:
            job.state = "cancelled"
            self.interrupted += 1
        elif error is not None:
            job.state = "failed"
            self.failed += 1
        else:
            job.state = "done"
            self.completed += 1
        # Identity-guarded: a cancelled-while-running job was already detached
        # from the in-flight index, and a fresh job may have taken its key.
        if self._inflight.get(job.key) is job:
            del self._inflight[job.key]
        self._unwinding.discard(job)
        if self.on_finish is not None:
            self.on_finish(job)
        job.done.set()
        for ticket in job.live_tickets:
            ticket.notify(job.state)
        for ticket in job.tickets:
            self._retire(ticket)

    def stop_workers(self) -> None:
        """Stop dispatching: wake every waiting worker and abandon the backlog."""
        self.stopping = True
        self._pending_wakeup.set()

    def abandon_pending(self) -> int:
        """Fail every still-queued job so its waiters unblock; returns count.

        Called after the workers have exited: jobs they never picked up are
        completed with an error instead of being left to hang their tickets.
        """
        abandoned = 0
        while self._pending:
            _, _, job = heapq.heappop(self._pending)
            if job.state != "queued":
                continue
            self.finish(job, error="service stopped before this job ran")
            abandoned += 1
        return abandoned

    def _retire(self, ticket: Ticket) -> None:
        """Drop a terminal ticket from the index; its holders keep the object."""
        ticket.retired = True
        self._tickets.pop(ticket.ticket_id, None)

    # ------------------------------------------------------------------ control
    def get(self, ticket_id: str) -> Ticket | None:
        return self._tickets.get(ticket_id)

    def cancel(self, ticket_id: str) -> tuple[bool, str]:
        """Cancel a ticket; returns ``(changed, resulting state)``.

        A queued job whose tickets are all cancelled is dropped before it
        runs.  Cancelling the *last* live ticket of a running job cancels the
        job's cooperative token: the execution raises ``SweepCancelled`` at
        its next checkpoint and the worker is freed (results the sweep
        completed before the checkpoint are already in the shared cache).
        While other live tickets share the job it keeps running and only this
        ticket detaches.  Only live tickets are indexed, so the id of a
        finished or already cancelled ticket raises ``KeyError`` (the wire's
        ``unknown ticket``).
        """
        ticket = self._tickets.get(ticket_id)
        if ticket is None:
            raise KeyError(f"unknown ticket {ticket_id!r}")
        if ticket.cancelled or ticket.job.state in ("done", "failed", "cancelled"):
            return False, ticket.state
        ticket.cancelled = True
        self.cancelled += 1
        self._retire(ticket)
        job = ticket.job
        if not job.live_tickets:
            if job.state == "queued":
                job.state = "cancelled"
                job.finished_at = time.perf_counter()
                self._inflight.pop(job.key, None)
                job.done.set()
            elif job.state == "running":
                # Interrupt the execution cooperatively and detach the doomed
                # job from the in-flight index immediately, so an identical
                # request submitted from here on starts fresh instead of
                # coalescing onto a job that will never produce a result.
                job.token.cancel()
                if self._inflight.get(job.key) is job:
                    del self._inflight[job.key]
                self._unwinding.add(job)
        # Deliver the terminal event directly: notify() suppresses cancelled
        # tickets, but the waiter behind this one must still be unblocked.
        if ticket.on_event is not None:
            ticket.on_event(ticket, "cancelled")
        return True, ticket.state

    def depth(self) -> dict[str, int]:
        """Queue-level counters for the ``stats`` op.

        ``running`` includes cancelled jobs still unwinding toward their next
        checkpoint: they occupy real worker capacity until they finish.
        """
        return {
            "queued": sum(1 for job in self._inflight.values() if job.state == "queued"),
            "running": sum(1 for job in self._inflight.values() if job.state == "running")
            + len(self._unwinding),
            "submitted": self.submitted,
            "coalesced": self.coalesced,
            "completed": self.completed,
            "failed": self.failed,
            "cancelled": self.cancelled,
            "interrupted": self.interrupted,
            "inline": self.inline,
        }
