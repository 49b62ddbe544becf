"""The asyncio client swarm: replay a compiled schedule against a server.

:class:`LoadSwarm` opens one real :class:`~repro.serve.client.ServeClient`
TCP connection per simulated client and replays the mix's deterministic
schedule: plain requests await their terminal event, streamed requests
iterate progress events, cancel-flagged requests cancel their ticket as soon
as the first event names it.  Every finished request records client-observed
latency plus the server-reported ``timings`` breakdown, and the run closes by
capturing the server's ``stats`` op — coalescing effectiveness, queue
counters and (against a cluster coordinator) per-worker completion counts.

The swarm targets anything that speaks the serve protocol: a single
``repro serve`` process or a ``repro cluster`` coordinator, local or remote.
``docs/loadgen.md`` documents the metric definitions the swarm records.
"""

from __future__ import annotations

import asyncio
import time

from repro.loadgen.metrics import LatencyHistogram
from repro.loadgen.mix import MixSpec, PlannedRequest
from repro.loadgen.report import LoadReport
from repro.serve.client import ServeClient

__all__ = ["LoadSwarm"]

#: Upper bound on one request's full lifecycle before the swarm gives up on
#: it (counts as a failure; a hung server must not hang the harness).
REQUEST_TIMEOUT = 300.0


def _traces_section(stats: dict) -> dict:
    """The ``traces`` block of a report, from one ``RunStats`` wire dict:
    traces built vs. reused from the sessions' in-memory stores."""
    return {
        "traces_built": stats.get("traces_built", 0),
        "traces_reused": stats.get("traces_reused", 0),
    }


def _worker_seconds(result: dict | None) -> float:
    """Worker execution seconds a cluster response reports (0 from serve)."""
    cluster = (result or {}).get("cluster") or {}
    return cluster.get("worker_execution_seconds", 0.0)


class LoadSwarm:
    """Replay one :class:`MixSpec` schedule against a serve-protocol endpoint."""

    def __init__(
        self,
        mix: MixSpec,
        host: str,
        port: int,
        auth_token: str | None = None,
        target: str = "connect",
    ) -> None:
        self.mix = mix
        self.host = host
        self.port = port
        self.auth_token = auth_token
        self.target = target

    # ----------------------------------------------------------------- requests
    async def _run_plain(self, client: ServeClient, planned: PlannedRequest, report: LoadReport):
        response = await client.job(dict(planned.message))
        return (
            response.state,
            response.timings,
            response.coalesced,
            response.error,
            _worker_seconds(response.result),
        )

    async def _run_streamed(
        self, client: ServeClient, planned: PlannedRequest, report: LoadReport
    ):
        """Iterate a streamed job; cancel on the first event when flagged."""
        cancelled_by_us = False
        state, timings, coalesced, error = "failed", None, False, "no terminal event"
        worker_seconds = 0.0
        async for event in client.stream(dict(planned.message)):
            name = event.get("event")
            if name == "progress":
                report.progress_events += 1
            if planned.cancel and not cancelled_by_us and event.get("ticket"):
                cancelled_by_us = True
                report.cancel_requested += 1
                await client.cancel(event["ticket"])
            if name in ("done", "failed", "cancelled", "error"):
                state = "failed" if name == "error" else name
                timings = event.get("timings")
                coalesced = bool(event.get("coalesced", False))
                error = event.get("error")
                worker_seconds = _worker_seconds(event.get("result"))
        return state, timings, coalesced, error, worker_seconds

    async def _issue(
        self, client: ServeClient, planned: PlannedRequest, report: LoadReport
    ) -> None:
        if planned.think_seconds:
            await asyncio.sleep(planned.think_seconds)
        report.issued += 1
        if planned.hot:
            report.hot_issued += 1
        streamed = planned.stream or planned.cancel  # cancellation needs the event stream
        if streamed:
            report.streamed += 1
        started = time.perf_counter()
        try:
            runner = self._run_streamed if streamed else self._run_plain
            state, timings, coalesced, error, worker_seconds = await asyncio.wait_for(
                runner(client, planned, report), timeout=REQUEST_TIMEOUT
            )
        except asyncio.TimeoutError:
            report.failed += 1
            report.errors.append(f"request {planned.index} timed out")
            return
        except (ConnectionError, OSError) as failure:
            report.failed += 1
            report.errors.append(f"request {planned.index}: {failure}")
            return
        elapsed = time.perf_counter() - started
        if coalesced:
            report.coalesced_tickets += 1
        if state == "done":
            report.done += 1
            report.latency.record(elapsed)
            # Coalesced tickets share a job and report that job's timings;
            # counting them once per ticket would double-count server work
            # (utilization above 100%), so timings are recorded per job.
            if not coalesced:
                report.worker_seconds += worker_seconds
                if timings:
                    report.queue_wait.record(timings.get("queue_wait_seconds", 0.0))
                    report.execution.record(timings.get("execution_seconds", 0.0))
        elif state == "cancelled":
            report.cancelled += 1
        else:
            report.failed += 1
            if error:
                report.errors.append(f"request {planned.index}: {error}")

    async def _client(self, client_index: int, schedule: list[PlannedRequest], report: LoadReport) -> None:
        """One simulated client: its own connection, its share of the schedule."""
        if self.mix.ramp_seconds:
            await asyncio.sleep(client_index * self.mix.ramp_seconds)
        own = [planned for planned in schedule if planned.client == client_index]
        if not own:
            return
        client = await ServeClient.connect(self.host, self.port, auth_token=self.auth_token)
        try:
            for planned in own:
                await self._issue(client, planned, report)
        finally:
            await client.close()

    # ---------------------------------------------------------------------- run
    async def run(self) -> LoadReport:
        """Replay the full schedule; returns the finished report."""
        report = LoadReport(
            target=self.target,
            mix=self.mix.to_dict(),
            duration_seconds=0.0,
            latency=LatencyHistogram(),
            queue_wait=LatencyHistogram(),
            execution=LatencyHistogram(),
        )
        schedule = self.mix.schedule()
        started = time.perf_counter()
        await asyncio.gather(
            *(self._client(index, schedule, report) for index in range(self.mix.clients))
        )
        report.duration_seconds = time.perf_counter() - started
        await self._capture_server_stats(report)
        return report

    async def _capture_server_stats(self, report: LoadReport) -> None:
        """Snapshot the server's stats op into the report (best effort)."""
        try:
            client = await ServeClient.connect(
                self.host, self.port, auth_token=self.auth_token
            )
        except (ConnectionError, OSError) as error:
            report.errors.append(f"stats capture failed: {error}")
            return
        try:
            stats = await asyncio.wait_for(client.stats(), timeout=30)
        except (asyncio.TimeoutError, ConnectionError, OSError) as error:
            report.errors.append(f"stats capture failed: {error}")
            return
        finally:
            await client.close()
        report.server_coalescing = stats.get("coalescing", {})
        report.server_queue = stats.get("queue", {})
        report.workers = stats.get("workers")
        report.traces = _traces_section(stats.get("stats", {}))
        cache = stats.get("cache") or {}
        if "remote_endpoint" in cache:
            # The target mounts a network cache tier (docs/cachenet.md):
            # surface the queried process's remote counters — for a cluster
            # that is the coordinator, whose planning probes make its
            # hit/miss/degraded totals track the whole run's tier health.
            report.remote_cache = {
                "endpoint": cache.get("remote_endpoint"),
                "reachable": cache.get("remote_reachable"),
                "backend": cache.get("backend"),
                "hits": cache.get("remote_hits", 0),
                "misses": cache.get("remote_misses", 0),
                "degraded": cache.get("remote_degraded", 0),
            }
        cluster = stats.get("cluster")
        if cluster:
            report.cluster_coalescing = cluster.get("coalescing")
            if cluster.get("fleet"):
                # Traces are built on the workers; the coordinator's own
                # counters are zero, so report the fleet-merged view.
                report.traces = _traces_section(cluster["fleet"])
            report.per_worker = [
                {
                    "worker": entry.get("worker"),
                    "slots": entry.get("slots") or 0,
                    "dispatched": entry.get("dispatched", 0),
                    "completed": entry.get("completed", 0),
                    "alive": entry.get("alive"),
                }
                for entry in cluster.get("workers", [])
            ]
            # A cluster's capacity is the fleet, not the coordinator's pool.
            report.workers = len(report.per_worker) or report.workers
