"""The loadgen run report: one JSON object, one text rendering, one schema.

A :class:`LoadReport` is what a swarm run produces: client-observed latency
percentiles, the server-reported queue-wait/execution breakdowns (the serve
layer's per-request ``timings`` block), throughput, outcome counts,
coalescing effectiveness and worker utilization — every metric is defined
in ``docs/loadgen.md``.
:func:`validate_report` is the schema check CI runs against every emitted
report — a malformed report fails the smoke step rather than silently
shipping garbage numbers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.loadgen.metrics import LatencyHistogram

__all__ = ["REPORT_SCHEMA", "LoadReport", "validate_report"]

#: Schema version of the report JSON (bump on breaking shape changes).
REPORT_SCHEMA = 1

#: Keys every percentile block must carry.
_PERCENTILE_KEYS = (
    "count",
    "mean_seconds",
    "min_seconds",
    "max_seconds",
    "p50_seconds",
    "p95_seconds",
    "p99_seconds",
)


@dataclass
class LoadReport:
    """Everything one load run measured."""

    target: str  # "serve" | "cluster" | "connect"
    mix: dict
    duration_seconds: float
    #: Client-observed request latency (submit → terminal event).
    latency: LatencyHistogram
    #: Server-reported queue wait / execution (the ``timings`` satellite).
    queue_wait: LatencyHistogram
    execution: LatencyHistogram
    issued: int = 0
    done: int = 0
    failed: int = 0
    cancelled: int = 0
    cancel_requested: int = 0
    coalesced_tickets: int = 0
    hot_issued: int = 0
    streamed: int = 0
    progress_events: int = 0
    errors: list[str] = field(default_factory=list)
    #: The server's ``stats`` payload sections captured after the run.
    server_coalescing: dict = field(default_factory=dict)
    server_queue: dict = field(default_factory=dict)
    workers: int | None = None
    #: A cluster's workers (id, execution slots, jobs dispatched/completed).
    per_worker: list[dict] = field(default_factory=list)
    #: Worker execution seconds the cluster responses of done, uncoalesced
    #: requests report (``result.cluster.worker_execution_seconds``).
    worker_seconds: float = 0.0
    #: The fleet sum of the cluster workers' queue ``coalescing`` sections.
    cluster_coalescing: dict | None = None
    #: Trace counters (traces built vs. reused, calibrations computed vs.
    #: loaded from the fabric) — fleet-merged against a cluster coordinator.
    trace_fabric: dict | None = None
    #: Network cache tier counters (``docs/cachenet.md``) — present when the
    #: target mounts a ``--cache-backend remote://`` tier: remote hit/miss/
    #: degraded totals and the tier endpoint, from the server's ``stats`` op.
    remote_cache: dict | None = None

    # ------------------------------------------------------------------ derived
    @property
    def throughput_rps(self) -> float:
        finished = self.done + self.failed + self.cancelled
        if self.duration_seconds <= 0:
            return 0.0
        return round(finished / self.duration_seconds, 3)

    @property
    def utilization(self) -> float | None:
        """Fraction of the target's execution capacity the run kept busy.

        A serve process: its execution seconds over ``duration * workers``.
        A cluster: its workers' execution seconds over ``duration * Σ
        slots``; the coordinator's own execution seconds include time spent
        waiting on workers, for several jobs at once, so they measure no
        capacity.
        """
        if self.per_worker:
            busy = self.worker_seconds
            capacity = sum(entry["slots"] for entry in self.per_worker)
        else:
            busy, capacity = self.execution.total, self.workers
        if not capacity or self.duration_seconds <= 0:
            return None
        return round(busy / (self.duration_seconds * capacity), 4)

    # --------------------------------------------------------------------- JSON
    def to_dict(self) -> dict:
        payload = {
            "schema": REPORT_SCHEMA,
            "target": self.target,
            "mix": self.mix,
            "duration_seconds": round(self.duration_seconds, 3),
            "throughput_rps": self.throughput_rps,
            "requests": {
                "issued": self.issued,
                "done": self.done,
                "failed": self.failed,
                "cancelled": self.cancelled,
                "cancel_requested": self.cancel_requested,
                "coalesced_tickets": self.coalesced_tickets,
                "hot": self.hot_issued,
                "streamed": self.streamed,
                "progress_events": self.progress_events,
            },
            "latency": self.latency.summary(),
            "queue_wait": self.queue_wait.summary(),
            "execution": self.execution.summary(),
            "coalescing": self.server_coalescing,
            "server_queue": self.server_queue,
            "workers": self.workers,
            "utilization": self.utilization,
            "per_worker": self.per_worker,
            "errors": self.errors[:20],  # bounded: a soak of failures stays readable
        }
        if self.cluster_coalescing is not None:
            payload["cluster_coalescing"] = self.cluster_coalescing
        if self.trace_fabric is not None:
            payload["trace_fabric"] = self.trace_fabric
        if self.remote_cache is not None:
            payload["remote_cache"] = self.remote_cache
        return payload

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    # --------------------------------------------------------------------- text
    def to_text(self) -> str:
        lat = self.latency.summary()
        qw = self.queue_wait.summary()
        ex = self.execution.summary()

        def fmt(block: dict, key: str) -> str:
            value = block.get(key)
            return f"{value * 1000:.1f}ms" if value is not None else "-"

        lines = [
            f"loadgen report — target {self.target}",
            f"  requests   {self.issued} issued: {self.done} done, "
            f"{self.failed} failed, {self.cancelled} cancelled "
            f"({self.cancel_requested} cancels sent, {self.hot_issued} hot, "
            f"{self.streamed} streamed)",
            f"  duration   {self.duration_seconds:.2f}s  "
            f"throughput {self.throughput_rps} req/s",
            f"  latency    p50 {fmt(lat, 'p50_seconds')}  p95 {fmt(lat, 'p95_seconds')}  "
            f"p99 {fmt(lat, 'p99_seconds')}  max {fmt(lat, 'max_seconds')}",
            f"  queue wait p50 {fmt(qw, 'p50_seconds')}  p95 {fmt(qw, 'p95_seconds')}",
            f"  execution  p50 {fmt(ex, 'p50_seconds')}  p95 {fmt(ex, 'p95_seconds')}",
        ]
        for label, coalescing in (
            ("coalescing", self.server_coalescing),
            ("fleet", self.cluster_coalescing),
        ):
            if coalescing:
                lines.append(
                    f"  {label:<10} {coalescing.get('tickets_coalesced', 0)}"
                    f"/{coalescing.get('tickets_attached', 0)} tickets "
                    f"(hit rate {coalescing.get('hit_rate', 0.0):.1%}, "
                    f"{coalescing.get('jobs_executed', 0)} jobs executed)"
                )
        if self.trace_fabric:
            fabric = self.trace_fabric
            lines.append(
                f"  traces     {fabric.get('traces_built', 0)} built / "
                f"{fabric.get('traces_reused', 0)} reused; fabric "
                f"{fabric.get('calibrations_computed', 0)} calibrations computed / "
                f"{fabric.get('calibrations_loaded', 0)} loaded"
            )
        if self.remote_cache:
            remote = self.remote_cache
            lines.append(
                f"  remote     {remote.get('endpoint', '?')}: "
                f"{remote.get('hits', 0)} hits / {remote.get('misses', 0)} misses, "
                f"{remote.get('degraded', 0)} degraded"
            )
        if self.utilization is not None:
            lines.append(
                f"  workers    {self.workers} — utilization {self.utilization:.1%}"
            )
        for entry in self.per_worker:
            lines.append(
                f"    {entry.get('worker')}: {entry.get('slots', 0)} slots, "
                f"{entry.get('completed', 0)} completed "
                f"of {entry.get('dispatched', 0)} dispatched"
            )
        if self.errors:
            lines.append(f"  errors     {len(self.errors)} (first: {self.errors[0]})")
        return "\n".join(lines)


def validate_report(payload: dict) -> None:
    """Assert a report dict is well-formed; raises ``ValueError`` if not."""
    if not isinstance(payload, dict):
        raise ValueError("report must be a JSON object")
    if payload.get("schema") != REPORT_SCHEMA:
        raise ValueError(f"report schema must be {REPORT_SCHEMA}")
    for key in ("target", "mix", "duration_seconds", "throughput_rps", "requests",
                "latency", "queue_wait", "execution", "coalescing", "workers"):
        if key not in payload:
            raise ValueError(f"report is missing {key!r}")
    requests = payload["requests"]
    for key in ("issued", "done", "failed", "cancelled", "cancel_requested"):
        if not isinstance(requests.get(key), int):
            raise ValueError(f"report requests.{key} must be an integer")
    for block_name in ("latency", "queue_wait", "execution"):
        block = payload[block_name]
        missing = [key for key in _PERCENTILE_KEYS if key not in block]
        if missing:
            raise ValueError(f"report {block_name} is missing {', '.join(missing)}")
    finished = requests["done"] + requests["failed"] + requests["cancelled"]
    if finished != requests["issued"]:
        raise ValueError(
            f"report accounts for {finished} outcomes but issued {requests['issued']}"
        )
    if requests["done"] and payload["latency"]["p95_seconds"] is None:
        raise ValueError("report has completed requests but no latency percentiles")
