"""repro.loadgen — sustained-traffic load harness for serve and cluster.

Seeded client traffic and latency reports (``docs/loadgen.md``):

* :mod:`repro.loadgen.mix` — declarative request-mix specs (hot/cold cache
  ratio, experiment/preset distributions, stream vs. batch delivery,
  cancellation rate, concurrency ramp) compiled by a deterministic seeded
  scheduler into a replayable request schedule;
* :mod:`repro.loadgen.metrics` — bounded-relative-error latency histogram
  (HDR-style log buckets) and percentile math;
* :mod:`repro.loadgen.swarm` — the asyncio client swarm replaying a schedule
  against a ``repro serve`` instance or a ``repro cluster`` coordinator over
  real :class:`~repro.serve.client.ServeClient` connections;
* :mod:`repro.loadgen.report` — the run report (p50/p95/p99, throughput,
  error/cancel counts, coalescing hit-rate, worker utilization) as text and
  schema-checked JSON;
* :mod:`repro.loadgen.cli` — ``python -m repro loadgen`` (``--spawn`` for
  hermetic runs).
"""

from repro.loadgen.metrics import LatencyHistogram
from repro.loadgen.mix import MixError, MixSpec, PlannedRequest
from repro.loadgen.report import LoadReport, validate_report
from repro.loadgen.swarm import LoadSwarm

__all__ = [
    "LatencyHistogram",
    "MixError",
    "MixSpec",
    "PlannedRequest",
    "LoadReport",
    "validate_report",
    "LoadSwarm",
]
