"""repro.serve — async experiment-serving front-end over ``repro.runtime``.

Many concurrent clients share one warm :class:`RuntimeSession` (result cache +
trace store): typed requests enter an async priority queue, identical
in-flight requests coalesce onto one job by the runtime's content hash, and a
bounded worker pool executes jobs on threads while per-request counters
report what each request actually cost.  TCP endpoints can demand a shared
auth token, and ``serve --tcp HOST:PORT --worker`` turns a serve process into
a cluster worker (:mod:`repro.cluster`).

Layering::

    protocol   typed requests + JSON-lines wire format
    queue      tickets, jobs, coalescing, cancellation
    workers    bounded pool; each job runs under a job session of the shared one
    service    ExperimentService: in-process / TCP / stdio front-ends
    client     ServeClient: async multiplexing TCP client
    cli        ``python -m repro serve`` (incl. ``--worker``), and the one
               helper that starts a server subprocess (``spawn_server``)

Start with ``docs/serving.md``; the stack underneath is mapped in
``docs/architecture.md``.
"""

from repro.serve.client import ServeClient, ServeResponse
from repro.serve.protocol import (
    ExperimentRequest,
    ProtocolError,
    RunAllRequest,
    ServeRequest,
    SimulateRequest,
    parse_request,
)
from repro.serve.queue import Job, RequestQueue, Ticket
from repro.serve.service import ConnectionContext, ExperimentService
from repro.serve.workers import WorkerPool, execute_request

__all__ = [
    "ConnectionContext",
    "ServeClient",
    "ServeResponse",
    "ExperimentRequest",
    "ProtocolError",
    "RunAllRequest",
    "ServeRequest",
    "SimulateRequest",
    "parse_request",
    "Job",
    "RequestQueue",
    "Ticket",
    "ExperimentService",
    "WorkerPool",
    "execute_request",
]
