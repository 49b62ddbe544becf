"""Worker mode: a serve process that executes planned jobs for a coordinator.

``python -m repro serve --tcp HOST:PORT --worker`` runs a :class:`WorkerService`
— the plain :class:`~repro.serve.service.ExperimentService` (same queue, same
worker pool, same public protocol) extended with the cluster-facing surface
(``docs/cluster.md``):

* a **mandatory auth token**: a TCP connection can send nothing but ``auth``
  until it passes the token check, so the token is the cluster's trust
  boundary, and there is no registration step.  A coordinator tells a
  worker from a plain serve process by the ``job_ops`` of its ``stats`` op.
* the **internal job ops** ``sim_job``/``stat_job``
  (:mod:`repro.cluster.plan`): primitive planned jobs whose results travel
  through the shared cache backend, not the wire — the response carries only
  the ``RunStats`` counters of the job's session for the coordinator to
  merge.
* a **shared cache**: sibling workers mount one cache directory (or one
  network cache tier) through the same session builder as every other entry
  point (:func:`~repro.runtime.session.build_session`), so they and the
  warm-assembly experiment jobs observe each other's stores.

Everything else — coalescing, priorities, streaming progress, cooperative
cancellation — is inherited unchanged, which is the point: a worker is just a
serve process that learned two more ops.
"""

from __future__ import annotations

from repro.runtime import RuntimeSession, analyze, simulate
from repro.serve.protocol import JOB_OPS, ServeRequest
from repro.serve.service import ExperimentService
from repro.serve.workers import execute_request
from repro.cluster.plan import (
    INTERNAL_JOB_OPS,
    SimulationJobRequest,
    StatisticsJobRequest,
    parse_internal_request,
)

__all__ = ["WorkerService", "execute_worker_request"]


def execute_worker_request(request, shared: RuntimeSession, progress=None):
    """Execute one request, including the internal planned-job types.

    ``sim_job``/``stat_job`` run through the exact engine funnels the local
    scheduler uses (:func:`~repro.runtime.engine.simulate` /
    :func:`~repro.runtime.engine.analyze`) under a job session of the shared
    one — results land in the shared cache under their planned keys and only
    the counters travel back.  Everything else falls through to the standard
    :func:`~repro.serve.workers.execute_request`.
    """
    if not isinstance(request, (SimulationJobRequest, StatisticsJobRequest)):
        return execute_request(request, shared, progress)
    if progress is not None:
        progress.checkpoint()
    session = shared.job(progress)
    planned = request.request
    payload = {"kind": request.op, "network": planned.trace.network}
    if isinstance(request, SimulationJobRequest):
        payload["configs"] = len(simulate(planned, session=session))
    else:
        analyze(planned, session=session)
        payload["statistic"] = planned.statistic
    return payload, session.stats().as_dict()


class WorkerService(ExperimentService):
    """An :class:`ExperimentService` that also executes planned cluster jobs.

    Parameters mirror the base service; ``auth_token`` is **mandatory** —
    the token check is the trust boundary of the cluster, and an
    unauthenticated worker would accept planned jobs from anyone who can
    reach its port.
    """

    job_ops = JOB_OPS + INTERNAL_JOB_OPS

    def __init__(self, *args, auth_token: str | None = None, **kwargs) -> None:
        if not auth_token:
            raise ValueError(
                "worker mode requires an auth token "
                "(--auth-token or REPRO_SERVE_TOKEN)"
            )
        kwargs.setdefault("executor", execute_worker_request)
        super().__init__(*args, auth_token=auth_token, **kwargs)

    def parse_job(self, message: dict) -> ServeRequest:
        if message.get("op") in INTERNAL_JOB_OPS:
            return parse_internal_request(message)
        return super().parse_job(message)
