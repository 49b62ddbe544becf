"""Wire form of planned runtime jobs: how the coordinator ships work.

The coordinator plans a client request with the *existing* job graph
(:func:`repro.runtime.jobs.build_plan`) and then has to move each primitive
:class:`~repro.runtime.engine.SimulationRequest` /
:class:`~repro.runtime.engine.StatisticsRequest` to a worker process over the
serve protocol.  This module is that codec plus the two internal job ops
(``sim_job`` / ``stat_job``) worker mode accepts from any connection that
passed its token check — clients of the coordinator never see them, the
public protocol is unchanged (``docs/cluster.md`` documents the split).

Round-tripping is exact by construction: every field of ``TraceSpec``,
``SamplingConfig``, ``PragmaticConfig`` and ``ChipConfig`` is carried, so the
reconstructed request produces byte-identical cache keys on the worker — the
property the whole design rests on (the worker stores under the same
fingerprint the coordinator planned and pruned against).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.arch.config import ChipConfig
from repro.arch.tiling import SamplingConfig
from repro.core.accelerator import PragmaticConfig
from repro.runtime import SimulationRequest, StatisticsRequest, TraceSpec, fingerprint
from repro.serve.protocol import ProtocolError

__all__ = [
    "INTERNAL_JOB_OPS",
    "SimulationJobRequest",
    "StatisticsJobRequest",
    "simulation_request_to_wire",
    "simulation_request_from_wire",
    "statistics_request_to_wire",
    "statistics_request_from_wire",
    "parse_internal_request",
]

#: Worker-mode-only job ops (accepted once a connection passed the token check).
INTERNAL_JOB_OPS = ("sim_job", "stat_job")


# ------------------------------------------------------------------- the codec
def _trace_to_wire(trace: TraceSpec) -> dict:
    wire = dataclasses.asdict(trace)
    if wire["precisions"] is not None:
        wire["precisions"] = list(wire["precisions"])
    return wire


def _trace_from_wire(wire: dict) -> TraceSpec:
    precisions = wire.get("precisions")
    return TraceSpec(
        network=wire["network"],
        representation=wire.get("representation", "fixed16"),
        suffix_bits=wire["suffix_bits"],
        seed=wire.get("seed", 0),
        precisions=tuple(precisions) if precisions is not None else None,
        dense_first_layer=wire.get("dense_first_layer", True),
    )


def _config_to_wire(config: PragmaticConfig) -> dict:
    return dataclasses.asdict(config)


def _config_from_wire(wire: dict) -> PragmaticConfig:
    chip = wire.get("chip")
    return PragmaticConfig(
        first_stage_bits=wire["first_stage_bits"],
        synchronization=wire["synchronization"],
        ssr_count=wire.get("ssr_count"),
        software_trimming=wire.get("software_trimming", True),
        chip=ChipConfig(**chip) if chip is not None else ChipConfig(),
        encoding=wire.get("encoding", "positional"),
        label=wire.get("label"),
    )


def simulation_request_to_wire(request: SimulationRequest) -> dict:
    """A :class:`SimulationRequest` as a JSON-ready object."""
    return {
        "trace": _trace_to_wire(request.trace),
        "sampling": dataclasses.asdict(request.sampling),
        "configs": [
            [label, _config_to_wire(config)] for label, config in request.configs
        ],
    }


def simulation_request_from_wire(wire: dict) -> SimulationRequest:
    """Rebuild a :class:`SimulationRequest` from its wire object."""
    try:
        return SimulationRequest(
            trace=_trace_from_wire(wire["trace"]),
            configs=tuple(
                (label, _config_from_wire(config)) for label, config in wire["configs"]
            ),
            sampling=SamplingConfig(**wire["sampling"]),
        )
    except (KeyError, TypeError, ValueError) as error:
        raise ProtocolError(f"malformed sim_job payload: {error}") from error


def statistics_request_to_wire(request: StatisticsRequest) -> dict:
    """A :class:`StatisticsRequest` as a JSON-ready object."""
    return {
        "statistic": request.statistic,
        "trace": _trace_to_wire(request.trace),
        "samples_per_layer": request.samples_per_layer,
    }


def statistics_request_from_wire(wire: dict) -> StatisticsRequest:
    """Rebuild a :class:`StatisticsRequest` from its wire object."""
    try:
        return StatisticsRequest(
            statistic=wire["statistic"],
            trace=_trace_from_wire(wire["trace"]),
            samples_per_layer=wire["samples_per_layer"],
        )
    except (KeyError, TypeError, ValueError) as error:
        raise ProtocolError(f"malformed stat_job payload: {error}") from error


# --------------------------------------------------------- typed internal jobs
@dataclass(frozen=True)
class SimulationJobRequest:
    """One planned config-group simulation, dispatchable over the wire.

    Wraps a runtime :class:`SimulationRequest`; the worker executes it
    through the normal :func:`repro.runtime.engine.simulate` funnel, so the
    results land in the shared cache under their planned keys.  The response
    payload carries only counters — the cache *is* the data channel.
    """

    request: SimulationRequest

    op = "sim_job"

    def key(self) -> str:
        """Content hash: the cache keys of the underlying simulation units."""
        return fingerprint(
            {"op": self.op, "units": sorted(self.request.keys().values())}
        )

    def describe(self) -> str:
        return (
            f"sim_job {self.request.trace.network} "
            f"({len(self.request.configs)} configs)"
        )

    def to_message(self) -> dict:
        return {"op": self.op, "request": simulation_request_to_wire(self.request)}


@dataclass(frozen=True)
class StatisticsJobRequest:
    """One planned per-network statistics pass, dispatchable over the wire."""

    request: StatisticsRequest

    op = "stat_job"

    def key(self) -> str:
        return fingerprint({"op": self.op, "unit": self.request.key()})

    def describe(self) -> str:
        return f"stat_job {self.request.statistic} {self.request.trace.network}"

    def to_message(self) -> dict:
        return {"op": self.op, "request": statistics_request_to_wire(self.request)}


def parse_internal_request(message: dict) -> SimulationJobRequest | StatisticsJobRequest:
    """Parse a coordinator-sent internal job op into its typed request."""
    op = message.get("op")
    wire = message.get("request")
    if not isinstance(wire, dict):
        raise ProtocolError(f"{op} requires a request object")
    if op == "sim_job":
        return SimulationJobRequest(request=simulation_request_from_wire(wire))
    if op == "stat_job":
        request = statistics_request_from_wire(wire)
        from repro.runtime.engine import STATISTICS

        if request.statistic not in STATISTICS:
            raise ProtocolError(f"unknown statistic {request.statistic!r}")
        return StatisticsJobRequest(request=request)
    raise ProtocolError(
        f"unknown internal op {op!r}; internal ops: {', '.join(INTERNAL_JOB_OPS)}"
    )
