"""Cached execution of cycle-simulation sweeps and statistics passes.

:func:`simulate` is the single funnel every experiment's cycle simulation goes
through.  It resolves each requested ``(trace spec, sampling, config)`` triple
against the session cache, runs one :func:`repro.core.sweep.sweep_network`
over exactly the missing configurations (so drain tensors are still shared
within the group), and stores each fresh result under its own key — which is
what lets overlapping experiments (Figure 9 / Figure 10 / Figure 11 / Table V
all evaluate common PRA design points) reuse each other's work.

:func:`analyze` is the same funnel for the per-network statistics passes of
the motivation experiments (Table I, Figures 2 and 3): a named statistic over
one calibrated trace, cached as a JSON payload under its own key so the
statistics experiments plan, parallelize and warm-cache exactly like the
cycle-simulation experiments.  See ``docs/runtime.md`` for the job model.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

from repro.arch.tiling import SamplingConfig
from repro.core.accelerator import NetworkResult, PragmaticConfig
from repro.runtime.fingerprint import simulation_key, statistics_key
from repro.runtime.serialization import network_result_from_dict, network_result_to_dict
from repro.runtime.session import RuntimeSession, current_session
from repro.runtime.trace_store import TraceSpec

__all__ = ["SimulationRequest", "StatisticsRequest", "STATISTICS", "simulate", "analyze"]


@dataclass(frozen=True)
class SimulationRequest:
    """One config-group simulation task: a set of designs over one trace.

    Attributes
    ----------
    trace:
        Declarative spec of the calibrated trace to simulate over.
    configs:
        ``(label, config)`` pairs, in presentation order.  Labels are
        display-only; caching keys ignore them.
    sampling:
        Pallet sampling configuration (from the preset).
    """

    trace: TraceSpec
    configs: tuple[tuple[str, PragmaticConfig], ...]
    sampling: SamplingConfig = SamplingConfig()

    def keys(self) -> dict[str, str]:
        """Cache key per label, derived once per request."""
        return dict(self._keys)

    @functools.cached_property
    def _keys(self) -> dict[str, str]:
        return {
            label: simulation_key(self.trace, self.sampling, config)
            for label, config in self.configs
        }


def simulate(
    request: SimulationRequest, session: RuntimeSession | None = None
) -> dict[str, NetworkResult]:
    """Run (or recall) every configuration of ``request``.

    Returns label → :class:`NetworkResult` in the request's order, numerically
    identical whether each result came from the cache or a fresh sweep.
    """
    session = session if session is not None else current_session()
    progress = session.progress
    if progress is not None:
        progress.checkpoint()
    labels = [label for label, _ in request.configs]
    if len(set(labels)) != len(labels):
        raise ValueError(f"duplicate labels in simulation request: {labels}")
    keys = request.keys()
    results: dict[str, NetworkResult] = {}
    missing: dict[str, PragmaticConfig] = {}
    for label, config in request.configs:
        payload = session.lookup(keys[label])
        if payload is not None:
            results[label] = network_result_from_dict(payload, accelerator=config.name)
        else:
            missing[label] = config
    if missing:
        computed = session.sweep(session.trace(request.trace), missing, request.sampling)
        # The cooperative checkpoints all sit *before* this point: once the
        # sweep has returned, every result is stored unconditionally, so a
        # cancellation can abandon a network but never truncate cache writes.
        for label, result in computed.items():
            session.store(keys[label], network_result_to_dict(result))
            results[label] = result
    if progress is not None:
        progress.emit(
            {
                "stage": "network",
                "network": request.trace.network,
                "configs": len(labels),
                "simulated": len(missing),
                "cached": len(labels) - len(missing),
            }
        )
    return {label: results[label] for label, _ in request.configs}


# ------------------------------------------------------------------ statistics
def _fig2_terms(trace, samples_per_layer: int) -> dict:
    from repro.analysis.potential import count_terms_fixed16

    counts = count_terms_fixed16(trace, samples_per_layer=samples_per_layer)
    return {"network": counts.network, "relative_terms": dict(counts.relative_terms)}


def _fig3_terms(trace, samples_per_layer: int) -> dict:
    from repro.analysis.potential import count_terms_quant8

    counts = count_terms_quant8(trace, samples_per_layer=samples_per_layer)
    return {"network": counts.network, "relative_terms": dict(counts.relative_terms)}


def _essential_bits(trace, samples_per_layer: int) -> dict:
    from repro.analysis.essential_bits import measure_trace

    all_fraction, nz_fraction = measure_trace(trace, samples_per_layer=samples_per_layer)
    return {"network": trace.network.name, "all": all_fraction, "nz": nz_fraction}


#: Named statistics passes servable through :func:`analyze`.  Each maps a
#: calibrated trace and a per-layer sample budget to a JSON payload.
STATISTICS: dict[str, Callable[..., dict]] = {
    "fig2_terms": _fig2_terms,
    "fig3_terms": _fig3_terms,
    "essential_bits": _essential_bits,
}


@dataclass(frozen=True)
class StatisticsRequest:
    """One per-network statistics pass: a named statistic over one trace.

    Attributes
    ----------
    statistic:
        Registry key in :data:`STATISTICS` (``"fig2_terms"``, ``"fig3_terms"``,
        ``"essential_bits"``).
    trace:
        Declarative spec of the calibrated trace to measure.
    samples_per_layer:
        Neuron values sampled per layer (from the preset).
    """

    statistic: str
    trace: TraceSpec
    samples_per_layer: int = 8000

    def key(self) -> str:
        """Cache key of this statistics pass."""
        return statistics_key(self.statistic, self.trace, self.samples_per_layer)


def analyze(request: StatisticsRequest, session: RuntimeSession | None = None) -> dict:
    """Run (or recall) the statistics pass described by ``request``.

    Returns the statistic's JSON payload, identical whether it came from the
    cache or a fresh measurement.
    """
    session = session if session is not None else current_session()
    progress = session.progress
    if progress is not None:
        progress.checkpoint()
    if request.statistic not in STATISTICS:
        raise KeyError(
            f"unknown statistic {request.statistic!r}; available: {', '.join(STATISTICS)}"
        )
    key = request.key()
    payload = session.lookup(key, kind="statistics")
    computed = payload is None
    if computed:
        trace = session.trace(request.trace)
        payload = STATISTICS[request.statistic](trace, request.samples_per_layer)
        session.store(key, payload, kind="statistics")
    if progress is not None:
        progress.emit(
            {
                "stage": "statistics",
                "statistic": request.statistic,
                "network": request.trace.network,
                "cached": not computed,
            }
        )
    return payload
