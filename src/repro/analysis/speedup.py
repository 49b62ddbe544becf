"""Speedup aggregation helpers and baseline adapters.

The cycle simulators produce :class:`~repro.core.accelerator.NetworkResult`
objects for Pragmatic configurations; this module provides the matching results
for the DaDianNao and Stripes baselines (so the figures can plot all engines
uniformly), plus the geometric-mean aggregation the paper uses across networks.
"""

from __future__ import annotations

import math
from typing import Iterable

from repro.arch.config import ChipConfig, DEFAULT_CHIP
from repro.baselines.dadiannao import DaDianNaoModel
from repro.baselines.stripes import StripesModel
from repro.core.accelerator import LayerResult, NetworkResult
from repro.nn.traces import NetworkTrace

__all__ = ["geometric_mean", "dadn_result", "stripes_result"]


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean of positive values (the cross-network aggregate of the paper)."""
    values = list(values)
    if not values:
        raise ValueError("cannot take the geometric mean of an empty sequence")
    if any(value <= 0 for value in values):
        raise ValueError("geometric mean requires strictly positive values")
    return math.exp(sum(math.log(value) for value in values) / len(values))


def dadn_result(trace: NetworkTrace, chip: ChipConfig = DEFAULT_CHIP) -> NetworkResult:
    """The DaDianNao baseline expressed as a :class:`NetworkResult` (speedup 1.0)."""
    model = DaDianNaoModel(chip)
    layers = tuple(
        LayerResult(
            layer_name=layer.name,
            cycles=float(model.layer_cycles(layer)),
            baseline_cycles=float(model.layer_cycles(layer)),
            terms=float(model.layer_terms(layer, trace.storage_bits)),
            baseline_terms=float(model.layer_terms(layer, trace.storage_bits)),
        )
        for layer in trace.network.layers
    )
    return NetworkResult(network=trace.network.name, accelerator=model.name, layers=layers)


def stripes_result(
    trace: NetworkTrace,
    chip: ChipConfig = DEFAULT_CHIP,
    precision_widths: tuple[int, ...] | None = None,
) -> NetworkResult:
    """Stripes cycle counts as a :class:`NetworkResult` relative to DaDianNao.

    ``precision_widths`` overrides the per-layer precisions attached to the
    trace (used for the 8-bit quantized study, where the published 16-bit
    profiles are capped at the 8-bit storage width).
    """
    stripes = StripesModel(chip)
    baseline = DaDianNaoModel(chip)
    layers = []
    for index, layer in enumerate(trace.network.layers):
        if precision_widths is not None:
            width: int = precision_widths[index]
            cycles = stripes.layer_cycles(layer, width)
            terms = stripes.layer_terms(layer, width)
        else:
            precision = trace.layer_precision(index)
            cycles = stripes.layer_cycles(layer, precision)
            terms = stripes.layer_terms(layer, precision)
        layers.append(
            LayerResult(
                layer_name=layer.name,
                cycles=float(cycles),
                baseline_cycles=float(baseline.layer_cycles(layer)),
                terms=float(terms),
                baseline_terms=float(baseline.layer_terms(layer, trace.storage_bits)),
            )
        )
    return NetworkResult(
        network=trace.network.name, accelerator=stripes.name, layers=tuple(layers)
    )
