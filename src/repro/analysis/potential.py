"""Term-count potential study (Section II, Figures 2 and 3).

The motivation study counts, per computing engine, the number of terms (single
bit × synapse additions) needed for the convolutional layers, normalized to the
bit-parallel DaDianNao baseline:

* **DaDN / ZN / CVN** account each multiplication as ``storage_bits`` terms;
  ZN drops zero-valued neurons everywhere, CVN everywhere except the first layer.
* **Stripes** accounts ``p`` terms per multiplication, with ``p`` the per-layer
  precision.
* **PRA-fp16** accounts the neuron's essential bit count, and **PRA-red** the
  essential bit count after software trims the per-layer prefix/suffix bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.baselines.zero_skip import ZeroSkipModel
from repro.nn.traces import NetworkTrace
from repro.numerics.fixedpoint import popcount

__all__ = [
    "TermCounts",
    "FIG2_ENGINES",
    "FIG3_ENGINES",
    "count_terms_fixed16",
    "count_terms_quant8",
]

#: Engines of Figure 2, in the order the figure plots them.
FIG2_ENGINES: tuple[str, ...] = ("ZN", "CVN", "Stripes", "PRA-fp16", "PRA-red")

#: Engines of Figure 3 (8-bit quantized representation).
FIG3_ENGINES: tuple[str, ...] = ("ZN", "PRA")


@dataclass(frozen=True)
class TermCounts:
    """Relative term counts (vs DaDN) of one network on several engines."""

    network: str
    relative_terms: dict[str, float]


def _layer_term_statistics(
    trace: NetworkTrace, layer_index: int, samples: int
) -> dict[str, float]:
    """Per-neuron expected term counts of one layer for every engine."""
    bits = trace.storage_bits
    values = trace.sample_layer_values(layer_index, samples)
    precision = trace.layer_precision(layer_index)
    nonzero_fraction = float(np.count_nonzero(values) / values.size)
    essential = float(popcount(values, bits=bits).mean())
    trimmed = float(popcount(precision.trim(values), bits=bits).mean())
    return {
        "baseline": float(bits),
        "nonzero_fraction": nonzero_fraction,
        "stripes": float(min(precision.width, bits)),
        "essential": essential,
        "trimmed": trimmed,
    }


def count_terms_fixed16(
    trace: NetworkTrace, samples_per_layer: int = 20000
) -> TermCounts:
    """Relative term counts of the Figure 2 engines for one traced network."""
    if trace.storage_bits != 16:
        raise ValueError("count_terms_fixed16 expects a 16-bit fixed-point trace")
    zn = ZeroSkipModel(skip_first_layer=True)
    cvn = ZeroSkipModel(skip_first_layer=False)
    totals = {engine: 0.0 for engine in FIG2_ENGINES}
    baseline_total = 0.0
    for index, layer in enumerate(trace.network.layers):
        stats = _layer_term_statistics(trace, index, samples_per_layer)
        macs = layer.macs
        baseline_total += macs * stats["baseline"]
        values = trace.sample_layer_values(index, samples_per_layer)
        totals["ZN"] += zn.layer_terms(layer, values, index, storage_bits=16)
        totals["CVN"] += cvn.layer_terms(layer, values, index, storage_bits=16)
        totals["Stripes"] += macs * stats["stripes"]
        totals["PRA-fp16"] += macs * stats["essential"]
        totals["PRA-red"] += macs * stats["trimmed"]
    return TermCounts(
        network=trace.network.name,
        relative_terms={engine: totals[engine] / baseline_total for engine in FIG2_ENGINES},
    )


def count_terms_quant8(
    trace: NetworkTrace, samples_per_layer: int = 20000
) -> TermCounts:
    """Relative term counts of the Figure 3 engines for one 8-bit quantized trace."""
    if trace.storage_bits != 8:
        raise ValueError("count_terms_quant8 expects an 8-bit quantized trace")
    zn = ZeroSkipModel(skip_first_layer=True)
    totals = {engine: 0.0 for engine in FIG3_ENGINES}
    baseline_total = 0.0
    for index, layer in enumerate(trace.network.layers):
        values = trace.sample_layer_values(index, samples_per_layer)
        essential = float(popcount(values, bits=8).mean())
        baseline_total += layer.macs * 8.0
        totals["ZN"] += zn.layer_terms(layer, values, index, storage_bits=8)
        totals["PRA"] += layer.macs * essential
    return TermCounts(
        network=trace.network.name,
        relative_terms={engine: totals[engine] / baseline_total for engine in FIG3_ENGINES},
    )
