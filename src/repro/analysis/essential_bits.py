"""Essential-bit content of the neuron streams (Table I of the paper).

For each network and storage representation the statistic is the average
fraction of non-zero bits per neuron, weighted by how often each layer's
neurons enter the datapath (the neuron stream length), reported both over all
neurons ("All") and over non-zero neurons only ("NZ").
"""

from __future__ import annotations

import numpy as np

from repro.nn.traces import NetworkTrace
from repro.numerics.fixedpoint import popcount

__all__ = ["measure_trace"]


def measure_trace(trace: NetworkTrace, samples_per_layer: int = 20000) -> tuple[float, float]:
    """Stream-weighted (All, NZ) essential-bit fractions of a trace."""
    if samples_per_layer < 1:
        raise ValueError("samples_per_layer must be positive")
    bits = trace.storage_bits
    weights = trace.stream_weights()
    all_fractions = np.empty(trace.network.num_layers)
    nz_fractions = np.empty(trace.network.num_layers)
    nz_weights = np.empty(trace.network.num_layers)
    for index in range(trace.network.num_layers):
        values = trace.sample_layer_values(index, samples_per_layer)
        counts = popcount(values, bits=bits)
        all_fractions[index] = counts.mean() / bits
        nonzero = counts[values != 0]
        nz_fractions[index] = (nonzero.mean() / bits) if nonzero.size else 0.0
        nz_weights[index] = weights[index] * (np.count_nonzero(values) / values.size)
    all_fraction = float(np.average(all_fractions, weights=weights))
    if nz_weights.sum() > 0:
        nz_fraction = float(np.average(nz_fractions, weights=nz_weights))
    else:
        nz_fraction = 0.0
    return all_fraction, nz_fraction
