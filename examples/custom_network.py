#!/usr/bin/env python3
"""Evaluate Pragmatic on a user-defined network with functional verification.

The paper's networks are image classifiers, but the library accepts any stack
of convolutional layers.  This example:

1. defines a small custom detector-style network layer by layer,
2. profiles per-layer precisions from its (synthetic) activations,
3. runs the functional Pragmatic tile on one layer and checks it against the
   bit-parallel reference convolution — the same check the hardware would have
   to pass, and
4. reports the cycle-level speedups of Pragmatic over DaDianNao and Stripes.

Run it with::

    python examples/custom_network.py
"""

from __future__ import annotations

import numpy as np

from repro.analysis.speedup import dadn_result, stripes_result
from repro.analysis.tables import format_ratio, format_table
from repro.arch.tiling import SamplingConfig
from repro.core.pip import PragmaticTileFunctional
from repro.core.sweep import sweep_network
from repro.core.variants import column_variant
from repro.nn.layers import ConvLayerSpec
from repro.nn.networks import Network
from repro.nn.precision import LayerPrecision, profile_from_values
from repro.nn.reference import conv2d_reference
from repro.nn.traces import LayerTraceParams, NetworkTrace, generate_synapses


def build_network() -> Network:
    """A small single-shot-detector style backbone."""
    return Network(
        name="tiny_detector",
        display_name="Tiny detector",
        layers=(
            ConvLayerSpec("stem", 3, 96, 96, 32, 5, 5, stride=2, padding=2),
            ConvLayerSpec("stage1", 32, 48, 48, 64, 3, 3, padding=1),
            ConvLayerSpec("stage2", 64, 24, 24, 128, 3, 3, padding=1),
            ConvLayerSpec("stage3", 128, 12, 12, 256, 3, 3, padding=1),
            ConvLayerSpec("head", 256, 12, 12, 64, 1, 1),
        ),
    )


def build_trace(network: Network) -> NetworkTrace:
    """Synthetic activations plus per-layer precisions profiled from them."""
    params = tuple(
        LayerTraceParams(sigma=40.0 + 12.0 * index, zero_fraction=0.0 if index == 0 else 0.55)
        for index in range(network.num_layers)
    )
    # First pass: generate with provisional full-width windows, then profile.
    provisional = NetworkTrace(
        network=network,
        precisions=tuple(LayerPrecision(msb=15) for _ in network.layers),
        params=params,
        seed=11,
    )
    profiled = tuple(
        profile_from_values(provisional.sample_layer_values(index, 20000))
        for index in range(network.num_layers)
    )
    return NetworkTrace(network=network, precisions=profiled, params=params, seed=11)


def verify_functional(trace: NetworkTrace) -> None:
    """Run the serial PIP pipeline on the head layer and check it bit for bit."""
    rng = np.random.default_rng(3)
    layer = trace.network.layer("head")
    index = trace.network.layers.index(layer)
    neurons = trace.layer_input(index)
    synapses = generate_synapses(layer, rng)
    outputs, cycles = PragmaticTileFunctional(first_stage_bits=2).compute_layer(
        layer, neurons, synapses
    )
    expected = conv2d_reference(layer, neurons, synapses)
    assert np.array_equal(outputs, expected), "PIP pipeline diverged from the reference!"
    print(
        f"Functional check on {layer.name!r}: {outputs.size} output neurons identical to "
        f"the bit-parallel reference ({cycles} serial cycles)."
    )


def main() -> None:
    network = build_network()
    trace = build_trace(network)
    print(network.describe())
    print()
    print("Profiled per-layer precisions:",
          "-".join(str(p.width) for p in trace.precisions))
    print()
    verify_functional(trace)
    print()

    sampling = SamplingConfig(max_pallets=8)
    pragmatic = sweep_network(trace, {"PRA-2b-1R": column_variant(1)}, sampling)["PRA-2b-1R"]
    baselines = {"DaDN": dadn_result(trace), "Stripes": stripes_result(trace)}

    rows = [
        ["DaDN", format_ratio(baselines["DaDN"].speedup)],
        ["Stripes", format_ratio(baselines["Stripes"].speedup)],
        ["PRA-2b-1R", format_ratio(pragmatic.speedup)],
    ]
    print(format_table(["design", "speedup vs DaDN"], rows))
    print()
    print("Per-layer breakdown for Pragmatic:")
    print(pragmatic.summary())


if __name__ == "__main__":
    main()
