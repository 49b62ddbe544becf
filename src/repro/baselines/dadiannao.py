"""DaDianNao (DaDN) — the bit-parallel baseline accelerator.

DaDN (Chen et al., MICRO 2014) is the baseline every design in the paper is
normalized against.  Each of its 16 tiles multiplies one broadcast neuron brick
(16 neurons) with 16 synapse bricks (one per filter lane) and reduces the 256
products through 16 adder trees, producing 16 partial output neurons per tile
per cycle.  Performance is therefore independent of the neuron values: every
brick position of every window costs exactly one cycle per filter pass.

Two models are provided:

* :class:`DaDianNaoModel` — the closed-form cycle/term model used by the
  evaluation harness.
* :class:`DaDianNaoFunctional` — a functional tile model that walks bricks and
  adder trees explicitly and must match the NumPy reference convolution exactly
  (used by the test suite to validate the shared tiling substrate).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.arch.config import ChipConfig, DEFAULT_CHIP
from repro.arch.tiling import brick_positions, extract_brick, window_coordinates
from repro.nn.layers import BRICK_SIZE, ConvLayerSpec
from repro.nn.reference import check_shapes, pad_input

__all__ = ["DaDianNaoModel", "DaDianNaoFunctional"]


@dataclass(frozen=True)
class DaDianNaoModel:
    """Closed-form cycle and term-count model of the DaDN chip."""

    chip: ChipConfig = DEFAULT_CHIP

    @property
    def name(self) -> str:
        return "DaDN"

    def layer_cycles(self, layer: ConvLayerSpec) -> int:
        """Cycles to process one convolutional layer.

        One cycle per (window, brick position) pair per filter pass: the whole
        chip works on a single window at a time, with all 256 filter lanes in
        parallel.
        """
        passes = layer.filter_passes(self.chip.filters_per_cycle)
        return passes * layer.num_windows * layer.bricks_per_window

    def layer_terms(self, layer: ConvLayerSpec, storage_bits: int | None = None) -> int:
        """Single-bit terms (shift-and-add additions) the layer costs on DaDN.

        The motivation study (Figures 2 and 3) accounts each bit-parallel
        multiplication as ``storage_bits`` terms.
        """
        bits = storage_bits if storage_bits is not None else self.chip.storage_bits
        return layer.macs * bits


@dataclass
class DaDianNaoFunctional:
    """Functional model of a DaDN tile group.

    Walks the same brick traversal the real tile uses (synapse lanes × filter
    lanes, adder tree per filter) and accumulates partial output neurons.  The
    result must equal :func:`repro.nn.reference.conv2d_reference` bit for bit.
    """

    chip: ChipConfig = field(default_factory=lambda: DEFAULT_CHIP)

    def compute_layer(
        self, layer: ConvLayerSpec, neurons: np.ndarray, synapses: np.ndarray
    ) -> np.ndarray:
        """Compute the layer's output neurons ``[N, Oy, Ox]``."""
        check_shapes(layer, neurons, synapses)
        padded = pad_input(np.asarray(neurons, dtype=np.int64), layer.padding)
        weights = np.asarray(synapses, dtype=np.int64)
        out = np.zeros(
            (layer.num_filters, layer.output_height, layer.output_width), dtype=np.int64
        )
        positions = brick_positions(layer)
        for oy, ox in window_coordinates(layer):
            # NBout accumulators for this window, one per filter.
            accumulators = np.zeros(layer.num_filters, dtype=np.int64)
            for position in positions:
                neuron_brick = extract_brick(padded, layer, oy, ox, position)
                start = position.channel_brick * BRICK_SIZE
                stop = min(start + BRICK_SIZE, layer.input_channels)
                # Each filter lane multiplies its synapse brick with the broadcast
                # neuron brick and reduces through its adder tree.
                synapse_bricks = np.zeros((layer.num_filters, BRICK_SIZE), dtype=np.int64)
                synapse_bricks[:, : stop - start] = weights[
                    :, start:stop, position.fy, position.fx
                ]
                accumulators += synapse_bricks @ neuron_brick
            out[:, oy, ox] = accumulators
        return out
