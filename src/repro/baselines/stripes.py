"""Stripes (STR) — the bit-serial-neuron / bit-parallel-synapse baseline.

Stripes (Judd et al.) processes neurons bit-serially over ``p`` cycles, where
``p`` is the per-layer precision obtained by profiling, and compensates the
serial slowdown by processing 16 windows in parallel.  Its ideal speedup over
DaDN is ``16 / p``; it removes the excess-of-precision (EoP) bits but still
processes every bit inside the precision window, zero or not — which is exactly
the inefficiency Pragmatic removes.

* :class:`StripesModel` — closed-form cycle/term model.
* :class:`StripesFunctional` — functional bit-serial computation used to verify
  that serial processing of the precision window reproduces the reference
  convolution exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.arch.config import ChipConfig, DEFAULT_CHIP
from repro.nn.layers import ConvLayerSpec
from repro.nn.precision import LayerPrecision
from repro.nn.reference import check_shapes, conv2d_reference

__all__ = ["StripesModel", "StripesFunctional"]


@dataclass(frozen=True)
class StripesModel:
    """Closed-form cycle and term-count model of the Stripes chip."""

    chip: ChipConfig = DEFAULT_CHIP

    @property
    def name(self) -> str:
        return "Stripes"

    def layer_cycles(self, layer: ConvLayerSpec, precision: LayerPrecision | int) -> int:
        """Cycles for one layer given its neuron precision.

        Each brick step of each window pallet costs ``p`` cycles (one per
        neuron bit inside the precision window), per filter pass.
        """
        width = precision if isinstance(precision, int) else precision.width
        if width < 1:
            raise ValueError("precision width must be at least 1 bit")
        width = min(width, self.chip.storage_bits)
        passes = layer.filter_passes(self.chip.filters_per_cycle)
        return passes * layer.window_groups * layer.bricks_per_window * width

    def layer_terms(self, layer: ConvLayerSpec, precision: LayerPrecision | int) -> int:
        """Terms processed: ``p`` per neuron-and-synapse pair."""
        width = precision if isinstance(precision, int) else precision.width
        return layer.macs * min(max(width, 1), self.chip.storage_bits)


@dataclass
class StripesFunctional:
    """Functional bit-serial computation (the unit of Figure 4b).

    For every bit position inside the precision window, the neuron bit is ANDed
    with the full synapse and the result is accumulated shifted by the bit
    position.  When the window covers all set bits of the neurons the output is
    exactly the reference convolution.
    """

    chip: ChipConfig = field(default_factory=lambda: DEFAULT_CHIP)

    def compute_layer(
        self,
        layer: ConvLayerSpec,
        neurons: np.ndarray,
        synapses: np.ndarray,
        precision: LayerPrecision,
    ) -> np.ndarray:
        """Bit-serial computation of the layer output ``[N, Oy, Ox]``.

        Neuron magnitudes must fit inside the precision window (callers trim
        first); signs are handled by applying the neuron's sign to its terms.
        """
        check_shapes(layer, neurons, synapses)
        values = np.asarray(neurons, dtype=np.int64)
        magnitudes = np.abs(values)
        signs = np.sign(values)
        if np.any(magnitudes & ~np.int64(precision.mask)):
            raise ValueError(
                "neuron magnitudes have set bits outside the precision window; "
                "apply LayerPrecision.trim() before the bit-serial computation"
            )
        out = np.zeros(
            (layer.num_filters, layer.output_height, layer.output_width), dtype=np.int64
        )
        for bit in range(precision.lsb, precision.msb + 1):
            bit_plane = ((magnitudes >> bit) & 1) * signs
            out += conv2d_reference(layer, bit_plane, synapses) << bit
        return out
