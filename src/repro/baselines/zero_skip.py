"""Zero-skipping engines used in the motivation study (Section II).

The paper compares the number of terms processed by two zero-value-skipping
designs against DaDN, Stripes and Pragmatic:

* **ZN** — a hypothetical, ideal engine that skips *every* zero-valued neuron.
* **CVN** — Cnvlutin, a practical design that skips zero neurons in every layer
  except the first (whose input is the image, not a ReLU output).

Both still spend the full bit-parallel cost (``storage_bits`` terms) on every
non-zero neuron, which is why their savings are bounded by the zero-neuron
fraction rather than by the essential bit content.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.arch.config import ChipConfig, DEFAULT_CHIP
from repro.nn.layers import ConvLayerSpec

__all__ = ["ZeroSkipModel", "zero_fraction"]


def zero_fraction(values: np.ndarray) -> float:
    """Fraction of exactly-zero neurons in a value sample."""
    arr = np.asarray(values)
    if arr.size == 0:
        raise ValueError("cannot compute the zero fraction of an empty sample")
    return float(np.count_nonzero(arr == 0) / arr.size)


@dataclass(frozen=True)
class ZeroSkipModel:
    """Term-count model for zero-neuron-skipping engines.

    Parameters
    ----------
    skip_first_layer:
        When False the first layer is processed without skipping, which models
        the practical Cnvlutin (CVN) design; when True all layers skip zero
        neurons, which models the ideal ZN engine.
    chip:
        Chip configuration (supplies the bit-parallel term cost per neuron).
    """

    skip_first_layer: bool = True
    chip: ChipConfig = DEFAULT_CHIP

    def layer_terms(
        self,
        layer: ConvLayerSpec,
        values_sample: np.ndarray,
        layer_index: int,
        storage_bits: int | None = None,
    ) -> float:
        """Expected terms for one layer given a sample of its input neuron values."""
        bits = storage_bits if storage_bits is not None else self.chip.storage_bits
        if layer_index == 0 and not self.skip_first_layer:
            nonzero = 1.0
        else:
            nonzero = 1.0 - zero_fraction(values_sample)
        return layer.macs * bits * nonzero
