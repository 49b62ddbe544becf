"""Software guidance: per-layer output trimming (Section V-F).

Pragmatic does not require software support to function, but performance
improves when software communicates, per layer, how many prefix and suffix bits
can be zeroed out of the output neurons (derived from the profiling of Judd et
al.).  The hardware applies the trimming with AND gates and precision-derived
bit masks before writing neurons back to NM, which reduces the essential bit
content the next layer's PIPs must process.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nn.precision import LayerPrecision
from repro.nn.traces import NetworkTrace
from repro.numerics.fixedpoint import popcount

__all__ = ["SoftwareGuidance"]


@dataclass(frozen=True)
class SoftwareGuidance:
    """Per-layer trimming metadata communicated by software.

    Attributes
    ----------
    precisions:
        Per-layer bit windows; bits outside each window are zeroed before the
        layer's neurons are consumed.
    enabled:
        When False the guidance is ignored, modelling the software-transparent
        PRA-fp16 configuration.
    """

    precisions: tuple[LayerPrecision, ...]
    enabled: bool = True

    @classmethod
    def from_trace(cls, trace: NetworkTrace, enabled: bool = True) -> "SoftwareGuidance":
        """Use the precision windows attached to a trace."""
        return cls(precisions=trace.precisions, enabled=enabled)

    def apply(self, values: np.ndarray, layer_index: int) -> np.ndarray:
        """Trim neuron values feeding the given layer (no-op when disabled)."""
        if not self.enabled:
            return np.asarray(values, dtype=np.int64)
        return self.precisions[layer_index].trim(values)

    def essential_bit_savings(
        self, values: np.ndarray, layer_index: int, storage_bits: int = 16
    ) -> float:
        """Fraction of essential bits the trimming removes from a value sample."""
        arr = np.asarray(values, dtype=np.int64)
        before = popcount(arr, bits=storage_bits).sum()
        if before == 0:
            return 0.0
        after = popcount(self.apply(arr, layer_index), bits=storage_bits).sum()
        return float(1.0 - after / before)
