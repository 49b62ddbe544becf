"""The central neuron memory (NM) as the cycle model sees it.

The cycle model needs one thing from the memory system: the number of cycles
to assemble the next neuron pallet from the central eDRAM neuron memory.  That
fetch overlaps with processing of the current pallet (Section V-A4), so it
only sets a floor on the cycles each pallet step takes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.arch.config import ChipConfig, DEFAULT_CHIP
from repro.nn.layers import BRICK_SIZE, PALLET_WINDOWS, ConvLayerSpec

__all__ = ["NeuronMemory"]


@dataclass
class NeuronMemory:
    """The shared central eDRAM neuron memory.

    The dispatcher fetches a pallet (16 neuron bricks, stride apart) per step.
    With unit stride the bricks sit in one or two NM rows and are fetched in at
    most two cycles; with larger strides they spread over more rows (Section
    V-A4).  Fetches overlap with processing of the current pallet.
    """

    chip: ChipConfig = field(default_factory=lambda: DEFAULT_CHIP)

    def pallet_fetch_cycles(self, layer: ConvLayerSpec) -> int:
        """Cycles to assemble the next pallet's neuron bricks from NM."""
        brick_bytes = BRICK_SIZE * self.chip.neuron_bytes
        # The 16 bricks of a pallet are `stride` bricks apart along x, so the
        # address span covered is 16 * stride bricks; the number of NM rows
        # touched bounds the fetch latency, plus one cycle of non-alignment.
        span_bytes = PALLET_WINDOWS * layer.stride * brick_bytes
        rows = max(1, -(-span_bytes // self.chip.nm_row_bytes))
        return min(rows, PALLET_WINDOWS)
