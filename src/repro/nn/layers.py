"""Convolutional layer geometry.

The evaluation of the paper targets the convolutional layers of six image
classification networks.  A layer is fully described by its input dimensions,
filter dimensions, stride and padding; from those, the quantities every
accelerator model needs are derived: output dimensions, number of sliding
windows, multiply-accumulate (MAC) count, and the brick/pallet structure that
DaDianNao-style tiles operate on (Section IV-A of the paper).

Terminology (Section IV-A1):

* **brick** — 16 elements of a neuron or synapse array contiguous along the
  input-channel (``i``) dimension.
* **pallet** — 16 bricks from 16 adjacent windows (stride apart) along ``x``
  or ``y``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["ConvLayerSpec", "BRICK_SIZE", "PALLET_WINDOWS"]

#: Elements per brick along the input-channel dimension (a DaDN design constant).
BRICK_SIZE = 16

#: Windows processed in parallel by one Stripes/Pragmatic tile (pallet width).
PALLET_WINDOWS = 16


@dataclass(frozen=True)
class ConvLayerSpec:
    """Geometry of one convolutional layer.

    Attributes
    ----------
    name:
        Human readable layer name (e.g. ``"conv1"``).
    input_channels, input_height, input_width:
        Input neuron array dimensions (``I``, ``Ny``, ``Nx`` in the paper).
    num_filters:
        Number of filters ``N`` (output channels).
    filter_height, filter_width:
        Filter dimensions ``Fy``, ``Fx``.
    stride:
        Sliding window stride ``S``.
    padding:
        Symmetric zero padding applied to the spatial input dimensions.
    """

    name: str
    input_channels: int
    input_height: int
    input_width: int
    num_filters: int
    filter_height: int
    filter_width: int
    stride: int = 1
    padding: int = 0

    def __post_init__(self) -> None:
        positive_fields = {
            "input_channels": self.input_channels,
            "input_height": self.input_height,
            "input_width": self.input_width,
            "num_filters": self.num_filters,
            "filter_height": self.filter_height,
            "filter_width": self.filter_width,
            "stride": self.stride,
        }
        for field_name, value in positive_fields.items():
            if value < 1:
                raise ValueError(f"{field_name} must be positive, got {value}")
        if self.padding < 0:
            raise ValueError(f"padding must be non-negative, got {self.padding}")
        if self.filter_height > self.padded_height or self.filter_width > self.padded_width:
            raise ValueError(
                f"filter ({self.filter_height}x{self.filter_width}) larger than padded "
                f"input ({self.padded_height}x{self.padded_width}) for layer {self.name!r}"
            )

    # ------------------------------------------------------------------ geometry
    @property
    def padded_height(self) -> int:
        """Input height after padding."""
        return self.input_height + 2 * self.padding

    @property
    def padded_width(self) -> int:
        """Input width after padding."""
        return self.input_width + 2 * self.padding

    @property
    def output_height(self) -> int:
        """Output neuron array height ``Oy``."""
        return (self.padded_height - self.filter_height) // self.stride + 1

    @property
    def output_width(self) -> int:
        """Output neuron array width ``Ox``."""
        return (self.padded_width - self.filter_width) // self.stride + 1

    @property
    def num_windows(self) -> int:
        """Number of sliding window positions (output neurons per filter)."""
        return self.output_height * self.output_width

    @property
    def synapses_per_filter(self) -> int:
        """Synapses in one filter: ``Fx * Fy * I``."""
        return self.filter_height * self.filter_width * self.input_channels

    @property
    def macs(self) -> int:
        """Multiply-accumulate operations needed for the whole layer."""
        return self.num_windows * self.num_filters * self.synapses_per_filter

    # -------------------------------------------------------------- brick/pallet
    @property
    def channel_bricks(self) -> int:
        """Bricks along the input-channel dimension (``ceil(I / 16)``)."""
        return math.ceil(self.input_channels / BRICK_SIZE)

    @property
    def bricks_per_window(self) -> int:
        """Neuron bricks read to compute one output neuron."""
        return self.filter_height * self.filter_width * self.channel_bricks

    @property
    def window_groups(self) -> int:
        """Window pallets: groups of 16 windows processed together by STR/PRA."""
        return math.ceil(self.num_windows / PALLET_WINDOWS)

    def filter_passes(self, filters_per_pass: int) -> int:
        """Passes over the input needed when the chip holds ``filters_per_pass`` filters."""
        if filters_per_pass < 1:
            raise ValueError("filters_per_pass must be positive")
        return math.ceil(self.num_filters / filters_per_pass)

    def neuron_stream_length(self) -> int:
        """Input-neuron reads performed by the layer (one per MAC, per filter shared).

        DaDN broadcasts each fetched neuron brick to all filter lanes, so the
        *stream* of neurons entering the datapath has one entry per
        (window, synapse-position) pair, independent of the filter count.
        """
        return self.num_windows * self.synapses_per_filter

    def describe(self) -> str:
        """One-line summary used by the reporting helpers."""
        return (
            f"{self.name}: {self.input_channels}x{self.input_height}x{self.input_width} "
            f"-> {self.num_filters} filters {self.filter_height}x{self.filter_width}"
            f"/{self.stride} (pad {self.padding}) -> "
            f"{self.num_filters}x{self.output_height}x{self.output_width}, "
            f"{self.macs / 1e6:.1f} MMACs"
        )
