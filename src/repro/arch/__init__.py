"""Shared architecture substrate: chip configuration, pallet tiling and the NM fetch model."""

from repro.arch.config import DEFAULT_CHIP, ChipConfig
from repro.arch.memory import NeuronMemory
from repro.arch.tiling import (
    BrickPosition,
    SamplingConfig,
    brick_positions,
    exact_pallet_values,
    extract_brick,
    extract_pallet_step,
    pallet_window_coordinates,
    sample_pallet_values,
    window_coordinates,
)

__all__ = [
    "ChipConfig",
    "DEFAULT_CHIP",
    "NeuronMemory",
    "BrickPosition",
    "SamplingConfig",
    "brick_positions",
    "window_coordinates",
    "pallet_window_coordinates",
    "extract_brick",
    "extract_pallet_step",
    "exact_pallet_values",
    "sample_pallet_values",
]
