"""Brick and pallet extraction from neuron tensors.

The DaDianNao family of accelerators consumes input neurons in *bricks* (16
values contiguous along the input-channel dimension) and Stripes/Pragmatic
consume *pallets* (16 bricks from 16 adjacent windows).  This module turns a
layer's input tensor into those structures, both exhaustively (exact mode,
``SamplingConfig(exact=True)``: the real tensor structure of small layers,
which tests use to check the cycle model against the functional models) and
by sampling (the cycle simulator on full-size layers).  The DaDN and PRA
functional models walk bricks with :func:`extract_brick` themselves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nn.layers import BRICK_SIZE, PALLET_WINDOWS, ConvLayerSpec
from repro.nn.reference import pad_input
from repro.nn.traces import NetworkTrace

__all__ = [
    "BrickPosition",
    "brick_positions",
    "window_coordinates",
    "pallet_window_coordinates",
    "extract_brick",
    "extract_pallet_step",
    "exact_pallet_values",
    "sample_pallet_values",
    "SamplingConfig",
]


@dataclass(frozen=True)
class BrickPosition:
    """One (filter-row, filter-column, channel-brick) position within a window."""

    fy: int
    fx: int
    channel_brick: int


def brick_positions(layer: ConvLayerSpec) -> list[BrickPosition]:
    """All brick positions of a window, in the order the tiles walk them."""
    return [
        BrickPosition(fy=fy, fx=fx, channel_brick=cb)
        for fy in range(layer.filter_height)
        for fx in range(layer.filter_width)
        for cb in range(layer.channel_bricks)
    ]


def window_coordinates(layer: ConvLayerSpec) -> list[tuple[int, int]]:
    """All window (output) coordinates in row-major order."""
    return [
        (oy, ox) for oy in range(layer.output_height) for ox in range(layer.output_width)
    ]


def pallet_window_coordinates(layer: ConvLayerSpec) -> list[list[tuple[int, int]]]:
    """Group window coordinates into pallets of 16 adjacent windows.

    Windows are grouped in row-major order; the final pallet of a layer may hold
    fewer than 16 windows, in which case the missing window lanes idle (their
    neuron values are treated as zero).
    """
    coords = window_coordinates(layer)
    return [coords[i : i + PALLET_WINDOWS] for i in range(0, len(coords), PALLET_WINDOWS)]


def extract_brick(
    padded: np.ndarray, layer: ConvLayerSpec, oy: int, ox: int, position: BrickPosition
) -> np.ndarray:
    """Read the 16 neurons of one brick (zero padded past the channel count).

    ``padded`` is the layer input after spatial padding, shaped ``[I, H, W]``.
    """
    y = oy * layer.stride + position.fy
    x = ox * layer.stride + position.fx
    start = position.channel_brick * BRICK_SIZE
    stop = min(start + BRICK_SIZE, layer.input_channels)
    brick = np.zeros(BRICK_SIZE, dtype=np.int64)
    brick[: stop - start] = padded[start:stop, y, x]
    return brick


def extract_pallet_step(
    padded: np.ndarray,
    layer: ConvLayerSpec,
    windows: list[tuple[int, int]],
    position: BrickPosition,
) -> np.ndarray:
    """Neurons of one pallet step: ``[PALLET_WINDOWS, BRICK_SIZE]``.

    Missing windows (short final pallet) contribute zero bricks.
    """
    step = np.zeros((PALLET_WINDOWS, BRICK_SIZE), dtype=np.int64)
    for lane, (oy, ox) in enumerate(windows):
        step[lane] = extract_brick(padded, layer, oy, ox, position)
    return step


def exact_pallet_values(neurons: np.ndarray, layer: ConvLayerSpec) -> np.ndarray:
    """All pallet steps of a layer: ``[pallets, steps, PALLET_WINDOWS, BRICK_SIZE]``.

    Only intended for small layers (tests, examples); memory grows with
    ``pallets * bricks_per_window * 256``.
    """
    padded = pad_input(np.asarray(neurons, dtype=np.int64), layer.padding)
    positions = brick_positions(layer)
    pallets = pallet_window_coordinates(layer)
    out = np.zeros(
        (len(pallets), len(positions), PALLET_WINDOWS, BRICK_SIZE), dtype=np.int64
    )
    for p_index, windows in enumerate(pallets):
        for s_index, position in enumerate(positions):
            out[p_index, s_index] = extract_pallet_step(padded, layer, windows, position)
    return out


@dataclass(frozen=True)
class SamplingConfig:
    """How many pallets the cycle simulator draws per layer.

    ``max_pallets`` bounds the sample; layers with fewer pallets are evaluated
    exhaustively.  ``exact`` forces full traversal of the real tensor structure
    regardless of size (use only on small layers).
    """

    max_pallets: int = 24
    exact: bool = False
    seed: int = 2024

    def __post_init__(self) -> None:
        if self.max_pallets < 1:
            raise ValueError("max_pallets must be positive")


def sample_pallet_values(
    trace: NetworkTrace, layer_index: int, sampling: SamplingConfig
) -> tuple[np.ndarray, int]:
    """Draw pallet-step neuron values for the cycle simulator.

    Returns ``(values, total_pallets)`` where ``values`` has shape
    ``[sampled_pallets, steps, PALLET_WINDOWS, BRICK_SIZE]`` and
    ``total_pallets`` is the number of pallets the full layer contains (used to
    scale the sampled cycle counts back up).

    In exact mode the real spatial structure of the synthetic tensor is used; in
    sampled mode the neuron values of each sampled step are drawn i.i.d. from
    the layer's calibrated distribution, which matches the exact mode's
    statistics because distinct window lanes read distinct tensor positions
    within any single step (see the calibrated traces of ``docs/architecture.md``
    and ``docs/runtime.md#calibrations``).
    """
    layer = trace.layer(layer_index)
    total_pallets = layer.window_groups
    if sampling.exact:
        values = exact_pallet_values(trace.layer_input(layer_index), layer)
        return values, total_pallets

    sampled = min(sampling.max_pallets, total_pallets)
    steps = layer.bricks_per_window
    count = sampled * steps * PALLET_WINDOWS * BRICK_SIZE
    flat = trace.sample_layer_values(layer_index, count)
    values = flat.reshape(sampled, steps, PALLET_WINDOWS, BRICK_SIZE)

    # The final pallet of a layer may be short; emulate the idle lanes'
    # contribution proportionally by zeroing lanes of one sampled pallet when the
    # layer's window count is not a multiple of the pallet width.
    remainder = layer.num_windows % PALLET_WINDOWS
    if remainder and sampled == total_pallets:
        values[-1, :, remainder:, :] = 0
    return values, total_pallets
