"""Unit tests for brick/pallet extraction and sampling."""

import numpy as np
import pytest

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
from repro.nn.layers import BRICK_SIZE, PALLET_WINDOWS
from repro.nn.reference import pad_input


class TestBrickPositions:
    def test_count_matches_bricks_per_window(self, tiny_layer):
        assert len(brick_positions(tiny_layer)) == tiny_layer.bricks_per_window

    def test_positions_cover_filter_extent(self, tiny_layer):
        positions = brick_positions(tiny_layer)
        assert {p.fy for p in positions} == set(range(tiny_layer.filter_height))
        assert {p.fx for p in positions} == set(range(tiny_layer.filter_width))
        assert {p.channel_brick for p in positions} == set(range(tiny_layer.channel_bricks))


class TestWindowsAndPallets:
    def test_window_count(self, tiny_layer):
        assert len(window_coordinates(tiny_layer)) == tiny_layer.num_windows

    def test_pallet_grouping(self, tiny_layer):
        pallets = pallet_window_coordinates(tiny_layer)
        assert len(pallets) == tiny_layer.window_groups
        assert all(len(p) <= PALLET_WINDOWS for p in pallets)
        assert sum(len(p) for p in pallets) == tiny_layer.num_windows


class TestExtraction:
    def test_extract_brick_reads_channel_slice(self, tiny_layer, tiny_trace):
        neurons = tiny_trace.layer_input(0)
        padded = pad_input(neurons, tiny_layer.padding)
        position = BrickPosition(fy=1, fx=1, channel_brick=0)
        brick = extract_brick(padded, tiny_layer, 2, 3, position)
        assert brick.shape == (BRICK_SIZE,)
        np.testing.assert_array_equal(brick, padded[:16, 2 + 1, 3 + 1])

    def test_extract_brick_pads_partial_channel_brick(self, tiny_layer, tiny_trace):
        neurons = tiny_trace.layer_input(0)
        padded = pad_input(neurons, tiny_layer.padding)
        position = BrickPosition(fy=0, fx=0, channel_brick=1)
        brick = extract_brick(padded, tiny_layer, 0, 0, position)
        # The layer has 24 channels: brick 1 holds channels 16-23 plus 8 zeros.
        assert np.all(brick[8:] == 0)

    def test_extract_pallet_step_shape(self, tiny_layer, tiny_trace):
        padded = pad_input(tiny_trace.layer_input(0), tiny_layer.padding)
        windows = pallet_window_coordinates(tiny_layer)[0]
        step = extract_pallet_step(padded, tiny_layer, windows, BrickPosition(0, 0, 0))
        assert step.shape == (PALLET_WINDOWS, BRICK_SIZE)

    def test_exact_pallet_values_matches_iteration(self, tiny_layer, tiny_trace):
        neurons = tiny_trace.layer_input(0)
        tensor = exact_pallet_values(neurons, tiny_layer)
        assert tensor.shape == (
            tiny_layer.window_groups,
            tiny_layer.bricks_per_window,
            PALLET_WINDOWS,
            BRICK_SIZE,
        )
        padded = pad_input(neurons, tiny_layer.padding)
        for pallet, windows in enumerate(pallet_window_coordinates(tiny_layer)):
            for step, position in enumerate(brick_positions(tiny_layer)):
                np.testing.assert_array_equal(
                    tensor[pallet, step],
                    extract_pallet_step(padded, tiny_layer, windows, position),
                )


class TestSampling:
    def test_sampling_config_validation(self):
        with pytest.raises(ValueError):
            SamplingConfig(max_pallets=0)

    def test_exact_mode_returns_all_pallets(self, tiny_trace):
        values, total = sample_pallet_values(tiny_trace, 0, SamplingConfig(exact=True))
        assert total == tiny_trace.layer(0).window_groups
        assert values.shape[0] == total

    def test_sampled_mode_bounds_pallet_count(self, tiny_trace):
        values, total = sample_pallet_values(tiny_trace, 0, SamplingConfig(max_pallets=1))
        assert values.shape[0] == 1
        assert total == tiny_trace.layer(0).window_groups

    def test_sampled_values_respect_storage_range(self, tiny_trace):
        values, _ = sample_pallet_values(tiny_trace, 0, SamplingConfig(max_pallets=2))
        assert values.min() >= 0
        assert values.max() < 2**16

    def test_sampled_statistics_track_exact_statistics(self, tiny_trace):
        exact, _ = sample_pallet_values(tiny_trace, 0, SamplingConfig(exact=True))
        sampled, _ = sample_pallet_values(tiny_trace, 0, SamplingConfig(max_pallets=4))
        # Exact mode includes the spatial/channel zero padding of this very small
        # layer, so it sees somewhat more zeros than the sampled distribution.
        exact_zero = np.count_nonzero(exact == 0) / exact.size
        sampled_zero = np.count_nonzero(sampled == 0) / sampled.size
        assert sampled_zero <= exact_zero + 0.05
        exact_nonzero_median = np.median(exact[exact > 0])
        sampled_nonzero_median = np.median(sampled[sampled > 0])
        assert sampled_nonzero_median == pytest.approx(exact_nonzero_median, rel=0.35)
