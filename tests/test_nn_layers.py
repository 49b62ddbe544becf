"""Unit tests for convolutional layer geometry."""

import pytest

from repro.nn.layers import BRICK_SIZE, PALLET_WINDOWS, ConvLayerSpec


def make_layer(**overrides):
    defaults = dict(
        name="layer",
        input_channels=64,
        input_height=28,
        input_width=28,
        num_filters=128,
        filter_height=3,
        filter_width=3,
        stride=1,
        padding=1,
    )
    defaults.update(overrides)
    return ConvLayerSpec(**defaults)


class TestGeometry:
    def test_constants(self):
        assert BRICK_SIZE == 16
        assert PALLET_WINDOWS == 16

    def test_output_dims_with_padding(self):
        layer = make_layer()
        assert layer.output_height == 28
        assert layer.output_width == 28

    def test_output_dims_with_stride(self):
        layer = make_layer(stride=2, padding=0, input_height=11, input_width=11)
        assert layer.output_height == 5
        assert layer.output_width == 5

    def test_alexnet_conv1_dimensions(self):
        layer = ConvLayerSpec("conv1", 3, 227, 227, 96, 11, 11, stride=4)
        assert layer.output_height == 55
        assert layer.output_width == 55

    def test_num_windows(self):
        layer = make_layer()
        assert layer.num_windows == 28 * 28

    def test_synapse_counts(self):
        layer = make_layer()
        assert layer.synapses_per_filter == 3 * 3 * 64

    def test_mac_count(self):
        layer = make_layer()
        assert layer.macs == 28 * 28 * 128 * 3 * 3 * 64

    def test_channel_bricks_rounds_up(self):
        assert make_layer(input_channels=3).channel_bricks == 1
        assert make_layer(input_channels=16).channel_bricks == 1
        assert make_layer(input_channels=17).channel_bricks == 2

    def test_bricks_per_window(self):
        layer = make_layer(input_channels=48)
        assert layer.bricks_per_window == 3 * 3 * 3

    def test_window_groups_rounds_up(self):
        layer = make_layer(input_height=5, input_width=5, padding=0, filter_height=3, filter_width=3)
        assert layer.num_windows == 9
        assert layer.window_groups == 1
        wide = make_layer()
        assert wide.window_groups == -(-wide.num_windows // 16)

    def test_filter_passes(self):
        layer = make_layer(num_filters=96)
        assert layer.filter_passes(256) == 1
        assert layer.filter_passes(64) == 2

    def test_filter_passes_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            make_layer().filter_passes(0)

    def test_neuron_stream_length_independent_of_filter_count(self):
        a = make_layer(num_filters=64)
        b = make_layer(num_filters=512)
        assert a.neuron_stream_length() == b.neuron_stream_length()

    def test_describe_mentions_name_and_shape(self):
        text = make_layer().describe()
        assert "layer" in text
        assert "128 filters" in text


class TestValidation:
    def test_rejects_nonpositive_dimensions(self):
        with pytest.raises(ValueError):
            make_layer(input_channels=0)
        with pytest.raises(ValueError):
            make_layer(stride=0)

    def test_rejects_negative_padding(self):
        with pytest.raises(ValueError):
            make_layer(padding=-1)

    def test_rejects_filter_larger_than_input(self):
        with pytest.raises(ValueError):
            make_layer(input_height=2, input_width=2, padding=0)
