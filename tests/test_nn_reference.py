"""Unit tests for the reference convolution."""

import numpy as np
import pytest

from repro.nn.layers import ConvLayerSpec
from repro.nn.reference import check_shapes, conv2d_reference, pad_input


def test_pad_input_adds_zero_border():
    neurons = np.ones((2, 3, 3), dtype=np.int64)
    padded = pad_input(neurons, 1)
    assert padded.shape == (2, 5, 5)
    assert padded[:, 0, :].sum() == 0
    assert padded[:, 1:-1, 1:-1].sum() == neurons.sum()


def test_pad_input_zero_padding_is_identity():
    neurons = np.arange(8).reshape(2, 2, 2)
    assert pad_input(neurons, 0) is neurons


def test_pad_input_rejects_negative():
    with pytest.raises(ValueError):
        pad_input(np.zeros((1, 2, 2)), -1)


def test_check_shapes_rejects_mismatches(tiny_layer, rng):
    neurons = rng.integers(0, 4, size=(tiny_layer.input_channels, 5, 5))
    synapses = rng.integers(-2, 2, size=(tiny_layer.num_filters, tiny_layer.input_channels, 3, 3))
    with pytest.raises(ValueError):
        check_shapes(tiny_layer, neurons, synapses)


def test_single_pixel_identity_convolution():
    layer = ConvLayerSpec("one", 1, 1, 1, 1, 1, 1)
    neurons = np.array([[[7]]], dtype=np.int64)
    synapses = np.array([[[[3]]]], dtype=np.int64)
    out = conv2d_reference(layer, neurons, synapses)
    assert out.shape == (1, 1, 1)
    assert out[0, 0, 0] == 21


def test_known_3x3_convolution():
    layer = ConvLayerSpec("k", 1, 3, 3, 1, 3, 3)
    neurons = np.arange(9, dtype=np.int64).reshape(1, 3, 3)
    synapses = np.ones((1, 1, 3, 3), dtype=np.int64)
    out = conv2d_reference(layer, neurons, synapses)
    assert out[0, 0, 0] == neurons.sum()


def test_stride_reduces_output_positions():
    layer = ConvLayerSpec("s", 1, 5, 5, 1, 3, 3, stride=2)
    neurons = np.ones((1, 5, 5), dtype=np.int64)
    synapses = np.ones((1, 1, 3, 3), dtype=np.int64)
    out = conv2d_reference(layer, neurons, synapses)
    assert out.shape == (1, 2, 2)
    np.testing.assert_array_equal(out, 9)


def test_matches_scipy_correlate(tiny_layer, rng):
    from scipy import signal

    neurons = rng.integers(0, 8, size=(tiny_layer.input_channels, 6, 6)).astype(np.int64)
    synapses = rng.integers(-4, 4, size=(tiny_layer.num_filters, tiny_layer.input_channels, 3, 3)).astype(np.int64)
    ours = conv2d_reference(tiny_layer, neurons, synapses)
    padded = pad_input(neurons, tiny_layer.padding)
    for f in range(tiny_layer.num_filters):
        expected = np.zeros((tiny_layer.output_height, tiny_layer.output_width))
        for c in range(tiny_layer.input_channels):
            expected += signal.correlate2d(padded[c], synapses[f, c], mode="valid")
        np.testing.assert_array_equal(ours[f], expected)


def test_output_dtype_is_int64(tiny_layer, rng):
    neurons = rng.integers(0, 4, size=(tiny_layer.input_channels, 6, 6))
    synapses = rng.integers(-2, 2, size=(tiny_layer.num_filters, tiny_layer.input_channels, 3, 3))
    assert conv2d_reference(tiny_layer, neurons, synapses).dtype == np.int64
