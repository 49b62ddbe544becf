"""Unit tests for the DaDianNao, Stripes and zero-skipping baselines."""

import numpy as np
import pytest

from repro.baselines.dadiannao import DaDianNaoFunctional, DaDianNaoModel
from repro.baselines.stripes import StripesFunctional, StripesModel
from repro.baselines.zero_skip import ZeroSkipModel, zero_fraction
from repro.nn.layers import ConvLayerSpec
from repro.nn.precision import LayerPrecision
from repro.nn.reference import conv2d_reference
from repro.nn.traces import generate_synapses


class TestDaDianNaoModel:
    def test_layer_cycles_formula(self):
        layer = ConvLayerSpec("l", 64, 28, 28, 128, 3, 3, padding=1)
        model = DaDianNaoModel()
        assert model.layer_cycles(layer) == layer.num_windows * layer.bricks_per_window

    def test_second_filter_pass_doubles_cycles(self):
        narrow = ConvLayerSpec("a", 64, 14, 14, 256, 3, 3, padding=1)
        wide = ConvLayerSpec("b", 64, 14, 14, 512, 3, 3, padding=1)
        model = DaDianNaoModel()
        assert model.layer_cycles(wide) == 2 * model.layer_cycles(narrow)

    def test_layer_terms_counts_sixteen_per_mac(self):
        layer = ConvLayerSpec("l", 16, 8, 8, 4, 3, 3, padding=1)
        assert DaDianNaoModel().layer_terms(layer) == layer.macs * 16

    def test_cycles_independent_of_neuron_values(self):
        # Bit-parallel hardware is value-agnostic by construction.
        layer = ConvLayerSpec("l", 16, 8, 8, 4, 3, 3)
        model = DaDianNaoModel()
        assert model.layer_cycles(layer) == model.layer_cycles(layer)


class TestDaDianNaoFunctional:
    def test_matches_reference_convolution(self, tiny_layer, tiny_trace, rng):
        neurons = tiny_trace.layer_input(0)
        synapses = generate_synapses(tiny_layer, rng)
        expected = conv2d_reference(tiny_layer, neurons, synapses)
        actual = DaDianNaoFunctional().compute_layer(tiny_layer, neurons, synapses)
        np.testing.assert_array_equal(actual, expected)

    def test_matches_reference_with_stride(self, strided_layer, rng):
        neurons = rng.integers(0, 64, size=(16, 9, 9))
        synapses = generate_synapses(strided_layer, rng)
        expected = conv2d_reference(strided_layer, neurons, synapses)
        actual = DaDianNaoFunctional().compute_layer(strided_layer, neurons, synapses)
        np.testing.assert_array_equal(actual, expected)


class TestStripesModel:
    def test_cycles_scale_with_precision(self):
        layer = ConvLayerSpec("l", 64, 28, 28, 128, 3, 3, padding=1)
        model = StripesModel()
        assert model.layer_cycles(layer, 8) == 2 * model.layer_cycles(layer, 4)

    def test_ideal_speedup_is_sixteen_over_p(self):
        layer = ConvLayerSpec("l", 64, 32, 32, 256, 3, 3, padding=1)
        dadn = DaDianNaoModel()
        stripes = StripesModel()
        speedup = dadn.layer_cycles(layer) / stripes.layer_cycles(layer, 8)
        assert speedup == pytest.approx(16 / 8, rel=0.01)

    def test_precision_is_capped_at_storage_width(self):
        layer = ConvLayerSpec("l", 16, 8, 8, 4, 3, 3)
        model = StripesModel()
        assert model.layer_cycles(layer, 99) == model.layer_cycles(layer, 16)

    def test_accepts_layer_precision_objects(self):
        layer = ConvLayerSpec("l", 16, 8, 8, 4, 3, 3)
        model = StripesModel()
        assert model.layer_cycles(layer, LayerPrecision(msb=8, lsb=2)) == model.layer_cycles(layer, 7)

    def test_rejects_zero_precision(self):
        layer = ConvLayerSpec("l", 16, 8, 8, 4, 3, 3)
        with pytest.raises(ValueError):
            StripesModel().layer_cycles(layer, 0)


class TestStripesFunctional:
    def test_matches_reference_when_window_covers_values(self, tiny_layer, rng):
        neurons = rng.integers(0, 2**8, size=(24, 6, 6))
        synapses = generate_synapses(tiny_layer, rng)
        precision = LayerPrecision(msb=7, lsb=0)
        expected = conv2d_reference(tiny_layer, neurons, synapses)
        actual = StripesFunctional().compute_layer(tiny_layer, neurons, synapses, precision)
        np.testing.assert_array_equal(actual, expected)

    def test_rejects_values_outside_precision_window(self, tiny_layer, rng):
        neurons = np.full((24, 6, 6), 0b1001, dtype=np.int64)
        synapses = generate_synapses(tiny_layer, rng)
        with pytest.raises(ValueError):
            StripesFunctional().compute_layer(
                tiny_layer, neurons, synapses, LayerPrecision(msb=2, lsb=0)
            )


class TestZeroSkip:
    def test_zero_fraction(self):
        assert zero_fraction(np.array([0, 0, 1, 2])) == 0.5
        with pytest.raises(ValueError):
            zero_fraction(np.array([]))

    def test_ideal_skips_zero_neurons_everywhere(self):
        layer = ConvLayerSpec("l", 16, 8, 8, 4, 3, 3)
        values = np.array([0, 0, 5, 9])
        zn = ZeroSkipModel(skip_first_layer=True)
        assert zn.layer_terms(layer, values, layer_index=0) == layer.macs * 16 * 0.5

    def test_cnvlutin_processes_first_layer_fully(self):
        layer = ConvLayerSpec("l", 16, 8, 8, 4, 3, 3)
        values = np.array([0, 0, 5, 9])
        cvn = ZeroSkipModel(skip_first_layer=False)
        assert cvn.layer_terms(layer, values, layer_index=0) == layer.macs * 16
        assert cvn.layer_terms(layer, values, layer_index=1) == layer.macs * 16 * 0.5
