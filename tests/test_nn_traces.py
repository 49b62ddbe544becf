"""Unit tests for synthetic trace generation."""

import numpy as np
import pytest

from repro.nn.traces import (
    DEFAULT_SHAPE,
    LayerTraceParams,
    NetworkTrace,
    generate_layer_values,
    generate_synapses,
)
from repro.nn.precision import LayerPrecision


class TestLayerTraceParams:
    def test_defaults(self):
        params = LayerTraceParams(sigma=10.0, zero_fraction=0.5)
        assert params.distribution == "lognormal"
        assert params.shape == DEFAULT_SHAPE

    def test_rejects_invalid_sigma(self):
        with pytest.raises(ValueError):
            LayerTraceParams(sigma=0.0, zero_fraction=0.1)

    def test_rejects_invalid_zero_fraction(self):
        with pytest.raises(ValueError):
            LayerTraceParams(sigma=1.0, zero_fraction=1.0)

    def test_rejects_unknown_distribution(self):
        with pytest.raises(ValueError):
            LayerTraceParams(sigma=1.0, zero_fraction=0.1, distribution="pareto")


class TestGenerateLayerValues:
    def test_values_are_nonnegative_and_bounded(self, rng):
        params = LayerTraceParams(sigma=100.0, zero_fraction=0.3, max_magnitude=255)
        values = generate_layer_values((1000,), params, rng)
        assert values.min() >= 0
        assert values.max() <= 255

    def test_zero_fraction_is_respected(self, rng):
        params = LayerTraceParams(sigma=50.0, zero_fraction=0.6)
        values = generate_layer_values((20000,), params, rng)
        zero_rate = np.count_nonzero(values == 0) / values.size
        assert abs(zero_rate - 0.6) < 0.02

    def test_shape_is_preserved(self, rng):
        params = LayerTraceParams(sigma=10.0, zero_fraction=0.1)
        assert generate_layer_values((3, 4, 5), params, rng).shape == (3, 4, 5)

    def test_uniform_distribution_spans_range(self, rng):
        params = LayerTraceParams(sigma=255.0, zero_fraction=0.0, distribution="uniform")
        values = generate_layer_values((5000,), params, rng)
        assert values.max() > 200
        assert values.min() >= 1

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("distribution", ["uniform", "lognormal"])
    def test_huge_magnitudes_saturate(self, distribution):
        # Far beyond the int64 range: rounding and clipping happen in float,
        # so every value saturates instead of wrapping to the minimum of 1.
        params = LayerTraceParams(sigma=1e20, zero_fraction=0.0, distribution=distribution)
        values = generate_layer_values((8,), params, np.random.default_rng(0))
        np.testing.assert_array_equal(values, np.full(8, params.max_magnitude))

    def test_half_normal_scale_controls_magnitude(self, rng):
        small = LayerTraceParams(sigma=4.0, zero_fraction=0.0, distribution="half_normal")
        large = LayerTraceParams(sigma=400.0, zero_fraction=0.0, distribution="half_normal")
        small_values = generate_layer_values((2000,), small, rng)
        large_values = generate_layer_values((2000,), large, rng)
        assert large_values.mean() > 10 * small_values.mean()


class TestGenerateSynapses:
    def test_shape_matches_layer(self, tiny_layer, rng):
        synapses = generate_synapses(tiny_layer, rng)
        assert synapses.shape == (
            tiny_layer.num_filters,
            tiny_layer.input_channels,
            tiny_layer.filter_height,
            tiny_layer.filter_width,
        )

    def test_values_are_signed_and_bounded(self, tiny_layer, rng):
        synapses = generate_synapses(tiny_layer, rng, magnitude_bits=4)
        assert synapses.min() < 0 < synapses.max()
        assert np.abs(synapses).max() <= 16

    def test_rejects_invalid_magnitude_bits(self, tiny_layer, rng):
        with pytest.raises(ValueError):
            generate_synapses(tiny_layer, rng, magnitude_bits=0)


class TestNetworkTrace:
    def test_layer_input_shape(self, tiny_trace, tiny_layer):
        values = tiny_trace.layer_input(0)
        assert values.shape == (
            tiny_layer.input_channels,
            tiny_layer.input_height,
            tiny_layer.input_width,
        )

    def test_layer_input_is_deterministic(self, tiny_trace):
        np.testing.assert_array_equal(tiny_trace.layer_input(0), tiny_trace.layer_input(0))

    def test_different_layers_get_different_values(self, tiny_trace):
        a = tiny_trace.sample_layer_values(0, 500)
        b = tiny_trace.sample_layer_values(1, 500)
        assert not np.array_equal(a[:500], b[:500])

    def test_sample_values_deterministic(self, tiny_trace):
        np.testing.assert_array_equal(
            tiny_trace.sample_layer_values(1, 100), tiny_trace.sample_layer_values(1, 100)
        )

    def test_sample_rejects_nonpositive_count(self, tiny_trace):
        with pytest.raises(ValueError):
            tiny_trace.sample_layer_values(0, 0)

    def test_weights_match_layer_count(self, tiny_trace):
        assert tiny_trace.stream_weights().shape == (2,)

    def test_mismatched_params_rejected(self, tiny_network):
        with pytest.raises(ValueError):
            NetworkTrace(
                network=tiny_network,
                precisions=(LayerPrecision(msb=9),),
                params=(LayerTraceParams(sigma=1.0, zero_fraction=0.1),) * 2,
            )
