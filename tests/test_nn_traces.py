"""Unit tests for synthetic trace generation."""

import hashlib

import numpy as np
import pytest

from repro.nn import traces
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


#: The generator's chunk size; the pinned counts straddle its boundaries.
CHUNK = 65_536

#: Scale of each distribution in the pins below.
PINNED_SIGMAS = {"lognormal": 40.0, "half_normal": 300.0, "uniform": 255.0}

#: SHA-256 of the little-endian ``int64`` bytes of
#: ``generate_layer_values((count,), params, default_rng((count, 34)))``: the
#: values of one bulk draw of every magnitude and then one of every zero-mask
#: value, the stream order the chunked generator keeps.
GENERATED_SHA256 = {
    ("lognormal", 0.0, 1): "74b4dda3624aed85d808e91d84b08aad88563b02fe290e0d327865c33d2bafbd",
    ("lognormal", 0.0, CHUNK - 1): "17125f60ef4ac743e388106499d56c4d8a83fef5219ff9b126d1de859ac9c460",
    ("lognormal", 0.0, CHUNK): "f427a038fc8dd700ce449214b0e3f64ae102d5b2048eaa5fd7f71148cea820d9",
    ("lognormal", 0.0, CHUNK + 1): "e9af243029e612281f4d966fab990688d29611fc8809ac91ede0481872dc3beb",
    ("lognormal", 0.0, 3 * CHUNK + 7): "7d205ee61f50493bad91ab5d10f04d3fb64cbafe86f976bb18ae053f6a776e0b",
    ("lognormal", 0.4, 1): "74b4dda3624aed85d808e91d84b08aad88563b02fe290e0d327865c33d2bafbd",
    ("lognormal", 0.4, CHUNK - 1): "5bd8e335faa9a7e10267dbd1ef2f5512b93edc273bc91107e238af0f3376872c",
    ("lognormal", 0.4, CHUNK): "47b3f04d29041872b1993dc305a8ae1b9787306ce2b419633204bbf2af5db7b8",
    ("lognormal", 0.4, CHUNK + 1): "506552ac2f68490b9d5d0e0f3b2b66d7cf0db150747eb2f727e6017957f30158",
    ("lognormal", 0.4, 3 * CHUNK + 7): "d63b4d72753a6fba58cf10034549bfcd1266d09e3438b8e9b3da01e226bd521b",
    ("half_normal", 0.0, 1): "437ca1909baab1ea0534bf699cd1c77fcf73d6ec76ed2c018ca5bad189ffe89b",
    ("half_normal", 0.0, CHUNK - 1): "b1a7b18a9883f806d8f118812b062d781592c063a963858c04fbf3490261a2d9",
    ("half_normal", 0.0, CHUNK): "995f50fbf75637bdae18e624bf309ec51dc49d4fa8a83845a65d137371b0c75c",
    ("half_normal", 0.0, CHUNK + 1): "c1b1213fa6f99bfe23ce3db81fd7e35dee19aaa36985260083eabafcd158ec0d",
    ("half_normal", 0.0, 3 * CHUNK + 7): "7a83361627b8a315aa6c7f6ed9a82ba9d55953bb6ba6b8b499ac3627ccf48fad",
    ("half_normal", 0.4, 1): "437ca1909baab1ea0534bf699cd1c77fcf73d6ec76ed2c018ca5bad189ffe89b",
    ("half_normal", 0.4, CHUNK - 1): "dbe4d1b2c675c8a43ffa4a4df2382845285ae5d1a44e1e650b61c7232773840d",
    ("half_normal", 0.4, CHUNK): "6c5eaa06627db830c8f0d94b4deccdb000b3d09df499648dd9776851974f6311",
    ("half_normal", 0.4, CHUNK + 1): "a308b052ec6eeef22ee6f75815523da240ffcfcfbde7da25c33ad2c136abeed1",
    ("half_normal", 0.4, 3 * CHUNK + 7): "51fe858244149b36b2f1e533cf1a1ee92851f24b865099e17dcc1e5f53bc6288",
    ("uniform", 0.0, 1): "b758be755d4bb02ea508b84c6265403c5f2f7f3b5dc5919c41ee44f019af4fbe",
    ("uniform", 0.0, CHUNK - 1): "5fd81f4b3e8e0e49ac6c7856a81e23e4c3fd21cb8fc073ee2791aafec508a75a",
    ("uniform", 0.0, CHUNK): "5f8074dd004c32cee72c03a65b42ecbe12f7c3d820bde5fe9df09174189997e9",
    ("uniform", 0.0, CHUNK + 1): "7441cecbe2c59d2f0660a2627d5307d44cfed165230e2734c8bde6799b01998e",
    ("uniform", 0.0, 3 * CHUNK + 7): "04365ce9fda4a6cb25c1862f04d692640ba9023a8be18b32cc46a3787b9b0ef6",
    ("uniform", 0.4, 1): "b758be755d4bb02ea508b84c6265403c5f2f7f3b5dc5919c41ee44f019af4fbe",
    ("uniform", 0.4, CHUNK - 1): "a5102a861e63a5b315eec934231167c2d1a9b8a4529f70952bba2c41178eb255",
    ("uniform", 0.4, CHUNK): "b6c327df38de62171df1f974adb5b3f8d70edaa70be79a9ccf920253087d76dc",
    ("uniform", 0.4, CHUNK + 1): "c8218c3981244ad7555d26eae820ddca6035da1625768faa88720aad608d7619",
    ("uniform", 0.4, 3 * CHUNK + 7): "7177a27f1db9d32137d052c75d7218d717d3061a3fcecb64586975399b7bd519",
}


class TestGeneratedBytes:
    def test_pins_straddle_the_chunk_size(self):
        assert traces.GENERATE_CHUNK == CHUNK

    @pytest.mark.parametrize(
        "distribution, zero_fraction, count", sorted(GENERATED_SHA256)
    )
    def test_values_match_the_bulk_draw(self, distribution, zero_fraction, count):
        params = LayerTraceParams(
            sigma=PINNED_SIGMAS[distribution],
            zero_fraction=zero_fraction,
            distribution=distribution,
        )
        values = generate_layer_values(
            (count,), params, np.random.default_rng((count, 34))
        )
        assert values.dtype == np.int64 and values.shape == (count,)
        digest = hashlib.sha256(values.astype("<i8").tobytes()).hexdigest()
        assert digest == GENERATED_SHA256[(distribution, zero_fraction, count)]


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
