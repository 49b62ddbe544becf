"""Unit tests for precision profiles and the trace-driven profiler."""

import numpy as np
import pytest

from repro.nn.networks import NETWORK_NAMES, get_network
from repro.nn.precision import (
    DEFAULT_SUFFIX_BITS,
    TABLE2_PRECISIONS,
    LayerPrecision,
    precision_profile,
    profile_from_values,
    table2_precisions,
)


class TestLayerPrecision:
    def test_width(self):
        assert LayerPrecision(msb=8, lsb=2).width == 7
        assert LayerPrecision(msb=0, lsb=0).width == 1

    def test_mask_keeps_only_window_bits(self):
        precision = LayerPrecision(msb=4, lsb=2)
        assert precision.mask == 0b11100

    def test_trim_zeroes_bits_outside_window(self):
        precision = LayerPrecision(msb=3, lsb=1)
        np.testing.assert_array_equal(
            precision.trim(np.array([0b10111])), [0b0110]
        )

    def test_trim_preserves_sign(self):
        precision = LayerPrecision(msb=7, lsb=0)
        np.testing.assert_array_equal(precision.trim(np.array([-5, 5])), [-5, 5])

    def test_trim_masks_magnitudes_of_signed_values(self, rng):
        precision = LayerPrecision(msb=9, lsb=2)
        values = rng.integers(-(2**15), 2**15, size=1000)
        before = values.copy()
        magnitudes = np.abs(values) & precision.mask
        expected = np.where(values < 0, -magnitudes, magnitudes)
        np.testing.assert_array_equal(precision.trim(values), expected)
        np.testing.assert_array_equal(values, before)  # the input is not trimmed
        assert precision.trim(np.int64(-0b10111)) == -0b10100

    def test_trim_is_idempotent(self, rng):
        precision = LayerPrecision(msb=9, lsb=2)
        values = rng.integers(-(2**12), 2**12, size=100)
        once = precision.trim(values)
        np.testing.assert_array_equal(precision.trim(once), once)

    def test_trim_never_increases_magnitude(self, rng):
        precision = LayerPrecision(msb=6, lsb=3)
        values = rng.integers(0, 2**10, size=200)
        assert np.all(np.abs(precision.trim(values)) <= np.abs(values))

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            LayerPrecision(msb=1, lsb=2)
        with pytest.raises(ValueError):
            LayerPrecision(msb=3, lsb=-1)


class TestTable2:
    @pytest.mark.parametrize("name", NETWORK_NAMES)
    def test_published_profiles_match_layer_counts(self, name):
        assert len(table2_precisions(name)) == get_network(name).num_layers

    def test_alexnet_profile_values(self):
        assert TABLE2_PRECISIONS["alexnet"] == (9, 8, 5, 5, 7)

    def test_vgg19_needs_the_widest_precisions(self):
        maxima = {name: max(values) for name, values in TABLE2_PRECISIONS.items()}
        assert maxima["vgg19"] == max(maxima.values())

    def test_precision_profile_places_window_above_suffix(self):
        profile = precision_profile("alexnet", suffix_bits=2)
        assert profile[0].lsb == 2
        assert profile[0].width == 9

    def test_precision_profile_custom_widths(self):
        profile = precision_profile("alexnet", precisions=(4, 4, 4, 4, 4))
        assert all(p.width == 4 for p in profile)

    def test_precision_profile_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            precision_profile("alexnet", precisions=(4, 4))

    def test_precision_profile_rejects_negative_suffix(self):
        with pytest.raises(ValueError):
            precision_profile("alexnet", suffix_bits=-1)

    def test_default_suffix_bits_is_small(self):
        assert 0 <= DEFAULT_SUFFIX_BITS <= 4


class TestProfiler:
    def test_profile_covers_typical_values(self, rng):
        values = rng.integers(0, 2**9, size=5000)
        precision = profile_from_values(values, storage_bits=16, coverage=0.999)
        assert precision.msb >= 7

    def test_profile_of_all_zero_stream(self):
        precision = profile_from_values(np.zeros(100, dtype=int))
        assert precision.width == 1

    def test_profile_msb_bounded_by_storage(self):
        values = np.array([2**15 - 1] * 10)
        assert profile_from_values(values, storage_bits=16).msb <= 15

    def test_profile_drops_suffix_for_large_values(self):
        values = np.full(1000, 1 << 12)
        precision = profile_from_values(values, suffix_coverage=0.01)
        assert precision.lsb > 0

    def test_profile_rejects_bad_coverage(self):
        with pytest.raises(ValueError):
            profile_from_values(np.array([1]), coverage=0.0)
        with pytest.raises(ValueError):
            profile_from_values(np.array([1]), suffix_coverage=1.0)
