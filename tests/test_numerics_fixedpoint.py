"""Unit tests for repro.numerics.fixedpoint (the essential-bit popcount)."""

import numpy as np
import pytest

from repro.numerics.fixedpoint import popcount


class TestBitHelpers:
    def test_popcount_matches_binary_expansion(self):
        values = np.array([0, 1, 5, 0b1010_1010])
        expected = [sum((int(value) >> b) & 1 for b in range(8)) for value in values]
        np.testing.assert_array_equal(popcount(values, bits=8), expected)

    def test_popcount_uses_magnitude_of_negatives(self):
        np.testing.assert_array_equal(popcount(np.array([-5]), 4), popcount(np.array([5]), 4))

    def test_popcount_rejects_too_wide_values(self):
        with pytest.raises(ValueError):
            popcount(np.array([256]), bits=8)
        with pytest.raises(ValueError):
            popcount(np.array([-256]), bits=8)

    def test_popcount_is_int64(self):
        assert popcount(np.array([3], dtype=np.uint16), 16).dtype == np.int64

    def test_popcount_known_values(self):
        np.testing.assert_array_equal(popcount(np.array([0, 1, 3, 255]), 8), [0, 1, 2, 8])

    def test_popcount_matches_python_bin(self, rng):
        values = rng.integers(0, 2**16, size=200)
        expected = [bin(int(v)).count("1") for v in values]
        np.testing.assert_array_equal(popcount(values, 16), expected)

    def test_popcount_preserves_shape(self):
        values = np.arange(12).reshape(3, 4)
        assert popcount(values, 8).shape == (3, 4)
