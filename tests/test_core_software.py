"""Unit tests for the software guidance (per-layer trimming) model."""

import numpy as np
import pytest

from repro.core.software import SoftwareGuidance
from repro.nn.precision import LayerPrecision
from repro.numerics.fixedpoint import popcount


@pytest.fixture
def guidance():
    return SoftwareGuidance(
        precisions=(LayerPrecision(msb=9, lsb=2), LayerPrecision(msb=7, lsb=0))
    )


class TestSoftwareGuidance:
    def test_apply_masks_bits_outside_window(self, guidance):
        values = np.array([0b11_1111_1111_11])
        trimmed = guidance.apply(values, 0)
        assert np.all((np.abs(trimmed) & ~np.int64(guidance.precisions[0].mask)) == 0)

    def test_disabled_guidance_is_identity(self, tiny_trace, rng):
        guidance = SoftwareGuidance.from_trace(tiny_trace, enabled=False)
        values = rng.integers(0, 2**15, size=100)
        np.testing.assert_array_equal(guidance.apply(values, 1), values)

    def test_from_trace_uses_trace_precisions(self, tiny_trace):
        guidance = SoftwareGuidance.from_trace(tiny_trace)
        assert guidance.precisions == tiny_trace.precisions
        assert guidance.enabled

    def test_trimming_never_increases_essential_bits(self, guidance, rng):
        values = rng.integers(0, 2**14, size=500)
        before = popcount(values, 16).sum()
        after = popcount(guidance.apply(values, 0), 16).sum()
        assert after <= before

    def test_essential_bit_savings_between_zero_and_one(self, guidance, rng):
        values = rng.integers(0, 2**14, size=500)
        savings = guidance.essential_bit_savings(values, 0)
        assert 0.0 <= savings < 1.0

    def test_savings_zero_for_all_zero_values(self, guidance):
        assert guidance.essential_bit_savings(np.zeros(10, dtype=int), 0) == 0.0
