"""Unit tests for the oneffset (essential bit) representation.

The paper's oneffsets are the terms of the ``positional`` registry encoding,
and :func:`repro.analysis.essential_bits.measure_trace` is their Table I
statistic.
"""

import numpy as np
import pytest

from repro.analysis.essential_bits import measure_trace
from repro.numerics.encodings import get_encoding
from repro.numerics.fixedpoint import popcount

POSITIONAL = get_encoding("positional")


def encode_oneffsets(value, bits=16):
    """Ascending oneffsets of ``|value|``."""
    return tuple(position for _, position in POSITIONAL.terms(value, bits=bits))


def decode_oneffsets(offsets):
    return POSITIONAL.decode(tuple((1, offset) for offset in offsets))


def stub_sampler(trace, monkeypatch, values):
    """Make every layer of ``trace`` sample exactly ``values``."""
    monkeypatch.setattr(
        type(trace), "sample_layer_values", lambda self, index, count: np.array(values)
    )


class TestEncodeDecode:
    def test_paper_example_value_101b(self):
        # The paper represents n = 101(2) as oneffsets (2, 0); the generator
        # emits them least-significant first.
        assert encode_oneffsets(0b101)[::-1] == (2, 0)
        assert encode_oneffsets(0b101) == (0, 2)

    def test_zero_has_no_oneffsets(self):
        assert encode_oneffsets(0) == ()

    def test_all_ones(self):
        assert encode_oneffsets(0b111) == (0, 1, 2)

    def test_negative_value_uses_magnitude(self):
        assert encode_oneffsets(-6) == encode_oneffsets(6)

    def test_decode_inverts_encode(self):
        for value in [0, 1, 2, 5, 0b101101, 65535]:
            assert decode_oneffsets(encode_oneffsets(value)) == value

    def test_decode_rejects_duplicates(self):
        with pytest.raises(ValueError):
            decode_oneffsets([1, 1])

    def test_decode_rejects_negative_positions(self):
        with pytest.raises(ValueError):
            decode_oneffsets([-1])


class TestEssentialBitStatistics:
    def test_counts_match_popcount_semantics(self):
        values = np.array([0, 1, 3, 7, 255])
        np.testing.assert_array_equal(POSITIONAL.term_counts(values, bits=8), [0, 1, 2, 3, 8])
        np.testing.assert_array_equal(popcount(values, bits=8), [0, 1, 2, 3, 8])

    def test_fraction_all_neurons(self, tiny_trace, monkeypatch):
        stub_sampler(tiny_trace, monkeypatch, [0, 0, 0b1111, 0b1111])
        all_fraction, _ = measure_trace(tiny_trace)
        assert all_fraction == pytest.approx(2 / 16)

    def test_fraction_nonzero_only(self, tiny_trace, monkeypatch):
        stub_sampler(tiny_trace, monkeypatch, [0, 0, 0b1111, 0b1111])
        _, nonzero_fraction = measure_trace(tiny_trace)
        assert nonzero_fraction == pytest.approx(4 / 16)

    def test_fraction_all_zero_stream(self, tiny_trace, monkeypatch):
        stub_sampler(tiny_trace, monkeypatch, [0, 0, 0, 0])
        assert measure_trace(tiny_trace) == (0.0, 0.0)

    def test_fraction_rejects_empty(self, tiny_trace):
        with pytest.raises(ValueError):
            measure_trace(tiny_trace, samples_per_layer=0)
