"""Unit and property tests for the canonical signed digit (CSD) encoding."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.numerics.encodings import get_encoding
from repro.numerics.fixedpoint import popcount

CSD = get_encoding("csd")
encode_csd = CSD.terms
decode_csd = CSD.decode


class TestEncodeDecode:
    def test_known_encodings(self):
        assert encode_csd(0) == ()
        assert encode_csd(1) == ((1, 0),)
        assert encode_csd(3) == ((-1, 0), (1, 2))
        assert encode_csd(126) == ((-1, 1), (1, 7))

    def test_negative_values_use_magnitude(self):
        assert encode_csd(-126) == encode_csd(126)

    def test_decode_inverts_encode(self):
        for value in (0, 1, 2, 3, 7, 126, 255, 43690, 65535):
            assert decode_csd(encode_csd(value)) == value

    def test_non_adjacent_property(self):
        for value in range(0, 4096, 37):
            positions = sorted(position for _, position in encode_csd(value))
            assert all(b - a >= 2 for a, b in zip(positions, positions[1:]))

    def test_decode_rejects_bad_terms(self):
        with pytest.raises(ValueError):
            decode_csd([(2, 0)])
        with pytest.raises(ValueError):
            decode_csd([(1, 0), (1, 0)])
        with pytest.raises(ValueError):
            decode_csd([(1, -1)])

    def test_encode_rejects_too_wide_values(self):
        with pytest.raises(ValueError):
            encode_csd(1 << 16, bits=16)


class TestTermCounts:
    def test_counts_match_encoder(self, rng):
        values = rng.integers(0, 2**16, size=300)
        counts = CSD.term_counts(values, bits=16)
        expected = [len(encode_csd(int(v))) for v in values]
        np.testing.assert_array_equal(counts, expected)

    def test_csd_never_needs_more_terms_than_positional(self, rng):
        values = rng.integers(0, 2**16, size=500)
        assert np.all(CSD.term_counts(values, 16) <= popcount(values, 16))

    def test_dense_values_halve_their_terms(self):
        # 0b111...1 needs n positional terms but only two CSD terms.
        assert CSD.term_counts(np.array([0xFF]), 8)[0] == 2

    def test_position_matrix_matches_encoder(self, rng):
        # The term masks are the packed position matrix: bit p set exactly
        # when the encoder emits a term at position p (17 positions, uint32).
        values = rng.integers(0, 2**16, size=50)
        masks = CSD.term_masks(values, bits=16)
        assert masks.dtype == np.uint32
        for mask, value in zip(masks, values):
            positions = {position for _, position in encode_csd(int(value))}
            assert {p for p in range(17) if int(mask) >> p & 1} == positions


class TestProperties:
    @given(st.integers(min_value=0, max_value=2**16 - 1))
    def test_roundtrip(self, value):
        assert decode_csd(encode_csd(value)) == value

    @given(st.integers(min_value=0, max_value=2**16 - 1))
    def test_minimality_upper_bound(self, value):
        # NAF uses at most ceil(bits/2) + 1 terms and never more than popcount.
        terms = len(encode_csd(value))
        assert terms <= bin(value).count("1")
        assert terms <= 9
