"""Conformance suite for every registered oneffset encoding.

One parametrized battery (modeled on ``tests/test_runtime_backends.py``) runs
against all registry entries, pinning the :class:`Encoding` contract the core
and runtime layers rely on: round-trip decode, term-count vs generator
agreement, vectorized vs scalar equality, the max-terms/max-position bounds,
and pairwise-distinct term positions (the invariant that lets one mask bit
carry one term).  Encoding-specific behaviour (the positional masks' identity
with the magnitudes, the CSD digit rule, HESE pairing, the binary degenerate
case) gets targeted classes below the shared battery, followed by the
end-to-end threading checks: config validation, sweep equality against the
Figure 7 oracle model, cache keys, variants.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.arch.tiling import SamplingConfig
from repro.core.accelerator import PragmaticConfig
from repro.core.scheduling import encoded_drain_masks
from repro.core.sweep import sweep_network
from repro.core.variants import encoding_variant, encoding_variants
from repro.numerics.encodings import (
    DEFAULT_ENCODING,
    Encoding,
    encoding_names,
    get_encoding,
    register_encoding,
)
from repro.numerics.fixedpoint import popcount
from repro.runtime import TraceSpec
from repro.runtime.fingerprint import simulation_key

ENCODINGS = encoding_names()

#: Bit widths the battery sweeps; 8 is exercised exhaustively, and 31 is the
#: widest the packed kernels admit (CSD and HESE terms reach position 31).
WIDTHS = (8, 16, 24, 31)


def sample_values(bits: int) -> np.ndarray:
    """Every 8-bit magnitude, or a dense random sample for wider widths."""
    if bits <= 8:
        return np.arange(1 << bits, dtype=np.int64)
    rng = np.random.default_rng(bits)
    values = rng.integers(0, 1 << bits, size=4096, dtype=np.int64)
    # Always include the boundary patterns.
    values[:4] = [0, 1, (1 << bits) - 1, (1 << (bits - 1)) + 1]
    return values


@pytest.mark.parametrize("name", ENCODINGS)
class TestEncodingConformance:
    @pytest.mark.parametrize("bits", WIDTHS)
    def test_round_trip_decode(self, name, bits):
        encoding = get_encoding(name)
        for value in sample_values(bits):
            terms = encoding.terms(int(value), bits=bits)
            assert encoding.decode(terms) == encoding.represent(int(value), bits=bits)

    @pytest.mark.parametrize("bits", WIDTHS)
    def test_vectorized_masks_equal_scalar_terms(self, name, bits):
        encoding = get_encoding(name)
        values = sample_values(bits)
        masks = encoding.term_masks(values, bits=bits)
        assert masks.shape == values.shape
        for index, value in enumerate(values):
            scalar_mask = 0
            for _, position in encoding.terms(int(value), bits=bits):
                scalar_mask |= 1 << position
            assert scalar_mask == int(masks[index])

    @pytest.mark.parametrize("bits", WIDTHS)
    def test_term_counts_agree_with_generator(self, name, bits):
        encoding = get_encoding(name)
        values = sample_values(bits)
        counts = encoding.term_counts(values, bits=bits)
        for index, value in enumerate(values):
            assert int(counts[index]) == len(encoding.terms(int(value), bits=bits))

    @pytest.mark.parametrize("bits", WIDTHS)
    def test_max_terms_and_position_bounds(self, name, bits):
        encoding = get_encoding(name)
        for value in sample_values(bits):
            terms = encoding.terms(int(value), bits=bits)
            assert len(terms) <= encoding.max_terms(bits)
            for sign, position in terms:
                assert sign in (-1, 1)
                assert 0 <= position <= encoding.max_position(bits)

    @pytest.mark.parametrize("bits", WIDTHS)
    def test_term_positions_are_distinct(self, name, bits):
        encoding = get_encoding(name)
        for value in sample_values(bits):
            positions = [p for _, p in encoding.terms(int(value), bits=bits)]
            assert len(positions) == len(set(positions))
            assert positions == sorted(positions)

    def test_signed_terms_sum_to_representation(self, name):
        encoding = get_encoding(name)
        for value in sample_values(8):
            total = sum(
                sign << position
                for sign, position in encoding.terms(int(value), bits=8)
            )
            assert total == encoding.represent(int(value), bits=8)

    def test_values_must_fit_the_width(self, name):
        encoding = get_encoding(name)
        with pytest.raises(ValueError):
            encoding.terms(1 << 8, bits=8)
        with pytest.raises(ValueError):
            encoding.term_masks(np.array([1 << 8]), bits=8)

    def test_mask_dtype_covers_max_position(self, name):
        encoding = get_encoding(name)
        masks = encoding.term_masks(np.array([0]), bits=16)
        width = 16 if masks.dtype == np.uint16 else 32
        assert encoding.max_position(16) < width


class TestRegistry:
    def test_all_four_encodings_registered(self):
        assert set(ENCODINGS) >= {"positional", "csd", "hese", "binary"}
        assert ENCODINGS[0] == DEFAULT_ENCODING == "positional"

    def test_unknown_encoding_rejected(self):
        with pytest.raises(ValueError, match="unknown encoding"):
            get_encoding("gray-code")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_encoding(get_encoding("csd"))

    def test_unnamed_encoding_rejected(self):
        class Nameless(Encoding):
            def terms(self, value, bits=16):  # pragma: no cover - never called
                return ()

            def term_masks(self, values, bits=16):  # pragma: no cover
                return np.zeros(0, dtype=np.uint16)

        with pytest.raises(ValueError, match="non-empty name"):
            register_encoding(Nameless())


class TestPositionalIdentity:
    """positional is the pre-registry behaviour, bit for bit."""

    def test_masks_equal_pack_drain_masks(self):
        """The masks are the magnitudes themselves, as uint16 words — what the
        pre-registry packer produced."""
        values = sample_values(16)
        masks = get_encoding("positional").term_masks(values, bits=16)
        assert masks.dtype == np.uint16
        np.testing.assert_array_equal(masks, np.abs(values))

    def test_counts_equal_popcount(self):
        values = sample_values(16)
        np.testing.assert_array_equal(
            get_encoding("positional").term_counts(values, bits=16),
            popcount(values, bits=16),
        )

    def test_encoded_drain_masks_default_routes_through_packing(self):
        values = np.array([[3, 7], [0, 255]])
        np.testing.assert_array_equal(
            encoded_drain_masks(values, 16),
            get_encoding("positional").term_masks(values, bits=16),
        )


def encode_csd(value: int) -> tuple[tuple[int, int], ...]:
    """Reference NAF: digit i is bit i+1 of 3n minus bit i+1 of n."""
    terms = []
    for position in range((3 * value).bit_length()):
        digit = ((3 * value) >> (position + 1) & 1) - (value >> (position + 1) & 1)
        if digit:
            terms.append((digit, position))
    return tuple(terms)


class TestCsdDelegation:
    def test_terms_are_encode_csd(self):
        encoding = get_encoding("csd")
        for value in sample_values(16):
            assert encoding.terms(int(value), bits=16) == encode_csd(int(value))

    def test_counts_are_term_mask_popcounts(self):
        encoding = get_encoding("csd")
        values = sample_values(16)
        masks = encoding.term_masks(values, bits=16)
        np.testing.assert_array_equal(
            encoding.term_counts(values, bits=16),
            [bin(int(mask)).count("1") for mask in masks],
        )


class TestHesePairing:
    def test_runs_pair_into_two_terms(self):
        encoding = get_encoding("hese")
        # 0b0111_1110 = 126: one run [1, 6] -> (-2^1, +2^7).
        assert encoding.terms(126, bits=8) == ((-1, 1), (1, 7))
        # 0b110111 = 55: runs [0,2] and [4,5] -> 4 terms.
        assert encoding.terms(55, bits=8) == ((-1, 0), (1, 3), (-1, 4), (1, 6))
        # Isolated bits stay positive single terms.
        assert encoding.terms(5, bits=8) == ((1, 0), (1, 2))

    def test_never_more_terms_than_positional(self):
        values = sample_values(16)
        hese = get_encoding("hese").term_counts(values, bits=16)
        positional = get_encoding("positional").term_counts(values, bits=16)
        assert (hese <= positional).all()


class TestBinaryDegenerate:
    def test_lossy_representation(self):
        encoding = get_encoding("binary")
        assert not encoding.lossless
        assert encoding.represent(0, bits=16) == 0
        assert encoding.represent(1, bits=16) == 1
        assert encoding.represent(40000, bits=16) == 1

    def test_single_term_per_nonzero(self):
        values = sample_values(16)
        counts = get_encoding("binary").term_counts(values, bits=16)
        np.testing.assert_array_equal(counts, (values != 0).astype(np.int64))


class TestConfigThreading:
    def test_config_validates_encoding(self):
        with pytest.raises(ValueError, match="encoding"):
            PragmaticConfig(encoding="gray-code")

    def test_name_carries_non_default_encoding(self):
        assert PragmaticConfig().name == "PRA-2b"
        assert PragmaticConfig(encoding="csd").name == "PRA-2b-csd"

    def test_encoding_variants_cover_the_registry(self):
        variants = encoding_variants()
        assert tuple(variants) == ENCODINGS
        for name, config in variants.items():
            assert config.encoding == name
        assert encoding_variant("hese").name == "PRA-2b-hese"

    def test_simulation_keys_differ_per_encoding(self):
        spec = TraceSpec(network="alexnet")
        sampling = SamplingConfig(max_pallets=2)
        keys = {
            name: simulation_key(
                spec, sampling, PragmaticConfig(encoding=name, label=name)
            )
            for name in ENCODINGS
        }
        assert len(set(keys.values())) == len(ENCODINGS)

    def test_positional_key_has_no_encoding_component(self):
        """The canonical form of a positional config predates the encoding
        axis: stripping the field keeps warm caches warm across the refactor."""
        spec = TraceSpec(network="alexnet")
        sampling = SamplingConfig(max_pallets=2)
        config = PragmaticConfig()
        without_field = dataclasses.replace(config, encoding="positional")
        assert simulation_key(spec, sampling, config) == simulation_key(
            spec, sampling, without_field
        )
        # A label never changes the key either (pre-existing contract).
        assert simulation_key(spec, sampling, config) == simulation_key(
            spec, sampling, dataclasses.replace(config, label="renamed")
        )


def _tiny_trace():
    from tests.test_core_kernels import random_trace

    return random_trace(17)


class TestSweepEncodingEquality:
    """sweep_network vs the Figure 7 oracle model under every encoding: exact."""

    @pytest.mark.parametrize("name", ENCODINGS)
    def test_sweep_bit_identical_to_accelerator(self, name):
        from tests.test_core_kernels import oracle_network

        trace = _tiny_trace()
        sampling = SamplingConfig(max_pallets=2, seed=5)
        config = encoding_variant(name)
        results = sweep_network(trace, {name: config}, sampling=sampling)
        assert results[name] == oracle_network(trace, config, sampling)

    def test_mixed_encoding_sweep_groups_share_packing(self):
        from repro.core.sweep import SweepStats

        trace = _tiny_trace()
        sampling = SamplingConfig(max_pallets=2, seed=5)
        configs = {
            name: encoding_variant(name) for name in ("positional", "csd")
        }
        # Two first-stage widths per encoding -> 4 configs, 2 packs per layer
        # per encoding but one kernel call per (trimming, encoding) pair.
        configs["positional-3b"] = encoding_variant("positional", first_stage_bits=3)
        configs["csd-3b"] = encoding_variant("csd", first_stage_bits=3)
        stats = SweepStats()
        results = sweep_network(trace, configs, sampling=sampling, stats=stats)
        assert set(results) == set(configs)
        layers = trace.network.num_layers
        assert stats.drain_groups_computed == 4 * layers
