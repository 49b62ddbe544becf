"""Unit tests for the drain-cycle and synchronization scheduling models.

Column drains come from the batched kernel over encoded term masks and are
checked against the Figure 7 oracle; the per-pallet and per-column
synchronization schemes are exercised through ``cycles_from_drain``.
"""

import numpy as np
import pytest

import repro.core.sweep
from repro.arch.tiling import SamplingConfig
from repro.core.accelerator import PragmaticConfig
from repro.core.kernels import batched_drain_cycles, packed_essential_terms
from repro.core.pip import serial_term_schedule
from repro.core.scheduling import encoded_drain_masks, ssr_pipeline_cycles
from repro.core.sweep import cycles_from_drain, sweep_network
from repro.numerics.encodings import get_encoding
from repro.numerics.fixedpoint import popcount

PALLET = PragmaticConfig(synchronization="pallet")


def random_step_values(rng, pallets=3, steps=4, windows=16, neurons=16, density=0.3, bits=12):
    values = rng.integers(0, 2**bits, size=(pallets, steps, windows, neurons))
    mask = rng.random(values.shape) < (1 - density)
    values[mask] = 0
    return values


def drains(values, first_stage_bits, storage_bits=16):
    """Per-column kernel drains of integer neuron values."""
    masks = encoded_drain_masks(values, storage_bits)
    return batched_drain_cycles(masks, (1 << first_stage_bits,))[0]


def pallet_cycles(values, first_stage_bits, min_step_cycles=1):
    return cycles_from_drain(drains(values, first_stage_bits), PALLET, min_step_cycles)


def column_cycles(values, first_stage_bits, ssr_count=1, min_step_cycles=1):
    config = PragmaticConfig(synchronization="column", ssr_count=ssr_count)
    return cycles_from_drain(drains(values, first_stage_bits), config, min_step_cycles)


def oracle_cycles(column, first_stage_bits):
    positional = get_encoding("positional")
    lanes = [[p for _, p in positional.terms(int(v))] for v in column]
    return len(serial_term_schedule(lanes, first_stage_bits))


class TestColumnDrainCycles:
    def test_single_column_known_values(self):
        assert drains(np.array([[0b1, 0b1010, 0b111]]), 4, storage_bits=8) == 3

    def test_zero_column_reports_zero(self):
        assert drains(np.zeros((1, 16), dtype=int), 2) == 0

    def test_full_reach_equals_max_popcount(self, rng):
        values = rng.integers(0, 2**16, size=(40, 16))
        expected = popcount(values, 16).max(axis=1)
        np.testing.assert_array_equal(drains(values, 4), expected)

    def test_matches_reference_scheduler_for_all_reaches(self, rng):
        values = rng.integers(0, 2**10, size=(25, 8))
        values[rng.random(values.shape) < 0.5] = 0
        for reach_bits in range(5):
            kernel = drains(values, reach_bits)
            for column in range(values.shape[0]):
                assert int(kernel[column]) == oracle_cycles(values[column], reach_bits)

    def test_narrower_reach_never_faster(self, rng):
        values = rng.integers(0, 2**16, size=(30, 16))
        previous = None
        for reach_bits in (4, 3, 2, 1, 0):
            cycles = drains(values, reach_bits)
            if previous is not None:
                assert np.all(cycles >= previous)
            previous = cycles

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            batched_drain_cycles(np.uint16(3), (1,))
        with pytest.raises(ValueError):
            batched_drain_cycles(np.zeros((2, 2), dtype=np.uint16), (0,))


class TestStepDrainCycles:
    def test_shape(self, rng):
        values = random_step_values(rng)
        assert drains(values, 2).shape == values.shape[:-1]

    def test_bounded_by_storage_bits_and_popcount(self, rng):
        values = random_step_values(rng, bits=16)
        cycles = drains(values, 4)
        assert cycles.max() <= 16
        assert np.all(cycles >= popcount(values, 16).max(axis=-1))


class TestPalletSync:
    def test_all_zero_pallet_costs_min_step(self):
        values = np.zeros((2, 5, 16, 16), dtype=np.int64)
        np.testing.assert_array_equal(pallet_cycles(values, 2), 5)

    def test_worst_case_is_sixteen_per_step(self):
        values = np.full((1, 3, 16, 16), (1 << 16) - 1, dtype=np.int64)
        np.testing.assert_array_equal(pallet_cycles(values, 4), 3 * 16)

    def test_min_step_cycles_floor(self, rng):
        values = random_step_values(rng, density=0.05, bits=2)
        relaxed = pallet_cycles(values, 2, min_step_cycles=1)
        floored = pallet_cycles(values, 2, min_step_cycles=4)
        assert np.all(floored >= relaxed)
        assert np.all(floored >= 4 * values.shape[1])

    def test_equals_sum_of_per_step_maxima(self, rng):
        values = random_step_values(rng)
        expected = np.maximum(drains(values, 3).max(axis=2), 1).sum(axis=1)
        np.testing.assert_array_equal(pallet_cycles(values, 3), expected)

    def test_rejects_bad_shapes_and_args(self):
        with pytest.raises(ValueError):
            cycles_from_drain(np.zeros((2, 3)), PALLET, min_step_cycles=1)
        with pytest.raises(ValueError):
            cycles_from_drain(np.zeros((1, 1, 2)), PALLET, min_step_cycles=0)


class TestColumnSync:
    def test_ideal_equals_slowest_column_sum(self, rng):
        values = random_step_values(rng)
        clamped = np.maximum(drains(values, 2), 1)
        ideal = column_cycles(values, 2, ssr_count=None)
        lower_bound = clamped.sum(axis=1).max(axis=1)
        assert np.all(ideal >= lower_bound)
        # The SB port adds at most one cycle of skew per step.
        assert np.all(ideal <= lower_bound + values.shape[1])

    def test_never_slower_than_pallet_sync_plus_load_skew(self, rng):
        values = random_step_values(rng, pallets=4)
        pallet = pallet_cycles(values, 2)
        for ssr in (1, 4, 16, None):
            column = column_cycles(values, 2, ssr_count=ssr)
            assert np.all(column <= pallet + values.shape[1])

    def test_more_registers_never_hurt(self, rng):
        values = random_step_values(rng, pallets=4, steps=8)
        previous = None
        for ssr in (1, 2, 4, 8, None):
            cycles = column_cycles(values, 2, ssr_count=ssr)
            if previous is not None:
                assert np.all(cycles <= previous + 1e-9)
            previous = cycles

    def test_single_register_behaves_like_near_pallet_sync(self):
        # One column monopolises step 0; with a single SSR the other columns can
        # run at most one synapse set ahead.
        values = np.zeros((1, 3, 2, 16), dtype=np.int64)
        values[0, 0, 0, :] = (1 << 16) - 1  # column 0 takes 16 cycles on step 0
        one_reg = column_cycles(values, 4, ssr_count=1)
        ideal = column_cycles(values, 4, ssr_count=None)
        assert ideal <= one_reg

    def test_rejects_bad_arguments(self, rng):
        drain = np.maximum(drains(random_step_values(rng, pallets=1), 2), 1)
        with pytest.raises(ValueError):
            ssr_pipeline_cycles(drain, ssr_count=0)
        with pytest.raises(ValueError):
            ssr_pipeline_cycles(drain, ssr_count=1, sb_read_cycles=0)
        with pytest.raises(ValueError):
            PragmaticConfig(synchronization="column", ssr_count=0)


class TestReferenceAgreement:
    """Kernel drains against the Figure 7 oracle."""

    def test_agrees_with_reference_loop(self, rng):
        values = rng.integers(0, 2**16, size=(60, 16))
        values[rng.random(values.shape) < 0.5] = 0
        for reach_bits in range(5):
            expected = [oracle_cycles(column, reach_bits) for column in values]
            np.testing.assert_array_equal(drains(values, reach_bits), expected)

    def test_wide_planes_agree_with_the_oracle(self, rng):
        # 17-position masks (CSD's layout for 16-bit values) take the packed
        # uint32 path; the oracle schedules the same positions one by one.
        masks = rng.integers(0, 1 << 17, size=(12, 16)).astype(np.uint32)
        masks[rng.random(masks.shape) < 0.75] = 0
        for reach_bits in range(5):
            expected = [
                len(
                    serial_term_schedule(
                        [[p for p in range(17) if int(m) >> p & 1] for m in column],
                        reach_bits,
                    )
                )
                for column in masks
            ]
            np.testing.assert_array_equal(
                batched_drain_cycles(masks, (1 << reach_bits,))[0], expected
            )


class TestSharedSsrPipeline:
    """Per-column synchronization schedules through the one ssr_pipeline_cycles DP."""

    def test_column_sync_equals_cycles_from_drain(self, rng):
        values = random_step_values(rng, pallets=4)
        drain = drains(values, 2)
        for ssr in (1, 3, None):
            config = PragmaticConfig(
                first_stage_bits=2, synchronization="column", ssr_count=ssr
            )
            np.testing.assert_array_equal(
                cycles_from_drain(drain, config, min_step_cycles=1),
                ssr_pipeline_cycles(np.maximum(drain, 1), ssr),
            )

    def test_both_call_sites_pin_the_shared_implementation(self, rng, monkeypatch, tiny_trace):
        calls = []

        def spy(drain, ssr_count, sb_read_cycles=1):
            calls.append(ssr_count)
            return ssr_pipeline_cycles(drain, ssr_count, sb_read_cycles=sb_read_cycles)

        monkeypatch.setattr(repro.core.sweep, "ssr_pipeline_cycles", spy)
        config = PragmaticConfig(
            first_stage_bits=2, synchronization="column", ssr_count=3
        )
        cycles_from_drain(drains(random_step_values(rng, pallets=2), 2), config, 1)
        sweep_network(
            tiny_trace,
            {"c": PragmaticConfig(synchronization="column", ssr_count=5)},
            SamplingConfig(max_pallets=1),
        )
        assert calls == [3] + [5] * tiny_trace.network.num_layers

    def test_pallet_config_bypasses_the_pipeline(self, rng, monkeypatch):
        def bomb(*args, **kwargs):
            raise AssertionError("pallet sync must not invoke the SSR pipeline")

        monkeypatch.setattr(repro.core.sweep, "ssr_pipeline_cycles", bomb)
        values = random_step_values(rng, pallets=2)
        drain = drains(values, 2)
        expected = np.maximum(drain, 1).max(axis=2).sum(axis=1)
        np.testing.assert_array_equal(
            cycles_from_drain(drain, PALLET, min_step_cycles=1), expected
        )

    def test_rejects_non_pallet_shapes(self):
        with pytest.raises(ValueError):
            ssr_pipeline_cycles(np.zeros((3, 4)), ssr_count=1)


class TestEssentialTerms:
    def test_counts_set_bits(self):
        values = np.array([[[[3, 0], [1, 7]]]])
        masks = encoded_drain_masks(values, storage_bits=8)
        assert packed_essential_terms(masks) == 2 + 0 + 1 + 3
