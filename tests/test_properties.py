"""Property-based tests (hypothesis) for the core data structures and invariants.

The cycle model is checked against the Figure 7 oracle
(:func:`repro.core.pip.serial_term_schedule`) and against cross-model
invariants, never against a second caller of the drain kernel.  Run
statistics are checked to merge as plain sums.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.tiling import SamplingConfig, sample_pallet_values
from repro.baselines.zero_skip import ZeroSkipModel
from repro.core.accelerator import PragmaticConfig
from repro.core.kernels import batched_drain_cycles
from repro.core.pip import PragmaticInnerProductUnit, serial_term_schedule
from repro.core.scheduling import encoded_drain_masks
from repro.core.sweep import cycles_from_drain, sweep_network
from repro.nn.precision import LayerPrecision
from repro.numerics.encodings import encoding_names, get_encoding
from repro.numerics.fixedpoint import popcount
from repro.runtime import RunStats
from tests.test_core_kernels import oracle_mask_drains, random_trace

settings.register_profile("repro", max_examples=60, deadline=None)
settings.load_profile("repro")

uint16 = st.integers(min_value=0, max_value=2**16 - 1)
first_stage = st.integers(min_value=0, max_value=4)
encodings = st.sampled_from(encoding_names())
trace_seeds = st.integers(min_value=0, max_value=10**6)

POSITIONAL = get_encoding("positional")


def encode_oneffsets(value):
    return [position for _, position in POSITIONAL.terms(value)]


def drains(values, first_stage_bits, encoding="positional"):
    masks = encoded_drain_masks(np.asarray(values), 16, encoding)
    return batched_drain_cycles(masks, (1 << first_stage_bits,))[0]


class TestOneffsetProperties:
    @given(uint16)
    def test_encode_decode_roundtrip(self, value):
        assert POSITIONAL.decode(POSITIONAL.terms(value)) == value

    @given(uint16)
    def test_oneffset_count_equals_popcount(self, value):
        assert len(encode_oneffsets(value)) == bin(value).count("1")

    @given(st.lists(uint16, min_size=1, max_size=8), first_stage)
    def test_schedule_consumes_all_oneffsets_exactly_once(self, values, bits):
        oneffsets = [encode_oneffsets(v) for v in values]
        schedule = serial_term_schedule(oneffsets, bits)
        consumed = [[] for _ in values]
        for cycle in schedule:
            for lane, offset in enumerate(cycle.consumed):
                if offset is not None:
                    consumed[lane].append(offset)
        assert consumed == oneffsets

    @given(st.lists(uint16, min_size=1, max_size=8))
    def test_wider_first_stage_never_needs_more_cycles(self, values):
        oneffsets = [encode_oneffsets(v) for v in values]
        counts = [len(serial_term_schedule(oneffsets, bits)) for bits in range(5)]
        assert counts == sorted(counts, reverse=True)

    @given(st.lists(st.integers(min_value=0, max_value=15), min_size=1, max_size=16), first_stage)
    def test_two_stage_decomposition_reconstructs_offsets(self, offsets, bits):
        for cycle in serial_term_schedule([[offset] for offset in offsets], bits):
            for delta, offset in zip(cycle.first_stage_shifts, cycle.consumed):
                if delta is not None:
                    assert cycle.common_shift + delta == offset
                    assert 0 <= delta < (1 << bits)


class TestNumericFormatProperties:
    @given(st.lists(uint16, min_size=1, max_size=32), st.integers(0, 15), st.integers(0, 15))
    def test_precision_trim_is_idempotent_and_reducing(self, values, a, b):
        lsb, msb = min(a, b), max(a, b)
        precision = LayerPrecision(msb=msb, lsb=lsb)
        arr = np.array(values)
        trimmed = precision.trim(arr)
        assert np.all(popcount(trimmed, 16) <= popcount(arr, 16))
        np.testing.assert_array_equal(precision.trim(trimmed), trimmed)


class TestSchedulingProperties:
    @given(
        st.lists(st.lists(uint16, min_size=4, max_size=4), min_size=1, max_size=6),
        first_stage,
    )
    def test_vectorized_drain_matches_reference_scheduler(self, columns, bits):
        vectorized = drains(columns, bits)
        for index, column in enumerate(columns):
            oneffsets = [encode_oneffsets(v) for v in column]
            assert int(vectorized[index]) == len(serial_term_schedule(oneffsets, bits))

    @given(
        st.integers(1, 3),
        st.integers(1, 4),
        st.integers(0, 4),
        st.integers(min_value=0, max_value=10**6),
    )
    def test_sync_scheme_bounds(self, pallets, steps, bits, seed):
        rng = np.random.default_rng(seed)
        values = rng.integers(0, 2**16, size=(pallets, steps, 4, 4))
        values[rng.random(values.shape) < 0.6] = 0
        drain = drains(values, bits)

        def cycles(synchronization, ssr_count=1):
            config = PragmaticConfig(synchronization=synchronization, ssr_count=ssr_count)
            return cycles_from_drain(drain, config, min_step_cycles=1)

        pallet = cycles("pallet")
        ideal = cycles("column", ssr_count=None)
        one_reg = cycles("column", ssr_count=1)
        # Pallet-synchronized execution is never faster than ideal column sync
        # (modulo the one-cycle-per-step SB port skew), and limited SSRs sit in
        # between the two.
        assert np.all(ideal <= pallet + steps)
        assert np.all(one_reg + 1e-9 >= ideal)
        assert np.all(pallet >= steps)
        assert np.all(pallet <= steps * 16)


columns_strategy = st.lists(
    st.lists(uint16, min_size=1, max_size=16), min_size=1, max_size=8
).map(lambda cols: [col + [0] * (len(max(cols, key=len)) - len(col)) for col in cols])


class TestDrainKernelProperties:
    """Invariants of the batched drain kernel (repro.core.kernels)."""

    @given(columns_strategy, first_stage, encodings)
    def test_batched_kernel_matches_reference_loop(self, columns, bits, encoding):
        """The kernel equals the Figure 7 oracle over every encoding's masks."""
        masks = encoded_drain_masks(np.array(columns), 16, encoding)
        np.testing.assert_array_equal(
            batched_drain_cycles(masks, (1 << bits,))[0], oracle_mask_drains(masks, bits)
        )

    @given(columns_strategy)
    def test_full_reach_equals_busiest_lane_popcount(self, columns):
        values = np.array(columns)
        busiest = popcount(values, 16).max(axis=-1)
        np.testing.assert_array_equal(drains(values, 4), busiest)

    @given(
        st.lists(st.integers(min_value=0, max_value=2**16 - 1), min_size=1, max_size=16),
        first_stage,
        st.integers(min_value=0, max_value=15),
    )
    def test_span_below_reach_drains_in_busiest_lane_popcount(self, lanes, bits, low):
        """A column whose set bits span less than the reach never stalls."""
        window = (1 << min(1 << bits, 16 - low)) - 1
        column = np.array([(lane & window) << low for lane in lanes])
        cycles = int(drains(column[None, :], bits)[0])
        assert cycles == int(popcount(column, 16).max())
        assert cycles == len(serial_term_schedule([encode_oneffsets(v) for v in column], bits))

    @given(columns_strategy)
    def test_cycles_monotone_non_increasing_in_first_stage_bits(self, columns):
        masks = encoded_drain_masks(np.array(columns), 16)
        ladder = batched_drain_cycles(masks, [1 << bits for bits in range(5)])
        for narrow, wide in zip(ladder, ladder[1:]):
            assert np.all(wide <= narrow)

    @given(columns_strategy, first_stage, st.integers(min_value=0, max_value=10**6))
    def test_lane_permutation_invariance(self, columns, bits, seed):
        values = np.array(columns)
        permuted = values[:, np.random.default_rng(seed).permutation(values.shape[1])]
        np.testing.assert_array_equal(drains(values, bits), drains(permuted, bits))

    @given(st.integers(1, 16), st.integers(1, 8), first_stage)
    def test_zero_columns_cost_zero_cycles(self, lanes, columns, bits):
        masks = np.zeros((columns, lanes), dtype=np.uint16)
        assert not batched_drain_cycles(masks, (1 << bits,)).any()


class TestPipProperties:
    @given(
        st.lists(st.integers(min_value=-255, max_value=255), min_size=4, max_size=4),
        st.lists(uint16, min_size=4, max_size=4),
        first_stage,
    )
    def test_pip_matches_dot_product(self, synapses, neurons, bits):
        pip = PragmaticInnerProductUnit(first_stage_bits=bits)
        partial, cycles = pip.compute(np.array(synapses), np.array(neurons))
        assert partial == int(np.dot(synapses, neurons))
        assert 1 <= cycles


class TestEncodingInvariants:
    """Cross-encoding identities the registry and the cycle model must keep."""

    def test_csd_never_more_terms_than_positional_for_any_16_bit_value(self):
        values = np.arange(1 << 16)
        csd = get_encoding("csd").term_counts(values, bits=16)
        assert np.all(csd <= POSITIONAL.term_counts(values, bits=16))

    @settings(max_examples=8)
    @given(trace_seeds, st.sampled_from((8, 16)))
    def test_binary_terms_are_zero_skip_terms(self, seed, storage_bits):
        """On binarized traffic Pragmatic degenerates to zero-skipping: each
        non-zero neuron costs one term where ZN pays ``storage_bits``."""
        trace = random_trace(seed, storage_bits=storage_bits)
        sampling = SamplingConfig(max_pallets=2, seed=seed)
        config = PragmaticConfig(encoding="binary", software_trimming=False)
        result = sweep_network(trace, {"binary": config}, sampling)["binary"]
        zero_skip = ZeroSkipModel(skip_first_layer=True)
        for index, layer_result in enumerate(result.layers):
            values, _ = sample_pallet_values(trace, index, sampling)
            expected = zero_skip.layer_terms(trace.layer(index), values, index, storage_bits)
            assert layer_result.terms * storage_bits == pytest.approx(expected, rel=1e-12)


class TestSweepProperties:
    """Network-level invariants of sweep_network."""

    @settings(max_examples=8)
    @given(trace_seeds, st.sampled_from(("pallet", "column")), encodings)
    def test_cycles_non_increasing_in_first_stage_bits(self, seed, synchronization, encoding):
        trace = random_trace(seed)
        configs = {
            bits: PragmaticConfig(
                first_stage_bits=bits, synchronization=synchronization, encoding=encoding
            )
            for bits in range(5)
        }
        results = sweep_network(trace, configs, SamplingConfig(max_pallets=2, seed=seed))
        cycles = [results[bits].cycles for bits in range(5)]
        assert cycles == sorted(cycles, reverse=True)

    @settings(max_examples=6)
    @given(trace_seeds, st.sampled_from((8, 16)))
    def test_multi_config_sweep_equals_single_config_sweeps(self, seed, storage_bits):
        """Batching configurations into one sweep never changes a result."""
        trace = random_trace(seed, storage_bits=storage_bits)
        sampling = SamplingConfig(max_pallets=2, seed=seed)
        configs = {
            "pallet-0": PragmaticConfig(first_stage_bits=0),
            "pallet-2-fp": PragmaticConfig(software_trimming=False),
            "column-1": PragmaticConfig(synchronization="column", ssr_count=1),
            "column-ideal-csd": PragmaticConfig(
                synchronization="column", ssr_count=None, encoding="csd"
            ),
            "pallet-3-hese": PragmaticConfig(first_stage_bits=3, encoding="hese"),
        }
        together = sweep_network(trace, configs, sampling)
        for label, config in configs.items():
            alone = sweep_network(trace, {label: config}, sampling)[label]
            assert together[label] == alone


def _counter_paths(payload, prefix=()):
    for key, value in payload.items():
        if isinstance(value, dict):
            yield from _counter_paths(value, prefix + (key,))
        else:
            yield prefix + (key,)


#: Every counter of the ``RunStats`` wire dict, as a path of keys.
RUN_STATS_COUNTERS = tuple(_counter_paths(RunStats().as_dict()))


def _wire(values):
    """The ``RunStats`` wire dict holding ``values`` in counter order."""
    payload = {}
    for path, value in zip(RUN_STATS_COUNTERS, values):
        section = payload
        for key in path[:-1]:
            section = section.setdefault(key, {})
        section[path[-1]] = value
    return payload


def _merged(parts) -> RunStats:
    total = RunStats()
    for part in parts:
        total.merge(part)
    return total


class TestRunStatsProperties:
    counter_values = st.lists(
        st.integers(min_value=0, max_value=10**12),
        min_size=len(RUN_STATS_COUNTERS),
        max_size=len(RUN_STATS_COUNTERS),
    )

    @given(st.data())
    def test_merge_is_a_field_wise_sum_in_any_order_or_grouping(self, data):
        values = data.draw(st.lists(self.counter_values, max_size=6))
        expected = _wire(
            [sum(part[index] for part in values) for index in range(len(RUN_STATS_COUNTERS))]
        )
        parts = [_wire(part) for part in values]
        assert _merged(parts).as_dict() == expected
        order = data.draw(st.permutations(parts))
        split = data.draw(st.integers(min_value=0, max_value=len(order)))
        head, tail = _merged(order[:split]), _merged(order[split:])
        head.merge(tail.as_dict() if split % 2 else tail)  # wire form or object
        assert head.as_dict() == expected
