"""Oracle suite for the batched drain kernel.

:func:`repro.core.kernels.batched_drain_cycles` is the only drain
implementation, so this module checks it against an independent oracle: the
scalar Figure 7 control :func:`repro.core.pip.serial_term_schedule`, run one
column at a time on the scalar terms of each neuron.

* the kernel reproduces the oracle's cycle count for every column, across
  random columns, both storage widths, every first-stage reach and the term
  masks of every registered encoding;
* the kernel's bit paths hold at their edges: reaches at and above the mask
  width, a few deep columns among many shallow ones (the half-alive
  compaction), an unmodified input, and other dtypes that must hold 16-bit
  masks;
* :func:`repro.core.sweep.sweep_network` is **bit-identical** (exact float
  equality, same sampling seed) to :func:`oracle_network`, a per-configuration
  model whose drains come from the oracle and whose synchronization schemes
  are written out scalar, over a randomized grid of chips, storage widths,
  ``first_stage_bits``, SSR counts and both synchronization schemes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.arch.config import DEFAULT_CHIP, ChipConfig
from repro.arch.memory import NeuronMemory
from repro.arch.tiling import SamplingConfig, sample_pallet_values
from repro.baselines.dadiannao import DaDianNaoModel
from repro.core.accelerator import LayerResult, NetworkResult, PragmaticConfig
from repro.core.kernels import (
    KERNEL_MAX_POSITIONS,
    batched_drain_cycles,
    packed_essential_terms,
)
from repro.core.pip import serial_term_schedule
from repro.core.scheduling import encoded_drain_masks
from repro.core.software import SoftwareGuidance
from repro.core.sweep import SweepStats, sweep_network
from repro.core.variants import fig9_variants
from repro.nn.layers import ConvLayerSpec
from repro.nn.networks import Network
from repro.nn.precision import LayerPrecision
from repro.nn.traces import LayerTraceParams, NetworkTrace
from repro.numerics.encodings import encoding_names, get_encoding
from repro.numerics.fixedpoint import popcount

#: A deliberately non-default chip so the grid covers structural variation.
SMALL_CHIP = ChipConfig(tiles=4, filters_per_tile=8, nm_row_bytes=256)

ENCODINGS = encoding_names()


def random_trace(seed: int, storage_bits: int = 16) -> NetworkTrace:
    """A small random two-layer network with a deterministic trace."""
    rng = np.random.default_rng(seed)
    layers = tuple(
        ConvLayerSpec(
            name=f"l{index}",
            input_channels=int(rng.choice([8, 16, 24])),
            input_height=int(rng.integers(5, 9)),
            input_width=int(rng.integers(5, 9)),
            num_filters=int(rng.integers(2, 6)),
            filter_height=3,
            filter_width=3,
            stride=int(rng.choice([1, 2])),
            padding=1,
        )
        for index in range(2)
    )
    network = Network(name=f"rand{seed}", display_name=f"Random {seed}", layers=layers)
    precisions = tuple(
        LayerPrecision(
            msb=int(rng.integers(5, storage_bits - 1)), lsb=int(rng.integers(0, 3))
        )
        for _ in layers
    )
    params = tuple(
        LayerTraceParams(
            sigma=float(rng.uniform(10.0, 120.0)),
            zero_fraction=float(rng.uniform(0.2, 0.7)),
            max_magnitude=(1 << storage_bits) - 1,
        )
        for _ in layers
    )
    return NetworkTrace(
        network=network,
        precisions=precisions,
        params=params,
        seed=seed,
        storage_bits=storage_bits,
    )


def config_grid(chip: ChipConfig) -> dict[str, PragmaticConfig]:
    """Both sync schemes x first-stage widths x SSR counts x trimming."""
    configs: dict[str, PragmaticConfig] = {}
    for bits in (0, 1, 2, 4):
        configs[f"pallet-{bits}"] = PragmaticConfig(
            first_stage_bits=bits, synchronization="pallet", chip=chip
        )
    for ssr in (1, 3, None):
        label = "ideal" if ssr is None else str(ssr)
        configs[f"column-{label}"] = PragmaticConfig(
            first_stage_bits=2, synchronization="column", ssr_count=ssr, chip=chip
        )
    configs["pallet-2-fp"] = PragmaticConfig(
        first_stage_bits=2, synchronization="pallet", software_trimming=False, chip=chip
    )
    configs["column-1-fp"] = PragmaticConfig(
        first_stage_bits=1,
        synchronization="column",
        ssr_count=1,
        software_trimming=False,
        chip=chip,
    )
    return configs


def random_columns(rng, columns=40, lanes=16, value_bits=16, density=0.4):
    values = rng.integers(0, 1 << value_bits, size=(columns, lanes))
    values[rng.random(values.shape) < (1 - density)] = 0
    return values


# ------------------------------------------------------------------- oracle
def mask_positions(mask: int) -> list[int]:
    """Ascending set-bit positions of one packed mask."""
    return [position for position in range(mask.bit_length()) if mask >> position & 1]


def oracle_mask_drains(masks: np.ndarray, first_stage_bits: int) -> np.ndarray:
    """Figure 7 schedule length of every column of a packed mask tensor."""
    masks = np.asarray(masks)
    flat = masks.reshape(-1, masks.shape[-1])
    cycles = [
        len(serial_term_schedule([mask_positions(int(m)) for m in column], first_stage_bits))
        for column in flat
    ]
    return np.array(cycles, dtype=np.int64).reshape(masks.shape[:-1])


def oracle_value_drains(
    values: np.ndarray, first_stage_bits: int, storage_bits: int, encoding: str
) -> np.ndarray:
    """Figure 7 schedule length of every column, from each neuron's scalar terms."""
    scheme = get_encoding(encoding)
    values = np.asarray(values)
    flat = values.reshape(-1, values.shape[-1])
    memo: dict[tuple[int, ...], int] = {}
    cycles = []
    for column in flat:
        key = tuple(int(v) for v in column)
        if key not in memo:
            lanes = [
                [position for _, position in scheme.terms(v, bits=storage_bits)]
                for v in key
            ]
            memo[key] = len(serial_term_schedule(lanes, first_stage_bits))
        cycles.append(memo[key])
    return np.array(cycles, dtype=np.int64).reshape(values.shape[:-1])


def _pallet_sync(drain: np.ndarray, min_step: int) -> list[int]:
    """Per-pallet cycles: every brick step waits for its slowest column."""
    return [
        sum(max(min_step, max(int(d) for d in step)) for step in pallet)
        for pallet in drain
    ]


def _column_sync(drain: np.ndarray, min_step: int, ssr_count: int | None) -> list[int]:
    """Per-pallet cycles of the Section V-E SSR schedule, one step at a time."""
    out = []
    for pallet in drain:
        steps = len(pallet)
        registers = steps if ssr_count is None else min(ssr_count, steps)
        finish = [0] * len(pallet[0])
        load = 0
        copied: list[int] = []
        for step, columns in enumerate(pallet):
            load = load + 1
            if step >= registers:
                load = max(load, copied[step - registers])
            starts = [max(done, load) for done in finish]
            finish = [
                start + max(min_step, int(d)) for start, d in zip(starts, columns)
            ]
            copied.append(max(starts))
        out.append(max(finish))
    return out


def oracle_network(
    trace: NetworkTrace, config: PragmaticConfig, sampling: SamplingConfig
) -> NetworkResult:
    """One configuration simulated with oracle drains and scalar sync models."""
    scheme = get_encoding(config.encoding)
    memory = NeuronMemory(config.chip)
    baseline = DaDianNaoModel(config.chip)
    guidance = SoftwareGuidance.from_trace(trace, enabled=config.software_trimming)
    layers = []
    for index in range(trace.network.num_layers):
        layer = trace.layer(index)
        values, total_pallets = sample_pallet_values(trace, index, sampling)
        trimmed = guidance.apply(values, index)
        drain = oracle_value_drains(
            trimmed, config.first_stage_bits, trace.storage_bits, config.encoding
        )
        min_step = max(1, memory.pallet_fetch_cycles(layer))
        if config.synchronization == "pallet":
            per_pallet = _pallet_sync(drain, min_step)
        else:
            per_pallet = _column_sync(drain, min_step, config.ssr_count)
        passes = layer.filter_passes(config.chip.filters_per_cycle)
        terms = sum(
            len(scheme.terms(int(v), bits=trace.storage_bits)) for v in trimmed.ravel()
        )
        layers.append(
            LayerResult(
                layer_name=layer.name,
                cycles=float(np.mean(per_pallet)) * total_pallets * passes,
                baseline_cycles=float(baseline.layer_cycles(layer)),
                terms=float(terms) / max(1, trimmed.size) * layer.macs,
                baseline_terms=float(baseline.layer_terms(layer, trace.storage_bits)),
            )
        )
    return NetworkResult(
        network=trace.network.name, accelerator=config.name, layers=tuple(layers)
    )


class TestKernelMatchesReference:
    """The batched kernel against the Figure 7 oracle, column by column."""

    @pytest.mark.parametrize("first_stage_bits", range(5))
    @pytest.mark.parametrize("seed", range(4))
    def test_bit_identical_to_reference_loop(self, seed, first_stage_bits):
        rng = np.random.default_rng(seed)
        values = random_columns(
            rng,
            columns=int(rng.integers(10, 60)),
            lanes=int(rng.integers(2, 17)),
            density=float(rng.uniform(0.1, 0.9)),
        )
        for encoding in ENCODINGS:
            masks = encoded_drain_masks(values, 16, encoding)
            np.testing.assert_array_equal(
                batched_drain_cycles(masks, (1 << first_stage_bits,))[0],
                oracle_value_drains(values, first_stage_bits, 16, encoding),
            )

    @pytest.mark.parametrize("storage_bits", (8, 16))
    def test_step_drain_matches_reference_on_trace_samples(self, storage_bits):
        """The exact drain-group computation of a sweep, against the oracle."""
        trace = random_trace(11, storage_bits=storage_bits)
        values = trace.sample_layer_values(0, 2 * 16 * 16).reshape(2, 1, 16, 16)
        reaches = [1 << bits for bits in range(5)]
        for trimming in (True, False):
            guidance = SoftwareGuidance.from_trace(trace, enabled=trimming)
            trimmed = guidance.apply(values, 0)
            for encoding in ENCODINGS:
                masks = encoded_drain_masks(trimmed, storage_bits, encoding)
                drains = batched_drain_cycles(masks, reaches)
                for bits in range(5):
                    np.testing.assert_array_equal(
                        drains[bits],
                        oracle_value_drains(trimmed, bits, storage_bits, encoding),
                    )

    def test_multi_reach_call_equals_single_reach_calls(self):
        rng = np.random.default_rng(3)
        masks = encoded_drain_masks(random_columns(rng, columns=80), 16)
        reaches = [1, 2, 4, 8, 16]
        together = batched_drain_cycles(masks, reaches)
        for slot, reach in enumerate(reaches):
            np.testing.assert_array_equal(
                together[slot], batched_drain_cycles(masks, (reach,))[0]
            )

    def test_packed_essential_terms_matches_scalar_term_count(self):
        rng = np.random.default_rng(4)
        values = random_columns(rng)
        for encoding in ENCODINGS:
            scheme = get_encoding(encoding)
            expected = sum(len(scheme.terms(int(v), bits=16)) for v in values.ravel())
            masks = encoded_drain_masks(values, 16, encoding)
            assert packed_essential_terms(masks) == float(expected)

    def test_widest_packed_positions_match_the_oracle(self):
        """uint32 masks using every position up to the packed width."""
        rng = np.random.default_rng(6)
        masks = rng.integers(0, 1 << KERNEL_MAX_POSITIONS, size=(30, 8), dtype=np.uint64)
        masks &= rng.integers(0, 1 << KERNEL_MAX_POSITIONS, size=masks.shape, dtype=np.uint64)
        masks = masks.astype(np.uint32)
        masks[0, 0] = np.uint32(1 << (KERNEL_MAX_POSITIONS - 1))
        for bits in range(5):
            np.testing.assert_array_equal(
                batched_drain_cycles(masks, (1 << bits,))[0],
                oracle_mask_drains(masks, bits),
            )

    @pytest.mark.parametrize("first_stage_bits", range(5))
    def test_csd_max_span_column_takes_packed_path(self, first_stage_bits):
        """17-position CSD masks run the packed kernel and match the oracle.

        0xFFFF encodes as +2^16 - 2^0 under CSD: a single column of such
        values spans the full 17 positions, the widest shape a 16-bit CSD
        column can take.
        """
        rng = np.random.default_rng(7)
        values = rng.integers(0, 1 << 16, size=(40, 16))
        values[0, :] = 0xFFFF  # the synthetic max-span column
        masks = encoded_drain_masks(values, 16, "csd")
        assert masks.dtype == np.uint32
        np.testing.assert_array_equal(
            batched_drain_cycles(masks, (1 << first_stage_bits,))[0],
            oracle_value_drains(values, first_stage_bits, 16, "csd"),
        )

    def test_uint32_packing_round_trips(self):
        """Positional storage widths above 16 pack into uint32 magnitudes."""
        rng = np.random.default_rng(8)
        values = rng.integers(0, 1 << 24, size=(30, 8))
        masks = encoded_drain_masks(values, 24)
        assert masks.dtype == np.uint32
        np.testing.assert_array_equal(masks, values.astype(np.uint32))
        assert packed_essential_terms(masks) == float(popcount(values, 24).sum())

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            encoded_drain_masks(np.array([1 << 12]), 12)
        with pytest.raises(ValueError):
            encoded_drain_masks(np.array([1]), KERNEL_MAX_POSITIONS + 1)
        with pytest.raises(ValueError):
            encoded_drain_masks(np.array([1]), 0)
        with pytest.raises(ValueError):
            # CSD may use position `storage_bits`, which a uint32 cannot hold.
            encoded_drain_masks(np.array([1]), KERNEL_MAX_POSITIONS, "csd")
        with pytest.raises(ValueError):
            batched_drain_cycles(np.zeros((2, 2), dtype=np.uint16), ())
        with pytest.raises(ValueError):
            batched_drain_cycles(np.zeros((2, 2), dtype=np.uint16), (0,))


class TestKernelBitPaths:
    """The window limit, the half-alive compaction and input handling."""

    @pytest.mark.parametrize(
        "dtype,reaches",
        [(np.uint16, (16, 32, 64, 1 << 20)), (np.uint32, (32, 64, 1 << 20))],
    )
    def test_reach_at_or_above_mask_width_is_the_busiest_lane(self, dtype, reaches):
        width = 8 * np.dtype(dtype).itemsize
        rng = np.random.default_rng(12)
        masks = rng.integers(0, 1 << width, size=(50, 16), dtype=np.uint64).astype(dtype)
        top = 1 << (width - 1)
        masks[0] = 0
        masks[0, :2] = (1, top)  # span width - 1: stalls at any narrower reach
        masks[1] = top  # lowest term at the top bit: the widest shift
        masks[2] = 0
        masks[2, 0] = top | 1  # one lane spanning the whole width
        busiest = np.bitwise_count(masks).max(axis=-1)
        drains = batched_drain_cycles(masks, reaches)
        for slot in range(len(reaches)):
            np.testing.assert_array_equal(drains[slot], busiest)
        assert batched_drain_cycles(masks[:1], (width - 1,))[0, 0] == 2
        # first_stage_bits = bit_length(width) is a reach of 2 * width.
        np.testing.assert_array_equal(drains[0], oracle_mask_drains(masks, width.bit_length()))

    @pytest.mark.parametrize("dtype,offset", [(np.uint16, 0), (np.uint32, 16)])
    def test_few_deep_columns_among_shallow_ones_match_the_oracle(self, dtype, offset):
        """Most slow columns drain in 1-2 cycles, a few for 10+, at reach 1."""
        rng = np.random.default_rng(13)
        masks = np.zeros((240, 16), dtype=np.uint64)
        positions = rng.integers(0, 15, size=200)
        masks[np.arange(200), 0] = 1 << positions
        masks[np.arange(200), 1] = 1 << (positions + 1)  # two cycles each
        masks[200:230, 0] = 0b111 << rng.integers(0, 12, size=30)
        masks[200:230, 1] = 1 << 15  # four cycles each
        masks[230:, :] = rng.integers(1, 1 << 16, size=(10, 16))  # dense columns
        masks[235:] = 1 << np.arange(16)  # one term per cycle, 16 cycles
        masks = (masks << offset).astype(dtype)
        expected = oracle_mask_drains(masks, 0)
        assert (expected <= 2).mean() > 0.8 and (expected >= 10).sum() >= 5
        np.testing.assert_array_equal(batched_drain_cycles(masks, (1,))[0], expected)
        rng.shuffle(masks)
        drains = batched_drain_cycles(masks, (1, 2))
        for bits in range(2):
            np.testing.assert_array_equal(drains[bits], oracle_mask_drains(masks, bits))

    @pytest.mark.parametrize("shape", [(40, 16), (40, 1), (1, 16), (3, 5, 16)])
    @pytest.mark.parametrize("dtype", [np.uint16, np.uint32])
    def test_input_masks_are_left_unchanged(self, shape, dtype):
        rng = np.random.default_rng(14)
        masks = rng.integers(0, 1 << 16, size=shape).astype(dtype)
        before = masks.copy()
        drains = batched_drain_cycles(masks, (1, 4))
        np.testing.assert_array_equal(masks, before)
        np.testing.assert_array_equal(drains[0], oracle_mask_drains(before, 0))

    def test_masks_that_are_not_16_bit_are_rejected(self):
        for bad, value in ((np.array([[70000]]), "70000"), (np.array([[3, -1]]), "-1")):
            with pytest.raises(ValueError, match=value):
                packed_essential_terms(bad)
            with pytest.raises(ValueError, match=value):
                batched_drain_cycles(bad, (1,))
        plain = np.array([[3, 0xFFFF, 0]])
        assert packed_essential_terms(plain) == 18.0
        np.testing.assert_array_equal(
            batched_drain_cycles(plain, (1, 16)),
            batched_drain_cycles(plain.astype(np.uint16), (1, 16)),
        )


class TestGoldenSweepEquivalence:
    """sweep_network vs the oracle model: exact equality, never approx."""

    @pytest.mark.parametrize(
        "seed,storage_bits,chip",
        [
            (0, 16, DEFAULT_CHIP),
            (1, 16, SMALL_CHIP),
            (2, 8, DEFAULT_CHIP),
            (3, 8, SMALL_CHIP),
            (4, 16, DEFAULT_CHIP),
        ],
    )
    def test_sweep_bit_identical_to_accelerator(self, seed, storage_bits, chip):
        trace = random_trace(seed, storage_bits=storage_bits)
        configs = config_grid(chip)
        sampling = SamplingConfig(max_pallets=3, seed=1000 + seed)
        stats = SweepStats()
        swept = sweep_network(trace, configs, sampling=sampling, stats=stats)
        assert stats.configs_simulated == len(configs)
        for label, config in configs.items():
            oracle = oracle_network(trace, config, sampling)
            assert swept[label].network == oracle.network
            assert swept[label].accelerator == oracle.accelerator
            # LayerResult is a frozen dataclass of floats: tuple equality is
            # exact bitwise float comparison, which is the whole point.
            assert swept[label].layers == oracle.layers

    def test_fig9_variant_set_on_fast_sampling(self):
        """The fig9 grid at fast-preset sampling."""
        trace = random_trace(7)
        configs = fig9_variants()
        sampling = SamplingConfig(max_pallets=6, seed=2024)
        swept = sweep_network(trace, configs, sampling=sampling)
        for label, config in configs.items():
            assert swept[label].layers == oracle_network(trace, config, sampling).layers

    def test_exact_sampling_mode_stays_identical(self, tiny_trace):
        configs = config_grid(DEFAULT_CHIP)
        sampling = SamplingConfig(exact=True)
        swept = sweep_network(tiny_trace, configs, sampling=sampling)
        for label, config in configs.items():
            oracle = oracle_network(tiny_trace, config, sampling)
            assert swept[label].layers == oracle.layers
