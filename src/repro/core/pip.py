"""Functional model of the Pragmatic Inner Product unit (PIP) and tile.

The cycle model (:mod:`repro.core.kernels`, :mod:`repro.core.sweep`) only
counts cycles; the classes here actually *compute* through the serial PIP
datapath of Figures 6 and 7 — first-stage shifters, adder tree, second-stage
shifter, accumulator — so that the test suite can assert exact equivalence
with the bit-parallel reference convolution for every shifter configuration.

Their control is :func:`serial_term_schedule`, the 2-stage shifting algorithm
of Section V-D written one cycle at a time for one group of neurons.  It is
also the independent oracle the batched drain kernel is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.arch.config import ChipConfig, DEFAULT_CHIP
from repro.arch.tiling import brick_positions, extract_brick, pallet_window_coordinates
from repro.nn.layers import BRICK_SIZE, ConvLayerSpec
from repro.nn.reference import check_shapes, pad_input
from repro.numerics.encodings import DEFAULT_ENCODING, get_encoding

__all__ = [
    "ScheduleCycle",
    "serial_term_schedule",
    "PragmaticInnerProductUnit",
    "PragmaticTileFunctional",
]


@dataclass(frozen=True)
class ScheduleCycle:
    """One cycle of the 2-stage shifting control.

    Attributes
    ----------
    common_shift:
        The second-stage shift applied to the adder tree output this cycle.
    first_stage_shifts:
        Per-lane first stage shift, or ``None`` for lanes that are idle or
        stalled this cycle.
    consumed:
        Per-lane oneffset consumed this cycle (``None`` when none was consumed).
    """

    common_shift: int
    first_stage_shifts: tuple[int | None, ...]
    consumed: tuple[int | None, ...]


def serial_term_schedule(
    oneffset_lists: list[list[int]] | list[tuple[int, ...]],
    first_stage_bits: int,
) -> list[ScheduleCycle]:
    """Schedule the oneffsets of a group of neurons onto a 2-stage shifting PIP.

    A shift by ``K`` decomposes as ``K = K' + C``: each synapse has a narrow
    first-stage shifter (``L`` control bits, reach ``0 … 2**L - 1``) and one
    second-stage shifter after the adder tree is shared.  Each cycle the
    control picks the minimum outstanding oneffset ``C`` across the group; a
    lane whose next oneffset ``K`` satisfies ``K - C < 2**L`` is processed
    that cycle, otherwise it stalls.

    Parameters
    ----------
    oneffset_lists:
        One ascending list of oneffsets per neuron lane (empty list for a
        zero-valued neuron).
    first_stage_bits:
        Width in bits of the first-stage (per-synapse) shifter control; the
        paper's PRA-2b uses 2, the single-stage design uses 4 (full reach).

    Returns
    -------
    list of :class:`ScheduleCycle`
        The cycle-by-cycle schedule.  Its length is the number of cycles the
        column needs to drain this group of neurons under per-column control.
    """
    if first_stage_bits < 0:
        raise ValueError("first_stage_bits must be non-negative")
    reach = 1 << first_stage_bits
    pending = [list(lst) for lst in oneffset_lists]
    for lane, lst in enumerate(pending):
        if any(earlier > later for earlier, later in zip(lst, lst[1:])):
            raise ValueError(f"oneffsets of lane {lane} must be ascending: {lst}")

    schedule: list[ScheduleCycle] = []
    while any(pending):
        heads = [lst[0] for lst in pending if lst]
        common = min(heads)
        first_stage: list[int | None] = []
        consumed: list[int | None] = []
        for lst in pending:
            if lst and (lst[0] - common) < reach:
                delta = lst.pop(0) - common
                first_stage.append(delta)
                consumed.append(delta + common)
            else:
                first_stage.append(None)
                consumed.append(None)
        schedule.append(
            ScheduleCycle(
                common_shift=common,
                first_stage_shifts=tuple(first_stage),
                consumed=tuple(consumed),
            )
        )
    return schedule


@dataclass(frozen=True)
class PragmaticInnerProductUnit:
    """One PIP: 16 synapse lanes fed by one window's neuron oneffsets.

    Parameters
    ----------
    first_stage_bits:
        Control width ``L`` of the per-synapse first-stage shifters.  ``L = 4``
        is the single-stage design (full reach), smaller values add a shared
        second-stage shifter and may stall lanes (Section V-D).
    storage_bits:
        Neuron storage width.
    """

    first_stage_bits: int = 2
    storage_bits: int = 16

    def __post_init__(self) -> None:
        if not 0 <= self.first_stage_bits <= 8:
            raise ValueError("first_stage_bits must be in [0, 8]")
        if self.storage_bits < 1:
            raise ValueError("storage_bits must be positive")

    def compute(
        self, synapse_brick: np.ndarray, neuron_brick: np.ndarray
    ) -> tuple[int, int]:
        """Serially compute one brick's inner product.

        Returns ``(partial_sum, cycles)``.  The partial sum must equal
        ``dot(synapse_brick, neuron_brick)``.
        """
        synapses = np.asarray(synapse_brick, dtype=np.int64).ravel()
        neurons = np.asarray(neuron_brick, dtype=np.int64).ravel()
        if synapses.shape != neurons.shape:
            raise ValueError("synapse and neuron bricks must have the same length")
        partial, cycles = self._compute_many(synapses[None, :], neurons)
        return int(partial[0]), cycles

    def _compute_many(
        self, synapse_bricks: np.ndarray, neuron_brick: np.ndarray
    ) -> tuple[np.ndarray, int]:
        """Compute the inner product of one neuron brick against many synapse bricks.

        ``synapse_bricks`` is shaped ``[filters, lanes]``; the same neuron
        oneffset schedule drives every filter's PIP in the column, mirroring the
        hardware where a column's PIPs operate in lockstep.
        """
        neurons = np.asarray(neuron_brick, dtype=np.int64).ravel()
        signs = np.where(neurons < 0, -1, 1)
        # The registry validates that every magnitude fits the storage width.
        positional = get_encoding(DEFAULT_ENCODING)
        oneffsets = [
            [position for _, position in positional.terms(int(n), bits=self.storage_bits)]
            for n in neurons
        ]
        schedule = serial_term_schedule(oneffsets, self.first_stage_bits)

        accumulator = np.zeros(synapse_bricks.shape[0], dtype=np.int64)
        for cycle in schedule:
            tree_sum = np.zeros(synapse_bricks.shape[0], dtype=np.int64)
            for lane, shift in enumerate(cycle.first_stage_shifts):
                if shift is None:
                    # Stalled or exhausted lane: the AND gate injects a null term.
                    continue
                tree_sum += signs[lane] * (synapse_bricks[:, lane] << shift)
            accumulator += tree_sum << cycle.common_shift
        return accumulator, max(1, len(schedule))


@dataclass
class PragmaticTileFunctional:
    """Functional Pragmatic tile: computes a layer through the PIP array.

    Produces the layer's output neurons and the per-pallet-synchronization cycle
    count, walking the same pallet/brick traversal as the cycle model.
    """

    first_stage_bits: int = 2
    storage_bits: int = 16
    chip: ChipConfig = field(default_factory=lambda: DEFAULT_CHIP)

    def compute_layer(
        self, layer: ConvLayerSpec, neurons: np.ndarray, synapses: np.ndarray
    ) -> tuple[np.ndarray, int]:
        """Compute output neurons ``[N, Oy, Ox]`` and the pallet-sync cycle count."""
        check_shapes(layer, neurons, synapses)
        padded = pad_input(np.asarray(neurons, dtype=np.int64), layer.padding)
        weights = np.asarray(synapses, dtype=np.int64)
        pip = PragmaticInnerProductUnit(
            first_stage_bits=self.first_stage_bits, storage_bits=self.storage_bits
        )
        out = np.zeros(
            (layer.num_filters, layer.output_height, layer.output_width), dtype=np.int64
        )
        positions = brick_positions(layer)
        total_cycles = 0
        passes = layer.filter_passes(self.chip.filters_per_cycle)
        for windows in pallet_window_coordinates(layer):
            accumulators = np.zeros((layer.num_filters, len(windows)), dtype=np.int64)
            pallet_cycles = 0
            for position in positions:
                start = position.channel_brick * BRICK_SIZE
                stop = min(start + BRICK_SIZE, layer.input_channels)
                synapse_bricks = np.zeros((layer.num_filters, BRICK_SIZE), dtype=np.int64)
                synapse_bricks[:, : stop - start] = weights[
                    :, start:stop, position.fy, position.fx
                ]
                step_cycles = 1
                for column, (oy, ox) in enumerate(windows):
                    neuron_brick = extract_brick(padded, layer, oy, ox, position)
                    partial, cycles = pip._compute_many(synapse_bricks, neuron_brick)
                    accumulators[:, column] += partial
                    step_cycles = max(step_cycles, cycles)
                pallet_cycles += step_cycles
            total_cycles += pallet_cycles
            for column, (oy, ox) in enumerate(windows):
                out[:, oy, ox] = accumulators[:, column]
        return out, total_cycles * passes
