"""Unit tests for the 2-stage shifting control of Figure 7 (Section V-D).

:func:`repro.core.pip.serial_term_schedule` is the cycle model's scalar
oracle.  Each of its cycles decomposes the lanes' shifts into one common
second-stage shift plus a per-lane first-stage shift within reach.
"""

import numpy as np
import pytest

from repro.core.pip import PragmaticInnerProductUnit, serial_term_schedule
from repro.numerics.encodings import get_encoding


def encode_oneffsets(value):
    """Ascending oneffsets of a value: its positional registry terms."""
    return [position for _, position in get_encoding("positional").terms(value)]


def first_cycle(offsets, first_stage_bits):
    """The first cycle's decomposition of one oneffset per lane."""
    return serial_term_schedule([[offset] for offset in offsets], first_stage_bits)[0]


class TestTwoStageDecompose:
    def test_common_is_minimum(self):
        cycle = first_cycle([3, 5, 4], first_stage_bits=2)
        assert cycle.common_shift == 3
        assert cycle.first_stage_shifts == (0, 2, 1)

    def test_offsets_beyond_reach_stall(self):
        cycle = first_cycle([0, 4], first_stage_bits=2)
        assert cycle.common_shift == 0
        assert cycle.first_stage_shifts == (0, None)

    def test_zero_first_stage_bits_only_processes_minimum(self):
        cycle = first_cycle([1, 2], first_stage_bits=0)
        assert cycle.common_shift == 1
        assert cycle.first_stage_shifts == (0, None)

    def test_rejects_negative_bits(self):
        with pytest.raises(ValueError):
            serial_term_schedule([[1]], first_stage_bits=-1)


class TestSerialTermSchedule:
    def test_figure7_style_example_takes_four_cycles(self):
        # Figure 7b of the paper: with L = 2 the control picks the minimum
        # outstanding oneffset each cycle ((1,0,4) then (6,7,4) …) and the group
        # drains in four cycles because the third neuron's high oneffsets trail.
        oneffsets = [[1, 6, 7], [0, 7], [4, 8, 10]]
        schedule = serial_term_schedule(oneffsets, first_stage_bits=2)
        assert len(schedule) == 4

    def test_first_cycle_of_figure7_processes_low_offsets(self):
        oneffsets = [[1, 6, 7], [0, 7], [4, 8, 10]]
        schedule = serial_term_schedule(oneffsets, first_stage_bits=2)
        first = schedule[0]
        assert first.common_shift == 0
        assert first.consumed[0] == 1
        assert first.consumed[1] == 0
        assert first.consumed[2] is None  # 4 - 0 exceeds the 2-bit reach and stalls

    def test_second_cycle_of_figure7_uses_minimum_four(self):
        oneffsets = [[1, 6, 7], [0, 7], [4, 8, 10]]
        schedule = serial_term_schedule(oneffsets, first_stage_bits=2)
        second = schedule[1]
        assert second.common_shift == 4
        assert second.consumed == (6, 7, 4)

    def test_schedule_consumes_every_oneffset_exactly_once(self):
        oneffsets = [encode_oneffsets(v) for v in (13, 255, 0, 6)]
        schedule = serial_term_schedule([list(lst) for lst in oneffsets], first_stage_bits=1)
        consumed = [[] for _ in oneffsets]
        for cycle in schedule:
            for lane, offset in enumerate(cycle.consumed):
                if offset is not None:
                    consumed[lane].append(offset)
        assert [tuple(lst) for lst in consumed] == [tuple(lst) for lst in oneffsets]

    def test_full_reach_takes_max_popcount_cycles(self):
        oneffsets = [[0, 3, 7, 11], [2], []]
        assert len(serial_term_schedule(oneffsets, first_stage_bits=4)) == 4

    def test_narrower_first_stage_never_reduces_cycles(self):
        oneffsets = [[0, 5, 9], [1, 2], [7, 15]]
        cycles = [len(serial_term_schedule(oneffsets, first_stage_bits=L)) for L in range(5)]
        assert cycles == sorted(cycles, reverse=True)

    def test_first_stage_shift_always_within_reach(self):
        oneffsets = [[0, 1, 9, 14], [3, 4], [2, 13]]
        for L in range(5):
            for cycle in serial_term_schedule(oneffsets, first_stage_bits=L):
                for shift in cycle.first_stage_shifts:
                    if shift is not None:
                        assert 0 <= shift < (1 << L)

    def test_all_empty_lanes_take_zero_cycles(self):
        assert serial_term_schedule([[], []], first_stage_bits=2) == []

    def test_cycle_count_clamps_to_one(self):
        # An all-zero brick schedules nothing, yet the PIP still spends the
        # null pallet step's cycle.
        _, cycles = PragmaticInnerProductUnit(first_stage_bits=2).compute(
            np.ones(16, dtype=np.int64), np.zeros(16, dtype=np.int64)
        )
        assert cycles == 1

    def test_rejects_descending_oneffsets(self):
        with pytest.raises(ValueError):
            serial_term_schedule([[3, 1]], first_stage_bits=2)
