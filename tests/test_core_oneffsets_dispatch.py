"""Unit tests for the oneffset generator and the dispatcher."""

import numpy as np
import pytest

from repro.core.dispatcher import Dispatcher
from repro.core.oneffset_generator import OneffsetGenerator
from repro.numerics.encodings import get_encoding


class TestOneffsetGenerator:
    def test_convert_value_roundtrip(self):
        generator = OneffsetGenerator()
        for value in (0, 1, 5, 255, 65535):
            stream = generator.convert_value(value)
            if value:
                assert stream.value == value

    def test_convert_brick_length(self, rng):
        generator = OneffsetGenerator()
        brick = rng.integers(0, 2**12, size=16)
        assert len(generator.convert_brick(brick)) == 16

    def test_lane_states_preserve_signs(self):
        generator = OneffsetGenerator()
        states = generator.lane_states(np.array([-6, 6, 0]))
        assert [s.sign for s in states] == [-1, 1, 1]

    def test_lane_state_emission_order_is_ascending(self):
        generator = OneffsetGenerator()
        state = generator.lane_states(np.array([0b1010]))[0]
        first, end1, null1 = state.next_offset()
        second, end2, null2 = state.next_offset()
        assert (first, second) == (1, 3)
        assert not end1 and end2
        assert not null1 and not null2

    def test_exhausted_lane_emits_null_terms(self):
        generator = OneffsetGenerator()
        state = generator.lane_states(np.array([0]))[0]
        offset, end, is_null = state.next_offset()
        assert is_null and end and offset == 0

    def test_oneffset_lists_reconstruct_values(self, rng):
        generator = OneffsetGenerator()
        brick = rng.integers(0, 2**16, size=16)
        lists = generator.oneffset_lists(brick)
        for value, offsets in zip(brick, lists):
            assert get_encoding("positional").decode([(1, p) for p in offsets]) == value

    def test_max_stream_length_minimum_one(self):
        generator = OneffsetGenerator()
        assert generator.max_stream_length(np.zeros(16, dtype=int)) == 1
        assert generator.max_stream_length(np.array([0xFFFF] + [0] * 15)) == 16

    def test_rejects_values_wider_than_storage(self):
        generator = OneffsetGenerator(storage_bits=8)
        with pytest.raises(ValueError):
            generator.lane_states(np.array([256]))

    def test_rejects_bad_storage_bits(self):
        with pytest.raises(ValueError):
            OneffsetGenerator(storage_bits=0)


class TestDispatcher:
    def test_dispatch_covers_every_pallet_step(self, tiny_layer, tiny_trace):
        dispatcher = Dispatcher()
        steps = list(dispatcher.dispatch_layer(tiny_layer, tiny_trace.layer_input(0)))
        assert len(steps) == tiny_layer.window_groups * tiny_layer.bricks_per_window

    def test_dispatch_step_structure(self, tiny_layer, tiny_trace):
        dispatcher = Dispatcher()
        step = next(iter(dispatcher.dispatch_layer(tiny_layer, tiny_trace.layer_input(0))))
        assert len(step.oneffsets) == 16
        assert len(step.oneffsets[0]) == 16
        assert step.nm_fetch_cycles >= 1
        assert step.max_oneffsets >= 1

    def test_signs_match_values(self, tiny_layer, tiny_trace):
        dispatcher = Dispatcher()
        step = next(iter(dispatcher.dispatch_layer(tiny_layer, tiny_trace.layer_input(0))))
        for window in step.signs:
            assert all(sign in (-1, 1) for sign in window)

    def test_layer_accesses_positive(self, tiny_layer):
        counters = Dispatcher().layer_accesses(tiny_layer)
        assert counters.nm_reads > 0
        assert counters.sb_reads >= counters.nm_reads
