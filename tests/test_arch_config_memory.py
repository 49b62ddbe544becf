"""Unit tests for the chip configuration and the neuron-memory fetch model."""

import pytest

from repro.arch.config import DEFAULT_CHIP, ChipConfig
from repro.arch.memory import NeuronMemory
from repro.nn.layers import ConvLayerSpec


class TestChipConfig:
    def test_default_matches_dadiannao(self):
        assert DEFAULT_CHIP.tiles == 16
        assert DEFAULT_CHIP.filters_per_cycle == 256

    def test_neuron_bytes(self):
        assert DEFAULT_CHIP.neuron_bytes == 2
        assert ChipConfig(storage_bits=8).neuron_bytes == 1

    def test_rejects_invalid_values(self):
        with pytest.raises(ValueError):
            ChipConfig(tiles=0)
        with pytest.raises(ValueError):
            ChipConfig(frequency_ghz=0.0)

    def test_config_is_hashable(self):
        assert len({DEFAULT_CHIP, ChipConfig()}) == 1


class TestNeuronMemory:
    def test_unit_stride_fetches_in_one_cycle(self):
        layer = ConvLayerSpec("l", 64, 28, 28, 64, 3, 3, stride=1, padding=1)
        assert NeuronMemory().pallet_fetch_cycles(layer) == 1

    def test_larger_stride_needs_more_cycles(self):
        base = ConvLayerSpec("l1", 64, 28, 28, 64, 3, 3, stride=1, padding=1)
        strided = ConvLayerSpec("l4", 3, 227, 227, 96, 11, 11, stride=4)
        memory = NeuronMemory()
        assert memory.pallet_fetch_cycles(strided) > memory.pallet_fetch_cycles(base)

    def test_fetch_cycles_capped_at_pallet_width(self):
        layer = ConvLayerSpec("wide", 16, 300, 300, 4, 3, 3, stride=16)
        assert NeuronMemory().pallet_fetch_cycles(layer) <= 16
