"""Unit tests for the area, power and energy-efficiency models."""

import pytest

from repro.core.accelerator import LayerResult, NetworkResult
from repro.core.variants import column_variant, pallet_variant
from repro.energy.area import chip_area, design_area, unit_area
from repro.energy.components import (
    MEMORY_AREA_MM2,
    ComponentCounts,
    component_counts_for,
    dadn_unit_counts,
    pragmatic_unit_counts,
    stripes_unit_counts,
)
from repro.energy.efficiency import design_efficiency, energy_efficiency
from repro.energy.power import chip_power, design_power

#: Published Table III / IV values: design -> (unit mm2, chip power W).
PAPER_VALUES = {
    "dadn": (1.55, 18.8),
    "stripes": (3.05, 30.2),
    "PRA-0b": (3.11, 31.4),
    "PRA-1b": (3.16, 34.5),
    "PRA-2b": (3.54, 38.2),
    "PRA-3b": (4.41, 43.8),
    "PRA-4b": (5.75, 51.6),
    "PRA-2b-1R": (3.58, 38.8),
    "PRA-2b-4R": (3.73, 40.8),
    "PRA-2b-16R": (4.33, 49.1),
}


def design_for(name):
    if name in ("dadn", "stripes"):
        return name
    if name.endswith("R"):
        registers = name.split("-")[-1]
        return column_variant(int(registers[:-1]))
    return pallet_variant(int(name.split("-")[1][0]))


class TestComponentCounts:
    def test_addition_and_scaling(self):
        a = ComponentCounts(multipliers=1, adder_bits=10)
        b = ComponentCounts(adder_bits=5, ssr_bits=2)
        combined = a + b
        assert combined.multipliers == 1
        assert combined.adder_bits == 15
        assert combined.ssr_bits == 2
        assert a.scaled(3).adder_bits == 30

    def test_dadn_counts_match_structure(self):
        counts = dadn_unit_counts()
        assert counts.multipliers == 256
        assert counts.shifter_bits == 0

    def test_stripes_counts_have_no_multipliers(self):
        counts = stripes_unit_counts()
        assert counts.multipliers == 0
        assert counts.adder_bits > dadn_unit_counts().adder_bits

    def test_pragmatic_counts_grow_with_first_stage_bits(self):
        areas = [pragmatic_unit_counts(pallet_variant(bits)).shifter_bits for bits in range(5)]
        assert areas[0] < areas[2] < areas[4]

    def test_column_variant_adds_ssr_bits(self):
        assert pragmatic_unit_counts(column_variant(1)).ssr_bits == 16 * 16 * 16
        assert pragmatic_unit_counts(pallet_variant(2)).ssr_bits == 0

    def test_component_counts_for_rejects_unknown_name(self):
        with pytest.raises(ValueError):
            component_counts_for("eyeriss")


class TestCalibratedTotals:
    @pytest.mark.parametrize("name", sorted(PAPER_VALUES))
    def test_unit_area_within_five_percent_of_paper(self, name):
        paper_unit, _ = PAPER_VALUES[name]
        measured = design_area(design_for(name)).unit_mm2
        assert measured == pytest.approx(paper_unit, rel=0.05)

    @pytest.mark.parametrize("name", sorted(PAPER_VALUES))
    def test_chip_power_within_five_percent_of_paper(self, name):
        _, paper_power = PAPER_VALUES[name]
        measured = design_power(design_for(name)).chip_w
        assert measured == pytest.approx(paper_power, rel=0.05)

    def test_chip_area_adds_constant_memory_system(self):
        counts = dadn_unit_counts()
        assert chip_area(counts) == pytest.approx(16 * unit_area(counts) + MEMORY_AREA_MM2)

    def test_area_monotonic_in_first_stage_bits(self):
        areas = [design_area(pallet_variant(bits)).unit_mm2 for bits in range(5)]
        assert areas == sorted(areas)

    def test_more_ssrs_cost_more_area_and_power(self):
        one = design_area(column_variant(1)).unit_mm2
        sixteen = design_area(column_variant(16)).unit_mm2
        assert sixteen > one
        assert design_power(column_variant(16)).chip_w > design_power(column_variant(1)).chip_w

    def test_pra2b_headline_overheads(self):
        # The paper highlights PRA-2b: ~1.35x chip area and ~2.03x power over DaDN.
        area = design_area(pallet_variant(2))
        power = design_power(pallet_variant(2))
        assert area.chip_ratio == pytest.approx(1.35, abs=0.05)
        assert power.chip_ratio == pytest.approx(2.03, abs=0.1)


class TestEfficiency:
    def test_energy_efficiency_formula(self):
        assert energy_efficiency(10.0, 100.0, 20.0, 25.0) == pytest.approx(2.0)

    def test_energy_efficiency_rejects_zero_energy(self):
        with pytest.raises(ValueError):
            energy_efficiency(10.0, 100.0, 0.0, 0.0)

    def test_design_efficiency_equals_speedup_over_power_ratio(self):
        layers = (LayerResult("l", cycles=50.0, baseline_cycles=150.0, terms=1.0, baseline_terms=2.0),)
        result = NetworkResult("net", "PRA-2b", layers)
        entry = design_efficiency(pallet_variant(2), result)
        assert entry.efficiency == pytest.approx(entry.speedup / entry.power_ratio)
        assert entry.network == "net"

    def test_pra4b_less_efficient_than_pra2b_at_equal_speedup(self):
        layers = (LayerResult("l", cycles=50.0, baseline_cycles=130.0, terms=1.0, baseline_terms=2.0),)
        result = NetworkResult("net", "x", layers)
        two_bit = design_efficiency(pallet_variant(2), result)
        four_bit = design_efficiency(pallet_variant(4), result)
        assert two_bit.efficiency > four_bit.efficiency
