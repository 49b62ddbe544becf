"""Area, power and energy-efficiency models calibrated to the paper's synthesis results."""

from repro.energy.area import AreaReport, chip_area, design_area, unit_area
from repro.energy.components import (
    AREA_COEFFICIENTS,
    MEMORY_AREA_MM2,
    MEMORY_POWER_W,
    POWER_COEFFICIENTS,
    ComponentCounts,
    component_counts_for,
    dadn_unit_counts,
    pragmatic_unit_counts,
    stripes_unit_counts,
)
from repro.energy.efficiency import (
    EfficiencyEntry,
    design_efficiency,
    energy_efficiency,
)
from repro.energy.power import PowerReport, chip_power, design_power, unit_power

__all__ = [
    "ComponentCounts",
    "component_counts_for",
    "dadn_unit_counts",
    "stripes_unit_counts",
    "pragmatic_unit_counts",
    "AREA_COEFFICIENTS",
    "POWER_COEFFICIENTS",
    "MEMORY_AREA_MM2",
    "MEMORY_POWER_W",
    "AreaReport",
    "unit_area",
    "chip_area",
    "design_area",
    "PowerReport",
    "unit_power",
    "chip_power",
    "design_power",
    "EfficiencyEntry",
    "design_efficiency",
    "energy_efficiency",
]
