"""Area model: compose component inventories into unit and chip areas (Table III/IV)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.config import ChipConfig, DEFAULT_CHIP
from repro.core.accelerator import PragmaticConfig
from repro.energy.components import (
    AREA_COEFFICIENTS,
    MEMORY_AREA_MM2,
    ComponentCounts,
    component_counts_for,
)

__all__ = ["AreaReport", "unit_area", "chip_area", "design_area"]


def unit_area(counts: ComponentCounts) -> float:
    """Area of one tile's datapath in mm²."""
    return sum(AREA_COEFFICIENTS[name] * value for name, value in counts.as_dict().items())


def chip_area(counts: ComponentCounts, chip: ChipConfig = DEFAULT_CHIP) -> float:
    """Whole-chip area in mm²: all tiles plus the shared memory system."""
    return chip.tiles * unit_area(counts) + MEMORY_AREA_MM2


@dataclass(frozen=True)
class AreaReport:
    """Unit and chip area of one design, with ratios to the DaDianNao baseline."""

    design: str
    unit_mm2: float
    chip_mm2: float
    unit_ratio: float
    chip_ratio: float


def design_area(
    design: str | PragmaticConfig, chip: ChipConfig = DEFAULT_CHIP
) -> AreaReport:
    """Area report for a design, normalized against DaDianNao."""
    counts = component_counts_for(design, chip)
    baseline_counts = component_counts_for("dadn", chip)
    unit = unit_area(counts)
    total = chip_area(counts, chip)
    baseline_unit = unit_area(baseline_counts)
    baseline_total = chip_area(baseline_counts, chip)
    name = design.name if isinstance(design, PragmaticConfig) else design
    return AreaReport(
        design=name,
        unit_mm2=unit,
        chip_mm2=total,
        unit_ratio=unit / baseline_unit,
        chip_ratio=total / baseline_total,
    )
