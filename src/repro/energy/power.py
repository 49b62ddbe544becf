"""Power model: compose component inventories into chip power (Table III/IV)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.config import ChipConfig, DEFAULT_CHIP
from repro.core.accelerator import PragmaticConfig
from repro.energy.components import (
    MEMORY_POWER_W,
    POWER_COEFFICIENTS,
    ComponentCounts,
    component_counts_for,
)

__all__ = ["PowerReport", "unit_power", "chip_power", "design_power"]


def unit_power(counts: ComponentCounts) -> float:
    """Power of one tile's datapath in W."""
    return sum(POWER_COEFFICIENTS[name] * value for name, value in counts.as_dict().items())


def chip_power(counts: ComponentCounts, chip: ChipConfig = DEFAULT_CHIP) -> float:
    """Whole-chip power in W: all tiles plus the (folded) memory share."""
    return chip.tiles * unit_power(counts) + MEMORY_POWER_W


@dataclass(frozen=True)
class PowerReport:
    """Chip power of one design with the ratio to the DaDianNao baseline."""

    design: str
    chip_w: float
    chip_ratio: float


def design_power(
    design: str | PragmaticConfig, chip: ChipConfig = DEFAULT_CHIP
) -> PowerReport:
    """Power report for a design, normalized against DaDianNao."""
    counts = component_counts_for(design, chip)
    baseline = component_counts_for("dadn", chip)
    total = chip_power(counts, chip)
    baseline_total = chip_power(baseline, chip)
    name = design.name if isinstance(design, PragmaticConfig) else design
    return PowerReport(design=name, chip_w=total, chip_ratio=total / baseline_total)
