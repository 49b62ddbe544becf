"""Table IV — area and power of the per-column synchronized PRA-2b designs."""

from __future__ import annotations

from repro.core.variants import column_variant, pallet_variant
from repro.energy.area import design_area
from repro.experiments.base import ExperimentResult, Preset, get_preset
from repro.experiments.builders import area_power_table

__all__ = ["run", "PAPER_TABLE4"]

#: The paper's Table IV: (unit area mm², chip area mm², chip power W).
PAPER_TABLE4: dict[str, tuple[float, float, float]] = {
    "DaDN": (1.55, 90.0, 18.8),
    "Stripes": (3.05, 114.0, 30.2),
    "PRA-2b-1R": (3.58, 122.0, 38.8),
    "PRA-2b-4R": (3.73, 125.0, 40.8),
    "PRA-2b-16R": (4.33, 134.0, 49.1),
}


def run(preset: str | Preset = "fast", seed: int = 0) -> ExperimentResult:
    """Reproduce Table IV from the calibrated component model."""
    get_preset(preset)  # presets do not change this experiment; validates the name
    return area_power_table(
        "table4",
        "Table IV: area [mm2] and power [W], per-column synchronization (PRA-2b)",
        "Each SSR adds one synapse-set register (16 bricks, 4 Kbit) per tile; the\n"
        "reference PRA-2b pallet design is in Table III. "
        f"(Pallet PRA-2b unit area: {design_area(pallet_variant(2)).unit_mm2:.2f} mm2.)",
        {f"PRA-2b-{count}R": column_variant(count) for count in (1, 4, 16)},
        PAPER_TABLE4,
    )
