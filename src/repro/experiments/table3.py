"""Table III — area and power, unit and chip, pallet-synchronized designs."""

from __future__ import annotations

from repro.core.variants import pallet_variant
from repro.experiments.base import ExperimentResult, Preset, get_preset
from repro.experiments.builders import area_power_table

__all__ = ["run", "PAPER_TABLE3"]

#: The paper's Table III: (unit area mm², chip area mm², chip power W).
PAPER_TABLE3: dict[str, tuple[float, float, float]] = {
    "DaDN": (1.55, 90.0, 18.8),
    "Stripes": (3.05, 114.0, 30.2),
    "PRA-0b": (3.11, 115.0, 31.4),
    "PRA-1b": (3.16, 116.0, 34.5),
    "PRA-2b": (3.54, 122.0, 38.2),
    "PRA-3b": (4.41, 136.0, 43.8),
    "PRA-4b": (5.75, 157.0, 51.6),
}


def run(preset: str | Preset = "fast", seed: int = 0) -> ExperimentResult:
    """Reproduce Table III from the calibrated component model."""
    get_preset(preset)  # presets do not change this experiment; validates the name
    return area_power_table(
        "table3",
        "Table III: area [mm2] and power [W], pallet synchronization",
        "Component coefficients are calibrated once against the published synthesis\n"
        "totals (DESIGN.md §4); composed values are expected to track the paper within\n"
        "a few percent and preserve all relative relationships.",
        {f"PRA-{bits}b": pallet_variant(bits) for bits in range(5)},
        PAPER_TABLE3,
    )
