"""Figure 11 — energy efficiency relative to DaDianNao."""

from __future__ import annotations

from repro.analysis.speedup import stripes_result
from repro.core.variants import column_variant, pallet_variant
from repro.energy.efficiency import design_efficiency
from repro.experiments.base import ExperimentResult, Preset
from repro.experiments.builders import design_table, network_requests
from repro.runtime import SimulationRequest

__all__ = ["run", "plan", "PAPER_GEOMEANS"]

#: Average efficiencies the paper reports: Stripes +16%, PRA-4b −5%, PRA-2b +28%,
#: PRA-2b-1R +48%.
PAPER_GEOMEANS: dict[str, float] = {
    "Stripes": 1.16,
    "PRA-4b": 0.95,
    "PRA-2b": 1.28,
    "PRA-2b-1R": 1.48,
}


def plan(preset: str | Preset = "fast", seed: int = 0) -> list[SimulationRequest]:
    """The cycle simulations this experiment needs (one job per network).

    Every design here also appears in Figure 9 or Figure 10, so in a combined
    run these jobs are pure cache hits.
    """
    designs = {
        "PRA-4b": pallet_variant(4),
        "PRA-2b": pallet_variant(2),
        "PRA-2b-1R": column_variant(1),
    }
    return network_requests(preset, seed, designs)


def run(preset: str | Preset = "fast", seed: int = 0) -> ExperimentResult:
    """Reproduce Figure 11: relative energy efficiency of the headline designs."""
    return design_table(
        "fig11",
        "Figure 11: energy efficiency relative to DaDianNao",
        "Efficiency is E_DaDN / E_design = speedup / chip-power ratio.  Paper averages:\n"
        "Stripes 1.16x, PRA-4b 0.95x, PRA-2b 1.28x, PRA-2b-1R 1.48x.",
        plan(preset, seed),
        stripes_cell=lambda trace: design_efficiency("stripes", stripes_result(trace)).efficiency,
        design_cell=lambda design, result: design_efficiency(design, result).efficiency,
    )
