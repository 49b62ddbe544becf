"""Figure 9 — speedup over DaDianNao: Stripes and PRA-0b…4b, per-pallet sync."""

from __future__ import annotations

from repro.core.variants import fig9_variants
from repro.experiments.base import ExperimentResult, Preset
from repro.experiments.builders import design_table, network_requests
from repro.runtime import SimulationRequest

__all__ = ["run", "plan", "PAPER_GEOMEANS"]

#: Geometric-mean speedups the paper reports for this figure.
PAPER_GEOMEANS: dict[str, float] = {"Stripes": 1.85, "4-bit": 2.59}


def plan(preset: str | Preset = "fast", seed: int = 0) -> list[SimulationRequest]:
    """The cycle simulations this experiment needs (one job per network)."""
    return network_requests(preset, seed, fig9_variants())


def run(preset: str | Preset = "fast", seed: int = 0) -> ExperimentResult:
    """Reproduce Figure 9: per-network speedups of STR and the PRA 2-stage variants."""
    return design_table(
        "fig9",
        "Figure 9: speedup over DaDianNao (2-stage shifting, per-pallet synchronization)",
        "Paper geometric means: Stripes 1.85x, PRA-single (4-bit) 2.59x; PRA-2b and\n"
        "PRA-3b within 0.2% of PRA-single, PRA-0b about 20% faster than Stripes.",
        plan(preset, seed),
    )
