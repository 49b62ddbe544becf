"""Figure 10 — PRA-2b speedup with per-column synchronization vs SSR count."""

from __future__ import annotations

from repro.core.variants import fig10_variants
from repro.experiments.base import ExperimentResult, Preset
from repro.experiments.builders import design_table, network_requests
from repro.runtime import SimulationRequest

__all__ = ["run", "plan", "PAPER_GEOMEANS"]

#: Geometric means the paper reports: one SSR already reaches 3.1x, the ideal
#: configuration 3.45x.
PAPER_GEOMEANS: dict[str, float] = {"1-reg": 3.1, "perCol-ideal": 3.45}


def plan(preset: str | Preset = "fast", seed: int = 0) -> list[SimulationRequest]:
    """The cycle simulations this experiment needs (one job per network)."""
    return network_requests(preset, seed, fig10_variants())


def run(preset: str | Preset = "fast", seed: int = 0) -> ExperimentResult:
    """Reproduce Figure 10: column synchronization as a function of the SSR count."""
    return design_table(
        "fig10",
        "Figure 10: PRA-2b speedup with per-column synchronization vs SSR count",
        "Paper geometric means: PRA-2b with a single SSR reaches 3.1x, close to the\n"
        "3.45x of the ideal (infinitely buffered) per-column configuration.",
        plan(preset, seed),
    )
