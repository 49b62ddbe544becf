"""Figure 12 — performance with the 8-bit quantized representation."""

from __future__ import annotations

from repro.analysis.speedup import stripes_result
from repro.core.variants import fig12_variants
from repro.experiments.base import ExperimentResult, Preset
from repro.experiments.builders import design_table, network_requests
from repro.nn.precision import table2_precisions
from repro.nn.traces import NetworkTrace
from repro.runtime import SimulationRequest

__all__ = ["run", "plan", "PAPER_GEOMEANS"]

#: The paper reports PRA-2b-1R reaching nearly 3.5x with the quantized representation.
PAPER_GEOMEANS: dict[str, float] = {"perCol-1reg-2bit": 3.5}


def plan(preset: str | Preset = "fast", seed: int = 0) -> list[SimulationRequest]:
    """The cycle simulations this experiment needs (one job per network)."""
    return network_requests(preset, seed, fig12_variants(), representation="quant8")


def _capped_stripes_speedup(trace: NetworkTrace) -> float:
    """Stripes over the published (16-bit) precision profiles capped at the 8-bit
    storage width, which stand in for re-profiled quantized precisions."""
    capped = tuple(min(width, 8) for width in table2_precisions(trace.network))
    return stripes_result(trace, precision_widths=capped).speedup


def run(preset: str | Preset = "fast", seed: int = 0) -> ExperimentResult:
    """Reproduce Figure 12: speedups over an 8-bit quantized DaDN baseline."""
    return design_table(
        "fig12",
        "Figure 12: speedup with the 8-bit quantized representation",
        "All values are relative to an 8-bit quantized DaDN baseline.  The paper reports\n"
        "Pragmatic's benefits persisting, with PRA-2b-1R near 3.5x; Stripes precisions are\n"
        "the published profiles capped at 8 bits (the paper does not publish re-profiled\n"
        "quantized precisions).",
        plan(preset, seed),
        stripes_cell=_capped_stripes_speedup,
    )
