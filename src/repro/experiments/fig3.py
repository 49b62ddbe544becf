"""Figure 3 — convolutional layer computational demands, 8-bit quantized."""

from __future__ import annotations

from repro.analysis.potential import FIG3_ENGINES
from repro.experiments.base import ExperimentResult, Preset
from repro.experiments.builders import network_requests, term_table
from repro.runtime import StatisticsRequest

__all__ = ["run", "plan", "PAPER_AVERAGES"]

#: Average relative term counts the paper reports for the quantized study:
#: skipping zero neurons removes ~30% of terms, Pragmatic up to ~71%.
PAPER_AVERAGES: dict[str, float] = {"ZN": 0.70, "PRA": 0.29}


def plan(preset: str | Preset = "fast", seed: int = 0) -> list[StatisticsRequest]:
    """The per-network statistics passes this experiment needs."""
    return network_requests(preset, seed, representation="quant8", statistic="fig3_terms")


def run(preset: str | Preset = "fast", seed: int = 0) -> ExperimentResult:
    """Reproduce Figure 3: relative term counts with the 8-bit quantized baseline."""
    return term_table(
        "fig3",
        "Figure 3: relative term counts, 8-bit quantized representation (lower is better)",
        plan(preset, seed),
        FIG3_ENGINES,
        PAPER_AVERAGES,
    )
