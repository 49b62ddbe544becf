"""Figure 2 — convolutional layer computational demands, 16-bit fixed point."""

from __future__ import annotations

from repro.analysis.potential import FIG2_ENGINES
from repro.experiments.base import ExperimentResult, Preset
from repro.experiments.builders import network_requests, term_table
from repro.runtime import StatisticsRequest

__all__ = ["run", "plan", "PAPER_AVERAGES"]

#: Average relative term counts the paper reports in Section II-B.
PAPER_AVERAGES: dict[str, float] = {
    "ZN": 0.39,
    "CVN": 0.63,
    "Stripes": 0.53,
    "PRA-fp16": 0.10,
    "PRA-red": 0.08,
}


def plan(preset: str | Preset = "fast", seed: int = 0) -> list[StatisticsRequest]:
    """The per-network statistics passes this experiment needs."""
    return network_requests(preset, seed, statistic="fig2_terms")


def run(preset: str | Preset = "fast", seed: int = 0) -> ExperimentResult:
    """Reproduce Figure 2: relative number of terms vs the DaDN baseline."""
    return term_table(
        "fig2",
        "Figure 2: relative term counts, 16-bit fixed-point representation (lower is better)",
        plan(preset, seed),
        FIG2_ENGINES,
        PAPER_AVERAGES,
    )
