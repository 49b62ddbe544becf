"""Table V — performance benefit of the software-provided per-layer precisions."""

from __future__ import annotations

from repro.analysis.speedup import geometric_mean
from repro.analysis.tables import format_percent, format_ratio
from repro.core.variants import column_variant
from repro.experiments.base import ExperimentResult, Preset
from repro.experiments.builders import network_requests
from repro.runtime import SimulationRequest, simulate

__all__ = ["run", "plan", "PAPER_BENEFITS", "PAPER_AVERAGE_BENEFIT"]

#: Table V of the paper: speedup fraction attributable to software guidance.
PAPER_BENEFITS: dict[str, float] = {
    "alexnet": 0.23,
    "nin": 0.10,
    "googlenet": 0.18,
    "vgg_m": 0.22,
    "vgg_s": 0.21,
    "vgg19": 0.19,
}

#: The average benefit of software guidance the paper reports.
PAPER_AVERAGE_BENEFIT = 0.19


def _variants() -> dict[str, object]:
    return {
        "with-software": column_variant(1, software_trimming=True),
        "without-software": column_variant(1, software_trimming=False),
    }


def plan(preset: str | Preset = "fast", seed: int = 0) -> list[SimulationRequest]:
    """The cycle simulations this experiment needs (one job per network).

    The guided design point is Figure 10's PRA-2b-1R, so combined runs only
    simulate the unguided counterpart here.
    """
    return network_requests(preset, seed, _variants())


def run(preset: str | Preset = "fast", seed: int = 0) -> ExperimentResult:
    """Reproduce Table V: PRA-2b-1R with and without software guidance."""
    headers = [
        "network",
        "speedup (software)",
        "speedup (no software)",
        "benefit",
        "benefit (paper)",
    ]
    rows: list[list[object]] = []
    metadata: dict[str, float] = {}
    benefits: list[float] = []
    for request in plan(preset, seed):
        results = simulate(request)
        network_name = results["with-software"].network
        guided = results["with-software"].speedup
        unguided = results["without-software"].speedup
        benefit = guided / unguided - 1.0
        benefits.append(benefit)
        metadata[f"{network_name}:benefit"] = benefit
        rows.append(
            [
                network_name,
                format_ratio(guided),
                format_ratio(unguided),
                format_percent(benefit, digits=0),
                format_percent(PAPER_BENEFITS.get(network_name, float("nan")), digits=0),
            ]
        )
    average = sum(benefits) / len(benefits)
    paper_average = format_percent(PAPER_AVERAGE_BENEFIT, digits=0)
    rows.append(["average", "-", "-", format_percent(average, digits=0), paper_average])
    metadata["average:benefit"] = average
    metadata["geomean:benefit"] = geometric_mean(1.0 + b for b in benefits) - 1.0
    notes = (
        "The benefit is the extra speedup PRA-2b-1R gains when software communicates the\n"
        "per-layer precisions of Table II (Section V-F); the paper reports "
        f"{paper_average} on average."
    )
    return ExperimentResult(
        experiment="table5",
        title="Table V: performance benefit due to software guidance (PRA-2b-1R)",
        headers=headers,
        rows=rows,
        notes=notes,
        metadata=metadata,
    )
