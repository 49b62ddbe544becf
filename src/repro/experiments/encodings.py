"""Encoding comparison — every registered oneffset encoding as a workload.

The paper's conclusion notes that Pragmatic applies to any explicit
power-of-two representation of the neurons.  This experiment runs the full
cycle simulation — not just term counting — for the baseline PRA-2b design
point under every encoding registered in :mod:`repro.numerics.encodings`
(positional, CSD, HESE term-pairing, and the binarized 1-bit workload),
reporting each encoding's speedup over DaDianNao and its serial-term traffic
relative to the positional encoding.

``positional`` is numerically identical to the plain PRA-2b point of
Figure 9.  ``binary`` is the degenerate case: its traces are lossy (every
non-zero magnitude collapses to one term), so essential-term skipping reduces
to zero-skipping and the reported speedup is an upper bound for binarized
networks, not a drop-in design point.
"""

from __future__ import annotations

from repro.analysis.speedup import geometric_mean
from repro.analysis.tables import format_percent, format_ratio
from repro.core.variants import encoding_variants
from repro.experiments.base import ExperimentResult, Preset
from repro.experiments.builders import network_requests
from repro.numerics.encodings import encoding_names
from repro.runtime import SimulationRequest, current_session, simulate

__all__ = ["run", "plan"]


def plan(preset: str | Preset = "fast", seed: int = 0) -> list[SimulationRequest]:
    """The cycle simulations this experiment needs (one job per network)."""
    return network_requests(preset, seed, encoding_variants())


def run(preset: str | Preset = "fast", seed: int = 0) -> ExperimentResult:
    """Speedup and relative term traffic of PRA-2b under every encoding."""
    names = list(encoding_names())
    headers = ["network", *names, *[f"{name} terms" for name in names[1:]]]
    rows: list[list[object]] = []
    metadata: dict[str, float] = {}
    speedups: dict[str, list[float]] = {name: [] for name in names}

    for request in plan(preset, seed):
        results = simulate(request)
        trace = current_session().trace(request.trace)
        network_name = trace.network.name
        row: list[object] = [network_name]
        positional_terms = sum(
            layer.terms for layer in results["positional"].layers
        )
        for name in names:
            speedup = results[name].speedup
            row.append(format_ratio(speedup))
            speedups[name].append(speedup)
            metadata[f"{network_name}:{name}"] = speedup
        for name in names[1:]:
            terms = sum(layer.terms for layer in results[name].layers)
            relative = terms / positional_terms if positional_terms else 0.0
            row.append(format_percent(relative))
            metadata[f"{network_name}:{name}:terms"] = relative
        rows.append(row)

    geomeans = {name: geometric_mean(values) for name, values in speedups.items()}
    rows.append(
        ["geomean", *[format_ratio(geomeans[name]) for name in names]]
        + [""] * (len(names) - 1)
    )
    for name, value in geomeans.items():
        metadata[f"geomean:{name}"] = value
    notes = (
        "Full cycle simulation of PRA-2b (per-pallet sync) under every registered\n"
        "oneffset encoding; 'X terms' columns are serial term traffic relative to\n"
        "the positional encoding.  positional matches Figure 9's PRA-2b exactly.\n"
        "binary is the degenerate 1-bit case: its traces are lossy (non-zero\n"
        "magnitudes collapse to a single term), so term skipping reduces to\n"
        "zero-skipping and the speedup bounds binarized-network traffic rather\n"
        "than modelling a drop-in design point."
    )
    return ExperimentResult(
        experiment="encodings",
        title="Encoding comparison: PRA-2b across registered oneffset encodings",
        headers=headers,
        rows=rows,
        notes=notes,
        metadata=metadata,
    )
