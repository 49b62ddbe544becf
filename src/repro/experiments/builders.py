"""The three chart types of the paper's evaluation, each built once.

* :func:`design_table` (Figures 9–12): Stripes and each Pragmatic design,
  network by network, relative to DaDianNao, closed by a geomean row;
* :func:`term_table` (Figures 2/3): relative term counts per engine;
* :func:`area_power_table` (Tables III/IV): modelled area and power of each
  design next to the paper's.

A figure module declares its designs, ``PAPER_*`` values, title and notes;
its ``plan`` is :func:`network_requests`.  The builders simulate, so they
cannot live in :mod:`repro.experiments.base`, which the runtime imports.
"""

from __future__ import annotations

from typing import Callable, Mapping

from repro.analysis.speedup import geometric_mean, stripes_result
from repro.analysis.tables import format_percent, format_ratio
from repro.core.accelerator import NetworkResult
from repro.energy.area import design_area
from repro.energy.power import design_power
from repro.experiments.base import ExperimentResult, Preset, get_preset
from repro.nn.traces import NetworkTrace
from repro.runtime import (
    SimulationRequest,
    StatisticsRequest,
    TraceSpec,
    analyze,
    current_session,
    simulate,
)

__all__ = ["network_requests", "design_table", "term_table", "area_power_table"]


def network_requests(
    preset: str | Preset,
    seed: int,
    configs: Mapping[str, object] | None = None,
    *,
    representation: str = "fixed16",
    statistic: str | None = None,
) -> list[SimulationRequest] | list[StatisticsRequest]:
    """One request per preset network, over that network's trace.

    The request simulates every labelled design of ``configs``, or, when
    ``statistic`` is given, runs that statistics pass instead.
    """
    config = get_preset(preset)
    traces = [
        TraceSpec(network=name, representation=representation, seed=seed)
        for name in config.networks
    ]
    if statistic is not None:
        return [
            StatisticsRequest(
                statistic=statistic, trace=trace, samples_per_layer=config.samples_per_layer
            )
            for trace in traces
        ]
    designs = tuple(configs.items())
    return [
        SimulationRequest(trace=trace, configs=designs, sampling=config.sampling())
        for trace in traces
    ]


def _network_table(
    experiment: str,
    title: str,
    notes: str,
    networks: list[tuple[str, dict[str, float]]],
    formatter: Callable[[float], str],
) -> ExperimentResult:
    """One row per ``(network, {column: value})``, then the columns' geomeans.

    Metadata holds each cell as ``"<network>:<column>"`` and each geomean as
    ``"geomean:<column>"``.
    """
    rows: list[list[object]] = []
    metadata: dict[str, float] = {}
    columns: dict[str, list[float]] = {}
    for network, cells in networks:
        rows.append([network, *map(formatter, cells.values())])
        for column, value in cells.items():
            columns.setdefault(column, []).append(value)
            metadata[f"{network}:{column}"] = value
    geomeans = {column: geometric_mean(values) for column, values in columns.items()}
    rows.append(["geomean", *map(formatter, geomeans.values())])
    for column, value in geomeans.items():
        metadata[f"geomean:{column}"] = value
    return ExperimentResult(
        experiment=experiment,
        title=title,
        headers=["network", *columns],
        rows=rows,
        notes=notes,
        metadata=metadata,
    )


def design_table(
    experiment: str,
    title: str,
    notes: str,
    requests: list[SimulationRequest],
    stripes_cell: Callable[[NetworkTrace], float] = lambda trace: stripes_result(trace).speedup,
    design_cell: Callable[[object, NetworkResult], float] = lambda design, result: result.speedup,
) -> ExperimentResult:
    """Figures 9–12: Stripes and each requested design, per network.

    Cells are speedups over DaDianNao unless ``stripes_cell`` (given the
    network's trace) or ``design_cell`` (given a design and its simulated
    result) compute something else, such as energy efficiency.
    """
    networks = []
    for request in requests:
        results = simulate(request)
        trace = current_session().trace(request.trace)
        cells = {"Stripes": stripes_cell(trace)}
        for label, design in request.configs:
            cells[label] = design_cell(design, results[label])
        networks.append((trace.network.name, cells))
    return _network_table(experiment, title, notes, networks, format_ratio)


def term_table(
    experiment: str,
    title: str,
    requests: list[StatisticsRequest],
    engines: tuple[str, ...],
    paper_averages: Mapping[str, float],
) -> ExperimentResult:
    """Figures 2/3: each engine's term count relative to DaDianNao, per network."""
    entries = [analyze(request) for request in requests]
    networks = [
        (entry["network"], {engine: entry["relative_terms"][engine] for engine in engines})
        for entry in entries
    ]
    notes = "Paper averages (Section II-B): " + ", ".join(
        f"{engine} {format_percent(value)}" for engine, value in paper_averages.items()
    )
    return _network_table(experiment, title, notes, networks, format_percent)


#: Columns of Tables III and IV.
_AREA_POWER_HEADERS = [
    "design",
    "unit mm2",
    "unit mm2 (paper)",
    "chip mm2",
    "chip mm2 (paper)",
    "chip W",
    "chip W (paper)",
    "dArea",
    "dPower",
]


def area_power_table(
    experiment: str,
    title: str,
    notes: str,
    designs: Mapping[str, object],
    paper: Mapping[str, tuple[float, float, float]],
) -> ExperimentResult:
    """Tables III/IV: area and power of DaDianNao, Stripes and ``designs``.

    ``paper`` maps each label to the published (unit mm², chip mm², chip W).
    """
    rows: list[list[object]] = []
    metadata: dict[str, float] = {}
    for label, design in {"DaDN": "dadn", "Stripes": "stripes", **designs}.items():
        area = design_area(design)
        power = design_power(design)
        paper_unit, paper_chip, paper_power = paper[label]
        rows.append(
            [
                label,
                f"{area.unit_mm2:.2f}",
                f"{paper_unit:.2f}",
                f"{area.chip_mm2:.0f}",
                f"{paper_chip:.0f}",
                f"{power.chip_w:.1f}",
                f"{paper_power:.1f}",
                f"{area.chip_ratio:.2f}x",
                f"{power.chip_ratio:.2f}x",
            ]
        )
        metadata[f"{label}:unit_mm2"] = area.unit_mm2
        metadata[f"{label}:chip_mm2"] = area.chip_mm2
        metadata[f"{label}:chip_w"] = power.chip_w
    return ExperimentResult(
        experiment=experiment,
        title=title,
        headers=list(_AREA_POWER_HEADERS),
        rows=rows,
        notes=notes,
        metadata=metadata,
    )
