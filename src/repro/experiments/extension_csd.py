"""Extension (beyond the paper): canonical signed digit oneffset encoding.

The paper's conclusion points out that Pragmatic's approach applies to any
explicit power-of-two representation of the neurons.  This experiment
quantifies the headroom of switching the oneffset generator from the positional
non-zero bits to the canonical signed digit (NAF) encoding, which minimizes the
number of (signed) power-of-two terms per value: it reports the relative term
counts of PRA with both encodings, next to Stripes, in the style of Figure 2.
"""

from __future__ import annotations

from repro.analysis.speedup import geometric_mean
from repro.analysis.tables import format_percent
from repro.experiments.base import ExperimentResult, Preset, get_preset
from repro.nn.networks import get_network
from repro.numerics.encodings import get_encoding
from repro.runtime import TraceSpec, current_session

__all__ = ["run"]

_ENGINES = ("Stripes", "PRA-fp16", "PRA-csd")

#: Term counting rides the encoding registry (goldens pinned by
#: tests/test_experiments.py).
_ENGINE_ENCODINGS = {"PRA-fp16": "positional", "PRA-csd": "csd"}


def run(preset: str | Preset = "fast", seed: int = 0) -> ExperimentResult:
    """Relative term counts of positional vs CSD oneffset encodings."""
    config = get_preset(preset)
    headers = ["network", *_ENGINES, "CSD term reduction"]
    rows: list[list[object]] = []
    metadata: dict[str, float] = {}
    per_engine: dict[str, list[float]] = {engine: [] for engine in _ENGINES}

    for name in config.networks:
        network = get_network(name)
        trace = current_session().trace(TraceSpec(network=name, seed=seed))
        totals = {engine: 0.0 for engine in _ENGINES}
        baseline = 0.0
        for index, layer in enumerate(network.layers):
            values = trace.sample_layer_values(index, config.samples_per_layer)
            precision = trace.layer_precision(index)
            baseline += layer.macs * 16.0
            totals["Stripes"] += layer.macs * float(min(precision.width, 16))
            for engine, encoding in _ENGINE_ENCODINGS.items():
                counts = get_encoding(encoding).term_counts(values, bits=16)
                totals[engine] += layer.macs * float(counts.mean())
        relative = {engine: totals[engine] / baseline for engine in _ENGINES}
        reduction = 1.0 - relative["PRA-csd"] / relative["PRA-fp16"]
        rows.append(
            [network.name]
            + [format_percent(relative[engine]) for engine in _ENGINES]
            + [format_percent(reduction)]
        )
        for engine in _ENGINES:
            per_engine[engine].append(relative[engine])
            metadata[f"{network.name}:{engine}"] = relative[engine]
        metadata[f"{network.name}:reduction"] = reduction

    geomeans = {engine: geometric_mean(values) for engine, values in per_engine.items()}
    reduction = 1.0 - geomeans["PRA-csd"] / geomeans["PRA-fp16"]
    rows.append(
        ["geomean"]
        + [format_percent(geomeans[engine]) for engine in _ENGINES]
        + [format_percent(reduction)]
    )
    for engine, value in geomeans.items():
        metadata[f"geomean:{engine}"] = value
    metadata["geomean:reduction"] = reduction
    notes = (
        "Extension beyond the paper: the canonical signed digit (non-adjacent form)\n"
        "encoding needs the fewest signed power-of-two terms per neuron; the PIP's\n"
        "existing negation input makes it a drop-in change to the oneffset generator.\n"
        "Values are relative term counts vs the bit-parallel DaDN baseline (no software\n"
        "trimming), so PRA-fp16 matches the Figure 2 column of the same name."
    )
    return ExperimentResult(
        experiment="extension_csd",
        title="Extension: positional vs canonical-signed-digit oneffset encoding",
        headers=headers,
        rows=rows,
        notes=notes,
        metadata=metadata,
    )
