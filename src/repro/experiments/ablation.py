"""Ablation study of the reproduction's trace-modelling choices (beyond the paper).

The synthetic-trace substitution (the calibrated traces of
``docs/architecture.md`` and ``docs/runtime.md#calibrations``) introduces two
modelling choices the paper did not have to make: how many trimmable suffix
bits the stored neurons carry, and whether the first layer is fed dense image
pixels.  This experiment quantifies how sensitive the headline speedup
(PRA-2b, per-pallet synchronization) is to both, so readers can judge the
robustness of the reproduced conclusions.

The simulations run through the runtime engine (the same
:func:`repro.core.sweep.sweep_network` every experiment uses), so each
``(trace variant, network)`` point is cached and the scenario grid fans out
under ``--jobs``.
"""

from __future__ import annotations

from repro.analysis.speedup import geometric_mean
from repro.analysis.tables import format_ratio
from repro.core.variants import pallet_variant
from repro.experiments.base import ExperimentResult, Preset, get_preset
from repro.runtime import SimulationRequest, TraceSpec, simulate

__all__ = ["run", "plan"]

#: Suffix-bit depths swept by the ablation.
SUFFIX_BITS = (0, 1, 2, 3)

#: The design point under ablation.
_DESIGN_LABEL = "PRA-2b"


def _scenarios() -> list[tuple[str, dict[str, object]]]:
    """Label → trace-spec overrides of each ablation scenario."""
    scenarios: list[tuple[str, dict[str, object]]] = [
        (f"suffix={bits}, dense first layer", {"suffix_bits": bits, "dense_first_layer": True})
        for bits in SUFFIX_BITS
    ]
    scenarios.append(
        ("suffix=2, sparse first layer", {"suffix_bits": 2, "dense_first_layer": False})
    )
    return scenarios


def plan(preset: str | Preset = "fast", seed: int = 0) -> list[SimulationRequest]:
    """One simulation job per (scenario, network) trace variant.

    Scenario-major: each scenario's requests follow the preset's network order.
    """
    config = get_preset(preset)
    design = ((_DESIGN_LABEL, pallet_variant(2)),)
    return [
        SimulationRequest(
            trace=TraceSpec(network=name, seed=seed, **kwargs),
            configs=design,
            sampling=config.sampling(),
        )
        for _, kwargs in _scenarios()
        for name in config.networks
    ]


def run(preset: str | Preset = "fast", seed: int = 0) -> ExperimentResult:
    """Sweep suffix bits and the dense-first-layer switch for PRA-2b."""
    config = get_preset(preset)
    headers = ["configuration", *(config.networks), "geomean"]
    rows: list[list[object]] = []
    metadata: dict[str, float] = {}

    requests = iter(plan(config, seed))
    for label, _ in _scenarios():
        speedups = []
        row: list[object] = [label]
        for name in config.networks:
            speedup = simulate(next(requests))[_DESIGN_LABEL].speedup
            speedups.append(speedup)
            row.append(format_ratio(speedup))
            metadata[f"{label}:{name}"] = speedup
        mean = geometric_mean(speedups)
        row.append(format_ratio(mean))
        metadata[f"{label}:geomean"] = mean
        rows.append(row)

    notes = (
        "PRA-2b, per-pallet synchronization.  More suffix bits give software guidance more\n"
        "to trim (higher speedup); modelling the first layer as sparse ReLU output instead\n"
        "of dense image pixels overstates the speedup, which is why the dense model is the\n"
        "default (DESIGN.md §4)."
    )
    return ExperimentResult(
        experiment="ablation",
        title="Ablation: sensitivity of the PRA-2b speedup to trace-modelling choices",
        headers=headers,
        rows=rows,
        notes=notes,
        metadata=metadata,
    )
