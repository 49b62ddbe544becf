"""Pragmatic core: the cycle model and its drain kernel, the PIP and tile
functional models with the Figure 7 schedule (the model's oracle), software
trimming, and the named design points the experiments sweep."""

from repro.core.accelerator import LayerResult, NetworkResult, PragmaticConfig
from repro.core.kernels import batched_drain_cycles, packed_essential_terms
from repro.core.pip import (
    PragmaticInnerProductUnit,
    PragmaticTileFunctional,
    ScheduleCycle,
    serial_term_schedule,
)
from repro.core.progress import ProgressToken, SweepCancelled
from repro.core.scheduling import encoded_drain_masks, ssr_pipeline_cycles
from repro.core.software import SoftwareGuidance
from repro.core.sweep import cycles_from_drain, sweep_network
from repro.core.variants import (
    FIG9_FIRST_STAGE_BITS,
    FIG10_SSR_COUNTS,
    column_variant,
    encoding_variant,
    encoding_variants,
    fig9_variants,
    fig10_variants,
    fig12_variants,
    pallet_variant,
)

__all__ = [
    "PragmaticConfig",
    "LayerResult",
    "NetworkResult",
    "PragmaticInnerProductUnit",
    "PragmaticTileFunctional",
    "ScheduleCycle",
    "serial_term_schedule",
    "SoftwareGuidance",
    "ssr_pipeline_cycles",
    "encoded_drain_masks",
    "batched_drain_cycles",
    "packed_essential_terms",
    "ProgressToken",
    "SweepCancelled",
    "sweep_network",
    "cycles_from_drain",
    "pallet_variant",
    "column_variant",
    "encoding_variant",
    "encoding_variants",
    "fig9_variants",
    "fig10_variants",
    "fig12_variants",
    "FIG9_FIRST_STAGE_BITS",
    "FIG10_SSR_COUNTS",
]
