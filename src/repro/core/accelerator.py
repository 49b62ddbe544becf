"""Configuration and result types of the Pragmatic cycle simulator.

:class:`PragmaticConfig` is one design-space point of the accelerator;
:func:`repro.core.sweep.sweep_network` simulates any number of them over one
calibrated trace and returns a :class:`NetworkResult` of per-layer
:class:`LayerResult` cycle and term counts per configuration, normalized
against the DaDianNao baseline — the quantity the paper's Figures 9, 10 and
12 report.  A single design is simply a one-entry sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.config import ChipConfig, DEFAULT_CHIP
from repro.numerics.encodings import DEFAULT_ENCODING, encoding_names

__all__ = [
    "PragmaticConfig",
    "LayerResult",
    "NetworkResult",
]

_SYNCHRONIZATIONS = ("pallet", "column")


@dataclass(frozen=True)
class PragmaticConfig:
    """Design-space point of the Pragmatic accelerator.

    Attributes
    ----------
    first_stage_bits:
        Control width ``L`` of the per-synapse first-stage shifters (0–4).
        ``4`` is the single-stage PRAsingle design.
    synchronization:
        ``"pallet"`` for per-pallet neuron lane synchronization (Section V-A4)
        or ``"column"`` for per-column synchronization with SSRs (Section V-E).
    ssr_count:
        Number of synapse set registers for column synchronization; ``None``
        models the ideal, infinitely buffered configuration.  Ignored for
        pallet synchronization.
    software_trimming:
        Whether software-provided per-layer precisions trim the neuron stream
        (Section V-F).
    chip:
        Structural chip configuration (tiles, lanes, memories).
    encoding:
        Registered oneffset encoding the lanes stream
        (:mod:`repro.numerics.encodings`); ``"positional"`` is the paper's
        representation and the pre-registry behaviour.
    label:
        Optional display label; a descriptive one is generated when omitted.
    """

    first_stage_bits: int = 2
    synchronization: str = "pallet"
    ssr_count: int | None = 1
    software_trimming: bool = True
    chip: ChipConfig = DEFAULT_CHIP
    encoding: str = DEFAULT_ENCODING
    label: str | None = None

    def __post_init__(self) -> None:
        if not 0 <= self.first_stage_bits <= 4:
            raise ValueError("first_stage_bits must be in [0, 4]")
        if self.synchronization not in _SYNCHRONIZATIONS:
            raise ValueError(
                f"synchronization must be one of {_SYNCHRONIZATIONS}, got "
                f"{self.synchronization!r}"
            )
        if self.ssr_count is not None and self.ssr_count < 1:
            raise ValueError("ssr_count must be positive or None (ideal)")
        if self.encoding not in encoding_names():
            raise ValueError(
                f"encoding must be one of {encoding_names()}, got {self.encoding!r}"
            )

    @property
    def name(self) -> str:
        """Human-readable configuration name (e.g. ``PRA-2b-1R``)."""
        if self.label:
            return self.label
        base = f"PRA-{self.first_stage_bits}b"
        if self.synchronization == "column":
            suffix = "idealR" if self.ssr_count is None else f"{self.ssr_count}R"
            base = f"{base}-{suffix}"
        if not self.software_trimming:
            base = f"{base}-fp"
        if self.encoding != DEFAULT_ENCODING:
            base = f"{base}-{self.encoding}"
        return base


@dataclass(frozen=True)
class LayerResult:
    """Cycle and term counts of one layer on one accelerator configuration."""

    layer_name: str
    cycles: float
    baseline_cycles: float
    terms: float
    baseline_terms: float

    @property
    def speedup(self) -> float:
        """Speedup over the DaDianNao baseline."""
        return self.baseline_cycles / self.cycles if self.cycles else float("inf")


@dataclass(frozen=True)
class NetworkResult:
    """Per-layer results plus network-level aggregates."""

    network: str
    accelerator: str
    layers: tuple[LayerResult, ...]

    @property
    def cycles(self) -> float:
        return sum(layer.cycles for layer in self.layers)

    @property
    def baseline_cycles(self) -> float:
        return sum(layer.baseline_cycles for layer in self.layers)

    @property
    def speedup(self) -> float:
        """Network speedup over DaDianNao (total cycles ratio)."""
        return self.baseline_cycles / self.cycles if self.cycles else float("inf")

    def summary(self) -> str:
        """Readable multi-line summary of the per-layer and network speedups."""
        lines = [f"{self.accelerator} on {self.network}: speedup {self.speedup:.2f}x vs DaDN"]
        lines.extend(
            f"  {layer.layer_name}: {layer.speedup:.2f}x "
            f"({layer.cycles:,.0f} vs {layer.baseline_cycles:,.0f} cycles)"
            for layer in self.layers
        )
        return "\n".join(lines)
