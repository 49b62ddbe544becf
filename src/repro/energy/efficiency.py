"""Energy and energy-efficiency computation (Section VI-D, Figure 11).

The paper defines the energy efficiency of a design NEW relative to BASE as the
ratio ``E_BASE / E_NEW`` of the energy each needs to compute all convolutional
layers.  With the designs clocked identically and the memory traffic scheduled
identically, the energy of a run is the chip power integrated over its
execution time, so the efficiency reduces to
``(P_BASE · C_BASE) / (P_NEW · C_NEW)`` — speedup divided by the power ratio.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.config import ChipConfig, DEFAULT_CHIP
from repro.core.accelerator import NetworkResult, PragmaticConfig
from repro.energy.components import component_counts_for
from repro.energy.power import chip_power

__all__ = ["energy_efficiency", "EfficiencyEntry", "design_efficiency"]


def energy_efficiency(
    baseline_power_w: float,
    baseline_cycles: float,
    power_w: float,
    cycles: float,
) -> float:
    """Relative energy efficiency ``E_base / E_new`` (1.0 means parity)."""
    new_energy = power_w * cycles
    if new_energy <= 0:
        raise ValueError("the evaluated design must consume non-zero energy")
    return (baseline_power_w * baseline_cycles) / new_energy


@dataclass(frozen=True)
class EfficiencyEntry:
    """Energy efficiency of one design on one network, relative to DaDianNao."""

    design: str
    network: str
    speedup: float
    power_ratio: float
    efficiency: float


def design_efficiency(
    design: str | PragmaticConfig,
    result: NetworkResult,
    chip: ChipConfig = DEFAULT_CHIP,
) -> EfficiencyEntry:
    """Energy efficiency of a design given its simulated cycle counts.

    ``result`` must carry the design's cycles and the DaDianNao baseline cycles
    (as produced by the cycle simulators).
    """
    power = chip_power(component_counts_for(design, chip), chip)
    baseline_power = chip_power(component_counts_for("dadn", chip), chip)
    power_ratio = power / baseline_power
    efficiency = energy_efficiency(
        baseline_power_w=baseline_power,
        baseline_cycles=result.baseline_cycles,
        power_w=power,
        cycles=result.cycles,
    )
    name = design.name if isinstance(design, PragmaticConfig) else design
    return EfficiencyEntry(
        design=name,
        network=result.network,
        speedup=result.speedup,
        power_ratio=power_ratio,
        efficiency=efficiency,
    )
