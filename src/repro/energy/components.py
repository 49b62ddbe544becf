"""Component inventory and calibrated area/power coefficients.

The paper obtains area and power by synthesizing each design with the Synopsys
Design Compiler for a TSMC 65 nm library (plus CACTI/Destiny for the SRAM and
eDRAM blocks).  Synthesis cannot be reproduced in Python, so this module takes
the approach of the calibrated traces (``docs/architecture.md``,
``docs/runtime.md#calibrations``): each design's datapath is described as
an explicit inventory of components (multipliers, adder-tree bits, shifters,
registers, oneffset encoders, synapse set registers), and a single set of
per-component coefficients — calibrated once against the paper's published
DaDianNao/Stripes/Pragmatic totals with a non-negative least-squares fit — turns
an inventory into mm² and W.  Because every design is composed from the same
coefficients, the *relative* area and power relationships the paper's
conclusions rest on are preserved, and the composed absolute totals stay within
a few percent of Tables III and IV (asserted by the test suite).

Coefficients that the fit drives to zero (AND gates, pipeline registers and the
oneffset encoders on the area side) are not free: their contribution is small
and strongly correlated with the adder-tree and shifter terms, so the fit folds
it into those coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from repro.arch.config import ChipConfig, DEFAULT_CHIP
from repro.core.accelerator import PragmaticConfig

__all__ = [
    "ComponentCounts",
    "AREA_COEFFICIENTS",
    "POWER_COEFFICIENTS",
    "MEMORY_AREA_MM2",
    "MEMORY_POWER_W",
    "dadn_unit_counts",
    "stripes_unit_counts",
    "pragmatic_unit_counts",
    "component_counts_for",
]


@dataclass(frozen=True)
class ComponentCounts:
    """Datapath component inventory of one tile (unit).

    Attributes
    ----------
    multipliers:
        16×16-bit bit-parallel multipliers.
    adder_bits:
        Total bits of adder-tree and accumulator adders.
    and_gates:
        Term-gating AND gates (16-bit rows).
    shifter_bits:
        Shifter cost in input-bit × control-bit units (barrel shifter stages).
    register_bits:
        Pipeline, accumulator and synapse register bits.
    encoders:
        16-bit oneffset (leading-one) encoders attributed to the tile.
    ssr_bits:
        Synapse set register bits (per-column synchronization only).
    """

    multipliers: int = 0
    adder_bits: int = 0
    and_gates: int = 0
    shifter_bits: int = 0
    register_bits: int = 0
    encoders: int = 0
    ssr_bits: int = 0

    def __add__(self, other: "ComponentCounts") -> "ComponentCounts":
        return ComponentCounts(
            **{
                f.name: getattr(self, f.name) + getattr(other, f.name)
                for f in fields(self)
            }
        )

    def scaled(self, factor: int) -> "ComponentCounts":
        """Inventory of ``factor`` copies of this component set."""
        return ComponentCounts(
            **{f.name: getattr(self, f.name) * factor for f in fields(self)}
        )

    def as_dict(self) -> dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


#: Calibrated area coefficients, mm² per component count (65 nm effective values).
AREA_COEFFICIENTS: dict[str, float] = {
    "multipliers": 4.7487e-03,
    "adder_bits": 4.3533e-05,
    "and_gates": 0.0,
    "shifter_bits": 5.4913e-07,
    "register_bits": 0.0,
    "encoders": 0.0,
    "ssr_bits": 1.0560e-05,
}

#: Calibrated power coefficients, W per component count per tile (chip power sums
#: the 16 tiles).
POWER_COEFFICIENTS: dict[str, float] = {
    "multipliers": 4.1801e-03,
    "adder_bits": 1.3578e-05,
    "and_gates": 2.2441e-04,
    "shifter_bits": 1.9814e-06,
    "register_bits": 8.0657e-07,
    "encoders": 0.0,
    "ssr_bits": 1.0373e-05,
}

#: Area of the memory system (SB eDRAM, NM eDRAM, NBin/NBout SRAM and
#: interconnect).  The paper's chip totals minus 16× its unit totals give
#: 65.2 mm² consistently across designs, confirming the memory system is shared
#: unchanged.
MEMORY_AREA_MM2 = 65.2

#: Memory-system power attributed separately.  The paper schedules all designs
#: to perform identical SB/NM accesses; the calibration folds that constant
#: share into the per-component coefficients, so the explicit term is zero.
MEMORY_POWER_W = 0.0

#: Storage width (bits) of accumulator registers in every design.
_ACCUMULATOR_BITS = 32


def dadn_unit_counts(chip: ChipConfig = DEFAULT_CHIP) -> ComponentCounts:
    """Component inventory of one DaDianNao tile (Figure 5a)."""
    lanes = chip.filters_per_tile * chip.synapses_per_filter_lane
    return ComponentCounts(
        multipliers=lanes,
        adder_bits=chip.filters_per_tile
        * (chip.synapses_per_filter_lane - 1)
        * _ACCUMULATOR_BITS,
        register_bits=chip.filters_per_tile * 48,
    )


def stripes_unit_counts(chip: ChipConfig = DEFAULT_CHIP) -> ComponentCounts:
    """Component inventory of one Stripes tile (serial inner product units)."""
    sips = chip.filters_per_tile * chip.pallet_windows
    per_sip = ComponentCounts(
        adder_bits=(chip.synapses_per_filter_lane - 1) * chip.storage_bits
        + _ACCUMULATOR_BITS,
        and_gates=chip.synapses_per_filter_lane,
        shifter_bits=_ACCUMULATOR_BITS,
        register_bits=_ACCUMULATOR_BITS,
    )
    return per_sip.scaled(sips) + ComponentCounts(encoders=chip.pallet_windows)


def pragmatic_unit_counts(
    config: PragmaticConfig, chip: ChipConfig | None = None
) -> ComponentCounts:
    """Component inventory of one Pragmatic tile (Figures 5b, 6 and 7).

    The first-stage shifters grow with the control width ``L`` and the adder
    tree with the term width ``16 + 2**L - 1``; column-synchronized variants add
    one synapse set register (16 synapse bricks) per SSR.
    """
    chip = chip or config.chip
    pips = chip.filters_per_tile * chip.pallet_windows
    term_width = chip.storage_bits + (1 << config.first_stage_bits) - 1
    first_stage = (
        chip.synapses_per_filter_lane * chip.storage_bits * config.first_stage_bits
    )
    second_stage = (term_width + 4) * 4 if config.first_stage_bits < 4 else 0
    synapse_register_bits = chip.synapses_per_filter_lane * chip.storage_bits
    per_pip = ComponentCounts(
        adder_bits=(chip.synapses_per_filter_lane - 1) * term_width + _ACCUMULATOR_BITS,
        and_gates=chip.synapses_per_filter_lane,
        shifter_bits=first_stage + second_stage,
        register_bits=_ACCUMULATOR_BITS + synapse_register_bits,
    )
    counts = per_pip.scaled(pips) + ComponentCounts(encoders=chip.pallet_windows)
    if config.synchronization == "column":
        ssr_count = 16 if config.ssr_count is None else config.ssr_count
        ssr_bits = (
            ssr_count
            * chip.filters_per_tile
            * chip.synapses_per_filter_lane
            * chip.storage_bits
        )
        counts = counts + ComponentCounts(ssr_bits=ssr_bits)
    return counts


def component_counts_for(
    design: str | PragmaticConfig, chip: ChipConfig = DEFAULT_CHIP
) -> ComponentCounts:
    """Inventory for a named baseline (``"dadn"``/``"stripes"``) or a PRA config."""
    if isinstance(design, PragmaticConfig):
        return pragmatic_unit_counts(design, chip)
    key = design.lower()
    if key in ("dadn", "dadiannao", "baseline"):
        return dadn_unit_counts(chip)
    if key in ("stripes", "str"):
        return stripes_unit_counts(chip)
    raise ValueError(f"unknown design {design!r}; expected 'dadn', 'stripes' or a PragmaticConfig")
