#!/usr/bin/env python3
"""Quickstart: simulate Pragmatic on AlexNet and compare it against the baselines.

This example walks the public API end to end:

1. build a calibrated activation trace for AlexNet,
2. simulate the DaDianNao, Stripes and Pragmatic accelerators on it,
3. report per-layer and network speedups, and
4. attach the area/power/energy-efficiency numbers of each design.

Run it with::

    python examples/quickstart.py [network]
"""

from __future__ import annotations

import sys

from repro.analysis.speedup import dadn_result, stripes_result
from repro.analysis.tables import format_ratio, format_table
from repro.arch.tiling import SamplingConfig
from repro.core.sweep import sweep_network
from repro.core.variants import column_variant, pallet_variant
from repro.energy.area import design_area
from repro.energy.efficiency import design_efficiency
from repro.energy.power import design_power
from repro.nn.calibration import calibrated_trace


def main(network: str = "alexnet") -> None:
    print(f"== Bit-Pragmatic quickstart on {network} ==\n")

    # 1. A calibrated synthetic activation trace (bit statistics match Table I).
    trace = calibrated_trace(network)
    print(trace.network.describe())
    print()

    # 2. Simulate the accelerators.  Sampling a handful of pallets per layer is
    #    enough for stable network-level numbers.
    sampling = SamplingConfig(max_pallets=8)
    designs = {
        "DaDN": None,
        "Stripes": None,
        "PRA-2b": pallet_variant(2),
        "PRA-2b-1R": column_variant(1),
    }
    results = {
        "DaDN": dadn_result(trace),
        "Stripes": stripes_result(trace),
    }
    # One sweep simulates every Pragmatic design, sharing the drain work.
    results.update(
        sweep_network(
            trace,
            {name: config for name, config in designs.items() if config is not None},
            sampling,
        )
    )

    # 3. Per-layer speedups of the headline design.
    print("Per-layer speedup of PRA-2b over DaDianNao:")
    print(results["PRA-2b"].summary())
    print()

    # 4. Network-level comparison including area, power and energy efficiency.
    rows = []
    for name, config in designs.items():
        design = config if config is not None else name.lower()
        result = results[name]
        area = design_area(design)
        power = design_power(design)
        efficiency = design_efficiency(design, result)
        rows.append(
            [
                name,
                format_ratio(result.speedup),
                f"{area.chip_mm2:.0f} mm2",
                f"{power.chip_w:.1f} W",
                format_ratio(efficiency.efficiency),
            ]
        )
    print(format_table(["design", "speedup", "chip area", "chip power", "energy eff."], rows))


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "alexnet")
