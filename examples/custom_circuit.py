#!/usr/bin/env python3
"""Bring your own design: a custom unit mix through the whole tool chain.

Shows the lower-level APIs that the one-call experiment flow wraps:

1. assemble a custom benchmark from the arithmetic-unit generators,
2. place it, estimate per-cell power under a custom workload,
3. export the placed design (structural Verilog + DEF) and the thermal
   RC network as a SPICE deck,
4. wrap the hottest spot with the hotspot-wrapper transformation and
   report the before/after metrics, including timing.
"""

from __future__ import annotations

import argparse
from pathlib import Path

from repro.analysis import compare
from repro.bench import UnitSpec, build_synthetic_circuit, custom_workload
from repro.core import apply_hotspot_wrapper, detect_hotspots
from repro.netlist import write_def, write_verilog
from repro.placement import as_placement, place_design
from repro.power import PowerModel, build_power_map, estimate_activity
from repro.thermal import (
    ThermalNetwork,
    default_package,
    grid_for_placement,
    simulate_placement,
    write_spice_netlist,
)
from repro.timing import analyze_timing


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output-dir", type=Path, default=Path("custom_circuit_out"),
                        help="where to write the exported Verilog/DEF/SPICE files")
    args = parser.parse_args()
    args.output_dir.mkdir(parents=True, exist_ok=True)

    # 1. A custom design: two multipliers, a MAC and two adders.
    units = (
        UnitSpec("dsp_mul16", "wallace_mult", 16),
        UnitSpec("dsp_mul12", "array_mult", 12),
        UnitSpec("dsp_mac12", "mac", 12),
        UnitSpec("ctl_cla32", "cla", 32),
        UnitSpec("ctl_csa16", "csa", 16, operands=4),
    )
    netlist = build_synthetic_circuit(units=units, name="custom_dsp")
    print(f"custom design: {netlist.num_cells} cells in {len(netlist.units())} units")

    # 2. Placement and power under a workload where one small multiplier is
    #    busy while everything else idles -- a small, concentrated hotspot,
    #    which is exactly the case the hotspot wrapper is designed for.
    placement = place_design(netlist, utilization=0.8)
    workload = custom_workload("dsp_busy", ["dsp_mul12"])
    activity = estimate_activity(netlist, workload.port_toggle_probabilities(netlist))
    power = PowerModel().estimate(netlist, activity)
    thermal = simulate_placement(placement, power)
    print(f"placed at {placement.utilization():.2f} utilization, "
          f"total power {power.total() * 1e3:.2f} mW, "
          f"peak rise {thermal.peak_rise:.2f} K")

    # 3. Export the artefacts a downstream flow would consume.
    (args.output_dir / "custom_dsp.v").write_text(write_verilog(netlist))
    (args.output_dir / "custom_dsp.def").write_text(
        write_def(netlist, placement.floorplan.die_width, placement.floorplan.die_height,
                  placement.floorplan.num_rows, placement.floorplan.row_height)
    )
    grid = grid_for_placement(placement, package=default_package())
    network = ThermalNetwork(grid)
    power_map = build_power_map(placement, power)
    (args.output_dir / "thermal_network.sp").write_text(
        write_spice_netlist(network, power_map.power_w)
    )
    print(f"wrote Verilog, DEF and SPICE deck to {args.output_dir}/")

    # 4. Wrap the hottest spot and compare before/after.
    hotspots = detect_hotspots(thermal, placement, power=power, threshold_fraction=0.75)
    print(f"detected {len(hotspots)} hotspot(s); "
          f"hottest caused by {hotspots[0].dominant_units[:2]}")
    wrapped = apply_hotspot_wrapper(placement, hotspots)
    # The result is a view over the baseline's netlist, whose cells keep
    # the baseline's coordinates; its object form carries the wrapped ones.
    wrapped_placement = as_placement(wrapped.placement)
    new_thermal = simulate_placement(wrapped_placement, power)

    baseline_timing = analyze_timing(netlist, temperature=thermal.peak)
    new_timing = analyze_timing(wrapped_placement.netlist, temperature=new_thermal.peak)
    metrics = compare(placement, thermal, wrapped_placement, new_thermal,
                      baseline_timing, new_timing)
    print(f"hotspot wrapper: {metrics.temperature_reduction * 100:.2f}% peak-rise "
          f"reduction, {metrics.timing_overhead * 100:+.2f}% timing overhead, "
          f"{wrapped.num_fillers} fillers inserted")


if __name__ == "__main__":
    main()
