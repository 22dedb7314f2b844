#!/usr/bin/env python3
"""Quickstart: the full post-placement temperature-reduction flow in ~30 lines.

Builds the synthetic benchmark, places it, estimates power from random
vectors, solves the RC thermal network, applies Empty Row Insertion at a
15% area overhead and reports the peak-temperature reduction.

Run with ``--full`` to use the paper-sized (~12k cell) benchmark instead of
the fast scaled-down one.  The same flow is available from the shell as
``python -m repro quickstart``; see ``examples/campaign_sweep.py`` for
running whole (strategy x overhead) grids through the campaign runner.
"""

from __future__ import annotations

import argparse

from repro.bench import (
    build_synthetic_circuit,
    scattered_hotspots_workload,
    small_synthetic_circuit,
)
from repro.core import manage_area
from repro.flow import ExperimentSetup
from repro.thermal import simulate_placement


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--full", action="store_true",
                        help="use the full ~12k-cell benchmark (slower)")
    parser.add_argument("--overhead", type=float, default=0.15,
                        help="area overhead to spend as whitespace (fraction)")
    args = parser.parse_args()

    # 1. The synthetic benchmark: nine arithmetic units, tagged per unit.
    netlist = build_synthetic_circuit() if args.full else small_synthetic_circuit()
    print(f"benchmark: {netlist.name}, {netlist.num_cells} cells, "
          f"{len(netlist.units())} units")

    # 2. Baseline flow: placement, power estimation, thermal simulation.
    workload = scattered_hotspots_workload(netlist)
    setup = ExperimentSetup.prepare(netlist, workload, base_utilization=0.85)
    print(f"baseline: core {setup.placement.floorplan.core_width:.0f} x "
          f"{setup.placement.floorplan.core_height:.0f} um at "
          f"{setup.placement.utilization():.2f} utilization")
    print(f"          total power {setup.power.total() * 1e3:.1f} mW, "
          f"peak temperature rise {setup.thermal_map.peak_rise:.2f} K, "
          f"{len(setup.hotspots)} hotspot(s) detected")

    # 3. Area management: Empty Row Insertion around the hotspots.
    result = manage_area(setup.placement, setup.power, setup.thermal_map,
                         "eri", args.overhead)
    print(f"ERI: inserted {result.inserted_rows} empty rows "
          f"({result.actual_overhead * 100:.1f}% area overhead), "
          f"{result.num_fillers} filler cells added")

    # 4. Re-simulate and report.
    new_map = simulate_placement(result.placement, setup.power, package=setup.package)
    reduction = new_map.reduction_versus(setup.thermal_map)
    print(f"peak rise {setup.thermal_map.peak_rise:.2f} K -> {new_map.peak_rise:.2f} K "
          f"({reduction * 100:.1f}% reduction)")


if __name__ == "__main__":
    main()
