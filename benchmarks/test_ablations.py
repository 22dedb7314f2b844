"""Ablation studies for the design choices called out in DESIGN.md.

These go beyond the paper's own evaluation: they quantify how sensitive the
techniques are to the hotspot-detection threshold, the thermal-grid
resolution, the package's heat-removal capability and the wrapper ring
width.  They run on the scaled-down benchmark so the whole ablation suite
stays fast.
"""

from __future__ import annotations

import pytest

from repro.bench import scattered_hotspots_workload, small_synthetic_circuit
from repro.core import apply_hotspot_wrapper, detect_hotspots, manage_area
from repro.flow import ExperimentSetup, evaluate_strategy
from repro.placement import place_design
from repro.thermal import (
    default_package,
    high_performance_package,
    low_cost_package,
    simulate_placement,
)


@pytest.fixture(scope="module")
def small_setup():
    circuit = small_synthetic_circuit()
    placement = place_design(circuit, utilization=0.85)
    workload = scattered_hotspots_workload(circuit, regions=placement.regions)
    return ExperimentSetup.prepare(circuit, workload, num_cycles=12, batch_size=8, seed=3)


def test_ablation_hotspot_threshold(small_setup, benchmark):
    """ERI sensitivity to the hotspot-detection threshold."""
    setup = small_setup
    thresholds = (0.3, 0.5, 0.7, 0.9)

    def run():
        return {
            threshold: evaluate_strategy(
                setup, f"eri:hotspot_threshold={threshold}", 0.2, analyze_timing=False
            )
            for threshold in thresholds
        }

    outcomes = benchmark.pedantic(run, rounds=1, iterations=1)
    results = {t: outcome.temperature_reduction for t, outcome in outcomes.items()}
    print("\nERI reduction vs hotspot threshold (20% overhead):")
    for threshold, reduction in results.items():
        print(f"  threshold {threshold:.1f}: {reduction * 100:5.2f}%")
    # Each record names the threshold that shaped it.
    assert len({outcome.strategy for outcome in outcomes.values()}) == len(thresholds)
    assert all(r > 0.0 for r in results.values())
    # The default (0.5) must be at least as good as the tightest setting,
    # which starves the insertion plan of rows to work with.
    assert results[0.5] >= results[0.9] - 0.01


def test_ablation_grid_resolution(small_setup, benchmark):
    """Thermal-grid resolution: accuracy of the peak versus runtime."""
    setup = small_setup
    resolutions = (20, 40, 60)

    def run():
        peaks = {}
        for resolution in resolutions:
            thermal = simulate_placement(
                setup.placement, setup.power, package=setup.package,
                nx=resolution, ny=resolution,
            )
            peaks[resolution] = thermal.peak_rise
        return peaks

    peaks = benchmark.pedantic(run, rounds=1, iterations=1)
    print("\npeak rise vs grid resolution:")
    for resolution, peak in peaks.items():
        print(f"  {resolution}x{resolution}: {peak:.2f} K")
    # The 40x40 grid the paper uses must agree with the finer grid within a
    # few percent; the coarse grid underestimates local peaks.
    assert peaks[40] == pytest.approx(peaks[60], rel=0.10)
    assert peaks[20] <= peaks[60] + 0.5


def test_ablation_package_cooling(small_setup, benchmark):
    """Heat-removal capability changes the absolute temperatures, not the win."""
    setup = small_setup
    packages = {
        "low_cost": low_cost_package(),
        "default": default_package(),
        "high_performance": high_performance_package(),
    }

    def run():
        out = {}
        for name, package in packages.items():
            baseline = simulate_placement(setup.placement, setup.power, package=package)
            result = manage_area(setup.placement, setup.power, baseline, "eri", 0.2)
            improved = simulate_placement(result.placement, setup.power, package=package)
            out[name] = (baseline.peak_rise, improved.reduction_versus(baseline))
        return out

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print("\nERI at 20% overhead under different packages:")
    for name, (rise, reduction) in results.items():
        print(f"  {name:17s} baseline rise {rise:6.2f} K   reduction {reduction * 100:5.2f}%")
    # Better cooling -> lower absolute temperatures.
    assert results["high_performance"][0] < results["default"][0] < results["low_cost"][0]
    # The technique keeps reducing the peak under every package.
    assert all(reduction > 0.0 for _rise, reduction in results.values())


def test_ablation_wrapper_ring_width(small_setup, benchmark):
    """Hotspot-wrapper ring width: wider rings isolate more but displace more."""
    setup = small_setup
    # Ring widths are kept modest: on the scaled-down benchmark a very wide
    # ring would cover more than half the core and the wrapper (correctly)
    # refuses to act on it.
    ring_widths = (1.0, 3.0, 6.0)

    def run():
        hotspots = detect_hotspots(
            setup.thermal_map, setup.placement, power=setup.power, threshold_fraction=0.85
        )
        out = {}
        for ring in ring_widths:
            result = apply_hotspot_wrapper(setup.placement, hotspots, ring_width_um=ring)
            thermal = simulate_placement(result.placement, setup.power, package=setup.package)
            displaced = sum(w.num_evicted + w.num_unmoved for w in result.wrapped)
            out[ring] = (thermal.reduction_versus(setup.thermal_map), displaced)
        return out

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print("\nhotspot wrapper vs ring width (no utilization relaxation):")
    for ring, (reduction, displaced) in results.items():
        print(f"  ring {ring:4.1f} um: reduction {reduction * 100:5.2f}%, "
              f"{displaced} bystander cells displaced")
    # A wider ring covers a superset of the narrower ring's area, so it
    # displaces at least as many bystander cells.
    assert results[ring_widths[-1]][1] >= results[ring_widths[0]][1]
    # Moving cells around without any utilization relaxation must not make
    # the peak temperature meaningfully worse.
    assert all(reduction > -0.05 for reduction, _displaced in results.values())
