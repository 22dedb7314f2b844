"""Figure 6: thermal efficiency of the whitespace-allocation techniques.

The paper sweeps the area overhead from ~5% to ~40% on the scattered-
hotspot test set and plots the peak-temperature reduction of the Default
(uniform utilization relaxation), ERI (empty row insertion) and HW (hotspot
wrapper) schemes.  The observations to reproduce:

* both the ERI and HW curves lie above the Default curve,
* the effectiveness of every scheme increases with the area overhead.

Absolute reductions depend on the thermal calibration (see EXPERIMENTS.md);
the curve ordering and monotonicity are asserted here.
"""

from __future__ import annotations

from repro.analysis import figure6_report
from repro.flow import Campaign

#: Area-overhead sweep points (fractions of the baseline core area).
OVERHEADS = (0.08, 0.161, 0.25, 0.322)


def _efficiency(outcome) -> float:
    """Reduction per unit of actual overhead (insensitive to row snapping)."""
    return outcome.temperature_reduction / max(outcome.actual_overhead, 1e-9)


def test_fig6_reduction_versus_overhead(scattered_setup, benchmark):
    setup = scattered_setup

    campaign = Campaign(
        setup, strategies=("default", "eri", "hw"), overheads=OVERHEADS,
        name="figure6",
    )
    result = benchmark.pedantic(campaign.run, rounds=1, iterations=1)
    outcomes = result.outcomes()

    print()
    print(figure6_report(outcomes))
    print(f"baseline peak rise: {setup.thermal_map.peak_rise:.2f} K, "
          f"gradient: {setup.thermal_map.gradient:.2f} K")

    by_strategy = {
        strategy: sorted(
            (o for o in outcomes if o.strategy == strategy),
            key=lambda o: o.requested_overhead,
        )
        for strategy in ("default", "eri", "hw")
    }

    # Every point of every scheme reduces the peak temperature.
    for strategy, points in by_strategy.items():
        for outcome in points:
            assert outcome.temperature_reduction > 0.0, (strategy, outcome)

    # Effectiveness increases with the area overhead for every scheme.
    for strategy, points in by_strategy.items():
        reductions = [o.temperature_reduction for o in points]
        assert reductions == sorted(reductions), strategy

    # Both hotspot-targeted schemes lie on or above the Default curve:
    # compare reduction-per-overhead efficiency point by point, with a small
    # tolerance for row/site snapping noise.
    for i, _overhead in enumerate(OVERHEADS):
        default_eff = _efficiency(by_strategy["default"][i])
        assert _efficiency(by_strategy["eri"][i]) >= 0.97 * default_eff
        assert _efficiency(by_strategy["hw"][i]) >= 0.97 * default_eff

    # At the paper's 16.1% reference point the targeted schemes must beat
    # Default outright (the paper reports 13.1% ERI vs 11.3% Default), and
    # the curves stack as in Figure 6: ERI above HW above Default.
    index_161 = OVERHEADS.index(0.161)
    assert (
        by_strategy["eri"][index_161].temperature_reduction
        > by_strategy["default"][index_161].temperature_reduction
    )
    assert (
        by_strategy["hw"][index_161].temperature_reduction
        > by_strategy["default"][index_161].temperature_reduction
    )
    assert (
        by_strategy["eri"][index_161].temperature_reduction
        >= by_strategy["hw"][index_161].temperature_reduction
    )

    # The campaign must have shared solvers: the wrapper rides on the
    # Default outline at every overhead, so the two share one solve group
    # (one solver build, one multi-RHS solve) per overhead.
    assert result.metadata["num_solve_groups"] <= len(outcomes) - len(OVERHEADS)
    assert result.cache_misses == result.metadata["num_solve_groups"]
