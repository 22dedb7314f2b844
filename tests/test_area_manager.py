"""Tests for the area-management tool (Figure 2's 'Area Management' box)."""

import math

import pytest

from repro.core import (
    ERI_HOTSPOT_THRESHOLD,
    HW_HOTSPOT_THRESHOLD,
    StrategyContext,
    StrategyResult,
    WhitespaceStrategy,
    check_area_overhead,
    detect_hotspots,
    manage_area,
    resolve_strategy,
)
from repro.thermal import simulate_placement


class _Probe(WhitespaceStrategy):
    """Leaves the placement alone and remembers the hotspots it was handed."""

    name = "probe"

    def apply(self, ctx: StrategyContext) -> StrategyResult:
        self.seen = ctx
        return StrategyResult(placement=ctx.placement, actual_overhead=0.0)


class TestConfig:
    def test_per_strategy_threshold(self):
        eri = resolve_strategy("eri").effective_hotspot_threshold()
        hw = resolve_strategy("hw").effective_hotspot_threshold()
        assert eri == ERI_HOTSPOT_THRESHOLD
        assert hw == HW_HOTSPOT_THRESHOLD
        assert hw > eri

    def test_explicit_threshold_wins(self):
        strategy = resolve_strategy("hw:hotspot_threshold=0.42")
        assert strategy.effective_hotspot_threshold() == 0.42

    def test_validation(self, small_placement, small_power, small_thermal):
        inputs = (small_placement, small_power, small_thermal)
        with pytest.raises(ValueError):
            manage_area(*inputs, "eri", -0.1)
        with pytest.raises(ValueError):
            manage_area(*inputs, "eri:hotspot_threshold=0.0", 0.1)
        with pytest.raises(ValueError):
            manage_area(*inputs, "nope", 0.1)

    @pytest.mark.parametrize("overhead", [math.nan, math.inf, -math.inf])
    def test_non_finite_overhead_rejected(
        self, small_placement, small_power, small_thermal, overhead
    ):
        with pytest.raises(ValueError, match="finite and non-negative"):
            check_area_overhead(overhead)
        probe = _Probe()
        with pytest.raises(ValueError, match="finite and non-negative"):
            manage_area(small_placement, small_power, small_thermal, probe, overhead)
        assert not hasattr(probe, "seen")  # rejected before any work


class TestAreaManager:
    @pytest.fixture(scope="class")
    def inputs(self, small_placement, small_power, small_thermal):
        return small_placement, small_power, small_thermal

    def test_detect_uses_strategy_threshold(self, inputs):
        placement, power, thermal = inputs
        handed = {}
        for threshold in (ERI_HOTSPOT_THRESHOLD, HW_HOTSPOT_THRESHOLD):
            probe = _Probe(hotspot_threshold=threshold)
            manage_area(placement, power, thermal, probe, 0.1)
            assert probe.seen.area_overhead == 0.1
            handed[threshold] = probe.seen.hotspots
            expected = detect_hotspots(
                thermal, placement, power=power, threshold_fraction=threshold
            )
            assert handed[threshold] == expected
        broad = handed[ERI_HOTSPOT_THRESHOLD]
        tight = handed[HW_HOTSPOT_THRESHOLD]
        assert sum(h.num_bins for h in broad) >= sum(h.num_bins for h in tight)

    def test_default_strategy_result(self, inputs):
        placement, power, thermal = inputs
        result = manage_area(placement, power, thermal, "default", 0.15)
        assert result.actual_overhead >= 0.15 - 1e-9
        assert result.placement is not placement

    def test_eri_strategy_result(self, inputs):
        placement, power, thermal = inputs
        result = manage_area(placement, power, thermal, "eri", 0.15)
        assert result.inserted_rows > 0
        assert result.placement.floorplan.num_rows > placement.floorplan.num_rows
        assert result.placement.check_legal() == []

    def test_hw_strategy_result(self, inputs):
        placement, power, thermal = inputs
        result = manage_area(placement, power, thermal, "hw", 0.15)
        # HW starts from the Default solution, so the core grew.
        assert result.actual_overhead >= 0.15 - 1e-9
        assert result.placement.check_legal() == []

    def test_optimized_placement_resimulates_cooler(self, inputs):
        placement, power, thermal = inputs
        result = manage_area(placement, power, thermal, "eri", 0.2)
        new_map = simulate_placement(result.placement, power, warm_start=thermal)
        assert new_map.peak_rise > 0.0
        assert new_map.peak_rise < thermal.peak_rise
