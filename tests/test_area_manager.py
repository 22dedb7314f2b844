"""Tests for the area-management tool (Figure 2's 'Area Management' box)."""

import pytest

from repro.core import (
    ERI_HOTSPOT_THRESHOLD,
    HW_HOTSPOT_THRESHOLD,
    AreaManagementConfig,
    AreaManager,
)
from repro.thermal import simulate_placement


class TestConfig:
    def test_defaults(self):
        config = AreaManagementConfig()
        assert config.strategy == "eri"
        assert config.effective_hotspot_threshold == ERI_HOTSPOT_THRESHOLD

    def test_per_strategy_threshold(self):
        eri = AreaManagementConfig(strategy="eri")
        hw = AreaManagementConfig(strategy="hw")
        assert eri.effective_hotspot_threshold == ERI_HOTSPOT_THRESHOLD
        assert hw.effective_hotspot_threshold == HW_HOTSPOT_THRESHOLD
        assert hw.effective_hotspot_threshold > eri.effective_hotspot_threshold

    def test_explicit_threshold_wins(self):
        config = AreaManagementConfig(strategy="hw:hotspot_threshold=0.42")
        assert config.effective_hotspot_threshold == 0.42

    def test_validation(self):
        with pytest.raises(ValueError):
            AreaManagementConfig(area_overhead=-0.1)
        with pytest.raises(ValueError):
            AreaManagementConfig(strategy="eri:hotspot_threshold=0.0")
        with pytest.raises(ValueError):
            AreaManagementConfig(strategy="nope")


class TestAreaManager:
    @pytest.fixture(scope="class")
    def inputs(self, small_placement, small_power, small_thermal):
        return small_placement, small_power, small_thermal

    def test_detect_uses_strategy_threshold(self, inputs):
        placement, power, thermal = inputs
        broad = AreaManager(AreaManagementConfig(strategy="eri")).detect(
            placement, thermal, power
        )
        tight = AreaManager(AreaManagementConfig(strategy="hw")).detect(
            placement, thermal, power
        )
        assert sum(h.num_bins for h in broad) >= sum(h.num_bins for h in tight)

    def test_default_strategy_result(self, inputs):
        placement, power, thermal = inputs
        manager = AreaManager(
            AreaManagementConfig(strategy="default", area_overhead=0.15)
        )
        result = manager.optimize(placement, power, thermal)
        assert result.strategy == "default"
        assert result.actual_overhead >= 0.15 - 1e-9
        assert result.placement is not placement

    def test_eri_strategy_result(self, inputs):
        placement, power, thermal = inputs
        manager = AreaManager(
            AreaManagementConfig(strategy="eri", area_overhead=0.15)
        )
        result = manager.optimize(placement, power, thermal)
        assert result.strategy == "eri"
        assert result.inserted_rows > 0
        assert result.placement.floorplan.num_rows > placement.floorplan.num_rows
        assert result.placement.check_legal() == []

    def test_hw_strategy_result(self, inputs):
        placement, power, thermal = inputs
        manager = AreaManager(
            AreaManagementConfig(strategy="hw", area_overhead=0.15)
        )
        result = manager.optimize(placement, power, thermal)
        assert result.strategy == "hw"
        # HW starts from the Default solution, so the core grew.
        assert result.actual_overhead >= 0.15 - 1e-9
        assert result.placement.check_legal() == []

    def test_optimized_placement_resimulates_cooler(self, inputs):
        placement, power, thermal = inputs
        manager = AreaManager(AreaManagementConfig(strategy="eri", area_overhead=0.2))
        result = manager.optimize(placement, power, thermal)
        new_map = simulate_placement(result.placement, power, warm_start=thermal)
        assert new_map.peak_rise > 0.0
        assert new_map.peak_rise < thermal.peak_rise

    def test_pre_detected_hotspots_accepted(self, inputs):
        placement, power, thermal = inputs
        manager = AreaManager(AreaManagementConfig(strategy="eri", area_overhead=0.1))
        hotspots = manager.detect(placement, thermal, power)
        result = manager.optimize(placement, power, thermal, hotspots=hotspots)
        assert result.hotspots == hotspots
