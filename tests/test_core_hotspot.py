"""Tests for hotspot detection."""

import numpy as np
import pytest

from repro.core import detect_hotspots, hotspot_summary
from repro.thermal import ThermalMap


def _synthetic_map(placement, bumps, base_rise=8.0, ambient=25.0):
    """Build a ThermalMap with Gaussian bumps at given grid locations."""
    ny = nx = 40
    rise = np.full((ny, nx), base_rise)
    ys, xs = np.mgrid[0:ny, 0:nx]
    for (cy, cx, amplitude, sigma) in bumps:
        rise += amplitude * np.exp(-(((ys - cy) ** 2 + (xs - cx) ** 2) / (2 * sigma ** 2)))
    return ThermalMap(temperatures=rise + ambient, ambient=ambient)


class TestDetection:
    def test_single_bump_detected(self, small_placement):
        thermal_map = _synthetic_map(small_placement, [(10, 30, 4.0, 3.0)])
        hotspots = detect_hotspots(thermal_map, small_placement, threshold_fraction=0.5)
        assert len(hotspots) == 1
        assert hotspots[0].peak_bin == (10, 30)
        assert hotspots[0].num_bins >= 4

    def test_two_bumps_detected_separately(self, small_placement):
        thermal_map = _synthetic_map(
            small_placement, [(8, 8, 4.0, 2.0), (30, 32, 3.5, 2.0)]
        )
        hotspots = detect_hotspots(thermal_map, small_placement, threshold_fraction=0.5)
        assert len(hotspots) == 2
        # Sorted hottest first.
        assert hotspots[0].peak_celsius >= hotspots[1].peak_celsius

    def test_threshold_controls_extent(self, small_placement):
        thermal_map = _synthetic_map(small_placement, [(20, 20, 5.0, 4.0)])
        broad = detect_hotspots(thermal_map, small_placement, threshold_fraction=0.4)
        tight = detect_hotspots(thermal_map, small_placement, threshold_fraction=0.9)
        assert broad[0].num_bins > tight[0].num_bins

    def test_engines_agree_exactly(self, small_placement, small_power):
        """Compiled bincount attribution == reference dict accumulation.

        Same hotspots, same cell counts, bitwise-equal unit powers and
        total power (both add cells in order), and — critically — identical
        dominant_units ordering, including the first-seen tie-break the
        dict accumulation implies.
        """
        thermal_map = _synthetic_map(
            small_placement, [(8, 8, 4.0, 2.5), (30, 32, 3.5, 2.5)]
        )
        for power in (small_power, None):
            compiled = detect_hotspots(
                thermal_map, small_placement, power=power,
                threshold_fraction=0.5, engine="compiled",
            )
            reference = detect_hotspots(
                thermal_map, small_placement, power=power,
                threshold_fraction=0.5, engine="reference",
            )
            assert len(compiled) == len(reference) > 0
            for fast, slow in zip(compiled, reference):
                assert fast.bins == slow.bins
                assert fast.rect == slow.rect
                assert fast.num_cells == slow.num_cells
                assert fast.dominant_units == slow.dominant_units
                assert fast.power_w == slow.power_w

    def test_max_hotspots_limits_count(self, small_placement):
        thermal_map = _synthetic_map(
            small_placement,
            [(6, 6, 4.0, 1.5), (6, 34, 3.9, 1.5), (34, 6, 3.8, 1.5), (34, 34, 3.7, 1.5)],
        )
        hotspots = detect_hotspots(
            thermal_map, small_placement, threshold_fraction=0.5, max_hotspots=2
        )
        assert len(hotspots) == 2

    def test_flat_map_has_no_hotspots(self, small_placement):
        thermal_map = _synthetic_map(small_placement, [])
        assert detect_hotspots(thermal_map, small_placement) == []

    def test_invalid_threshold_rejected(self, small_placement, small_thermal):
        with pytest.raises(ValueError):
            detect_hotspots(small_thermal, small_placement, threshold_fraction=0.0)
        with pytest.raises(ValueError):
            detect_hotspots(small_thermal, small_placement, threshold_fraction=1.5)

    def test_rect_clipped_to_core(self, small_placement):
        thermal_map = _synthetic_map(small_placement, [(0, 0, 5.0, 3.0)])
        hotspots = detect_hotspots(thermal_map, small_placement, threshold_fraction=0.5)
        core = small_placement.floorplan.core_rect
        rect = hotspots[0].rect
        assert rect.x0 >= core.x0 - 1e-9
        assert rect.y0 >= core.y0 - 1e-9

    def test_indices_are_consecutive(self, small_placement):
        thermal_map = _synthetic_map(
            small_placement, [(8, 8, 4.0, 2.0), (30, 32, 3.5, 2.0)]
        )
        hotspots = detect_hotspots(thermal_map, small_placement, threshold_fraction=0.5)
        assert [h.index for h in hotspots] == list(range(len(hotspots)))


class TestHotspotAttributes:
    def test_dominant_units_from_power(self, small_placement, small_power, small_thermal):
        hotspots = detect_hotspots(
            small_thermal, small_placement, power=small_power, threshold_fraction=0.5
        )
        assert hotspots, "the benchmark workload must produce at least one hotspot"
        top = hotspots[0]
        assert top.dominant_units
        assert top.power_w > 0.0
        assert top.num_cells > 0

    def test_dominant_units_are_the_active_ones(
        self, small_placement, small_power, small_thermal, small_workload
    ):
        hotspots = detect_hotspots(
            small_thermal, small_placement, power=small_power, threshold_fraction=0.6
        )
        leading_units = {h.dominant_units[0] for h in hotspots if h.dominant_units}
        assert leading_units & set(small_workload.active_units)

    def test_row_span_within_core(self, small_placement, small_thermal, small_power):
        hotspots = detect_hotspots(
            small_thermal, small_placement, power=small_power, threshold_fraction=0.5
        )
        first, last = hotspots[0].row_span(small_placement)
        assert 0 <= first <= last < small_placement.floorplan.num_rows

    def test_peak_xy_inside_die(self, small_placement, small_thermal):
        hotspots = detect_hotspots(small_thermal, small_placement, threshold_fraction=0.5)
        x, y = hotspots[0].peak_xy_um
        floorplan = small_placement.floorplan
        assert -floorplan.die_margin <= x <= floorplan.core_width + floorplan.die_margin
        assert -floorplan.die_margin <= y <= floorplan.core_height + floorplan.die_margin

    def test_summary_rows(self, small_placement, small_thermal):
        hotspots = detect_hotspots(small_thermal, small_placement, threshold_fraction=0.5)
        rows = hotspot_summary(hotspots)
        assert len(rows) == len(hotspots)
        assert rows[0]["peak_celsius"] == pytest.approx(hotspots[0].peak_celsius)
