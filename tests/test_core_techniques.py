"""Tests for the three whitespace-allocation techniques.

These are the paper's contribution, so the tests check the structural
invariants each transformation must respect (legality, unchanged logic cell
set, zero-power fillers, correct area accounting) and the thermally relevant
behaviour (cell density drops where it should).
"""

import hashlib

import pytest

from repro.core import (
    apply_default_spread,
    apply_empty_row_insertion,
    apply_hotspot_wrapper,
    detect_hotspots,
    plan_insertion_points,
    rows_for_overhead,
)
from repro.netlist import write_def
from repro.placement import Rect, as_placement, density_in_rect


@pytest.fixture(scope="module")
def detected(small_placement_module, small_power_module, small_thermal_module):
    return detect_hotspots(
        small_thermal_module,
        small_placement_module,
        power=small_power_module,
        threshold_fraction=0.5,
    )


@pytest.fixture(scope="module")
def detected_tight(small_placement_module, small_power_module, small_thermal_module):
    """Tight hotspots (high threshold), as the hotspot wrapper expects."""
    return detect_hotspots(
        small_thermal_module,
        small_placement_module,
        power=small_power_module,
        threshold_fraction=0.85,
    )


# Module-scoped aliases of the session fixtures so the module fixture above
# can depend on them without re-running the expensive setup.
@pytest.fixture(scope="module")
def small_placement_module(small_placement):
    return small_placement


@pytest.fixture(scope="module")
def small_power_module(small_power):
    return small_power


@pytest.fixture(scope="module")
def small_thermal_module(small_thermal):
    return small_thermal


def _logic_cell_names(placement):
    return {c.name for c in placement.netlist.logic_cells()}


class TestDefaultSpread:
    def test_area_overhead_achieved(self, small_placement):
        result = apply_default_spread(small_placement, 0.20, use_quadratic=False,
                                      detailed=False)
        assert result.actual_overhead >= 0.20 - 1e-9
        assert result.actual_overhead < 0.30
        assert result.utilization < small_placement.utilization()

    def test_baseline_untouched(self, small_placement):
        before = {c.name: (c.x, c.y) for c in small_placement.netlist.logic_cells()}
        apply_default_spread(small_placement, 0.15, use_quadratic=False, detailed=False)
        after = {c.name: (c.x, c.y) for c in small_placement.netlist.logic_cells()}
        assert before == after

    def test_logic_cells_preserved(self, small_placement):
        result = apply_default_spread(small_placement, 0.15, use_quadratic=False,
                                      detailed=False)
        assert _logic_cell_names(result.placement) == _logic_cell_names(small_placement)

    def test_placement_is_legal_with_fillers(self, small_placement):
        result = apply_default_spread(small_placement, 0.15, use_quadratic=False,
                                      detailed=False, add_fillers=True)
        assert result.num_fillers > 0
        assert as_placement(result.placement).check_legal() == []

    def test_zero_overhead_allowed(self, small_placement):
        result = apply_default_spread(small_placement, 0.0, use_quadratic=False,
                                      detailed=False, add_fillers=False)
        assert result.actual_overhead == pytest.approx(0.0, abs=0.05)

    def test_negative_overhead_rejected(self, small_placement):
        with pytest.raises(ValueError):
            apply_default_spread(small_placement, -0.1)


class TestEmptyRowInsertion:
    def test_rows_for_overhead(self, small_placement):
        rows = rows_for_overhead(small_placement, 0.161)
        expected = 0.161 * small_placement.floorplan.num_rows
        assert rows >= expected - 1e-9
        assert rows <= expected + 1.0
        with pytest.raises(ValueError):
            rows_for_overhead(small_placement, -0.2)

    @pytest.mark.parametrize("overhead", [float("nan"), float("inf"), -0.2])
    def test_overhead_entry_points_reject_non_finite(self, small_placement, overhead):
        """The library entry points below ``manage_area`` raise the overhead
        error itself, not an arithmetic failure further down."""
        with pytest.raises(ValueError, match="area_overhead must be finite"):
            rows_for_overhead(small_placement, overhead)
        with pytest.raises(ValueError, match="area_overhead must be finite"):
            apply_default_spread(small_placement, overhead)

    def test_requires_exactly_one_sizing_argument(self, small_placement, detected):
        with pytest.raises(ValueError):
            apply_empty_row_insertion(small_placement, detected)
        with pytest.raises(ValueError):
            apply_empty_row_insertion(small_placement, detected, num_rows=5,
                                      area_overhead=0.1)

    def test_core_grows_by_inserted_rows(self, small_placement, detected):
        result = apply_empty_row_insertion(small_placement, detected, num_rows=6,
                                           add_fillers=False)
        base = small_placement.floorplan
        assert result.inserted_rows == 6
        assert result.placement.floorplan.num_rows == base.num_rows + 6
        assert result.placement.floorplan.core_width == pytest.approx(base.core_width)
        assert result.actual_overhead == pytest.approx(6.0 / base.num_rows, rel=1e-6)

    def test_placement_stays_legal(self, small_placement, detected):
        result = apply_empty_row_insertion(small_placement, detected, num_rows=8)
        assert result.placement.to_placement().check_legal() == []

    def test_logic_cells_preserved_and_x_unchanged(self, small_placement, detected):
        result = apply_empty_row_insertion(small_placement, detected, num_rows=8,
                                           add_fillers=False)
        placement = result.placement.to_placement()
        assert _logic_cell_names(placement) == _logic_cell_names(small_placement)
        for cell in small_placement.netlist.logic_cells():
            moved = placement.netlist.cells[cell.name]
            assert moved.x == pytest.approx(cell.x)
            assert moved.y >= cell.y - 1e-9  # rows only ever shift upward

    def test_empty_rows_are_filler_only(self, small_placement, detected):
        result = apply_empty_row_insertion(small_placement, detected, num_rows=6)
        placement = result.placement.to_placement()
        # Rows that received no logic cells must contain only fillers: no
        # cells, whitespace covered by the block up to one filler width.
        min_width = min(f.width_um for f in placement.netlist.library.filler_cells())
        empty_rows = [row for row in placement.rows if not row.cells and row.block_fillers()]
        assert len(empty_rows) >= result.inserted_rows // 2
        for row in empty_rows:
            assert row.free_width < min_width
        # Materialized, those rows hold filler cells only.
        placement.materialize_fillers()
        filler_only = [
            row.index for row in placement.rows
            if row.cells and all(c.is_filler for c in row.cells)
        ]
        assert filler_only == [row.index for row in empty_rows]

    def test_insertion_points_target_hotspot_rows(self, small_placement, detected):
        points = plan_insertion_points(small_placement, detected, 6)
        assert len(points) == 6
        hot_rows = set()
        for hotspot in detected:
            first, last = hotspot.row_span(small_placement)
            hot_rows.update(range(first, last + 1))
        assert sum(1 for p in points if p in hot_rows) >= len(points) // 2

    def test_no_hotspots_degrades_to_uniform(self, small_placement):
        points = plan_insertion_points(small_placement, [], 5)
        assert len(points) == 5

    def test_budget_larger_than_hotspot(self, small_placement, detected):
        many = small_placement.floorplan.num_rows
        result = apply_empty_row_insertion(small_placement, detected, num_rows=many,
                                           add_fillers=False)
        assert result.inserted_rows == many
        assert result.placement.to_placement().check_legal() == []

    def test_power_density_drops_in_hotspot(self, small_placement, detected):
        hotspot = detected[0]
        result = apply_empty_row_insertion(small_placement, detected, num_rows=10,
                                           add_fillers=False)
        # The hotspot rectangle (stretched by the inserted rows) must have a
        # lower logic-cell density than before.
        before = density_in_rect(small_placement, hotspot.rect)
        grown = Rect(
            hotspot.rect.x0,
            hotspot.rect.y0,
            hotspot.rect.x1,
            hotspot.rect.y1 + 10 * small_placement.floorplan.row_height,
        )
        after = density_in_rect(result.placement.to_placement(), grown)
        assert after < before


class TestHotspotWrapper:
    def test_die_outline_unchanged(self, small_placement, detected_tight):
        result = apply_hotspot_wrapper(small_placement, detected_tight)
        assert result.placement.floorplan.core_area == pytest.approx(
            small_placement.floorplan.core_area
        )

    def test_placement_stays_legal(self, small_placement, detected_tight):
        result = apply_hotspot_wrapper(small_placement, detected_tight)
        assert as_placement(result.placement).check_legal() == []

    def test_placement_stays_legal_even_for_huge_hotspots(self, small_placement, detected):
        # At a very low detection threshold the "hotspot" covers most of the
        # die; the wrapper must refuse to wrap it rather than corrupt the
        # placement.
        result = apply_hotspot_wrapper(small_placement, detected)
        assert as_placement(result.placement).check_legal() == []

    def test_logic_cells_preserved(self, small_placement, detected_tight):
        result = apply_hotspot_wrapper(small_placement, detected_tight)
        wrapped = as_placement(result.placement)
        assert _logic_cell_names(wrapped) == _logic_cell_names(small_placement)
        assert all(cell.is_placed for cell in wrapped.netlist.logic_cells())

    def test_bystanders_evicted_from_wrapper(self, small_placement, detected_tight):
        result = apply_hotspot_wrapper(small_placement, detected_tight)
        assert result.wrapped
        for wrapped in result.wrapped:
            inside = as_placement(result.placement).cells_in_rect(wrapped.outer_rect)
            outsiders = [c for c in inside if c.unit not in wrapped.hot_units]
            # Allow the few cells the relocator reported as unmovable.
            assert len(outsiders) <= wrapped.num_unmoved

    def test_density_in_wrapper_decreases(self, small_placement, detected_tight):
        result = apply_hotspot_wrapper(small_placement, detected_tight)
        wrapped = result.wrapped[0]
        before = density_in_rect(small_placement, wrapped.outer_rect)
        after = density_in_rect(as_placement(result.placement), wrapped.outer_rect)
        assert after < before

    def test_negative_ring_rejected(self, small_placement, detected_tight):
        with pytest.raises(ValueError):
            apply_hotspot_wrapper(small_placement, detected_tight, ring_width_um=-1.0)

    def test_max_hotspots_limits_wrapping(self, small_placement, detected_tight):
        result = apply_hotspot_wrapper(small_placement, detected_tight[:1])
        assert len(result.wrapped) <= 1

    def test_baseline_untouched(self, small_placement, detected_tight):
        before = {c.name: (c.x, c.y) for c in small_placement.netlist.logic_cells()}
        apply_hotspot_wrapper(small_placement, detected_tight)
        after = {c.name: (c.x, c.y) for c in small_placement.netlist.logic_cells()}
        assert before == after


#: sha256 of the DEF text of each transform of the small design, as written
#: when fillers were inserted into the netlist cell by cell.
_DEF_SHA256 = {
    "eri": "2b924c17dbbde76a1b154d47672155926299aa48cc84f298a2579bd73f583ed0",
    "hw": "17cc9863af9c633af5657526c3c98117a6c4209adf31f0fde187ec234d5bbcf7",
}


@pytest.mark.parametrize("technique", sorted(_DEF_SHA256))
def test_materialized_fillers_export_the_same_def(
    small_placement, detected, detected_tight, technique
):
    """DEF export after materializing the filler block is byte-identical
    to exporting filler cells inserted one by one."""
    if technique == "eri":
        result = apply_empty_row_insertion(small_placement, detected, num_rows=6)
    else:
        result = apply_hotspot_wrapper(small_placement, detected_tight)
    placement = as_placement(result.placement)
    assert len(placement.materialize_fillers()) == result.num_fillers > 0
    floorplan = placement.floorplan
    text = write_def(
        placement.netlist, floorplan.die_width, floorplan.die_height,
        floorplan.num_rows, floorplan.row_height,
    )
    assert hashlib.sha256(text.encode()).hexdigest() == _DEF_SHA256[technique]
