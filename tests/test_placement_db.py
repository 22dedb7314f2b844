"""Tests for the row-based placement database (Row and Placement)."""

import pytest

from repro.netlist import Netlist
from repro.placement import Floorplan, Placement, Rect


@pytest.fixture()
def small_db(library):
    """A placement database with a handful of manually placed cells."""
    netlist = Netlist("db", library)
    for i in range(6):
        netlist.add_cell(f"c{i}", "NAND2_X1", unit="u0" if i < 3 else "u1")
    floorplan = Floorplan(core_width=20.0, core_height=5 * 1.8)
    placement = Placement(netlist, floorplan)
    # Row 0: c0 at 0, c1 at 5; row 1: c2 at 2; row 2: c3..c5 packed.
    placement.assign(netlist.cells["c0"], 0, 0.0)
    placement.assign(netlist.cells["c1"], 0, 5.0)
    placement.assign(netlist.cells["c2"], 1, 2.0)
    placement.assign(netlist.cells["c3"], 2, 0.0)
    placement.assign(netlist.cells["c4"], 2, 0.8)
    placement.assign(netlist.cells["c5"], 2, 1.6)
    return placement


class TestRow:
    def test_occupancy(self, small_db):
        row = small_db.row(0)
        assert row.occupied_width == pytest.approx(2 * 0.8)
        assert row.free_width == pytest.approx(20.0 - 1.6)
        assert 0.0 < row.utilization() < 1.0

    def test_gaps(self, small_db):
        gaps = small_db.row(0).gaps()
        assert gaps[0] == (pytest.approx(0.8), pytest.approx(5.0))
        assert gaps[-1][1] == pytest.approx(20.0)

    def test_no_overlaps_initially(self, small_db):
        for row in small_db.rows:
            assert row.overlaps() == []

    def test_overlap_detection(self, small_db):
        netlist = small_db.netlist
        extra = netlist.add_cell("clash", "NAND2_X1")
        small_db.assign(extra, 0, 0.1)
        assert small_db.row(0).overlaps() != []

    def test_pack_removes_gaps(self, small_db):
        row = small_db.row(0)
        row.pack()
        assert row.gaps() == [(pytest.approx(1.6), pytest.approx(20.0))]

    def test_spread_is_legal_and_ordered(self, small_db):
        row = small_db.row(2)
        row.spread()
        assert row.overlaps() == []
        xs = [c.x for c in row.cells]
        assert xs == sorted(xs)
        assert row.cells[0].x > 0.0
        assert row.cells[-1].x + row.cells[-1].width < row.x_end

    def test_insert_fails_when_full(self, library):
        netlist = Netlist("full", library)
        floorplan = Floorplan(core_width=1.6, core_height=1.8)
        placement = Placement(netlist, floorplan)
        a = netlist.add_cell("a", "NAND2_X1")
        b = netlist.add_cell("b", "NAND2_X1")
        placement.assign(a, 0, 0.0)
        placement.assign(b, 0, 0.8)
        c = netlist.add_cell("c", "NAND2_X1")
        assert placement.relocate_outside([c], Rect(0.0, 0.0, 0.0, 0.0)) == [c]
        assert c not in placement.row(0).cells and not c.is_placed


class TestPlacement:
    def test_check_legal_clean(self, small_db):
        assert small_db.check_legal() == []

    def test_check_legal_detects_unplaced(self, small_db):
        small_db.netlist.add_cell("ghost", "INV_X1")
        problems = small_db.check_legal()
        assert any("not placed" in p for p in problems)

    def test_check_legal_detects_out_of_core(self, small_db):
        stray = small_db.netlist.add_cell("stray", "INV_X1")
        small_db.assign(stray, 0, 25.0)
        problems = small_db.check_legal()
        assert any("exceeds core width" in p for p in problems)

    def test_cells_in_rect(self, small_db):
        rect = Rect(0.0, 0.0, 3.0, 1.8)
        names = {c.name for c in small_db.cells_in_rect(rect)}
        assert names == {"c0"}

    def test_utilization_matches_area_ratio(self, small_db):
        expected = small_db.netlist.total_cell_area() / small_db.floorplan.core_area
        assert small_db.utilization() == pytest.approx(expected)

    def test_rebuild_rows_from_coordinates(self, small_db):
        cell = small_db.netlist.cells["c2"]
        # Move the cell's coordinate directly, then rebuild.
        cell.y = small_db.floorplan.row_y(3)
        small_db.rebuild_rows()
        assert cell.row == 3
        assert cell in small_db.row(3).cells

    def test_remove_detaches_from_row(self, small_db):
        cell = small_db.netlist.cells["c0"]
        small_db.remove(cell)
        assert cell not in small_db.row(0).cells

    def test_copy_is_deep(self, small_db):
        clone = small_db.copy()
        assert clone.netlist is not small_db.netlist
        clone.netlist.cells["c0"].place(9.0, 0.0, 0)
        assert small_db.netlist.cells["c0"].x == pytest.approx(0.0)
        assert len(clone.rows) == len(small_db.rows)

    def test_statistics_keys(self, small_db):
        stats = small_db.statistics()
        assert stats["num_rows"] == 5
        assert stats["utilization"] > 0

    def test_evict_and_relocate(self, small_db):
        rect = Rect(0.0, 3.6, 20.0, 5.4)  # row 2
        # c3..c5 are unit u1 and live in row 2 -> evicted.
        evicted = [c for c in small_db.cells_in_rect(rect) if c.unit != "u0"]
        assert {c.name for c in evicted} == {"c3", "c4", "c5"}
        for cell in evicted:
            small_db.remove(cell)
        failed = small_db.relocate_outside(evicted, rect)
        assert failed == []
        for cell in evicted:
            cx, cy = cell.center
            assert not rect.contains(cx, cy)
        assert small_db.check_legal() == []

    def test_total_hpwl_nonnegative(self, small_db):
        assert small_db.total_hpwl() >= 0.0
