"""Tests for global placement, legalization, fillers and the top-level placer."""

import pickle

import numpy as np
import pytest

from repro.core import apply_default_spread
from repro.netlist import Netlist
from repro.placement import (
    Floorplan,
    Placement,
    PlacementView,
    QuadraticPlacer,
    Rect,
    RowOccupancy,
    cell_density_map,
    density_in_rect,
    filler_area,
    improve_rows,
    insert_fillers,
    pack_into_region,
    peak_density,
    port_positions,
    remove_fillers,
    slicing_partition,
)


class TestPortAssignment:
    def test_ports_on_core_boundary(self, small_circuit):
        floorplan = Floorplan.from_netlist(small_circuit, utilization=0.85)
        port_x, port_y = port_positions(small_circuit, floorplan)
        assert port_x.shape == port_y.shape == (len(small_circuit.ports),)
        for x, y in zip(port_x.tolist(), port_y.tolist()):
            on_x_edge = x in (pytest.approx(0.0), pytest.approx(floorplan.core_width))
            on_y_edge = y in (pytest.approx(0.0), pytest.approx(floorplan.core_height))
            assert on_x_edge or on_y_edge


class TestQuadraticPlacer:
    def test_connected_cells_attract(self, library):
        netlist = Netlist("chain", library)
        netlist.add_port("pi", "input")
        netlist.add_port("po", "output")
        prev = "pi"
        netlist.connect_port("pi", "pi")
        for i in range(5):
            inv = netlist.add_cell(f"inv{i}", "INV_X1", unit="u")
            netlist.connect(prev, inv.pin("A"))
            prev = f"n{i}"
            netlist.connect(prev, inv.pin("Y"))
        netlist.connect_port(prev, "po")

        floorplan = Floorplan(core_width=40.0, core_height=36.0)
        # Ports pi and po, in netlist port order.
        placer = QuadraticPlacer(netlist, floorplan, [0.0, 40.0], [18.0, 18.0])
        xs = placer.run()[0].tolist()  # inv0 .. inv4, in cell order
        # The chain should be ordered monotonically between the two ports.
        assert xs == sorted(xs)
        assert 0.0 <= xs[0] and xs[-1] <= 40.0

    def test_positions_within_core(self, small_circuit):
        floorplan = Floorplan.from_netlist(small_circuit, utilization=0.85)
        regions = slicing_partition(
            floorplan.core_rect,
            {u: sum(c.area for c in small_circuit.cells_in_unit(u))
             for u in small_circuit.units()},
        )
        ports = port_positions(small_circuit, floorplan)
        x, y = QuadraticPlacer(small_circuit, floorplan, *ports, regions=regions).run()
        assert x.shape == y.shape == (len(small_circuit.cells),)
        assert not np.isnan(x).any() and not np.isnan(y).any()
        assert ((0.0 <= x) & (x <= floorplan.core_width)).all()
        assert ((0.0 <= y) & (y <= floorplan.core_height)).all()


class TestLegalization:
    def test_pack_into_region_is_legal(self, library):
        netlist = Netlist("pack", library)
        cells = [netlist.add_cell(f"c{i}", "FA_X1", unit="u") for i in range(30)]
        floorplan = Floorplan(core_width=60.0, core_height=10 * 1.8)
        placement = Placement(netlist, floorplan)
        region = Rect(10.0, 1.8, 50.0, 7.2)
        pack_into_region(placement, cells, region)
        assert placement.check_legal() == []
        for cell in cells:
            cx, cy = cell.center
            assert region.contains(cx, cy)

    def test_pack_into_region_rejects_overflow(self, library):
        netlist = Netlist("overflow", library)
        cells = [netlist.add_cell(f"c{i}", "FA_X1") for i in range(100)]
        floorplan = Floorplan(core_width=20.0, core_height=3.6)
        placement = Placement(netlist, floorplan)
        with pytest.raises(ValueError, match="do not fit"):
            pack_into_region(placement, cells, Rect(0, 0, 10.0, 1.8))


def reference_insert_fillers(placement, prefix="FILLER_"):
    """The executable spec of filler insertion: one add_cell/Row.add per
    filler, greedy widest-first into every row gap."""
    fillers = placement.netlist.library.filler_cells()
    min_width = min(f.width_um for f in fillers)
    counter = 0
    for row in placement.rows:
        for gap_start, gap_end in row.gaps():
            cursor = gap_start
            remaining = gap_end - cursor
            while remaining >= min_width - 1e-9:
                master = next(
                    (f for f in fillers if f.width_um <= remaining + 1e-9), None
                )
                if master is None:
                    break
                inst = placement.netlist.add_cell(f"{prefix}{counter}", master)
                counter += 1
                row.add(inst, cursor)
                cursor += master.width_um
                remaining = gap_end - cursor
        row.sort()


def filler_layout(placement):
    """Every cell's name, master and x/y/row, plus each row's cell order."""
    cells = [(c.name, c.master.name, c.x, c.y, c.row)
             for c in placement.netlist.cells.values()]
    rows = [[c.name for c in row.cells] for row in placement.rows]
    return cells, rows


class TestFillers:
    def test_insert_fillers_fills_gaps(self, library):
        netlist = Netlist("fill", library)
        floorplan = Floorplan(core_width=10.0, core_height=3.6)
        placement = Placement(netlist, floorplan)
        a = netlist.add_cell("a", "NAND2_X1")
        placement.assign(a, 0, 2.0)
        inserted = insert_fillers(placement)
        assert inserted
        assert placement.fillers is inserted
        assert list(netlist.cells) == ["a"]  # the block adds no netlist cell
        assert placement.check_legal() == []
        # Whitespace is now fully covered (rows are full up to site rounding).
        covered = a.area + filler_area(placement)
        assert covered == pytest.approx(floorplan.core_area, rel=0.01)
        min_width = min(f.width_um for f in library.filler_cells())
        for row in placement.rows:
            assert all(hi - lo < min_width - 1e-9 for lo, hi in row.gaps())
            assert row.utilization() == pytest.approx(1.0, abs=min_width / row.width)
        assert placement.statistics()["num_placed_cells"] == 1 + len(inserted)

    def test_remove_fillers_round_trip(self, library):
        netlist = Netlist("fill2", library)
        floorplan = Floorplan(core_width=8.0, core_height=1.8)
        placement = Placement(netlist, floorplan)
        insert_fillers(placement)
        count = len(placement.fillers)
        assert count > 0
        removed = remove_fillers(placement)
        assert removed == count
        assert not placement.fillers
        assert placement.rows[0].gaps() == [(0.0, 8.0)]
        # Materialized fillers are netlist cells, and are removed as such.
        insert_fillers(placement)
        cells = placement.materialize_fillers()
        assert len(cells) == count and len(netlist.filler_cells()) == count
        assert remove_fillers(placement) == count
        assert netlist.filler_cells() == [] and placement.rows[0].cells == []

    def test_bulk_insertion_matches_cell_by_cell_reference(self, small_placement):
        """The materialized block equals the greedy add_cell/Row.add loop:
        names, dict order, row order and coordinates, bitwise."""
        bulk, loop = small_placement.copy(), small_placement.copy()
        inserted = insert_fillers(bulk)
        assert inserted and len(bulk.netlist.cells) == len(small_placement.netlist.cells)
        version = bulk.netlist._version
        cells = bulk.materialize_fillers()
        reference_insert_fillers(loop)
        assert len(cells) == len(inserted) and not bulk.fillers
        assert filler_layout(bulk) == filler_layout(loop)
        assert bulk.netlist._version == version + 1  # one structural edit

    def test_second_insertion_extends_the_block(self, library):
        netlist = Netlist("fill3", library)
        placement = Placement(netlist, Floorplan(core_width=12.0, core_height=3.6))
        a = netlist.add_cell("a", "NAND2_X1")
        placement.assign(a, 0, 2.0)
        first = insert_fillers(placement)
        placement.rows[0].remove(a)  # frees whitespace for a second pass
        second = insert_fillers(placement)
        assert first and second
        assert second.first_index == first.end
        block = placement.fillers
        assert len(block) == len(first) + len(second)
        assert block.names() == first.names() + second.names()
        assert placement.check_legal() == []

    def test_block_survives_copy_and_pickle(self, small_placement):
        from repro.flow import placement_digest

        filled = small_placement.copy()
        insert_fillers(filled)
        digest = placement_digest(filled)
        for clone in (filled.copy(), pickle.loads(pickle.dumps(filled))):
            block = clone.fillers
            assert block.names() == filled.fillers.names()
            for name in ("row", "x", "master"):
                np.testing.assert_array_equal(getattr(block, name), getattr(filled.fillers, name))
                assert not getattr(block, name).flags.writeable
            assert placement_digest(clone) == digest
            assert clone.check_legal() == []

    def test_check_legal_sees_block_fillers(self, library):
        from dataclasses import replace

        netlist = Netlist("fill4", library)
        placement = Placement(netlist, Floorplan(core_width=8.0, core_height=3.6))
        a = netlist.add_cell("a", "NAND2_X1")
        placement.assign(a, 0, 2.0)
        block = insert_fillers(placement)
        first = block.name(0)
        placement.fillers = replace(block, x=[2.0] + block.x.tolist()[1:])
        assert any(first in problem and "overlap" in problem
                   for problem in placement.check_legal())
        placement.fillers = replace(block, x=[7.9] + block.x.tolist()[1:])
        assert f"filler {first} lies outside the core" in placement.check_legal()
        placement.fillers = replace(block, row=[5] + block.row.tolist()[1:])
        assert f"filler {first} lies outside the core" in placement.check_legal()


class TestPlaceDesign:
    def test_placement_is_legal(self, small_placement):
        assert small_placement.check_legal() == []

    def test_every_logic_cell_placed(self, small_placement):
        for cell in small_placement.netlist.logic_cells():
            assert cell.is_placed

    def test_utilization_close_to_target(self, small_placement):
        assert 0.75 <= small_placement.utilization() <= 0.85 + 1e-9

    def test_regions_cover_all_units(self, small_placement):
        assert set(small_placement.regions) == set(small_placement.netlist.units())

    def test_cells_inside_their_region(self, small_placement):
        # The region-constrained legalizer must keep each unit in its region.
        for unit, region in small_placement.regions.items():
            for cell in small_placement.netlist.cells_in_unit(unit):
                cx, cy = cell.center
                assert region.expanded(1.0).contains(cx, cy), (unit, cell.name)

    def test_replace_at_lower_utilization_grows_core(self, small_placement):
        overhead = small_placement.utilization() / 0.65 - 1.0
        relaxed = apply_default_spread(small_placement, overhead, use_quadratic=False,
                                       detailed=False, add_fillers=False).placement
        assert relaxed.floorplan.core_area > small_placement.floorplan.core_area
        assert relaxed.utilization() <= 0.65 + 1e-9
        assert relaxed.to_placement().check_legal() == []

    def test_density_roughly_uniform(self, small_placement):
        density = cell_density_map(small_placement, nx=8, ny=8, over_die=False)
        # Interior bins should all hold cells (no big holes at 0.85 target).
        assert (density > 0).all()
        peak, _location = peak_density(density)
        assert peak <= 1.2

    def test_density_in_rect(self, small_placement):
        core = small_placement.floorplan.core_rect
        overall = density_in_rect(small_placement, core)
        assert overall == pytest.approx(small_placement.utilization(), rel=0.05)

    def test_detailed_improvement_does_not_break_legality(self, small_placement):
        view = PlacementView.of(small_placement)
        netlist = view.netlist
        occupancy = RowOccupancy.of_arrays(
            view.floorplan, view.x, view.y, view.row, netlist.compiled().cell_width_um
        )
        swaps = improve_rows(occupancy, netlist, view.port_x, view.port_y, max_passes=1)
        assert swaps >= 0
        improved = PlacementView(
            netlist, view.floorplan, occupancy.x, occupancy.y, occupancy.row,
            view.port_x, view.port_y,
        ).to_placement()
        assert improved.check_legal() == []
        assert improved.total_hpwl() <= small_placement.total_hpwl() + 1e-6
