"""Cross-cutting property-based tests on the core data structures.

These complement the per-module tests with invariants that must hold for
*any* input: legality of row packing, conservation of cell area and power
under the transformations, and geometric consistency of the thermal grid.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.bench import ripple_carry_adder
from repro.core import apply_empty_row_insertion, detect_hotspots
from repro.netlist import Netlist, default_library
from repro.placement import (
    Floorplan, Placement, filler_area, insert_fillers, place_design,
)
from repro.power import PowerModel, SwitchingActivity
from repro.thermal import ThermalGrid, ThermalSolver, default_package
from test_placer import filler_layout, reference_insert_fillers


_LIBRARY = default_library()
_GATE_NAMES = [c.name for c in _LIBRARY.logic_cells() if not c.is_sequential]


class TestRowPackingProperties:
    @given(
        widths=st.lists(st.sampled_from(_GATE_NAMES), min_size=1, max_size=25),
        row_width=st.floats(60.0, 200.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_pack_and_spread_never_overlap(self, widths, row_width):
        netlist = Netlist("prop", _LIBRARY)
        floorplan = Floorplan(core_width=row_width, core_height=1.8)
        placement = Placement(netlist, floorplan)
        cells = [netlist.add_cell(f"c{i}", master) for i, master in enumerate(widths)]
        total_width = sum(c.width for c in cells)
        if total_width > row_width:
            return  # not a legal instance of the problem
        row = placement.rows[0]
        for cell in cells:
            row.add(cell, 0.0)
        row.pack()
        assert row.overlaps() == []
        row.spread()
        assert row.overlaps() == []
        assert all(0.0 <= c.x and c.x + c.width <= row_width + 1e-6 for c in cells)

    @given(
        widths=st.lists(st.sampled_from(_GATE_NAMES), min_size=1, max_size=20),
    )
    @settings(max_examples=20, deadline=None)
    def test_filler_insertion_covers_whitespace(self, widths):
        netlist = Netlist("prop_fill", _LIBRARY)
        floorplan = Floorplan(core_width=80.0, core_height=1.8)
        placement = Placement(netlist, floorplan)
        cells = [netlist.add_cell(f"c{i}", master) for i, master in enumerate(widths)]
        if sum(c.width for c in cells) > floorplan.core_width:
            return
        row = placement.rows[0]
        for cell in cells:
            row.add(cell, 0.0)
        row.pack()
        reference = placement.copy()
        insert_fillers(placement)
        assert placement.check_legal() == []
        covered = sum(c.area for c in netlist.cells.values()) + filler_area(placement)
        # Whitespace is covered up to the narrowest filler (1 site) rounding.
        assert covered == pytest.approx(floorplan.core_area, abs=2 * 0.2 * 1.8)
        # The block materializes to exactly the cell-by-cell reference.
        placement.materialize_fillers()
        reference_insert_fillers(reference)
        assert filler_layout(placement) == filler_layout(reference)


class TestTransformationProperties:
    @given(num_rows=st.integers(1, 12))
    @settings(
        max_examples=10, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_eri_preserves_cell_area_and_power(
        self, small_placement, small_power, small_thermal, num_rows
    ):
        hotspots = detect_hotspots(small_thermal, small_placement, power=small_power,
                                   threshold_fraction=0.5)
        result = apply_empty_row_insertion(small_placement, hotspots, num_rows=num_rows,
                                           add_fillers=False)
        # Logic cell area is invariant (only whitespace is added).
        placement = result.placement.to_placement()
        assert placement.netlist.total_cell_area() == pytest.approx(
            small_placement.netlist.total_cell_area()
        )
        # Power is keyed by cell name, so the report still applies: the total
        # power of the transformed design is identical.
        total = sum(
            small_power.power_of(c.name)
            for c in placement.netlist.logic_cells()
        )
        assert total == pytest.approx(small_power.total(), rel=1e-9)
        # Overhead accounting matches the row count exactly.
        assert result.actual_overhead == pytest.approx(
            num_rows / small_placement.floorplan.num_rows, rel=1e-9
        )

    @given(utilization=st.floats(0.55, 0.9))
    @settings(max_examples=6, deadline=None)
    def test_placement_legal_at_any_utilization(self, utilization):
        netlist = ripple_carry_adder(12)
        placement = place_design(netlist, utilization=utilization, use_quadratic=False,
                                 detailed=False)
        assert placement.check_legal() == []
        assert placement.utilization() <= utilization + 1e-9


class TestThermalProperties:
    @given(
        nx=st.integers(4, 16),
        ny=st.integers(4, 16),
        scale=st.floats(0.1, 10.0),
    )
    @settings(max_examples=10, deadline=None)
    def test_solution_scales_linearly_with_power(self, nx, ny, scale):
        grid = ThermalGrid(100.0, 100.0, nx=nx, ny=ny, package=default_package())
        solver = ThermalSolver(grid)
        rng = np.random.default_rng(nx * 100 + ny)
        power = rng.random((ny, nx)) * 1e-5
        base = solver.solve(power)
        scaled = solver.solve(power * scale)
        assert np.allclose(scaled.rise_map(), base.rise_map() * scale, rtol=1e-9, atol=1e-12)

    @given(extra=st.floats(1e-6, 1e-3))
    @settings(max_examples=10, deadline=None)
    def test_monotonicity_adding_power_never_cools(self, extra):
        grid = ThermalGrid(80.0, 80.0, nx=8, ny=8, package=default_package())
        solver = ThermalSolver(grid)
        power = np.full((8, 8), 1e-5)
        base = solver.solve(power)
        power_more = power.copy()
        power_more[3, 4] += extra
        more = solver.solve(power_more)
        assert (more.rise_map() >= base.rise_map() - 1e-12).all()


class TestPowerModelProperties:
    @given(rate=st.floats(0.0, 1.0))
    @settings(
        max_examples=15, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_power_monotone_in_activity(self, tiny_netlist, rate):
        model = PowerModel()
        low = model.estimate(tiny_netlist, SwitchingActivity.uniform(tiny_netlist, rate))
        high = model.estimate(
            tiny_netlist, SwitchingActivity.uniform(tiny_netlist, min(rate + 0.1, 1.0))
        )
        assert high.total() >= low.total() - 1e-15
