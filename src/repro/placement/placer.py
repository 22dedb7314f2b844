"""Top-level placement flow.

:func:`place_view` reproduces the role of the commercial floorplanning and
placement step in the paper's flow (Figure 2, "Logic and Physical
Synthesis"): it sizes a fixed-outline core for a requested utilization
factor, spreads the ports around the core boundary, partitions the core
into one region per arithmetic unit (areas proportional to unit cell area,
so the base cell density is uniform), runs quadratic global placement to
get connectivity-driven target positions, legalises each unit's cells into
its region's rows and improves the rows with adjacent swaps.

It reads only structure from the netlist and returns a
:class:`~repro.placement.view.PlacementView` over it, so the "Default"
relaxation re-places a baseline's own netlist with no copy.
:func:`place_design` moves the netlist's cells and ports to the result.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ..netlist import Netlist
from .detailed import improve_rows
from .floorplan import Floorplan, slicing_partition
from .global_place import QuadraticPlacer, port_positions
from .legalize import RowOccupancy, snap_to_rows
from .placement import Placement, coordinate_arrays
from .view import PlacementView


def place_view(
    netlist: Netlist,
    utilization: float = 0.8,
    aspect_ratio: float = 1.0,
    die_margin: float = 15.0,
    use_quadratic: bool = True,
    detailed: bool = True,
    anchor_weight: float = 0.25,
    start: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None,
) -> PlacementView:
    """Floorplan and place a netlist at the requested utilization factor.

    Args:
        netlist: The design to place (structure only: nothing is read
            from or written to its cells' and ports' coordinates).  Cells
            are grouped into per-unit regions by their ``unit`` label.
        utilization: Target utilization factor (cell area / core area).
            Lowering it is exactly the paper's "Default" whitespace scheme.
        aspect_ratio: Core height / width ratio.
        die_margin: Pad-ring margin around the core, in micrometres.
        use_quadratic: Run the quadratic global placer to obtain
            connectivity-driven target positions; when ``False`` each cell
            aims at its start centre (the region centre when unplaced).
        detailed: Run the adjacent-swap detailed-placement pass.
        anchor_weight: Region anchor weight for the quadratic placer.
        start: ``(x, y, row)`` of every cell (``NaN``/``-1`` where unset):
            the quadratic solve warm-starts from them, and cells left
            unplaced (fillers) keep them.  ``None``: all unset.

    Returns:
        A legal :class:`PlacementView` over ``netlist`` with ``regions``
        populated and no fillers.

    Raises:
        ValueError: If the utilization is out of range or a unit's cells do
            not fit in their region.
    """
    floorplan = Floorplan.from_netlist(
        netlist,
        utilization=utilization,
        aspect_ratio=aspect_ratio,
        die_margin=die_margin,
    )
    port_x, port_y = port_positions(netlist, floorplan)
    compiled = netlist.compiled()
    unset = np.full(compiled.num_cells, np.nan)
    x0, y0, row0 = start if start is not None else (unset, unset, np.full(unset.shape, -1))

    # Partition the core into per-unit regions with areas proportional to
    # each unit's cell area, so the initial cell density is uniform.
    unit_areas: Dict[str, float] = {}
    for cell in netlist.logic_cells():
        unit_areas[cell.unit] = unit_areas.get(cell.unit, 0.0) + cell.area
    regions = slicing_partition(floorplan.core_rect, unit_areas)

    goals = None
    if use_quadratic:
        placer = QuadraticPlacer(
            netlist, floorplan, port_x, port_y, regions=regions,
            anchor_weight=anchor_weight, start=(x0, y0),
        )
        goals = tuple(axis.tolist() for axis in placer.run())

    occupancy = RowOccupancy(
        floorplan, x0.tolist(), y0.tolist(), row0.tolist(),
        compiled.cell_width_um.tolist(), [[] for _ in range(floorplan.num_rows)],
    )
    logic = ~compiled.is_filler
    for unit, region in regions.items():
        code = compiled.unit_names.index(unit)
        cells = np.flatnonzero(logic & (compiled.unit_codes == code)).tolist()
        occupancy.pack(cells, region, occupancy.targets(cells, region, goals))

    if detailed:
        improve_rows(occupancy, netlist, port_x, port_y)

    x = np.array(occupancy.x, dtype=np.float64)
    y, row = snap_to_rows(
        floorplan, x, np.array(occupancy.y, dtype=np.float64),
        np.array(occupancy.row, dtype=np.int64),
    )
    return PlacementView(netlist, floorplan, x, y, row, port_x, port_y, regions=regions)


def place_design(
    netlist: Netlist,
    utilization: float = 0.8,
    aspect_ratio: float = 1.0,
    die_margin: float = 15.0,
    use_quadratic: bool = True,
    detailed: bool = True,
    anchor_weight: float = 0.25,
) -> Placement:
    """:func:`place_view` from the cells' own coordinates, written onto
    ``netlist``'s cells and ports: a legal :class:`Placement` over it
    (raises as :func:`place_view`, moving nothing)."""
    x, y, row, _, _ = coordinate_arrays(netlist)
    view = place_view(
        netlist, utilization=utilization, aspect_ratio=aspect_ratio,
        die_margin=die_margin, use_quadratic=use_quadratic, detailed=detailed,
        anchor_weight=anchor_weight, start=(x, y, row),
    )
    return view.write_to(netlist)
