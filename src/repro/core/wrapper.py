"""Hotspot Wrapper (HW).

Section III-B of the paper: filler cells are inserted "one by one (i.e.,
not an entire row), that serve as a whitespace around a hotspot, which we
call a hotspot wrapper. ... we isolate the hotspot from the rest of the
circuit using a wrapper, namely, the cells which are the source of the
hotspot are enclosed in a whitespace ring.  Once the hotspot is isolated,
we reduce the cell density inside the wrapper by moving cells not belonging
to the hotspot outside the wrapper and uniformly distribute the remaining
cells in the wrapper area."

Implementation, on a :class:`~repro.placement.PlacementView`'s coordinate
arrays (:class:`~repro.placement.legalize.RowOccupancy`), per hotspot:

1. the hotspot rectangle is expanded by the wrapper (ring) width;
2. every cell whose centre lies inside the expanded rectangle and that
   does not belong to the hotspot's source units is evicted and re-inserted
   into the nearest free space outside (the "exclusive move bounds" of
   commercial tools);
3. the hotspot's own cells are re-distributed uniformly over the rows of
   the *inner* rectangle, leaving the surrounding ring as pure whitespace;
4. the whitespace (ring and in-between gaps) is filled with filler cells.

As in the paper, the wrapper does not change the die outline: the area
overhead comes from the utilization relaxation of the placement it starts
from (the "Default" solution), and the wrapper concentrates that existing
whitespace around the hotspots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Union

import numpy as np

from ..netlist.compiled import cell_centers
from ..placement import Placement, PlacementView
from ..placement.filler import filler_block
from ..placement.floorplan import Rect
from ..placement.legalize import RowOccupancy
from ..placement.placement import NO_FILLERS
from .hotspot import Hotspot

# Unused here since the wrapper packs and fills coordinate lists
# (RowOccupancy.pack, filler_block), but kept as module
# attributes: perfbench/spans.py wraps these names at this lookup site.
from ..placement import insert_fillers  # noqa: F401
from ..placement.legalize import pack_into_region  # noqa: F401


@dataclass
class WrappedHotspot:
    """Book-keeping for one wrapped hotspot.

    Attributes:
        hotspot_index: Index of the source :class:`Hotspot`.
        inner_rect: Rectangle the hot cells were redistributed into.
        outer_rect: Expanded rectangle (inner plus the whitespace ring).
        hot_units: Units treated as the hotspot's source.
        num_hot_cells: Hot cells redistributed inside the wrapper.
        num_evicted: Bystander cells moved out of the wrapper.
        num_unmoved: Bystander cells that could not be relocated (left in
            place; reported so the caller can fall back to a larger ring).
    """

    hotspot_index: int
    inner_rect: Rect
    outer_rect: Rect
    hot_units: List[str] = field(default_factory=list)
    num_hot_cells: int = 0
    num_evicted: int = 0
    num_unmoved: int = 0


@dataclass
class HotspotWrapperResult:
    """Outcome of the hotspot-wrapper transformation.

    Attributes:
        placement: The transformed placement, a view over the input's
            netlist (``as_placement(result.placement)`` gives cell
            objects).
        wrapped: Per-hotspot book-keeping.
        num_fillers: Filler cells inserted after the transformation.
    """

    placement: PlacementView
    wrapped: List[WrappedHotspot] = field(default_factory=list)
    num_fillers: int = 0


def apply_hotspot_wrapper(
    placement: Union[Placement, PlacementView],
    hotspots: Sequence[Hotspot],
    ring_width_um: float = 6.0,
    max_source_units: int = 2,
) -> HotspotWrapperResult:
    """Wrap each hotspot in whitespace and thin out its cell density.

    Hotspots are wrapped in order, each on the cells as the previous ones
    left them.  The input's filler block is dropped and the whitespace
    refilled at the end; filler cells of the netlist itself
    (:meth:`~repro.placement.Placement.materialize_fillers`) stay where
    they are.

    Args:
        placement: Placement or view to transform (typically a "Default"
            placement at relaxed utilization); left untouched.  A
            :class:`~repro.placement.Placement` is frozen into a view first.
        hotspots: Detected hotspots, hottest first.
        ring_width_um: Width of the whitespace ring around each hotspot.
        max_source_units: Maximum number of units treated as the hotspot's
            source: the hottest prefix of its detection-time
            ``dominant_units`` ranking (cells of other units are evicted).

    Returns:
        A :class:`HotspotWrapperResult` whose placement is a new view over
        the same netlist, filled with fillers.

    Raises:
        ValueError: If ``ring_width_um`` is negative.
    """
    if ring_width_um < 0.0:
        raise ValueError(f"ring_width_um must be non-negative, got {ring_width_um}")

    view = PlacementView.of(placement)
    comp = view.netlist.compiled()
    widths = comp.cell_width_um
    occupancy = RowOccupancy.of_arrays(view.floorplan, view.x, view.y, view.row, widths)
    logic = ~comp.is_filler
    wrapped: List[WrappedHotspot] = []
    core = view.floorplan.core_rect

    for hotspot in hotspots:
        inner = hotspot.rect.clipped(core)
        if inner.area <= 0.0:
            continue
        outer = inner.expanded(ring_width_um).clipped(core)
        # The wrapper is meant for small, concentrated hotspots; wrapping a
        # region that covers most of the core cannot create meaningful
        # whitespace around it (there is no "outside" left to push cells
        # to), so such hotspots are skipped.
        if outer.area > 0.5 * core.area:
            continue
        hot_units = hotspot.dominant_units[:max_source_units]

        # 1. Detach everything whose centre is inside the wrapper: the
        #    hotspot's own ("hot") cells and the bystanders.
        cx, cy, _ = cell_centers(np.array(occupancy.x), np.array(occupancy.y), widths)
        inside = (
            logic & (cx >= outer.x0) & (cx < outer.x1) & (cy >= outer.y0) & (cy < outer.y1)
        )
        hot_codes = [code for code, unit in enumerate(comp.unit_names) if unit in hot_units]
        hot = inside & np.isin(comp.unit_codes, hot_codes)
        hot_cells = np.flatnonzero(hot).tolist()
        bystanders = np.flatnonzero(inside & ~hot).tolist()
        occupancy.remove(bystanders)

        # 2. Spread the hot cells uniformly over the *inner* rectangle,
        #    leaving the surrounding ring as whitespace.
        if hot_cells:
            targets = list(zip(cx[hot_cells].tolist(), cy[hot_cells].tolist()))
            try:
                occupancy.pack(hot_cells, inner, targets)
            except ValueError:
                # The inner rectangle cannot hold them (extremely dense
                # hotspot): fall back to the full wrapper rectangle.
                occupancy.pack(hot_cells, outer, targets)

        # 3. Re-insert the bystanders into the nearest free space outside
        #    the wrapper.  Whitespace is fragmented (every row is spread
        #    evenly), so cells that do not fit into any single gap are
        #    force-inserted by consolidating the whitespace of the closest
        #    row with enough total slack — the placement always stays legal.
        unmoved = occupancy.relocate_outside(bystanders, outer)
        leftover = occupancy.relocate_outside(unmoved, Rect(0.0, 0.0, 0.0, 0.0))
        occupancy.force_insert(leftover, avoid_rect=outer)

        wrapped.append(
            WrappedHotspot(
                hotspot_index=hotspot.index,
                inner_rect=inner,
                outer_rect=outer,
                hot_units=list(hot_units),
                num_hot_cells=len(hot_cells),
                num_evicted=len(bystanders) - len(unmoved),
                num_unmoved=len(unmoved),
            )
        )

    fillers = filler_block(view.netlist, occupancy.gap_arrays(), NO_FILLERS)
    result = PlacementView(
        view.netlist, view.floorplan, occupancy.x, occupancy.y, occupancy.row,
        view.port_x, view.port_y, regions=view.regions, fillers=fillers,
    )
    return HotspotWrapperResult(placement=result, wrapped=wrapped, num_fillers=len(fillers))
