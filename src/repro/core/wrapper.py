"""Hotspot Wrapper (HW).

Section III-B of the paper: filler cells are inserted "one by one (i.e.,
not an entire row), that serve as a whitespace around a hotspot, which we
call a hotspot wrapper. ... we isolate the hotspot from the rest of the
circuit using a wrapper, namely, the cells which are the source of the
hotspot are enclosed in a whitespace ring.  Once the hotspot is isolated,
we reduce the cell density inside the wrapper by moving cells not belonging
to the hotspot outside the wrapper and uniformly distribute the remaining
cells in the wrapper area."

Implementation, per hotspot:

1. the hotspot rectangle is expanded by the wrapper (ring) width;
2. every cell inside the expanded rectangle that does not belong to the
   hotspot's source units is evicted and re-inserted into the nearest free
   space outside (the "exclusive move bounds" of commercial tools);
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

from ..placement import Placement, PlacementView, insert_fillers, remove_fillers
from ..placement.floorplan import Rect
from ..placement.legalize import pack_into_region
from .hotspot import Hotspot


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
        placement: The transformed placement: a copy of the input for
            :func:`apply_hotspot_wrapper`, the input placement itself for
            :func:`apply_hotspot_wrapper_in_place`.
        wrapped: Per-hotspot book-keeping.
        num_fillers: Filler cells inserted after the transformation.
    """

    placement: Placement
    wrapped: List[WrappedHotspot] = field(default_factory=list)
    num_fillers: int = 0

    @property
    def total_evicted(self) -> int:
        """Total bystander cells moved out of all wrappers."""
        return sum(w.num_evicted for w in self.wrapped)


def apply_hotspot_wrapper(
    baseline: Union[Placement, PlacementView],
    hotspots: Sequence[Hotspot],
    ring_width_um: float = 6.0,
    max_source_units: int = 2,
    add_fillers: bool = True,
) -> HotspotWrapperResult:
    """Wrap each hotspot in whitespace and thin out its cell density.

    Args:
        baseline: Placement or view to transform (typically a "Default"
            placement at relaxed utilization); left untouched.
        hotspots: Detected hotspots, hottest first.
        ring_width_um: Width of the whitespace ring around each hotspot.
        max_source_units: Maximum number of units treated as the hotspot's
            source: the hottest prefix of its detection-time
            ``dominant_units`` ranking (cells of other units are evicted).
        add_fillers: Fill the resulting whitespace with dummy cells.

    Returns:
        A :class:`HotspotWrapperResult` on a copy of ``baseline`` (the
        object form of a view, :meth:`PlacementView.to_placement`).

    Raises:
        ValueError: If ``ring_width_um`` is negative.
    """
    return apply_hotspot_wrapper_in_place(
        PlacementView.of(baseline).to_placement(), hotspots, ring_width_um=ring_width_um,
        max_source_units=max_source_units, add_fillers=add_fillers,
    )


def apply_hotspot_wrapper_in_place(
    placement: Placement,
    hotspots: Sequence[Hotspot],
    ring_width_um: float = 6.0,
    max_source_units: int = 2,
    add_fillers: bool = True,
) -> HotspotWrapperResult:
    """:func:`apply_hotspot_wrapper` transforming ``placement`` itself.

    For callers that own a placement nobody else reads, such as one a
    transform just built, which saves the netlist copy.  Its row lists must
    be in :meth:`~repro.placement.Placement.rebuild_rows` order for the
    result to equal the copying form's bitwise.
    """
    if ring_width_um < 0.0:
        raise ValueError(f"ring_width_um must be non-negative, got {ring_width_um}")

    # Any fillers present in the input (e.g. a Default placement that was
    # already filled) are removed first; whitespace is re-filled at the end.
    remove_fillers(placement)
    wrapped: List[WrappedHotspot] = []
    core = placement.floorplan.core_rect

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

        # 1. Detach everything currently inside the wrapper: the hotspot's
        #    own ("hot") cells and the bystanders.
        hot_cells = [
            cell for cell in placement.cells_in_rect(outer) if cell.unit in hot_units
        ]
        bystanders = placement.evict_from_rect(outer, keep_units=hot_units)

        # 2. Spread the hot cells uniformly over the *inner* rectangle,
        #    leaving the surrounding ring as whitespace.
        if hot_cells:
            try:
                pack_into_region(placement, hot_cells, inner)
            except ValueError:
                # The inner rectangle cannot hold them (extremely dense
                # hotspot): fall back to the full wrapper rectangle.
                pack_into_region(placement, hot_cells, outer)

        # 3. Re-insert the bystanders into the nearest free space outside
        #    the wrapper.  Whitespace is fragmented (every row is spread
        #    evenly), so cells that do not fit into any single gap are
        #    force-inserted by consolidating the whitespace of the closest
        #    row with enough total slack — the placement always stays legal.
        unmoved = placement.relocate_outside(bystanders, outer)
        leftover = placement.relocate_outside(unmoved, Rect(0.0, 0.0, 0.0, 0.0))
        for cell in leftover:
            placement.force_insert(cell, avoid_rect=outer)

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

    num_fillers = len(insert_fillers(placement)) if add_fillers else 0
    return HotspotWrapperResult(placement=placement, wrapped=wrapped, num_fillers=num_fillers)
