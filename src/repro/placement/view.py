"""Placed designs as read-only coordinate arrays over a shared netlist.

A whitespace transform moves cells; it never edits the netlist's
structure.  :class:`PlacementView` records a placed design as exactly
that: per-cell x/y/row arrays and per-port x/y arrays, aligned with the
cell and port order of a netlist the view shares (the baseline's, whose
compiled :class:`~repro.netlist.compiled.Connectivity` every copy shares
too), plus the floorplan, the unit regions and the
:class:`~repro.placement.placement.FillerBlock`.  A view holds no cell
objects of its own, so a sweep keeps no per-point netlist clone alive.

The view's :attr:`~PlacementView.netlist` supplies structure only: its
cells' own coordinates are the *baseline's*.  Every coordinate consumer
reads the view's arrays — thermal binning through
:meth:`PlacementView.cell_center_arrays`, compiled STA through
:meth:`PlacementView.terminal_coordinates`, the placement digest through
:meth:`PlacementView.coordinate_arrays`.  The transforms take and return
views: the hotspot wrapper edits the arrays as row occupancy
(:class:`~repro.placement.legalize.RowOccupancy`), which also fills a
view's gaps in :meth:`PlacementView.with_fillers`.  Consumers that need
objects (the reference engine, DEF export) call
:meth:`PlacementView.to_placement`, which builds a
:class:`~repro.placement.placement.Placement` on one
:meth:`~repro.netlist.netlist.Netlist.copy`; call
:meth:`~repro.placement.placement.Placement.materialize_fillers` on that
before :func:`~repro.netlist.write_def`.
"""

from __future__ import annotations

from dataclasses import replace
from functools import cached_property
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from ..netlist import Netlist
from ..netlist.compiled import cell_centers
from .filler import filler_block
from .floorplan import Floorplan, Rect
from .legalize import RowOccupancy
from .placement import (
    FILLER_PREFIX, NO_FILLERS, FillerBlock, Placement, _read_only, coordinate_arrays,
)

#: ``(x, y, row, port_x, port_y)``: cell lower-left corners and rows, port
#: positions; unset coordinates are ``NaN`` and an unset row is ``-1``.
CoordinateArrays = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]


class PlacementView:
    """A placed design as read-only coordinate arrays over a shared netlist.

    Cell ``i`` of ``netlist.cells`` (the compiled cell order) sits at
    ``(x[i], y[i])`` in row ``row[i]``; port ``j`` of ``netlist.ports`` at
    ``(port_x[j], port_y[j])``.  Arrays are read-only and a view is never
    modified: :meth:`with_fillers` and the row shift of empty row
    insertion return new views.

    Attributes:
        netlist: The netlist the arrays are aligned with (structure only;
            its cells' coordinates are not this view's).
        floorplan: Core/row geometry.
        regions: Unit name to the region it was placed in.
        fillers: The filler block occupying the rows' whitespace.
        x: Cell lower-left x in micrometres (``NaN`` when unplaced).
        y: Cell lower-left y in micrometres (``NaN`` when unplaced).
        row: Cell row index (``-1`` when unset).
        port_x: Port x in micrometres (``NaN`` when unplaced).
        port_y: Port y in micrometres (``NaN`` when unplaced).
    """

    def __init__(
        self,
        netlist: Netlist,
        floorplan: Floorplan,
        x: Sequence[float],
        y: Sequence[float],
        row: Sequence[int],
        port_x: Sequence[float],
        port_y: Sequence[float],
        regions: Optional[Dict[str, Rect]] = None,
        fillers: FillerBlock = NO_FILLERS,
    ) -> None:
        self.netlist = netlist
        self.floorplan = floorplan
        self.x = _read_only(x, np.float64)
        self.y = _read_only(y, np.float64)
        self.row = _read_only(row, np.int64)
        self.port_x = _read_only(port_x, np.float64)
        self.port_y = _read_only(port_y, np.float64)
        self.regions: Dict[str, Rect] = dict(regions or {})
        self.fillers = fillers
        if not (self.x.shape == self.y.shape == self.row.shape == (len(netlist.cells),)):
            raise ValueError("cell coordinate arrays must align with the netlist's cells")
        if not (self.port_x.shape == self.port_y.shape == (len(netlist.ports),)):
            raise ValueError("port coordinate arrays must align with the netlist's ports")

    @classmethod
    def of(
        cls, placement: Union[Placement, "PlacementView"], base: Optional[Netlist] = None
    ) -> "PlacementView":
        """Freeze a placement's coordinates into a view (a view is returned as is).

        The view reads over ``base`` when ``placement``'s netlist is an
        unedited copy of it (the two share one compiled connectivity, so
        cells and ports align), otherwise over ``placement``'s own netlist.
        """
        if isinstance(placement, PlacementView):
            return placement
        netlist = placement.netlist
        if base is not None and base.shares_structure_with(netlist):
            netlist = base
        return cls(
            netlist, placement.floorplan, *coordinate_arrays(placement.netlist),
            regions=placement.regions, fillers=placement.fillers,
        )

    def __reduce__(self):
        # Through the constructor, so unpickled arrays are read-only again
        # and the digest memo is not serialized.
        return (PlacementView, (
            self.netlist, self.floorplan, self.x, self.y, self.row,
            self.port_x, self.port_y, self.regions, self.fillers,
        ))

    # ------------------------------------------------------------------
    # Coordinate queries
    # ------------------------------------------------------------------

    def coordinate_arrays(self) -> CoordinateArrays:
        """``(x, y, row, port_x, port_y)``, as :func:`~repro.placement.placement.coordinate_arrays`."""
        return self.x, self.y, self.row, self.port_x, self.port_y

    @cached_property
    def placed(self) -> np.ndarray:
        """Mask of the cells with both coordinates set."""
        return _read_only(~(np.isnan(self.x) | np.isnan(self.y)), bool)

    def utilization(self) -> float:
        """Core utilization factor, as :meth:`Placement.utilization`."""
        return self.floorplan.utilization(self.netlist)

    def cell_center_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-cell centres ``(cx, cy, placed_mask)`` in compiled cell order.

        Bitwise equal to :meth:`Placement.cell_center_arrays` of
        :meth:`to_placement`: unplaced cells carry ``NaN`` and ``False``.
        """
        return cell_centers(self.x, self.y, self.netlist.compiled().cell_width_um)

    def terminal_coordinates(self) -> Tuple[Tuple[np.ndarray, ...], Tuple[np.ndarray, ...]]:
        """Cell centres and port positions ``((cx, cy, placed), (px, py, placed))``.

        What :meth:`~repro.netlist.compiled.CompiledNetlist.net_hpwl_um`
        reads, so compiled STA measures this view's wires, not the
        netlist's own.
        """
        port_placed = ~np.isnan(self.port_x)
        return self.cell_center_arrays(), (self.port_x, self.port_y, port_placed)

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------

    def with_fillers(self, prefix: str = FILLER_PREFIX) -> "PlacementView":
        """This view with every row gap filled, as :func:`insert_fillers` fills
        :meth:`to_placement`.

        The gaps are :meth:`RowOccupancy.gaps
        <repro.placement.legalize.RowOccupancy.gaps>` of the rows rebuilt
        from the arrays; the inserted fillers extend the block, widest
        filler first per gap, with the same names, masters and positions.
        """
        occupancy = RowOccupancy.of_arrays(
            self.floorplan, self.x, self.y, self.row,
            self.netlist.compiled().cell_width_um, self.fillers,
        )
        inserted = filler_block(self.netlist, occupancy.all_gaps(), self.fillers, prefix)
        return _replace(self, fillers=self.fillers.extended(inserted))

    def to_placement(self) -> Placement:
        """The object form: :meth:`write_to` one copy of :attr:`netlist`, so
        ``placement_digest`` of the result equals the view's."""
        return self.write_to(self.netlist.copy())

    def write_to(self, netlist: Netlist) -> Placement:
        """Move the cells and ports of ``netlist`` (:attr:`netlist` or an
        unedited copy) to this view's coordinates: a :class:`Placement`
        with the rows rebuilt and the regions and filler block carried over."""
        for port, x, y in zip(netlist.ports.values(), self.port_x.tolist(), self.port_y.tolist()):
            port.x = None if x != x else x
            port.y = None if y != y else y
        placement = Placement(netlist, self.floorplan)
        placement.regions = dict(self.regions)
        placement.fillers = self.fillers
        placement.place_cells(self.x, self.y, self.row)
        return placement

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PlacementView({self.netlist.name}, rows={self.floorplan.num_rows}, "
            f"fillers={len(self.fillers)})"
        )


def _replace(view: PlacementView, **changes) -> PlacementView:
    """A new view equal to ``view`` except for the given constructor fields."""
    fields = dict(
        netlist=view.netlist, floorplan=view.floorplan, x=view.x, y=view.y,
        row=view.row, port_x=view.port_x, port_y=view.port_y,
        regions=view.regions, fillers=view.fillers,
    )
    fields.update(changes)
    return PlacementView(**fields)


def shift_rows(view: PlacementView, inserted_below: Sequence[int]) -> PlacementView:
    """Insert ``inserted_below[r]`` empty rows below every row ``r`` of ``view``.

    One array op per coordinate: every placed cell keeps its x and moves up
    by the empty rows inserted at or below its row (found from its y, as
    :meth:`Floorplan.row_of_y` finds it), block fillers shift with their
    rows, ports stay where they are and the core grows by the inserted
    rows.
    """
    base = view.floorplan
    counts = np.asarray(inserted_below, dtype=np.int64)
    mapping = np.arange(base.num_rows, dtype=np.int64) + np.cumsum(counts)
    floorplan = base.with_extra_rows(int(counts.sum()))
    placed = view.placed
    with np.errstate(invalid="ignore"):
        old = np.floor((view.y + 1e-9) / base.row_height)
    old = np.clip(np.nan_to_num(old, nan=0.0), 0, base.num_rows - 1).astype(np.int64)
    new_row = np.where(placed, mapping[old], view.row)
    new_y = np.where(placed, new_row * floorplan.row_height, view.y)
    fillers = view.fillers
    if fillers:
        fillers = replace(fillers, row=mapping[fillers.row])
    return _replace(view, floorplan=floorplan, y=new_y, row=new_row, fillers=fillers)


def as_placement(placement: Union[Placement, PlacementView]) -> Placement:
    """The object form of a placement: a view's :meth:`~PlacementView.to_placement`,
    a :class:`Placement` itself (for consumers that walk cell objects)."""
    if isinstance(placement, PlacementView):
        return placement.to_placement()
    return placement


__all__ = ["PlacementView", "as_placement", "shift_rows"]
