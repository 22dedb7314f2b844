"""Row-based placement database.

:class:`Placement` is the object the post-placement techniques manipulate:
it couples a netlist with a :class:`~repro.placement.floorplan.Floorplan`
and keeps, for every placement row, the ordered list of cells in that row.
It provides legality checks, wirelength and utilization queries, and the
row-level editing operations (insert, remove, pack, spread) that the empty
row insertion and hotspot wrapper transformations are built from.

Filler cells are not netlist cells: a placement records them as one
:class:`FillerBlock` of row/x/master arrays (:attr:`Placement.fillers`),
which the row-gap queries and the legality check read, and which
:meth:`Placement.materialize_fillers` turns into real cell instances when a
consumer needs objects (DEF export, say).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..netlist import CellInstance, MasterCell, Netlist
from .floorplan import Floorplan, Rect

#: Instance-name prefix of filler cells.
FILLER_PREFIX = "FILLER_"


def _read_only(values, dtype) -> np.ndarray:
    array = np.array(values, dtype=dtype)
    array.setflags(write=False)
    return array


@dataclass(frozen=True, eq=False)
class FillerBlock:
    """Filler cells recorded as arrays, owned by a :class:`Placement`.

    Filler ``i`` is an instance of ``masters[master[i]]`` at ``x[i]`` in
    row ``row[i]``, named ``f"{prefix}{first_index + i}"``.  Fillers have
    no pins and zero power, so nothing but legality, row occupancy and the
    placement digest reads them; :meth:`Placement.materialize_fillers`
    builds the equivalent cell instances.  Arrays are read-only and a block
    is never modified: inserting or removing fillers replaces the
    placement's block.

    Attributes:
        prefix: Instance-name prefix.
        first_index: Name suffix of filler 0.
        masters: Filler master table the ``master`` indices refer to.
        row: Row index per filler (``int64``).
        x: Left edge per filler in micrometres (``float64``).
        master: Index into ``masters`` per filler (``int64``).
    """

    prefix: str = FILLER_PREFIX
    first_index: int = 0
    masters: Tuple[MasterCell, ...] = ()
    row: np.ndarray = ()
    x: np.ndarray = ()
    master: np.ndarray = ()

    def __post_init__(self) -> None:
        for name, dtype in (("row", np.int64), ("x", np.float64), ("master", np.int64)):
            object.__setattr__(self, name, _read_only(getattr(self, name), dtype))

    def __len__(self) -> int:
        return int(self.row.shape[0])

    def __reduce__(self):
        # Through the constructor, so unpickled arrays are read-only again
        # and per-row caches are rebuilt on demand rather than serialized.
        return (FillerBlock, (
            self.prefix, self.first_index, self.masters, self.row, self.x, self.master,
        ))

    @property
    def end(self) -> int:
        """Name suffix the next appended filler takes."""
        return self.first_index + len(self)

    def name(self, index: int) -> str:
        """Instance name of filler ``index``."""
        return f"{self.prefix}{self.first_index + index}"

    def names(self) -> List[str]:
        """Instance names of all fillers, in block order."""
        return [f"{self.prefix}{i}" for i in range(self.first_index, self.end)]

    def master_cells(self) -> List[MasterCell]:
        """Master cell of every filler, in block order."""
        masters = self.masters
        return [masters[i] for i in self.master.tolist()]

    @cached_property
    def widths(self) -> np.ndarray:
        """Width of every filler in micrometres."""
        table = np.array([m.width_um for m in self.masters], dtype=float)
        return _read_only(table[self.master], np.float64)

    @cached_property
    def _by_row(self) -> Dict[int, List[Tuple[float, float, str]]]:
        by_row: Dict[int, List[Tuple[float, float, str]]] = {}
        for i, (row, x, width) in enumerate(
            zip(self.row.tolist(), self.x.tolist(), self.widths.tolist())
        ):
            by_row.setdefault(row, []).append((x, width, self.name(i)))
        return by_row

    def in_row(self, row_index: int) -> List[Tuple[float, float, str]]:
        """``(x, width, name)`` of the fillers in row ``row_index``, in block order."""
        return self._by_row.get(row_index, [])

    def extended(self, other: "FillerBlock") -> "FillerBlock":
        """This block followed by ``other``, whose names must continue it."""
        if not self:
            return other
        if other.prefix != self.prefix or other.first_index != self.end:
            raise ValueError(
                f"filler names must continue after {self.name(len(self) - 1)!r}"
            )
        return FillerBlock(
            self.prefix, self.first_index, self.masters,
            np.concatenate([self.row, other.row]),
            np.concatenate([self.x, other.x]),
            np.concatenate([self.master, other.master]),
        )


#: The block of a placement without fillers.
NO_FILLERS = FillerBlock()


class Row:
    """A single placement row: ordered, non-overlapping cells.

    The owning placement's block fillers (:class:`FillerBlock`) occupy the
    row for the gap, overlap and width queries; the editing operations
    (add, remove, pack, spread) move :attr:`cells` only.

    Attributes:
        index: Row index (0 = bottom).
        y: Bottom y coordinate in micrometres.
        x_start: Left edge of the usable row span.
        x_end: Right edge of the usable row span.
    """

    def __init__(self, index: int, y: float, x_start: float, x_end: float) -> None:
        self.index = index
        self.y = y
        self.x_start = x_start
        self.x_end = x_end
        self.cells: List[CellInstance] = []
        #: The placement whose filler block occupies this row too (set by
        #: :class:`Placement`; ``None`` for a free-standing row).
        self._placement: Optional["Placement"] = None

    # -- queries -------------------------------------------------------------

    @property
    def width(self) -> float:
        """Usable row width in micrometres."""
        return self.x_end - self.x_start

    def block_fillers(self) -> List[Tuple[float, float, str]]:
        """``(x, width, name)`` of the placement's block fillers in this row."""
        placement = self._placement
        if placement is None or not placement.fillers:
            return []
        return placement.fillers.in_row(self.index)

    def _occupants(self) -> List[Tuple[float, float, str]]:
        """``(x, width, name)`` of the cells and block fillers, by x."""
        self.sort()
        occupants = [(cell.x, cell.width, cell.name) for cell in self.cells]
        fillers = self.block_fillers()
        if fillers:
            occupants.extend(fillers)
            occupants.sort(key=lambda occupant: occupant[0])
        return occupants

    @property
    def occupied_width(self) -> float:
        """Sum of widths of cells and block fillers currently in the row."""
        return sum(cell.width for cell in self.cells) + sum(
            width for _, width, _ in self.block_fillers()
        )

    @property
    def free_width(self) -> float:
        """Row width not covered by cells."""
        return self.width - self.occupied_width

    def utilization(self) -> float:
        """Fraction of the row width covered by cells."""
        if self.width <= 0:
            return 0.0
        return self.occupied_width / self.width

    def sort(self) -> None:
        """Sort cells by their x coordinate."""
        self.cells.sort(key=lambda c: c.x)

    def gaps(self) -> List[Tuple[float, float]]:
        """Free intervals ``(x0, x1)`` between cells and block fillers, left to right."""
        gaps: List[Tuple[float, float]] = []
        cursor = self.x_start
        for x, width, _ in self._occupants():
            if x > cursor:
                gaps.append((cursor, x))
            cursor = max(cursor, x + width)
        if cursor < self.x_end:
            gaps.append((cursor, self.x_end))
        return gaps

    def overlaps(self) -> List[Tuple[str, str]]:
        """Pairs of cell (or block filler) names that overlap in this row."""
        occupants = self._occupants()
        bad: List[Tuple[str, str]] = []
        for (x, width, left), (right_x, _, right) in zip(occupants, occupants[1:]):
            if x + width > right_x + 1e-9:
                bad.append((left, right))
        return bad

    # -- editing -------------------------------------------------------------

    def add(self, cell: CellInstance, x: float) -> None:
        """Place ``cell`` at ``x`` in this row (legality not enforced)."""
        cell.place(x, self.y, self.index)
        self.cells.append(cell)

    def remove(self, cell: CellInstance) -> None:
        """Remove ``cell`` from the row (its coordinates are left untouched)."""
        self.cells.remove(cell)

    def pack(self, origin: Optional[float] = None) -> None:
        """Pack cells left-to-right from ``origin`` removing all gaps."""
        self.sort()
        cursor = self.x_start if origin is None else origin
        for cell in self.cells:
            cell.place(cursor, self.y, self.index)
            cursor += cell.width

    def spread(self, x0: Optional[float] = None, x1: Optional[float] = None) -> None:
        """Distribute cells evenly (equal gaps) over ``[x0, x1]``.

        Defaults to the full row span.  Cell order is preserved.  If the
        cells do not fit, they are packed from ``x0`` instead.
        """
        self.sort()
        lo = self.x_start if x0 is None else x0
        hi = self.x_end if x1 is None else x1
        total_width = sum(c.width for c in self.cells)
        slack = (hi - lo) - total_width
        if not self.cells:
            return
        if slack <= 0:
            cursor = lo
            for cell in self.cells:
                cell.place(cursor, self.y, self.index)
                cursor += cell.width
            return
        gap = slack / (len(self.cells) + 1)
        cursor = lo + gap
        for cell in self.cells:
            cell.place(cursor, self.y, self.index)
            cursor += cell.width + gap

    def insert_at_best_gap(self, cell: CellInstance, target_x: float) -> bool:
        """Insert ``cell`` in the free gap closest to ``target_x``.

        Returns:
            ``True`` on success, ``False`` if no gap is wide enough.
        """
        best: Optional[Tuple[float, float]] = None
        best_cost = float("inf")
        for gap_start, gap_end in self.gaps():
            if gap_end - gap_start < cell.width - 1e-9:
                continue
            x = min(max(target_x, gap_start), gap_end - cell.width)
            cost = abs(x - target_x)
            if cost < best_cost:
                best_cost = cost
                best = (x, gap_start)
        if best is None:
            return False
        self.add(cell, best[0])
        self.sort()
        return True

    def cells_in_span(self, x0: float, x1: float) -> List[CellInstance]:
        """Cells whose centre x lies in ``[x0, x1)``."""
        return [c for c in self.cells if x0 <= c.x + c.width / 2.0 < x1]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Row({self.index}, y={self.y:.1f}, cells={len(self.cells)})"


class Placement:
    """A placed design: netlist + floorplan + per-row cell lists.

    Attributes:
        netlist: The placed design.
        floorplan: Core/row geometry.
        regions: Optional mapping of unit name to the region it was placed
            in; populated by the placer and used by the hotspot wrapper.
        fillers: The filler cells placed in the rows' whitespace, as a
            :class:`FillerBlock` (not netlist cells).
    """

    def __init__(self, netlist: Netlist, floorplan: Floorplan) -> None:
        self.netlist = netlist
        self.floorplan = floorplan
        self.regions: Dict[str, Rect] = {}
        self.fillers: FillerBlock = NO_FILLERS
        self.rows: List[Row] = [
            Row(i, floorplan.row_y(i), 0.0, floorplan.core_width)
            for i in range(floorplan.num_rows)
        ]
        for row in self.rows:
            row._placement = self

    # ------------------------------------------------------------------
    # Row/cell management
    # ------------------------------------------------------------------

    def row(self, index: int) -> Row:
        """Return row ``index``."""
        return self.rows[index]

    def assign(self, cell: CellInstance, row_index: int, x: float) -> None:
        """Place ``cell`` in row ``row_index`` at coordinate ``x``."""
        self.rows[row_index].add(cell, x)

    def remove(self, cell: CellInstance) -> None:
        """Detach ``cell`` from whatever row holds it."""
        if cell.row is not None and 0 <= cell.row < len(self.rows):
            row = self.rows[cell.row]
            if cell in row.cells:
                row.remove(cell)

    def rebuild_rows(self) -> None:
        """Rebuild the per-row cell lists from the cells' coordinates.

        This is the supported entry point after assigning ``cell.x`` /
        ``cell.y`` directly (bypassing :meth:`CellInstance.place`).
        """
        for row in self.rows:
            row.cells.clear()
        for cell in self.netlist.cells.values():
            if not cell.is_placed:
                continue
            index = self.floorplan.row_of_y(cell.y + 1e-9)
            cell.row = index
            cell.y = self.rows[index].y
            self.rows[index].cells.append(cell)
        for row in self.rows:
            row.sort()

    def placed_cells(self, include_fillers: bool = True) -> List[CellInstance]:
        """All placed cell instances, optionally excluding filler cells.

        Block fillers (:attr:`fillers`) are not cell instances and are
        never returned; :meth:`materialize_fillers` turns them into cells.
        """
        return [
            c
            for c in self.netlist.cells.values()
            if c.is_placed and (include_fillers or not c.is_filler)
        ]

    def cells_in_rect(self, rect: Rect, include_fillers: bool = False) -> List[CellInstance]:
        """Cells whose centre lies inside ``rect``."""
        found: List[CellInstance] = []
        for cell in self.placed_cells(include_fillers=include_fillers):
            cx, cy = cell.center
            if rect.contains(cx, cy):
                found.append(cell)
        return found

    def rows_in_span(self, y0: float, y1: float) -> List[Row]:
        """Rows whose vertical span intersects ``[y0, y1)``."""
        return [
            row
            for row in self.rows
            if row.y + self.floorplan.row_height > y0 and row.y < y1
        ]

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------

    def utilization(self) -> float:
        """Core utilization factor (logic cell area / core area)."""
        return self.floorplan.utilization(self.netlist)

    def cell_center_arrays(self) -> Tuple:
        """Per-cell centre coordinate arrays ``(cx, cy, placed_mask)``.

        Aligned with the netlist's compiled cell order.  The placement is
        frozen afresh on every call (a mutable placement is never
        memoised), so a raw ``x``/``y`` write is seen by the next binning
        or lookup.
        """
        from .view import PlacementView

        return PlacementView.of(self).cell_center_arrays()

    def coordinate_arrays(self) -> Tuple[np.ndarray, ...]:
        """``(x, y, row, port_x, port_y)`` in netlist cell and port order.

        Cell lower-left corners and rows, port positions; an unset
        coordinate is ``NaN`` and an unset row ``-1``.  The arrays a
        :class:`~repro.placement.view.PlacementView` of this placement
        holds.
        """
        cells = self.netlist.cells.values()
        ports = self.netlist.ports.values()
        return (
            np.array([cell.x for cell in cells], dtype=np.float64),
            np.array([cell.y for cell in cells], dtype=np.float64),
            np.array([-1 if cell.row is None else cell.row for cell in cells], dtype=np.int64),
            np.array([port.x for port in ports], dtype=np.float64),
            np.array([port.y for port in ports], dtype=np.float64),
        )

    def terminal_coordinates(self) -> Tuple:
        """Cell centres and port positions ``((cx, cy, placed), (px, py, placed))``,
        as :meth:`~repro.netlist.compiled.CompiledNetlist.terminal_coordinates`."""
        return self.netlist.compiled().terminal_coordinates()

    def total_hpwl(self) -> float:
        """Total half-perimeter wirelength over all nets, in micrometres."""
        return float(self.netlist.compiled().net_hpwl_um().sum())

    def core_area(self) -> float:
        """Core area in square micrometres."""
        return self.floorplan.core_area

    def row_utilizations(self) -> List[float]:
        """Utilization of each row, bottom to top."""
        return [row.utilization() for row in self.rows]

    # ------------------------------------------------------------------
    # Legality
    # ------------------------------------------------------------------

    def check_legal(self, tolerance: float = 1e-6) -> List[str]:
        """Check placement legality.

        Verifies that every non-filler cell is placed, lies inside the core,
        sits exactly on its row's y coordinate, that every block filler lies
        inside the core, and that no two cells or fillers in a row overlap.

        Returns:
            A list of human-readable violations (empty when legal).
        """
        problems: List[str] = []
        for cell in self.netlist.cells.values():
            if cell.is_filler and not cell.is_placed:
                continue
            if not cell.is_placed:
                problems.append(f"cell {cell.name} is not placed")
                continue
            if cell.x < -tolerance or cell.x + cell.width > self.floorplan.core_width + tolerance:
                problems.append(f"cell {cell.name} exceeds core width")
            if cell.y < -tolerance or cell.y + cell.height > self.floorplan.core_height + tolerance:
                problems.append(f"cell {cell.name} exceeds core height")
            if cell.row is None:
                problems.append(f"cell {cell.name} has no row assignment")
            elif abs(cell.y - self.floorplan.row_y(cell.row)) > tolerance:
                problems.append(f"cell {cell.name} not aligned to row {cell.row}")
        block = self.fillers
        outside = (
            (block.x < -tolerance)
            | (block.x + block.widths > self.floorplan.core_width + tolerance)
            | (block.row < 0)
            | (block.row >= len(self.rows))
        )
        for i in np.flatnonzero(outside).tolist():
            problems.append(f"filler {block.name(i)} lies outside the core")
        for row in self.rows:
            for left, right in row.overlaps():
                problems.append(f"cells {left} and {right} overlap in row {row.index}")
        return problems

    # ------------------------------------------------------------------
    # Whitespace / relocation helpers used by the core techniques
    # ------------------------------------------------------------------

    def evict_from_rect(
        self, rect: Rect, keep_units: Sequence[str] = (), include_fillers: bool = False
    ) -> List[CellInstance]:
        """Remove from their rows all cells inside ``rect`` not in ``keep_units``.

        The cells' coordinates are cleared of row membership but preserved as
        a relocation hint; the caller is responsible for re-inserting them
        (see :meth:`relocate_outside`).

        Returns:
            The evicted cells.
        """
        keep = set(keep_units)
        evicted: List[CellInstance] = []
        for cell in self.cells_in_rect(rect, include_fillers=include_fillers):
            if cell.unit in keep:
                continue
            self.remove(cell)
            evicted.append(cell)
        return evicted

    def relocate_outside(self, cells: Sequence[CellInstance], rect: Rect) -> List[CellInstance]:
        """Re-insert evicted cells into the nearest legal free space outside ``rect``.

        Cells are inserted into row gaps, preferring rows close to their
        original y and positions close to their original x, while keeping
        their centres outside ``rect``.

        Returns:
            Cells that could not be relocated (no free space found).
        """
        failed: List[CellInstance] = []
        row_height = self.floorplan.row_height

        # ``rect`` is fixed for the whole call and the sub-interval chosen by
        # :meth:`_gap_outside_rect` is always the longest one, so each row's
        # usable intervals can be computed once and reused for every cell,
        # invalidated only when a relocation mutates that row.  A cell fits a
        # gap exactly when the gap's longest usable sub-interval is at least
        # as wide, so the per-cell test collapses to one comparison.
        usable_cache: dict = {}

        def usable_intervals(row_index: int) -> List[Tuple[float, float]]:
            cached = usable_cache.get(row_index)
            if cached is None:
                row = self.rows[row_index]
                row_mid_y = row.y + row_height / 2.0
                cached = []
                for gap_start, gap_end in row.gaps():
                    interval = self._gap_outside_rect(
                        gap_start, gap_end, rect, row_mid_y, 0.0
                    )
                    if interval is not None and interval[1] > interval[0]:
                        cached.append(interval)
                usable_cache[row_index] = cached
            return cached

        for cell in sorted(cells, key=lambda c: -c.width):
            origin_x = cell.x if cell.x is not None else 0.0
            origin_y = cell.y if cell.y is not None else 0.0
            origin_row = self.floorplan.row_of_y(origin_y)
            width = cell.width
            placed = False
            # Search rows by increasing distance from the original row.
            for offset in range(0, len(self.rows)):
                for row_index in {origin_row - offset, origin_row + offset}:
                    if row_index < 0 or row_index >= len(self.rows):
                        continue
                    if placed:
                        break
                    for lo, hi in usable_intervals(row_index):
                        if hi - lo < width:
                            continue
                        row = self.rows[row_index]
                        x = min(max(origin_x, lo), hi - width)
                        row.add(cell, x)
                        row.sort()
                        usable_cache.pop(row_index, None)
                        placed = True
                        break
                if placed:
                    break
            if not placed:
                failed.append(cell)
        return failed

    def force_insert(self, cell: CellInstance, avoid_rect: Optional[Rect] = None) -> bool:
        """Insert ``cell`` even when no single free gap is wide enough.

        Whitespace in a spread-out placement is fragmented into many small
        gaps; this helper picks the closest row with enough *total* free
        width (preferring rows outside ``avoid_rect``), packs that row to
        consolidate its whitespace, and appends the cell at the packed end.
        Used as a last resort by the hotspot wrapper so evicted cells never
        end up overlapping.  Packing moves fillers too, so a chosen row
        holding block fillers materializes the block first.

        Returns:
            ``True`` if the cell was inserted, ``False`` if no row has
            enough free width.
        """
        origin_row = self.floorplan.row_of_y((cell.y or 0.0) + 1e-9)
        row_height = self.floorplan.row_height

        def row_priority(row: Row) -> Tuple[int, int]:
            mid_y = row.y + row_height / 2.0
            inside_avoid = (
                1
                if avoid_rect is not None
                and avoid_rect.y0 <= mid_y < avoid_rect.y1
                and avoid_rect.area > 0
                else 0
            )
            return (inside_avoid, abs(row.index - origin_row))

        for row in sorted(self.rows, key=row_priority):
            if row.free_width >= cell.width - 1e-9:
                if row.block_fillers():
                    self.materialize_fillers()
                row.pack()
                cursor = row.x_start + row.occupied_width
                row.add(cell, cursor)
                row.sort()
                return True
        return False

    @staticmethod
    def _gap_outside_rect(
        gap_start: float, gap_end: float, rect: Rect, row_mid_y: float, width: float
    ) -> Optional[Tuple[float, float]]:
        """Largest sub-interval of a row gap whose centre stays outside ``rect``.

        Returns ``None`` if no sub-interval of at least ``width`` exists.
        """
        if not (rect.y0 <= row_mid_y < rect.y1):
            # The row does not intersect the rectangle vertically.
            if gap_end - gap_start >= width:
                return (gap_start, gap_end)
            return None
        # Row crosses the rectangle: usable sub-gaps are left and right of it.
        candidates = []
        left = (gap_start, min(gap_end, rect.x0))
        right = (max(gap_start, rect.x1), gap_end)
        for lo, hi in (left, right):
            if hi - lo >= width:
                candidates.append((lo, hi))
        if not candidates:
            return None
        return max(candidates, key=lambda interval: interval[1] - interval[0])

    def copy(self) -> "Placement":
        """Deep-copy the placement (cloned netlist, same floorplan geometry).

        Post-placement transformations work on the copy so the baseline
        placement stays available for before/after comparisons.
        """
        cloned_netlist = self.netlist.copy()
        duplicate = Placement(cloned_netlist, self.floorplan)
        duplicate.regions = dict(self.regions)
        duplicate.fillers = self.fillers
        duplicate.rebuild_rows()
        return duplicate

    def __reduce__(self):
        """Pickle via the netlist's flat state plus geometry.

        Rows are derived data (rebuilt from cell coordinates exactly as
        :meth:`copy` does), so only the netlist, the floorplan, the region
        map and the filler block are serialized.
        """
        return (
            _placement_from_state,
            (self.netlist, self.floorplan, dict(self.regions), self.fillers),
        )

    def materialize_fillers(self) -> List[CellInstance]:
        """Turn the filler block into netlist cells and empty the block.

        The cells, their names, masters, x/y/row, their order in the
        netlist and in the row lists are exactly those of inserting the
        fillers one :meth:`Netlist.add_cell` / :meth:`Row.add` at a time in
        block order (the executable spec of :class:`FillerBlock`).  Flow
        stages never call this; call it before exporting a transformed
        design with :func:`~repro.netlist.write_def`.

        Returns:
            The created filler cell instances, in block order.
        """
        block = self.fillers
        if not block:
            return []
        created = self.netlist.add_fillers(block.names(), block.master_cells())
        filled_rows: Dict[int, Row] = {}
        for cell, index, x in zip(created, block.row.tolist(), block.x.tolist()):
            row = self.rows[index]
            cell.x = x
            cell.y = row.y
            cell.row = index
            row.cells.append(cell)
            filled_rows[index] = row
        for row in filled_rows.values():
            row.sort()
        self.fillers = NO_FILLERS
        return created

    def statistics(self) -> Dict[str, float]:
        """Summary statistics for reports."""
        return {
            "core_width_um": self.floorplan.core_width,
            "core_height_um": self.floorplan.core_height,
            "core_area_um2": self.floorplan.core_area,
            "die_area_um2": self.floorplan.die_area,
            "num_rows": float(self.floorplan.num_rows),
            "utilization": self.utilization(),
            "total_hpwl_um": self.total_hpwl(),
            "num_placed_cells": float(len(self.placed_cells()) + len(self.fillers)),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Placement({self.netlist.name}, rows={len(self.rows)}, "
            f"util={self.utilization():.3f})"
        )


def _placement_from_state(
    netlist: Netlist, floorplan: Floorplan, regions: Dict[str, Rect],
    fillers: FillerBlock,
) -> Placement:
    """Rebuild a placement from the state emitted by ``__reduce__``."""
    placement = Placement(netlist, floorplan)
    placement.regions = regions
    placement.fillers = fillers
    placement.rebuild_rows()
    return placement
