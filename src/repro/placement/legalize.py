"""Legalization on row occupancy: region packing, relocation, forced insertion.

Each algorithm has one implementation, a :class:`RowOccupancy` method on
coordinate lists: :meth:`~RowOccupancy.pack` (region-constrained row
packing: the placer's per-unit regions, the wrapper's hotspot cells),
:meth:`~RowOccupancy.relocate_outside` (evicted cells into the nearest free
space outside a rectangle) and :meth:`~RowOccupancy.force_insert`.
:func:`pack_into_region` and :meth:`Placement.relocate_outside` run them
on a :class:`~repro.placement.placement.Placement`'s cell objects and rows.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..netlist import CellInstance
from ..netlist.library import ROW_HEIGHT
from .floorplan import Floorplan, Rect
from .placement import NO_FILLERS, FillerBlock, Placement, free_intervals

@lru_cache(maxsize=4096)
def _visiting_order(origin: int, num_rows: int) -> Tuple[int, ...]:
    """Rows by increasing distance from ``origin``; a pair at equal distance
    is taken in the iteration order of its two-element set."""
    return tuple(
        r
        for offset in range(num_rows)
        for r in {origin - offset, origin + offset}
        if 0 <= r < num_rows
    )


class RowOccupancy:
    """Cells in placement rows as coordinate lists.

    Cell ``i`` is ``width[i]`` wide, with its lower-left corner at
    ``(x[i], y[i])`` in row ``row[i]`` (``NaN`` and ``-1`` when unset).
    ``rows[r]`` lists the cells occupying row ``r`` in the order a
    :class:`~repro.placement.placement.Row` keeps its cells, which decides
    every tie of the stable sorts by x.  A detached cell keeps its
    coordinates and row as a relocation hint.  ``fillers`` occupy the rows
    for :meth:`gaps` only; the routines move cells only.
    """

    def __init__(
        self, floorplan: Floorplan, x: List[float], y: List[float], row: List[int],
        width: Sequence[float], rows: List[List[int]], fillers: FillerBlock = NO_FILLERS,
    ) -> None:
        self.floorplan = floorplan
        self.x = x
        self.y = y
        self.row = row
        self.width = width
        self.rows = rows
        self.fillers = fillers
        self.row_y = [floorplan.row_y(r) for r in range(len(rows))]

    @classmethod
    def of_arrays(
        cls, floorplan: Floorplan, x: np.ndarray, y: np.ndarray, row: np.ndarray,
        width: np.ndarray, fillers: FillerBlock = NO_FILLERS,
    ) -> "RowOccupancy":
        """Occupancy of cells at ``x``/``y``/``row``, rows rebuilt from ``y``
        (:func:`snap_to_rows`), each row's cells by x, ties in cell order."""
        y, row = snap_to_rows(floorplan, x, y, row)
        members = np.flatnonzero(~(np.isnan(x) | np.isnan(y)))
        members = members[np.lexsort((x[members], row[members]))]
        counts = np.bincount(row[members], minlength=floorplan.num_rows)
        rows = [part.tolist() for part in np.split(members, np.cumsum(counts)[:-1])]
        return cls(floorplan, x.tolist(), y.tolist(), row.tolist(), width.tolist(), rows, fillers)

    # ------------------------------------------------------------------
    # Row editing
    # ------------------------------------------------------------------

    def place(self, cell: int, x: float, row: int) -> None:
        """Set ``cell``'s position to ``x`` in ``row`` (row lists untouched)."""
        self.x[cell] = x
        self.y[cell] = self.row_y[row]
        self.row[cell] = row

    def add(self, row: int, cell: int, x: float) -> None:
        """Place ``cell`` at ``x`` in ``row`` and append it to the row."""
        self.place(cell, x, row)
        self.rows[row].append(cell)

    def remove(self, cell: int) -> None:
        """Detach ``cell`` from the row it is in, if any."""
        row = self.row[cell]
        if 0 <= row < len(self.rows) and cell in self.rows[row]:
            self.rows[row].remove(cell)

    def sort(self, row: int) -> None:
        """Order ``row``'s cells by x (stable)."""
        self.rows[row].sort(key=self.x.__getitem__)

    def gaps(self, row: int) -> List[Tuple[float, float]]:
        """Free intervals ``(x0, x1)`` of ``row`` between cells and fillers,
        as :meth:`~repro.placement.placement.Row.gaps` (sorting the row)."""
        self.sort(row)
        occupants = [(self.x[i], self.width[i]) for i in self.rows[row]]
        fillers = self.fillers.in_row(row) if self.fillers else ()
        if fillers:
            occupants.extend(fillers)
            occupants.sort(key=lambda occupant: occupant[0])
        return free_intervals(occupants, 0.0, self.floorplan.core_width)

    def all_gaps(self) -> List[Tuple[int, List[Tuple[float, float]]]]:
        """``(row, gaps)`` of every row, bottom to top (what fillers fill)."""
        return [(row, self.gaps(row)) for row in range(len(self.rows))]

    # ------------------------------------------------------------------
    # Region packing
    # ------------------------------------------------------------------

    def targets(
        self, cells: Sequence[int], region: Rect,
        goals: Optional[Tuple[Sequence[float], Sequence[float]]] = None,
    ) -> List[Tuple[float, float]]:
        """Target centre of each of ``cells`` for :meth:`pack`: its goal
        ``(goals[0][i], goals[1][i])`` where given and not ``NaN``, else its
        current centre, else (unplaced) the centre of ``region``."""
        x, y, width = self.x, self.y, self.width
        goal_x, goal_y = goals if goals is not None else (None, None)
        targets = []
        for i in cells:
            if goal_x is not None and goal_x[i] == goal_x[i]:
                targets.append((goal_x[i], goal_y[i]))
            elif x[i] == x[i] and y[i] == y[i]:
                targets.append((x[i] + width[i] / 2.0, y[i] + ROW_HEIGHT / 2.0))
            else:
                targets.append(region.center)
        return targets

    def pack(
        self, cells: Sequence[int], region: Rect, targets: Sequence[Tuple[float, float]]
    ) -> None:
        """Legally place ``cells`` inside ``region`` with uniform density.

        Cells are distributed over the region's rows in groups of roughly
        equal total width, lower target y to lower rows; within a row they
        are ordered by target x and spread evenly between the region's left
        and right edges, and the whole row is then cleared of overlaps.

        Args:
            cells: Cells to place; any row they are in is left first.
            region: Region rectangle; must cover at least one row.
            targets: Target centre ``(x, y)`` of each cell of ``cells``.

        Raises:
            ValueError: If the region covers no rows or the cells do not
                fit in the region's total row capacity (nothing is moved).
        """
        half_row = self.floorplan.row_height / 2.0
        row_indices = [
            r for r, y in enumerate(self.row_y) if region.y0 <= y + half_row < region.y1
        ]
        if not row_indices:
            raise ValueError("region does not cover any placement row")

        x0 = max(region.x0, 0.0)
        x1 = min(region.x1, self.floorplan.core_width)
        total_capacity = (x1 - x0) * len(row_indices)
        width = self.width
        total_width = sum(width[i] for i in cells)
        if total_width > total_capacity + 1e-6:
            raise ValueError(
                f"cells (width {total_width:.1f}um) do not fit region capacity "
                f"({total_capacity:.1f}um)"
            )

        for cell in cells:
            self.remove(cell)

        # Order by target y then x, and split into per-row groups of roughly
        # equal total width so density is uniform across the region.
        ordered = sorted(range(len(cells)), key=lambda k: (targets[k][1], targets[k][0]))
        num_rows = len(row_indices)
        per_row_width = total_width / num_rows
        groups: List[List[int]] = [[] for _ in range(num_rows)]
        acc = 0.0
        row_cursor = 0
        for k in ordered:
            size = width[cells[k]]
            if acc > per_row_width * (row_cursor + 1) - size / 2.0 and row_cursor < num_rows - 1:
                row_cursor += 1
            groups[row_cursor].append(k)
            acc += size

        for group, row in zip(groups, row_indices):
            group.sort(key=lambda k: targets[k][0])
            members = [cells[k] for k in group]
            cursor = x0
            for cell in members:
                self.add(row, cell, cursor)
                cursor += width[cell]
            self._spread_span(row, members, x0, x1)

    def _spread_span(self, row: int, group: Sequence[int], x0: float, x1: float) -> None:
        """Evenly distribute ``group`` (already in ``row``) over ``[x0, x1]``."""
        width = self.width
        slack = (x1 - x0) - sum(width[i] for i in group)
        if slack < 0 or not group:
            return
        gap = slack / (len(group) + 1)
        cursor = x0 + gap
        snap_x = self.floorplan.snap_x
        for cell in sorted(group, key=self.x.__getitem__):
            x = min(max(snap_x(cursor), x0), x1 - width[cell])
            self.place(cell, x, row)
            cursor = max(cursor + width[cell] + gap, x + width[cell])
        self.sort(row)
        self._resolve_row_overlaps(row)

    def _resolve_row_overlaps(self, row: int) -> None:
        """Shift ``row``'s cells right (then clamp left) to remove any overlap."""
        self.sort(row)
        x, width = self.x, self.width
        cursor = 0.0
        for cell in self.rows[row]:
            left = max(x[cell], cursor)
            self.place(cell, left, row)
            cursor = left + width[cell]
        # If the last cell spilled out of the row, push the chain back left.
        if cursor - self.floorplan.core_width > 1e-9:
            cursor = self.floorplan.core_width
            for cell in reversed(self.rows[row]):
                left = min(x[cell], cursor - width[cell])
                self.place(cell, left, row)
                cursor = left

    # ------------------------------------------------------------------
    # Relocation and forced insertion
    # ------------------------------------------------------------------

    def relocate_outside(self, cells: Sequence[int], rect: Rect) -> List[int]:
        """Re-insert detached cells into the nearest free space outside ``rect``.

        Widest cell first, each cell goes to the first row, by distance from
        the row of its kept y, holding a free interval it fits whose centre
        stays outside ``rect``: the first such interval left to right, at
        the position closest to the cell's kept x.

        Returns:
            The cells that fit nowhere, in processing order.
        """
        half_row = self.floorplan.row_height / 2.0
        # Per row: its usable intervals (the longest part of each gap left or
        # right of ``rect``, or the whole gap where the row misses ``rect``)
        # and their longest length, recomputed only after the row changes.
        usable: Dict[int, Tuple[float, List[Tuple[float, float]]]] = {}

        def usable_intervals(row: int) -> Tuple[float, List[Tuple[float, float]]]:
            entry = usable.get(row)
            if entry is None:
                crosses = rect.y0 <= self.row_y[row] + half_row < rect.y1
                intervals = []
                for lo, hi in self.gaps(row):
                    if crosses:
                        left, right = (lo, min(hi, rect.x0)), (max(lo, rect.x1), hi)
                        left_size, right_size = left[1] - left[0], right[1] - right[0]
                        if left_size >= 0.0 and (right_size < 0.0 or left_size >= right_size):
                            lo, hi = left
                        elif right_size >= 0.0:
                            lo, hi = right
                        else:
                            continue
                    if hi > lo:
                        intervals.append((lo, hi))
                longest = max((hi - lo for lo, hi in intervals), default=float("-inf"))
                entry = usable[row] = (longest, intervals)
            return entry

        failed: List[int] = []
        x, y, width = self.x, self.y, self.width
        for cell in sorted(cells, key=lambda i: -width[i]):
            origin_x = x[cell] if x[cell] == x[cell] else 0.0
            origin_y = y[cell] if y[cell] == y[cell] else 0.0
            size = width[cell]
            for row in _visiting_order(self.floorplan.row_of_y(origin_y), len(self.rows)):
                longest, intervals = usable_intervals(row)
                if longest < size:
                    continue
                for lo, hi in intervals:
                    if hi - lo >= size:
                        self.add(row, cell, min(max(origin_x, lo), hi - size))
                        self.sort(row)
                        del usable[row]
                        break
                break
            else:
                failed.append(cell)
        return failed

    def force_insert(self, cell: int, avoid_rect: Optional[Rect] = None) -> bool:
        """Insert ``cell`` even when no single free gap is wide enough.

        Whitespace in a spread-out placement is fragmented into many small
        gaps; this picks the closest row with enough *total* free width
        (preferring rows outside ``avoid_rect``), packs that row to the left
        to consolidate its whitespace and appends the cell at the packed
        end.  Fillers are not counted: the occupancy must hold none.

        Returns:
            ``True`` if the cell was inserted, ``False`` if no row has
            enough free width.
        """
        y, width = self.y[cell], self.width
        origin = self.floorplan.row_of_y((y if y == y else 0.0) + 1e-9)
        half_row = self.floorplan.row_height / 2.0
        avoid = avoid_rect is not None and avoid_rect.area > 0

        def priority(row: int) -> Tuple[int, int]:
            mid = self.row_y[row] + half_row
            inside = 1 if avoid and avoid_rect.y0 <= mid < avoid_rect.y1 else 0
            return (inside, abs(row - origin))

        for row in sorted(range(len(self.rows)), key=priority):
            members = self.rows[row]
            if self.floorplan.core_width - sum(width[i] for i in members) >= width[cell] - 1e-9:
                self.sort(row)
                cursor = 0.0
                for member in members:
                    self.place(member, cursor, row)
                    cursor += width[member]
                self.add(row, cell, 0.0 + sum(width[i] for i in members))
                self.sort(row)
                return True
        return False


# ----------------------------------------------------------------------
# Object adapters
# ----------------------------------------------------------------------


def _occupancy_of(
    placement: Placement, extra: Iterable[CellInstance] = ()
) -> Tuple[RowOccupancy, List[CellInstance], Dict[int, int]]:
    """``placement``'s rows as an occupancy over its netlist's cells (then
    ``extra`` and any other cell in a row), the cell objects in occupancy
    order and the occupancy index of each object's ``id``."""
    cells = list(placement.netlist.cells.values())
    index = {id(cell): i for i, cell in enumerate(cells)}
    for cell in chain(extra, *(row.cells for row in placement.rows)):
        if id(cell) not in index:
            index[id(cell)] = len(cells)
            cells.append(cell)
    occupancy = RowOccupancy(
        placement.floorplan,
        [np.nan if cell.x is None else cell.x for cell in cells],
        [np.nan if cell.y is None else cell.y for cell in cells],
        [-1 if cell.row is None else cell.row for cell in cells],
        [cell.width for cell in cells],
        [[index[id(cell)] for cell in row.cells] for row in placement.rows],
        placement.fillers,
    )
    return occupancy, cells, index


def _write_back(placement: Placement, occupancy: RowOccupancy, cells: List[CellInstance]) -> None:
    """Copy the occupancy's coordinates and row lists onto the objects."""
    for cell, x, y, row in zip(cells, occupancy.x, occupancy.y, occupancy.row):
        cell.x = None if x != x else x
        cell.y = None if y != y else y
        cell.row = None if row < 0 else row
    for row, members in zip(placement.rows, occupancy.rows):
        row.cells[:] = [cells[i] for i in members]


def pack_into_region(placement: Placement, cells: Sequence[CellInstance], region: Rect) -> None:
    """Legally place ``cells`` inside ``region`` with uniform density: the
    object form of :meth:`RowOccupancy.pack`, each cell aimed at its
    :meth:`RowOccupancy.targets` (raises its ``ValueError``, moving nothing)."""
    occupancy, objects, index = _occupancy_of(placement, cells)
    keys = [index[id(cell)] for cell in cells]
    occupancy.pack(keys, region, occupancy.targets(keys, region))
    _write_back(placement, occupancy, objects)


def snap_to_rows(
    floorplan: Floorplan, x: np.ndarray, y: np.ndarray, row: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """``(y, row)`` with every placed cell moved onto the row its y lies in
    (rounding up by 1e-9); an unplaced cell keeps its y and row."""
    placed = ~(np.isnan(x) | np.isnan(y))
    with np.errstate(invalid="ignore"):
        found = np.floor((y + 1e-9) / floorplan.row_height)
    found = np.clip(np.nan_to_num(found), 0, floorplan.num_rows - 1).astype(np.int64)
    row = np.where(placed, found, row)
    return np.where(placed, row * floorplan.row_height, y), row


__all__ = ["RowOccupancy", "pack_into_region", "snap_to_rows"]
