"""Legalization on row occupancy: region packing, relocation, forced insertion.

Each algorithm has one implementation, a :class:`RowOccupancy` method on
coordinate lists: :meth:`~RowOccupancy.pack` (region-constrained row
packing: the placer's per-unit regions, the wrapper's hotspot cells),
:meth:`~RowOccupancy.relocate_outside` (evicted cells into the nearest free
space outside a rectangle) and :meth:`~RowOccupancy.force_insert`.
:func:`row_gaps` finds the free intervals of every row in one pass of
array ops; fillers fill them and relocation re-inserts cells into them.
:func:`pack_into_region` and :meth:`Placement.relocate_outside` run the
methods on a :class:`~repro.placement.placement.Placement`'s cell objects
and rows.
"""

from __future__ import annotations

from bisect import insort
from functools import lru_cache
from itertools import chain
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..floatsum import ordered_sum
from ..netlist import CellInstance
from ..netlist.library import ROW_HEIGHT
from .floorplan import Floorplan, Rect
from .placement import NO_FILLERS, FillerBlock, Placement

#: ``(row, lo, hi)`` of free intervals, by row, then left to right.
GapArrays = Tuple[np.ndarray, np.ndarray, np.ndarray]


@lru_cache(maxsize=16)
def _visiting_orders(num_rows: int) -> np.ndarray:
    """Row ``origin`` of the table: every row by increasing distance from
    ``origin``; a pair at equal distance is taken in the iteration order of
    its two-element set."""
    table = np.array([
        [r for offset in range(num_rows) for r in {origin - offset, origin + offset}
         if 0 <= r < num_rows]
        for origin in range(num_rows)
    ], dtype=np.int64).reshape(num_rows, num_rows)
    table.setflags(write=False)
    return table


def row_gaps(
    floorplan: Floorplan, row: np.ndarray, x: np.ndarray, width: np.ndarray,
    fillers: FillerBlock = NO_FILLERS,
) -> GapArrays:
    """Free intervals of every row of ``floorplan`` around the occupants
    ``(row[k], x[k], width[k])`` and ``fillers``, which may overlap.

    Row by row, bitwise what :func:`~repro.placement.placement.free_intervals`
    gives over ``[0, core_width)``: a gap opens before each occupant that
    starts right of the running max of the ends before it (a max rounds
    nothing, and ties at equal x change no gap), and one ends the row.
    """
    if fillers:
        row = np.concatenate([row, fillers.row])
        x = np.concatenate([x, fillers.x])
        width = np.concatenate([width, fillers.widths])
    order = np.lexsort((x, row))
    row, x = row[order], x[order]
    rows = np.arange(floorplan.num_rows)
    counts = np.bincount(row, minlength=rows.size)
    slot = np.arange(row.size) - (np.cumsum(counts) - counts)[row]
    # cursor[r, j]: the running max of row r's ends before its occupant j.
    cursor = np.zeros((rows.size, int(counts.max(initial=0)) + 1))
    cursor[row, slot + 1] = x + width[order]
    cursor = np.maximum.accumulate(cursor, axis=1)
    # Each row's gaps before its occupants, then its tail, kept where non-empty.
    gap_row = np.concatenate([row, rows])
    lo = np.concatenate([cursor[row, slot], cursor[rows, counts]])
    hi = np.concatenate([x, np.full(rows.size, floorplan.core_width)])
    order = np.argsort(gap_row, kind="stable")
    order = order[hi[order] > lo[order]]
    return gap_row[order], lo[order], hi[order]


class RowOccupancy:
    """Cells in placement rows as coordinate lists.

    Cell ``i`` is ``width[i]`` wide, with its lower-left corner at
    ``(x[i], y[i])`` in row ``row[i]`` (``NaN`` and ``-1`` when unset).
    ``rows[r]`` lists the cells occupying row ``r`` in the order a
    :class:`~repro.placement.placement.Row` keeps its cells, which decides
    every tie of the stable sorts by x.  A detached cell keeps its
    coordinates and row as a relocation hint.  ``fillers`` occupy the rows
    for :meth:`gap_arrays` only; the routines move cells only.
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

    def remove(self, cells: Iterable[int]) -> None:
        """Detach ``cells`` from the rows they are in, if any (one pass per row)."""
        cells = set(cells)
        for row in {self.row[cell] for cell in cells} & set(range(len(self.rows))):
            self.rows[row] = [cell for cell in self.rows[row] if cell not in cells]

    def sort(self, row: int) -> None:
        """Order ``row``'s cells by x (stable)."""
        self.rows[row].sort(key=self.x.__getitem__)

    def gap_arrays(self) -> GapArrays:
        """:func:`row_gaps` of the cells in the rows and the fillers (what fillers fill)."""
        members = np.fromiter(chain.from_iterable(self.rows), np.int64)
        row = np.repeat(np.arange(len(self.rows)), [len(cells) for cells in self.rows])
        x, width = np.array(self.x)[members], np.asarray(self.width)[members]
        return row_gaps(self.floorplan, row, x, width, self.fillers)

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
        total_width = ordered_sum(width[i] for i in cells)
        if total_width > total_capacity + 1e-6:
            raise ValueError(
                f"cells (width {total_width:.1f}um) do not fit region capacity "
                f"({total_capacity:.1f}um)"
            )

        self.remove(cells)

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
        """Evenly distribute ``group`` (just added to ``row`` packed from
        ``x0``, so in x order) over ``[x0, x1]``."""
        x, width = self.x, self.width
        slack = (x1 - x0) - ordered_sum(width[i] for i in group)
        if slack < 0 or not group:
            return
        gap = slack / (len(group) + 1)
        cursor = x0 + gap
        site, core_width = self.floorplan.site_width, self.floorplan.core_width
        for cell in group:
            snapped = min(max(round(cursor / site) * site, 0.0), core_width)
            left = x[cell] = min(max(snapped, x0), x1 - width[cell])
            cursor = max(cursor + width[cell] + gap, left + width[cell])
        self._resolve_row_overlaps(row)

    def _resolve_row_overlaps(self, row: int) -> None:
        """Shift ``row``'s cells right (then clamp left) to remove any overlap."""
        self.sort(row)
        x, y, rows, width, row_y = self.x, self.y, self.row, self.width, self.row_y[row]
        cursor = 0.0
        for cell in self.rows[row]:
            left = x[cell] = max(x[cell], cursor)
            y[cell], rows[cell] = row_y, row
            cursor = left + width[cell]
        # If the last cell spilled out of the row, push the chain back left.
        if cursor - self.floorplan.core_width > 1e-9:
            cursor = self.floorplan.core_width
            for cell in reversed(self.rows[row]):
                cursor = x[cell] = min(x[cell], cursor - width[cell])

    # ------------------------------------------------------------------
    # Relocation and forced insertion
    # ------------------------------------------------------------------

    def relocate_outside(self, cells: Sequence[int], rect: Rect) -> List[int]:
        """Re-insert detached cells into the nearest free space outside ``rect``.

        Widest cell first, each cell goes to the first row, by distance from
        the row of its kept y, holding a free interval it fits whose centre
        stays outside ``rect``: the first such interval left to right, at
        the position closest to the cell's kept x.  Every row looked at on
        the way is sorted by x.

        Returns:
            The cells that fit nowhere, in processing order.
        """
        if not cells:
            return []
        half_row = self.floorplan.row_height / 2.0
        crosses = [rect.y0 <= y + half_row < rect.y1 for y in self.row_y]
        inf = float("inf")

        def usable(row: int, lo: float, hi: float) -> Tuple[float, float, float, float, float]:
            """``(size, lo', hi', lo, hi)``: gap ``(lo, hi)`` and its usable
            part ``(lo', hi')``, the longer side of ``rect`` where ``row``
            crosses it, ``size`` its length (``-inf`` if it is empty)."""
            part = lo, hi
            if crosses[row]:
                left, right = (lo, min(hi, rect.x0)), (max(lo, rect.x1), hi)
                left_size, right_size = left[1] - left[0], right[1] - right[0]
                if left_size >= 0.0 and (right_size < 0.0 or left_size >= right_size):
                    part = left
                elif right_size >= 0.0:
                    part = right
                else:
                    return -inf, lo, hi, lo, hi
            size = part[1] - part[0] if part[1] > part[0] else -inf
            return size, part[0], part[1], lo, hi

        # Every row's gaps, taken once, as usable() entries (a row missing
        # ``rect`` uses its gaps whole), and each row's longest usable part.
        num_rows = len(self.rows)
        gap_row, gap_lo, gap_hi = self.gap_arrays()
        bounds = np.searchsorted(gap_row, np.arange(num_rows + 1)).tolist()
        gap_lo, gap_hi = gap_lo.tolist(), gap_hi.tolist()
        entries = []
        for row, (start, end) in enumerate(zip(bounds, bounds[1:])):
            spans = zip(gap_lo[start:end], gap_hi[start:end])
            entries.append([usable(row, lo, hi) for lo, hi in spans] if crosses[row]
                           else [(hi - lo, lo, hi, lo, hi) for lo, hi in spans])
        longest = np.array([max(gaps)[0] if gaps else -inf for gaps in entries])
        seen = np.zeros(num_rows, bool)  # rows sorted, as looking at a row sorts it
        orders = _visiting_orders(num_rows)

        failed: List[int] = []
        x, y, width = self.x, self.y, self.width
        for cell in sorted(cells, key=lambda i: -width[i]):
            origin_x = x[cell] if x[cell] == x[cell] else 0.0
            origin_y = y[cell] if y[cell] == y[cell] else 0.0
            need = width[cell]
            order = orders[self.floorplan.row_of_y(origin_y)]
            fits = longest[order] >= need
            first = int(fits.argmax())
            looked = order[:first + 1] if fits[first] else order
            for row in looked[~seen[looked]].tolist():
                self.sort(row)
            seen[looked] = True
            if not fits[first]:
                failed.append(cell)
                continue
            row = int(order[first])
            gaps = entries[row]
            j = next(j for j, entry in enumerate(gaps) if entry[0] >= need)
            _, lo, hi, gap_start, gap_end = gaps[j]
            left = min(max(origin_x, lo), hi - need)
            self.place(cell, left, row)
            insort(self.rows[row], cell, key=x.__getitem__)
            # Only the gap the cell went into changes: it splits in two.
            gaps[j:j + 1] = [
                usable(row, a, b) for a, b in ((gap_start, left), (left + need, gap_end)) if b > a
            ]
            longest[row] = max(gaps)[0] if gaps else -inf
        return failed

    def force_insert(self, cells: Sequence[int], avoid_rect: Optional[Rect] = None) -> List[int]:
        """Insert ``cells`` even where no single free gap is wide enough.

        Whitespace in a spread-out placement is fragmented into many small
        gaps; for each cell in turn this picks the closest row with enough
        *total* free width (preferring rows outside ``avoid_rect``), packs
        that row to the left to consolidate its whitespace and appends the
        cell at the packed end.  Fillers are not counted: the occupancy
        must hold none.

        Returns:
            The cells no row has enough free width for, in order.
        """
        mid = np.asarray(self.row_y) + self.floorplan.row_height / 2.0
        inside = np.zeros(mid.shape, bool)
        if avoid_rect is not None and avoid_rect.area > 0:
            inside = (avoid_rect.y0 <= mid) & (mid < avoid_rect.y1)
        rows, width = np.arange(len(self.rows)), self.width
        # Row width in use, summed in row-list order (a filled row's list is
        # its sorted members, then the cell).
        used = np.array([ordered_sum(width[i] for i in members) for members in self.rows])
        failed: List[int] = []
        for cell in cells:
            y = self.y[cell]
            origin = self.floorplan.row_of_y((y if y == y else 0.0) + 1e-9)
            room = np.flatnonzero(self.floorplan.core_width - used >= width[cell] - 1e-9)
            if not room.size:
                failed.append(cell)
                continue
            # Rows outside the rectangle first, then by distance, then by index.
            priority = inside[room] * (2 * rows.size) + np.abs(rows[room] - origin)
            row = int(room[priority.argmin()])
            self.sort(row)
            cursor = 0.0
            for member in self.rows[row]:
                self.place(member, cursor, row)
                cursor += width[member]
            self.add(row, cell, cursor)
            used[row] = cursor + width[cell]
        return failed


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


__all__ = ["RowOccupancy", "pack_into_region", "row_gaps", "snap_to_rows"]
