"""Filler (dummy) cell insertion.

Both techniques in the paper fill the whitespace they create with dummy
cells: "cells which do not contain active transistors and consume zero
power", guaranteeing power/ground rail continuity and design-rule
compliance.  This module inserts library filler cells into every free gap
of every placement row (greedy, widest filler first) and can remove them
again before a placement is re-optimised.
"""

from __future__ import annotations

from typing import List

from ..netlist import CellInstance
from .placement import Placement


_FILLER_PREFIX = "FILLER_"


def insert_fillers(placement: Placement, prefix: str = _FILLER_PREFIX) -> List[CellInstance]:
    """Fill every row gap with filler cells.

    Gaps are covered greedily with the widest filler that fits, repeated
    until the remaining space is narrower than the narrowest filler.  The
    fillers join the netlist in one :meth:`~repro.netlist.Netlist.add_fillers`
    edit (so its compiled connectivity stays shared) and the placement
    stamp advances once.

    Args:
        placement: Placement whose rows will be filled (modified in place).
        prefix: Instance-name prefix for the created fillers.

    Returns:
        The list of inserted filler cell instances.
    """
    netlist = placement.netlist
    fillers = netlist.library.filler_cells()  # widest first
    if not fillers:
        return []
    choices = [(f.width_um, f) for f in fillers]
    min_width = min(width for width, _ in choices)
    counter = _next_filler_index(placement, prefix)
    # Per filler, in creation order: name, master, row and x.
    names: List[str] = []
    masters = []
    rows = []
    xs: List[float] = []

    for row in placement.rows:
        for gap_start, gap_end in row.gaps():
            cursor = gap_start
            remaining = gap_end - cursor
            while remaining >= min_width - 1e-9:
                for width, master in choices:
                    if width <= remaining + 1e-9:
                        break
                else:
                    break
                names.append(f"{prefix}{counter}")
                counter += 1
                masters.append(master)
                rows.append(row)
                xs.append(cursor)
                cursor += width
                remaining = gap_end - cursor

    inserted = netlist.add_fillers(names, masters)
    filled_rows = {}
    for cell, row, x in zip(inserted, rows, xs):
        cell.x = x
        cell.y = row.y
        cell.row = row.index
        row.cells.append(cell)
        filled_rows[row.index] = row
    for row in filled_rows.values():
        row.sort()
    netlist.mark_placement_changed()
    return inserted


def remove_fillers(placement: Placement, prefix: str = _FILLER_PREFIX) -> int:
    """Remove previously inserted filler cells.

    Args:
        placement: Placement to clean up (modified in place).
        prefix: Instance-name prefix used at insertion time.

    Returns:
        The number of filler instances removed.
    """
    to_remove = [
        cell
        for cell in placement.netlist.cells.values()
        if cell.is_filler and cell.name.startswith(prefix)
    ]
    for cell in to_remove:
        placement.remove(cell)
        placement.netlist.remove_cell(cell.name)
    return len(to_remove)


def filler_area(placement: Placement) -> float:
    """Total area of placed filler cells in square micrometres."""
    return sum(c.area for c in placement.netlist.filler_cells() if c.is_placed)


def _next_filler_index(placement: Placement, prefix: str) -> int:
    """First unused integer suffix for filler instance names."""
    highest = -1
    for name in placement.netlist.cells:
        if name.startswith(prefix):
            suffix = name[len(prefix):]
            if suffix.isdigit():
                highest = max(highest, int(suffix))
    return highest + 1
