"""Filler (dummy) cell insertion.

Both techniques in the paper fill the whitespace they create with dummy
cells: "cells which do not contain active transistors and consume zero
power", guaranteeing power/ground rail continuity and design-rule
compliance.  This module fills every free gap of every placement row
(greedy, widest filler first) and can remove the fillers again before a
placement is re-optimised.

Fillers have no pins and no power, so they are recorded as the
placement's :class:`~repro.placement.placement.FillerBlock` — row, x and
master arrays — rather than as netlist cells;
:meth:`~repro.placement.placement.Placement.materialize_fillers` builds the
cells when a consumer needs objects.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

from ..netlist import Netlist
from .placement import FILLER_PREFIX, NO_FILLERS, FillerBlock, Placement


def insert_fillers(placement: Placement, prefix: str = FILLER_PREFIX) -> FillerBlock:
    """Fill every row gap with filler cells.

    Gaps are covered greedily with the widest filler that fits, repeated
    until the remaining space is narrower than the narrowest filler.  The
    fillers extend the placement's filler block (names continue after the
    block, or after the netlist's own ``prefix``-named cells when the block
    is empty) and the placement stamp advances once; the netlist gains no
    cell.  :meth:`~repro.placement.view.PlacementView.with_fillers` fills a
    view the same way.

    Args:
        placement: Placement whose rows will be filled (modified in place).
        prefix: Instance-name prefix for the created fillers.

    Returns:
        The inserted fillers as a block of their own.
    """
    inserted = filler_block(
        placement.netlist, ((row.index, row.gaps()) for row in placement.rows),
        placement.fillers, prefix,
    )
    placement.fillers = placement.fillers.extended(inserted)
    placement.netlist.mark_placement_changed()
    return inserted


def filler_block(
    netlist: Netlist,
    row_gaps: Iterable[Tuple[int, List[Tuple[float, float]]]],
    existing: FillerBlock,
    prefix: str = FILLER_PREFIX,
) -> FillerBlock:
    """The fillers covering ``row_gaps`` (``(row index, gaps)`` pairs), as a block.

    Each gap is covered greedily from its left edge with the widest of
    the library's fillers that fits; names continue after ``existing``
    (or after ``netlist``'s own ``prefix``-named cells when it is empty).
    """
    fillers = netlist.library.filler_cells()  # widest first
    if not fillers:
        return FillerBlock(prefix, existing.end if existing else 0)
    choices = [(f.width_um, index) for index, f in enumerate(fillers)]
    min_width = min(width for width, _ in choices)
    # Per filler, in creation order: row, x and master index.
    rows = []
    xs = []
    masters = []

    for index, gaps in row_gaps:
        for gap_start, gap_end in gaps:
            cursor = gap_start
            remaining = gap_end - cursor
            while remaining >= min_width - 1e-9:
                for width, master in choices:
                    if width <= remaining + 1e-9:
                        break
                else:
                    break
                rows.append(index)
                xs.append(cursor)
                masters.append(master)
                cursor += width
                remaining = gap_end - cursor

    first = existing.end if existing else _next_filler_index(netlist, prefix)
    return FillerBlock(prefix, first, tuple(fillers), rows, xs, masters)


def remove_fillers(placement: Placement, prefix: str = FILLER_PREFIX) -> int:
    """Remove previously inserted fillers: the block and any filler cells.

    Args:
        placement: Placement to clean up (modified in place).
        prefix: Instance-name prefix used at insertion time.

    Returns:
        The number of fillers removed.
    """
    removed = 0
    block = placement.fillers
    if block and block.prefix == prefix:
        removed = len(block)
        placement.fillers = NO_FILLERS
        placement.netlist.mark_placement_changed()
    to_remove = [
        cell
        for cell in placement.netlist.cells.values()
        if cell.is_filler and cell.name.startswith(prefix)
    ]
    for cell in to_remove:
        placement.remove(cell)
        placement.netlist.remove_cell(cell.name)
    return removed + len(to_remove)


def filler_area(placement: Placement) -> float:
    """Total area of placed fillers (block and cells) in square micrometres."""
    cells = sum(c.area for c in placement.netlist.filler_cells() if c.is_placed)
    return cells + sum(m.area_um2 for m in placement.fillers.master_cells())


def _next_filler_index(netlist: Netlist, prefix: str) -> int:
    """First unused integer suffix for filler instance names."""
    highest = -1
    for name in netlist.cells:
        if name.startswith(prefix):
            suffix = name[len(prefix):]
            if suffix.isdigit():
                highest = max(highest, int(suffix))
    return highest + 1
