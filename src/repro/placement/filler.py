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

from typing import Tuple

import numpy as np

from ..floatsum import ordered_sum
from ..netlist import Netlist
from .placement import FILLER_PREFIX, NO_FILLERS, FillerBlock, Placement


def insert_fillers(placement: Placement, prefix: str = FILLER_PREFIX) -> FillerBlock:
    """Fill every row gap with filler cells.

    Gaps are covered greedily with the widest filler that fits, repeated
    until the remaining space is narrower than the narrowest filler.  The
    fillers extend the placement's filler block (names continue after the
    block, or after the netlist's own ``prefix``-named cells when the block
    is empty); the netlist gains no cell.
    :meth:`~repro.placement.view.PlacementView.with_fillers` fills a view
    the same way.

    Args:
        placement: Placement whose rows will be filled (modified in place).
        prefix: Instance-name prefix for the created fillers.

    Returns:
        The inserted fillers as a block of their own.
    """
    gaps = [(row.index, lo, hi) for row in placement.rows for lo, hi in row.gaps()]
    row, lo, hi = zip(*gaps) if gaps else ((), (), ())
    inserted = filler_block(
        placement.netlist, (np.array(row, np.int64), np.array(lo), np.array(hi)),
        placement.fillers, prefix,
    )
    placement.fillers = placement.fillers.extended(inserted)
    return inserted


def filler_block(
    netlist: Netlist,
    gaps: Tuple[np.ndarray, np.ndarray, np.ndarray],
    existing: FillerBlock,
    prefix: str = FILLER_PREFIX,
) -> FillerBlock:
    """The fillers covering ``gaps`` (``(row, lo, hi)`` arrays), as a block.

    Each gap is covered greedily from its left edge with the widest of
    the library's fillers that fits, every gap a step at a time, so each
    x is the loop's running ``+=``; the fillers are taken gap by gap, left
    to right.  Names continue after ``existing`` (or after ``netlist``'s
    own ``prefix``-named cells when it is empty).
    """
    fillers = netlist.library.filler_cells()  # widest first
    if not fillers:
        return FillerBlock(prefix, existing.end if existing else 0)
    widths = np.array([f.width_um for f in fillers])
    floor = widths.min() - 1e-9
    gap_row, cursor, end = gaps
    gap = np.flatnonzero(end - cursor >= floor)
    cursor, end = cursor[gap], end[gap]
    # Per step, the gap, x and master of the filler each live gap takes.
    taken = [(gap[:0], cursor[:0], gap[:0])]
    while gap.size:
        fits = widths <= (end - cursor + 1e-9)[:, None]
        live = fits.any(axis=1)
        gap, cursor, end, fits = gap[live], cursor[live], end[live], fits[live]
        master = fits.argmax(axis=1)
        taken.append((gap, cursor, master))
        cursor = cursor + widths[master]
        live = end - cursor >= floor
        gap, cursor, end = gap[live], cursor[live], end[live]
    gap, x, master = (np.concatenate(part) for part in zip(*taken))
    order = np.argsort(gap, kind="stable")
    first = existing.end if existing else netlist.compiled().connectivity.next_name_index(
        netlist, prefix
    )
    return FillerBlock(prefix, first, tuple(fillers), gap_row[gap[order]], x[order], master[order])


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
    cells = ordered_sum(c.area for c in placement.netlist.filler_cells() if c.is_placed)
    return cells + ordered_sum(m.area_um2 for m in placement.fillers.master_cells())
