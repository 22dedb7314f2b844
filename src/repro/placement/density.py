"""Cell-density maps over the die.

The hotspot techniques reason about *power density*; this module provides
the closely related *cell density* map (placed cell area per unit die area)
on the same grid the thermal model uses, which is useful for diagnostics,
for verifying that the hotspot wrapper really lowered the cell density in
the wrapped region, and for the routing-congestion by-product the paper
mentions for empty row insertion.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..floatsum import ordered_sum
from .floorplan import Rect
from .placement import Placement


def cell_density_map(
    placement: Placement,
    nx: int = 40,
    ny: int = 40,
    include_fillers: bool = False,
    over_die: bool = True,
) -> np.ndarray:
    """Compute the cell-area density on an ``ny`` x ``nx`` grid.

    Each placed cell's area is accumulated into the grid bin containing its
    centre; the result is normalised by the bin area so values are
    dimensionless densities (1.0 means the bin is fully covered by cells).

    Args:
        placement: The placed design.
        nx: Number of grid bins in x.
        ny: Number of grid bins in y.
        include_fillers: Whether filler cells count towards density (they
            are whitespace, so the default is ``False``).
        over_die: Grid covers the die (core plus margin) when ``True``,
            matching the thermal grid; covers only the core when ``False``.

    Returns:
        Array of shape ``(ny, nx)``; row 0 is the bottom of the die.
    """
    floorplan = placement.floorplan
    if over_die:
        origin_x = -floorplan.die_margin
        origin_y = -floorplan.die_margin
        width = floorplan.die_width
        height = floorplan.die_height
    else:
        origin_x = origin_y = 0.0
        width = floorplan.core_width
        height = floorplan.core_height

    density = np.zeros((ny, nx), dtype=float)
    bin_w = width / nx
    bin_h = height / ny
    bin_area = bin_w * bin_h

    for cell in placement.placed_cells(include_fillers=include_fillers):
        cx, cy = cell.center
        ix = int((cx - origin_x) / bin_w)
        iy = int((cy - origin_y) / bin_h)
        ix = min(max(ix, 0), nx - 1)
        iy = min(max(iy, 0), ny - 1)
        density[iy, ix] += cell.area

    return density / bin_area


def density_in_rect(placement: Placement, rect: Rect, include_fillers: bool = False) -> float:
    """Cell-area density inside ``rect`` (cell area / rect area)."""
    if rect.area <= 0.0:
        return 0.0
    area = ordered_sum(
        c.area for c in placement.cells_in_rect(rect, include_fillers=include_fillers)
    )
    return area / rect.area


def peak_density(density: np.ndarray) -> Tuple[float, Tuple[int, int]]:
    """Return the peak density value and its ``(iy, ix)`` grid location."""
    flat_index = int(np.argmax(density))
    iy, ix = np.unravel_index(flat_index, density.shape)
    return float(density[iy, ix]), (int(iy), int(ix))
