"""Power-density maps over the die.

The thermal model (Section II of the paper) groups "several standard cells
into one thermal cell", summing the power of all covered standard cells.
This module performs exactly that grouping: given a placed design and a
per-cell power report it produces the 2-D grid of power per thermal cell
(and the corresponding power density) that is injected into the RC thermal
network's active layer.

The default (compiled) engine bins all cells with one ``np.bincount`` over
the placement's cached coordinate arrays; the reference engine is the
original cell-at-a-time loop.  Both use :func:`math.floor` before clamping
(truncating with ``int()`` would collapse the open interval just below the
grid origin into bin 0 from the wrong side).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

import numpy as np

from ..engine import resolve_engine
from ..placement import Placement, as_placement
from .power_model import PowerReport


@dataclass
class PowerMap:
    """Power binned onto the thermal grid.

    Attributes:
        power_w: Array of shape ``(ny, nx)`` with watts per grid bin;
            row 0 is the bottom (minimum y) of the die.
        bin_width_um: Bin width in micrometres.
        bin_height_um: Bin height in micrometres.
        origin_um: ``(x, y)`` of the grid's lower-left corner in the
            placement coordinate system.
    """

    power_w: np.ndarray
    bin_width_um: float
    bin_height_um: float
    origin_um: Tuple[float, float]

    @property
    def nx(self) -> int:
        return self.power_w.shape[1]

    @property
    def ny(self) -> int:
        return self.power_w.shape[0]

    @property
    def total_power(self) -> float:
        """Total power in watts."""
        return float(self.power_w.sum())

    @property
    def bin_area_m2(self) -> float:
        """Bin area in square metres."""
        return (self.bin_width_um * 1e-6) * (self.bin_height_um * 1e-6)

    def density_w_per_m2(self) -> np.ndarray:
        """Power density in watts per square metre, per bin."""
        return self.power_w / self.bin_area_m2

    def peak_density(self) -> Tuple[float, Tuple[int, int]]:
        """Peak power density (W/m^2) and its ``(iy, ix)`` location."""
        density = self.density_w_per_m2()
        flat = int(np.argmax(density))
        iy, ix = np.unravel_index(flat, density.shape)
        return float(density[iy, ix]), (int(iy), int(ix))

    def bin_of(self, x_um: float, y_um: float) -> Tuple[int, int]:
        """Grid indices ``(iy, ix)`` of the bin containing a point (clamped).

        Uses :func:`math.floor` so points just below the grid origin map to
        negative raw indices (then clamp to 0) instead of truncating toward
        zero and silently landing in bin 0 as if they were inside it.
        """
        ix = math.floor((x_um - self.origin_um[0]) / self.bin_width_um)
        iy = math.floor((y_um - self.origin_um[1]) / self.bin_height_um)
        return (
            min(max(iy, 0), self.ny - 1),
            min(max(ix, 0), self.nx - 1),
        )

    def bin_center(self, iy: int, ix: int) -> Tuple[float, float]:
        """Placement-coordinate centre of bin ``(iy, ix)`` in micrometres."""
        x = self.origin_um[0] + (ix + 0.5) * self.bin_width_um
        y = self.origin_um[1] + (iy + 0.5) * self.bin_height_um
        return (x, y)


def grid_bin_geometry(
    placement: Placement,
    nx: int = 40,
    ny: int = 40,
    over_die: bool = True,
) -> Tuple[Tuple[float, float], float, float]:
    """Geometry of the thermal-grid binning over a placement.

    The single source of truth for how placement coordinates map onto the
    ``nx`` x ``ny`` thermal grid; used by :func:`build_power_map` and by the
    leakage-feedback loop in :mod:`repro.thermal.solver` so both always bin
    cells identically.

    Args:
        placement: The placed design.
        nx: Number of grid bins in x.
        ny: Number of grid bins in y.
        over_die: When ``True`` the grid spans the die (core plus margin),
            matching the thermal model footprint; otherwise just the core.

    Returns:
        ``(origin, bin_width, bin_height)`` where ``origin`` is the ``(x, y)``
        of the grid's lower-left corner, all in micrometres.
    """
    floorplan = placement.floorplan
    if over_die:
        origin = (-floorplan.die_margin, -floorplan.die_margin)
        width, height = floorplan.die_width, floorplan.die_height
    else:
        origin = (0.0, 0.0)
        width, height = floorplan.core_width, floorplan.core_height
    return origin, width / nx, height / ny


def iter_cell_bins(
    placement: Placement,
    nx: int = 40,
    ny: int = 40,
    over_die: bool = True,
    include_fillers: bool = False,
) -> Iterator[Tuple[object, int, int]]:
    """Yield ``(cell, iy, ix)`` for every placed cell's grid bin.

    Each cell is assigned to the bin containing its centre, clamped to the
    grid (the paper's thermal-cell grouping).

    Args:
        placement: The placed design.
        nx: Number of grid bins in x.
        ny: Number of grid bins in y.
        over_die: Bin over the die outline (see :func:`grid_bin_geometry`).
        include_fillers: Also yield filler cells.

    Yields:
        ``(cell, iy, ix)`` tuples with clamped grid indices.
    """
    origin, bin_w, bin_h = grid_bin_geometry(placement, nx=nx, ny=ny, over_die=over_die)
    for cell in placement.placed_cells(include_fillers=include_fillers):
        cx, cy = cell.center
        ix = min(max(math.floor((cx - origin[0]) / bin_w), 0), nx - 1)
        iy = min(max(math.floor((cy - origin[1]) / bin_h), 0), ny - 1)
        yield cell, iy, ix


def cell_bin_indices(
    placement: Placement,
    nx: int = 40,
    ny: int = 40,
    over_die: bool = True,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized cell-to-bin assignment over the whole netlist.

    Returns:
        ``(iy, ix, placed_mask)`` arrays aligned with the netlist's compiled
        cell order; unplaced cells carry ``False`` in the mask (their bin
        indices are meaningless).  Binning matches :func:`iter_cell_bins`
        exactly (centre-of-cell, floor, clamp).
    """
    origin, bin_w, bin_h = grid_bin_geometry(placement, nx=nx, ny=ny, over_die=over_die)
    cx, cy, placed = placement.cell_center_arrays()
    with np.errstate(invalid="ignore"):
        ix = np.clip(
            np.floor((cx - origin[0]) / bin_w), 0, nx - 1
        )
        iy = np.clip(
            np.floor((cy - origin[1]) / bin_h), 0, ny - 1
        )
    ix = np.nan_to_num(ix, nan=0.0).astype(np.int64)
    iy = np.nan_to_num(iy, nan=0.0).astype(np.int64)
    return iy, ix, placed


def build_power_map(
    placement: Placement,
    power: PowerReport,
    nx: int = 40,
    ny: int = 40,
    over_die: bool = True,
    engine: Optional[str] = None,
) -> PowerMap:
    """Bin per-cell power onto a thermal grid.

    Each placed cell contributes its full power to the bin containing its
    centre (the paper's thermal-cell grouping).  Unplaced cells are ignored;
    filler cells contribute zero by construction.

    Args:
        placement: The placed design (a :class:`Placement` or a
            :class:`~repro.placement.PlacementView`, binned from its
            arrays).
        power: Per-cell power report.
        nx: Number of grid bins in x (the paper uses 40).
        ny: Number of grid bins in y (the paper uses 40).
        over_die: When ``True`` the grid spans the die (core plus margin),
            matching the thermal model footprint; otherwise just the core.
        engine: ``"compiled"`` (one ``np.bincount`` over cached coordinate
            arrays) or ``"reference"`` (cell-at-a-time); defaults to the
            process-wide engine.

    Returns:
        The :class:`PowerMap`.
    """
    origin, bin_w, bin_h = grid_bin_geometry(placement, nx=nx, ny=ny, over_die=over_die)

    if resolve_engine(engine) == "reference":
        grid = np.zeros((ny, nx), dtype=float)
        cells = iter_cell_bins(as_placement(placement), nx=nx, ny=ny, over_die=over_die)
        for cell, iy, ix in cells:
            cell_power = power.power_of(cell.name)
            if cell_power == 0.0:
                continue
            grid[iy, ix] += cell_power
    else:
        comp = placement.netlist.compiled()
        iy, ix, placed = cell_bin_indices(placement, nx=nx, ny=ny, over_die=over_die)
        totals = power.total_for_names(comp.cell_names)
        mask = placed & ~comp.is_filler
        flat = iy[mask] * nx + ix[mask]
        grid = np.bincount(flat, weights=totals[mask], minlength=nx * ny).reshape(
            ny, nx
        )

    return PowerMap(
        power_w=grid,
        bin_width_um=bin_w,
        bin_height_um=bin_h,
        origin_um=origin,
    )
