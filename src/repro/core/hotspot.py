"""Hotspot detection on the thermal map.

The post-placement techniques "work in a post-placement stage where we can
exploit both functional information (i.e. the actual switching activity)
and physical information (i.e. cell position) of the circuit so as to
exactly localize the thermal hotspots."

A hotspot is a connected group of thermal cells whose temperature exceeds a
threshold relative to the peak temperature rise.  Each detected hotspot is
reported with its grid extent, its rectangle in placement coordinates, the
cells it covers and the logical units that dominate its power — the latter
is what the hotspot wrapper uses to tell "hot" cells from bystanders.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np
from scipy import ndimage

from ..placement import Placement, PlacementView, Rect, as_placement
from ..power import PowerReport
from ..thermal import ThermalMap


@dataclass
class Hotspot:
    """One detected hotspot.

    Attributes:
        index: Hotspot id (0 = hottest).
        bins: Grid bins ``(iy, ix)`` belonging to the hotspot.
        rect: Bounding rectangle in placement coordinates (micrometres),
            clipped to the core area.
        peak_celsius: Peak temperature inside the hotspot.
        peak_bin: Grid location ``(iy, ix)`` of the hotspot's hottest cell.
        peak_xy_um: Placement coordinates (micrometres) of the centre of the
            hottest thermal cell; ``None`` when unknown.
        dominant_units: Units ordered by decreasing power contribution
            inside the hotspot rectangle.
        power_w: Total cell power inside the hotspot rectangle, in watts.
        num_cells: Number of logic cells inside the hotspot rectangle.
    """

    index: int
    bins: List[Tuple[int, int]]
    rect: Rect
    peak_celsius: float
    peak_bin: Tuple[int, int]
    peak_xy_um: Optional[Tuple[float, float]] = None
    dominant_units: List[str] = field(default_factory=list)
    power_w: float = 0.0
    num_cells: int = 0

    @property
    def num_bins(self) -> int:
        """Number of thermal cells in the hotspot."""
        return len(self.bins)

    @property
    def area_um2(self) -> float:
        """Bounding-rectangle area in square micrometres."""
        return self.rect.area

    def row_span(self, placement: Placement) -> Tuple[int, int]:
        """Inclusive range of placement rows the hotspot rectangle covers."""
        floorplan = placement.floorplan
        first = floorplan.row_of_y(max(self.rect.y0, 0.0))
        last = floorplan.row_of_y(min(self.rect.y1, floorplan.core_height) - 1e-6)
        return first, last


def detect_hotspots(
    thermal_map: ThermalMap,
    placement: Union[Placement, PlacementView],
    power: Optional[PowerReport] = None,
    threshold_fraction: float = 0.85,
    min_bins: int = 1,
    max_hotspots: Optional[int] = None,
    engine: Optional[str] = None,
) -> List[Hotspot]:
    """Detect hotspots as connected regions above a temperature threshold.

    Because most of the temperature rise above ambient is spatially uniform
    (the vertical path through the package), the threshold is defined on the
    *lateral variation*: a thermal cell is hot when its rise exceeds
    ``rise_min + threshold_fraction * (rise_max - rise_min)``.  Connected
    components (4-connectivity) of hot cells become hotspots, ordered by
    their peak temperature.

    Args:
        thermal_map: Solved active-layer temperatures (40 x 40 grid).
        placement: The placed design the map was computed for (provides the
            grid-to-micrometre mapping and the cells in each hotspot); a
            :class:`Placement` or a :class:`~repro.placement.PlacementView`.
        power: Optional per-cell power report used to rank the units that
            cause each hotspot.
        threshold_fraction: Fraction of the lateral temperature range
            (``rise_max - rise_min``) above which a cell counts as hot.
        min_bins: Minimum number of grid bins for a component to count.
        max_hotspots: Keep only the hottest N hotspots when given.
        engine: ``"compiled"`` (bincount attribution over compiled unit
            codes) or ``"reference"`` (cell-at-a-time dict accumulation);
            defaults to the process-wide engine.  Both produce identical
            hotspots.

    Returns:
        Hotspots sorted hottest first.

    Raises:
        ValueError: If ``threshold_fraction`` is outside ``(0, 1]``.
    """
    if not 0.0 < threshold_fraction <= 1.0:
        raise ValueError(f"threshold_fraction must be in (0, 1], got {threshold_fraction}")

    rise = thermal_map.rise_map()
    peak_rise = float(rise.max())
    min_rise = float(rise.min())
    if peak_rise <= 0.0 or peak_rise - min_rise <= 0.0:
        return []
    threshold = min_rise + threshold_fraction * (peak_rise - min_rise)
    mask = rise >= threshold

    labels, num_components = ndimage.label(mask)
    hotspots: List[Hotspot] = []
    floorplan = placement.floorplan
    ny, nx = rise.shape
    bin_w = floorplan.die_width / nx
    bin_h = floorplan.die_height / ny
    origin_x = -floorplan.die_margin
    origin_y = -floorplan.die_margin

    # Cell attribution is one fancy-indexed mask plus an np.bincount over
    # compiled unit codes per hotspot — no Python loop over cells.  The
    # centre arrays, unit codes and per-cell powers are gathered once here
    # and shared by every component below.  Matches the cell-at-a-time
    # reference (placement.cells_in_rect + dict accumulation) exactly:
    # same half-open rectangle test, same cell order, and bincount and the
    # running total add each contribution in the same sequence the loop
    # would, so even ``power_w`` agrees to the last bit.
    from ..engine import resolve_engine

    compiled_engine = resolve_engine(engine) != "reference"
    if compiled_engine:
        comp = placement.netlist.compiled()
        centers_x, centers_y, placed = placement.cell_center_arrays()
        eligible = placed & ~comp.is_filler
        if power is not None:
            cell_power = power.total_for_names(comp.cell_names)
        else:
            cell_power = comp.cell_area_um2
    else:
        placement = as_placement(placement)

    for component in range(1, num_components + 1):
        ys, xs = np.nonzero(labels == component)
        if len(ys) < min_bins:
            continue
        bins = list(zip(ys.tolist(), xs.tolist()))
        # Grid bounding box -> placement coordinates, clipped to the core.
        x0 = origin_x + xs.min() * bin_w
        x1 = origin_x + (xs.max() + 1) * bin_w
        y0 = origin_y + ys.min() * bin_h
        y1 = origin_y + (ys.max() + 1) * bin_h
        rect = Rect(x0, y0, x1, y1).clipped(floorplan.core_rect)

        component_rise = rise[ys, xs]
        local_peak_idx = int(np.argmax(component_rise))
        peak_bin = (int(ys[local_peak_idx]), int(xs[local_peak_idx]))
        peak_celsius = float(thermal_map.temperatures[peak_bin])
        peak_xy = (
            origin_x + (peak_bin[1] + 0.5) * bin_w,
            origin_y + (peak_bin[0] + 0.5) * bin_h,
        )

        if compiled_engine:
            if rect.area > 0:
                inside = (
                    eligible
                    & (centers_x >= rect.x0) & (centers_x < rect.x1)
                    & (centers_y >= rect.y0) & (centers_y < rect.y1)
                )
                selected = np.nonzero(inside)[0]
            else:
                selected = np.empty(0, dtype=np.int64)
            selected_codes = comp.unit_codes[selected]
            unit_sums = np.bincount(
                selected_codes, weights=cell_power[selected], minlength=comp.num_units
            )
            # Units in first-seen cell order, then stable-sorted by
            # decreasing power: identical ordering to the reference dict
            # accumulation.
            unique_codes, first_seen = np.unique(selected_codes, return_index=True)
            appearance = unique_codes[np.argsort(first_seen, kind="stable")]
            dominant = [
                comp.unit_names[code]
                for code in sorted(appearance.tolist(), key=lambda c: -unit_sums[c])
            ]
            # Accumulated in cell order, as the reference adds one cell at a
            # time (``.sum()`` is pairwise and can differ in the last bit).
            total_power = float(np.cumsum(cell_power[selected])[-1]) if selected.size else 0.0
            num_cells = int(selected.size)
        else:
            cells = placement.cells_in_rect(rect) if rect.area > 0 else []
            unit_power: Dict[str, float] = {}
            total_power = 0.0
            for cell in cells:
                one = power.power_of(cell.name) if power is not None else cell.area
                unit_power[cell.unit] = unit_power.get(cell.unit, 0.0) + one
                total_power += one
            dominant = [u for u, _p in sorted(unit_power.items(), key=lambda kv: -kv[1])]
            num_cells = len(cells)

        hotspots.append(
            Hotspot(
                index=0,
                bins=bins,
                rect=rect,
                peak_celsius=peak_celsius,
                peak_bin=peak_bin,
                peak_xy_um=peak_xy,
                dominant_units=dominant,
                power_w=total_power if power is not None else 0.0,
                num_cells=num_cells,
            )
        )

    hotspots.sort(key=lambda h: -h.peak_celsius)
    for i, hotspot in enumerate(hotspots):
        hotspot.index = i
    if max_hotspots is not None:
        hotspots = hotspots[:max_hotspots]
    return hotspots


def project_hotspots(
    hotspots: Sequence[Hotspot], source: Placement, target: Placement
) -> List[Hotspot]:
    """Scale hotspot rectangles from one core outline to another.

    When a strategy starts from a transformed (larger) placement, the
    hotspots detected on the baseline map are projected onto the new core
    by scaling their rectangles with the core-size ratio; the dominant
    units (which is what e.g. the hotspot wrapper actually acts on) are
    preserved.
    """
    sx = target.floorplan.core_width / source.floorplan.core_width
    sy = target.floorplan.core_height / source.floorplan.core_height
    projected: List[Hotspot] = []
    for hotspot in hotspots:
        rect = hotspot.rect
        projected.append(
            Hotspot(
                index=hotspot.index,
                bins=list(hotspot.bins),
                rect=Rect(rect.x0 * sx, rect.y0 * sy, rect.x1 * sx, rect.y1 * sy),
                peak_celsius=hotspot.peak_celsius,
                peak_bin=hotspot.peak_bin,
                dominant_units=list(hotspot.dominant_units),
                power_w=hotspot.power_w,
                num_cells=hotspot.num_cells,
            )
        )
    return projected


def hotspot_summary(hotspots: Sequence[Hotspot]) -> List[Dict[str, float]]:
    """Compact per-hotspot summary rows for reports."""
    rows: List[Dict[str, float]] = []
    for hotspot in hotspots:
        rows.append(
            {
                "index": float(hotspot.index),
                "num_bins": float(hotspot.num_bins),
                "peak_celsius": hotspot.peak_celsius,
                "area_um2": hotspot.area_um2,
                "power_w": hotspot.power_w,
                "num_cells": float(hotspot.num_cells),
            }
        )
    return rows
