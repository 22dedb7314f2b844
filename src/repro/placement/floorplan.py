"""Floorplan: core area, rows and per-unit regions.

The paper works in a fixed-outline, row-based standard-cell context: the
core is a rectangle of placement rows, the total cell area divided by the
core area is the *utilization factor*, and whitespace is whatever fraction
of the rows is not covered by logic cells.

This module provides:

* :class:`Rect` — an axis-aligned rectangle helper.
* :class:`Floorplan` — core outline, row geometry and die margin.
* :func:`slicing_partition` — a recursive slicing partition of the core into
  one rectangular region per logical unit, with region areas proportional to
  the unit cell areas.  This mimics the block-level organisation a
  hierarchical commercial placement (the paper uses IC Compiler) produces
  for a design made of nine arithmetic units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..floatsum import ordered_sum
from ..netlist import ROW_HEIGHT, SITE_WIDTH, Netlist


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle ``[x0, x1) x [y0, y1)`` in micrometres."""

    x0: float
    y0: float
    x1: float
    y1: float

    @property
    def width(self) -> float:
        return self.x1 - self.x0

    @property
    def height(self) -> float:
        return self.y1 - self.y0

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> Tuple[float, float]:
        return ((self.x0 + self.x1) / 2.0, (self.y0 + self.y1) / 2.0)

    def contains(self, x: float, y: float) -> bool:
        """``True`` if the point lies inside the rectangle."""
        return self.x0 <= x < self.x1 and self.y0 <= y < self.y1

    def overlaps(self, other: "Rect") -> bool:
        """``True`` if the two rectangles share any area."""
        return not (
            self.x1 <= other.x0
            or other.x1 <= self.x0
            or self.y1 <= other.y0
            or other.y1 <= self.y0
        )

    def expanded(self, margin: float) -> "Rect":
        """Return a copy grown by ``margin`` on every side."""
        return Rect(self.x0 - margin, self.y0 - margin, self.x1 + margin, self.y1 + margin)

    def clipped(self, bounds: "Rect") -> "Rect":
        """Return this rectangle clipped to ``bounds``."""
        return Rect(
            max(self.x0, bounds.x0),
            max(self.y0, bounds.y0),
            min(self.x1, bounds.x1),
            min(self.y1, bounds.y1),
        )


@dataclass
class Floorplan:
    """Core outline and row geometry of a fixed-outline standard-cell design.

    Attributes:
        core_width: Core width in micrometres (multiple of the site width).
        core_height: Core height in micrometres (multiple of the row height).
        row_height: Placement row height in micrometres.
        site_width: Placement site width in micrometres.
        die_margin: Margin between the core and the die edge (pad ring /
            IO area) on each side, in micrometres.  The thermal footprint is
            the die, i.e. the core plus this margin.
    """

    core_width: float
    core_height: float
    row_height: float = ROW_HEIGHT
    site_width: float = SITE_WIDTH
    die_margin: float = 15.0

    @property
    def num_rows(self) -> int:
        """Number of placement rows in the core."""
        return int(round(self.core_height / self.row_height))

    @property
    def sites_per_row(self) -> int:
        """Number of placement sites in each row."""
        return int(round(self.core_width / self.site_width))

    @property
    def core_area(self) -> float:
        """Core area in square micrometres."""
        return self.core_width * self.core_height

    @property
    def core_rect(self) -> Rect:
        """The core rectangle with its origin at (0, 0)."""
        return Rect(0.0, 0.0, self.core_width, self.core_height)

    @property
    def die_width(self) -> float:
        """Die width (core plus margins) in micrometres."""
        return self.core_width + 2.0 * self.die_margin

    @property
    def die_height(self) -> float:
        """Die height (core plus margins) in micrometres."""
        return self.core_height + 2.0 * self.die_margin

    @property
    def die_area(self) -> float:
        """Die area in square micrometres."""
        return self.die_width * self.die_height

    def row_y(self, row: int) -> float:
        """Bottom y coordinate of placement row ``row``."""
        if row < 0 or row >= self.num_rows:
            raise IndexError(f"row {row} out of range [0, {self.num_rows})")
        return row * self.row_height

    def row_of_y(self, y: float) -> int:
        """Index of the row whose span contains coordinate ``y`` (clamped)."""
        row = int(math.floor(y / self.row_height))
        return min(max(row, 0), self.num_rows - 1)

    def snap_x(self, x: float) -> float:
        """Snap an x coordinate to the nearest site boundary inside the core."""
        snapped = round(x / self.site_width) * self.site_width
        return min(max(snapped, 0.0), self.core_width)

    def with_extra_rows(self, extra_rows: int) -> "Floorplan":
        """Return a floorplan with ``extra_rows`` additional rows (taller core)."""
        if extra_rows < 0:
            raise ValueError("extra_rows must be non-negative")
        return Floorplan(
            core_width=self.core_width,
            core_height=self.core_height + extra_rows * self.row_height,
            row_height=self.row_height,
            site_width=self.site_width,
            die_margin=self.die_margin,
        )

    @classmethod
    def from_netlist(
        cls,
        netlist: Netlist,
        utilization: float,
        aspect_ratio: float = 1.0,
        row_height: float = ROW_HEIGHT,
        site_width: float = SITE_WIDTH,
        die_margin: float = 15.0,
    ) -> "Floorplan":
        """Size a floorplan so the netlist reaches the target utilization.

        Args:
            netlist: The design to floorplan (filler cells ignored).
            utilization: Target utilization factor, ``total cell area /
                core area``; must be in ``(0, 1]``.
            aspect_ratio: Desired core height / width ratio.
            row_height: Placement row height in micrometres.
            site_width: Placement site width in micrometres.
            die_margin: Pad-ring margin on each side in micrometres.

        Returns:
            A :class:`Floorplan` whose dimensions are snapped to whole rows
            and sites and whose utilization does not exceed the target.
        """
        if not 0.0 < utilization <= 1.0:
            raise ValueError(f"utilization must be in (0, 1], got {utilization}")
        cell_area = netlist.total_cell_area(include_fillers=False)
        if cell_area <= 0.0:
            raise ValueError("netlist has no placeable cell area")
        core_area = cell_area / utilization
        width = math.sqrt(core_area / aspect_ratio)
        height = core_area / width
        # Snap up so the real utilization never exceeds the target.
        num_rows = max(1, math.ceil(height / row_height))
        num_sites = max(1, math.ceil(width / site_width))
        return cls(
            core_width=num_sites * site_width,
            core_height=num_rows * row_height,
            row_height=row_height,
            site_width=site_width,
            die_margin=die_margin,
        )

    def utilization(self, netlist: Netlist) -> float:
        """Actual utilization of ``netlist`` on this floorplan."""
        return netlist.total_cell_area(include_fillers=False) / self.core_area


def slicing_partition(
    bounds: Rect, unit_areas: Dict[str, float], pad_factor: float = 1.0
) -> Dict[str, Rect]:
    """Partition a rectangle into one region per unit, areas proportional.

    A recursive slicing partition: the unit list (sorted by decreasing area)
    is split into two groups of roughly equal total area, the rectangle is
    cut along its longer edge proportionally to the group areas, and each
    half is partitioned recursively.

    Args:
        bounds: Rectangle to partition.
        unit_areas: Mapping unit name -> cell area (must be positive).
        pad_factor: Reserved for future use (uniform inflation); regions
            always tile ``bounds`` exactly.

    Returns:
        Mapping unit name -> :class:`Rect`, tiling ``bounds``.

    Raises:
        ValueError: If ``unit_areas`` is empty or contains non-positive areas.
    """
    if not unit_areas:
        raise ValueError("unit_areas must not be empty")
    for unit, area in unit_areas.items():
        if area <= 0.0:
            raise ValueError(f"unit {unit!r} has non-positive area {area}")

    result: Dict[str, Rect] = {}

    def recurse(rect: Rect, units: List[Tuple[str, float]]) -> None:
        if len(units) == 1:
            result[units[0][0]] = rect
            return
        total = ordered_sum(area for _, area in units)
        # Greedy balanced split of the (sorted) unit list.
        group_a: List[Tuple[str, float]] = []
        group_b: List[Tuple[str, float]] = []
        area_a = area_b = 0.0
        for unit, area in units:
            if area_a <= area_b:
                group_a.append((unit, area))
                area_a += area
            else:
                group_b.append((unit, area))
                area_b += area
        frac = area_a / total
        if rect.width >= rect.height:
            cut = rect.x0 + rect.width * frac
            recurse(Rect(rect.x0, rect.y0, cut, rect.y1), group_a)
            recurse(Rect(cut, rect.y0, rect.x1, rect.y1), group_b)
        else:
            cut = rect.y0 + rect.height * frac
            recurse(Rect(rect.x0, rect.y0, rect.x1, cut), group_a)
            recurse(Rect(rect.x0, cut, rect.x1, rect.y1), group_b)

    ordered = sorted(unit_areas.items(), key=lambda item: -item[1])
    recurse(bounds, ordered)
    return result
