"""Empty Row Insertion (ERI).

Section III-A of the paper: "In the area around a given hotspot, we insert
an empty row between useful rows.  This row of whitespace will be filled
with dummy cells.  In this way we increase the area only of the hotspot
region.  Since there is an empty row in every other row, the power density
of the hotspot region is reduced evenly."

Implementation: the rows intersecting the hotspot rectangles are collected,
an empty row is scheduled below every other hotspot row (round-robin over
hotspots until the row budget is spent; if the budget exceeds one empty row
per hotspot row, additional empty rows are scheduled around the hotspot
spans), the core grows by the corresponding number of rows, and every cell
keeps its x coordinate while its row index is shifted upward by the number
of empty rows inserted below it — exactly the "move rows of cells upward by
an offset of a few rows" operation the paper describes, done as one array
op on a :class:`~repro.placement.PlacementView` (no netlist copy).  The
created whitespace rows are finally filled with dummy (filler) cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Set, Union

from ..placement import Placement, PlacementView
from ..placement.view import shift_rows
from .area_manager import check_area_overhead
from .hotspot import Hotspot

# Unused here since the row shift fills views (PlacementView.with_fillers),
# but kept as a module attribute: perfbench/spans.py wraps this name at
# this lookup site.
from ..placement import insert_fillers  # noqa: F401


@dataclass
class EmptyRowInsertionResult:
    """Outcome of an empty-row-insertion transformation.

    Attributes:
        placement: The transformed placement, a view over the baseline's
            netlist (the baseline placement is untouched).
        inserted_rows: Number of empty rows inserted.
        insertion_points: Baseline row indices below which an empty row was
            inserted (one entry per inserted row, duplicates allowed when
            more than one empty row lands below the same baseline row).
        requested_overhead: Area overhead requested, if the transformation
            was driven by an overhead target rather than a row count.
        actual_overhead: Core-area overhead actually obtained.
        num_fillers: Filler cells inserted into the new whitespace.
    """

    placement: PlacementView
    inserted_rows: int
    insertion_points: List[int] = field(default_factory=list)
    requested_overhead: Optional[float] = None
    actual_overhead: float = 0.0
    num_fillers: int = 0


def rows_for_overhead(baseline: Placement, area_overhead: float) -> int:
    """Number of empty rows equivalent to an area-overhead fraction.

    One inserted row adds ``row_height * core_width`` of core area, so the
    row count is the overhead times the baseline row count (rounded up, so
    the requested overhead is always reached).

    Raises:
        ValueError: If ``area_overhead`` is negative, NaN or infinite.
    """
    check_area_overhead(area_overhead)
    return int(math.ceil(area_overhead * baseline.floorplan.num_rows - 1e-9))


def plan_insertion_points(
    baseline: Placement, hotspots: Sequence[Hotspot], num_rows: int
) -> List[int]:
    """Choose the baseline rows below which empty rows will be inserted.

    Strategy (every-other-row within each hotspot, widening outward):

    1. For every hotspot, list the rows its rectangle spans, ordered by
       proximity to the hotspot's peak thermal cell (so a limited budget is
       concentrated where the temperature actually peaks).
    2. Round-robin over hotspots, scheduling an empty row below every other
       spanned row (the alternation of the paper's Figure 3).
    3. If the budget is still not exhausted, schedule empty rows below the
       remaining (skipped) hotspot rows, then below rows progressively
       further above/below the hotspot spans.

    Args:
        baseline: The placement being transformed.
        hotspots: Detected hotspots (hottest first).
        num_rows: Number of empty rows to schedule.

    Returns:
        A list of baseline row indices of length ``num_rows`` (possibly with
        repeats when the budget exceeds the available distinct positions).
    """
    if num_rows <= 0:
        return []
    num_baseline_rows = baseline.floorplan.num_rows
    row_height = baseline.floorplan.row_height

    spans: List[List[int]] = []
    peak_rows: List[int] = []
    for hotspot in hotspots:
        first, last = hotspot.row_span(baseline)
        spans.append(list(range(first, last + 1)))
        peak_y = (
            hotspot.peak_xy_um[1]
            if hotspot.peak_xy_um is not None
            else hotspot.rect.center[1]
        )
        peak_rows.append(
            baseline.floorplan.row_of_y(
                min(max(peak_y, 0.0), baseline.floorplan.core_height - 1e-6)
            )
        )
    if not spans:
        # No hotspot: degrade gracefully to uniform insertion.
        spans = [list(range(num_baseline_rows))]
        peak_rows = [num_baseline_rows // 2]

    # Every other row of each span (the alternation of Figure 3) forms the
    # primary positions, the skipped rows the secondary ones; within each
    # group, rows closest to the hotspot's thermal peak are used first so a
    # limited budget concentrates where the temperature actually peaks.
    primary: List[List[int]] = []
    secondary: List[List[int]] = []
    for span, peak_row in zip(spans, peak_rows):
        primary.append(sorted(span[::2], key=lambda row: (abs(row - peak_row), row)))
        secondary.append(sorted(span[1::2], key=lambda row: (abs(row - peak_row), row)))

    chosen: List[int] = []
    used: Set[int] = set()

    def take_round_robin(groups: List[List[int]]) -> None:
        cursors = [0] * len(groups)
        while len(chosen) < num_rows:
            progressed = False
            for g, group in enumerate(groups):
                if len(chosen) >= num_rows:
                    break
                while cursors[g] < len(group) and group[cursors[g]] in used:
                    cursors[g] += 1
                if cursors[g] < len(group):
                    row = group[cursors[g]]
                    chosen.append(row)
                    used.add(row)
                    cursors[g] += 1
                    progressed = True
            if not progressed:
                break

    take_round_robin(primary)
    if len(chosen) < num_rows:
        take_round_robin(secondary)

    # Widen outward from the hotspot spans if budget remains.
    if len(chosen) < num_rows:
        frontier = 1
        all_span_rows = sorted({row for span in spans for row in span})
        while len(chosen) < num_rows and frontier <= num_baseline_rows:
            extra: List[List[int]] = [[]]
            for row in all_span_rows:
                for candidate in (row - frontier, row + frontier):
                    if 0 <= candidate < num_baseline_rows and candidate not in used:
                        extra[0].append(candidate)
            if extra[0]:
                take_round_robin(extra)
            frontier += 1

    # Still short (tiny designs): repeat the hottest hotspot rows.
    while len(chosen) < num_rows:
        chosen.append(spans[0][0] if spans[0] else 0)

    return chosen[:num_rows]


def apply_empty_row_insertion(
    baseline: Placement,
    hotspots: Sequence[Hotspot],
    num_rows: Optional[int] = None,
    area_overhead: Optional[float] = None,
    add_fillers: bool = True,
) -> EmptyRowInsertionResult:
    """Insert empty rows around the hotspots of a placed design.

    Exactly one of ``num_rows`` and ``area_overhead`` must be provided (the
    paper drives ERI by the number of extra rows; the overhead form is the
    convenience used by the sweep benchmarks).

    Args:
        baseline: The placement to transform (left untouched).
        hotspots: Detected hotspots, hottest first.
        num_rows: Number of empty rows to insert.
        area_overhead: Alternatively, the target core-area overhead.
        add_fillers: Fill the created whitespace with dummy cells.

    Returns:
        An :class:`EmptyRowInsertionResult` whose placement is a view over
        the baseline's netlist.

    Raises:
        ValueError: If neither or both of ``num_rows``/``area_overhead`` are
            given.
    """
    if (num_rows is None) == (area_overhead is None):
        raise ValueError("provide exactly one of num_rows or area_overhead")
    if num_rows is None:
        num_rows = rows_for_overhead(baseline, area_overhead)

    insertion_points = plan_insertion_points(baseline, hotspots, num_rows)
    return apply_row_insertions(
        baseline,
        insertion_points,
        requested_overhead=area_overhead,
        add_fillers=add_fillers,
    )


def apply_row_insertions(
    baseline: Union[Placement, PlacementView],
    insertion_points: Sequence[int],
    requested_overhead: Optional[float] = None,
    add_fillers: bool = True,
) -> EmptyRowInsertionResult:
    """Insert empty rows below explicitly chosen baseline row indices.

    This is the mechanical half of empty row insertion, exposed so other
    planners (e.g. the thermal-gradient strategy, which apportions rows by
    row-average temperature rather than hotspot proximity) can reuse the
    row-shifting machinery with their own insertion plan.

    Args:
        baseline: The placement to transform (left untouched).
        insertion_points: Baseline row indices below which to insert an
            empty row; duplicates insert several rows at the same point.
        requested_overhead: Book-keeping value stored on the result.
        add_fillers: Fill the created whitespace with dummy cells.

    Returns:
        An :class:`EmptyRowInsertionResult` whose placement is a view over
        the baseline's netlist: every placed cell keeps its x and moves up
        by the empty rows inserted at or below its row.

    Raises:
        ValueError: If any insertion point is outside the baseline rows.
    """
    insertion_points = list(insertion_points)
    base_floorplan = baseline.floorplan
    num_baseline_rows = base_floorplan.num_rows
    for row in insertion_points:
        if not 0 <= row < num_baseline_rows:
            raise ValueError(
                f"insertion point {row} outside baseline rows [0, {num_baseline_rows})"
            )

    # Number of empty rows inserted below each baseline row index.
    inserted_below = [0] * num_baseline_rows
    for row in insertion_points:
        inserted_below[row] += 1
    shifted = shift_rows(PlacementView.of(baseline), inserted_below)
    placement = shifted.with_fillers() if add_fillers else shifted

    actual_overhead = placement.floorplan.core_area / base_floorplan.core_area - 1.0
    return EmptyRowInsertionResult(
        placement=placement,
        inserted_rows=len(insertion_points),
        insertion_points=insertion_points,
        requested_overhead=requested_overhead,
        actual_overhead=actual_overhead,
        num_fillers=len(placement.fillers) - len(shifted.fillers),
    )
