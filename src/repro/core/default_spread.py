"""The "Default" whitespace scheme: uniform utilization relaxation.

This is the baseline the paper compares against (the "Default" curve in
Figure 6 and the "Default" rows of Table I): the requested area overhead is
obtained by lowering the row utilization factor during placement, so the
whitespace is spread evenly over the whole circuit — a "blind" allocation
that ignores where the hotspots are.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from ..placement import Placement, PlacementView, insert_fillers, place_design
from .area_manager import check_area_overhead


@dataclass
class DefaultSpreadResult:
    """Outcome of a uniform utilization relaxation.

    Attributes:
        placement: The re-placed design (a fresh placement of a cloned
            netlist; the baseline is untouched).
        requested_overhead: Area overhead requested (fraction of the
            baseline core area).
        actual_overhead: Area overhead actually obtained after snapping the
            core outline to whole rows and sites.
        utilization: Resulting utilization factor.
        num_fillers: Filler cells inserted into the remaining whitespace.
    """

    placement: Placement
    requested_overhead: float
    actual_overhead: float
    utilization: float
    num_fillers: int


def apply_default_spread(
    baseline: Union[Placement, PlacementView],
    area_overhead: float,
    use_quadratic: bool = True,
    detailed: bool = True,
    add_fillers: bool = True,
) -> DefaultSpreadResult:
    """Spread the requested area overhead uniformly over the core.

    The baseline core area is multiplied by ``1 + area_overhead`` by
    re-placing the design at a proportionally lower utilization factor, so
    every region's cell density drops by the same ratio.

    Args:
        baseline: The reference placement or view (defines the baseline
            core area and utilization factor).
        area_overhead: Requested fractional area overhead (e.g. ``0.161``
            for the paper's 16.1% point); must be non-negative.
        use_quadratic: Forwarded to :func:`repro.placement.place_design`.
        detailed: Forwarded to :func:`repro.placement.place_design`.
        add_fillers: Fill the resulting whitespace with dummy cells.

    Returns:
        A :class:`DefaultSpreadResult`.

    Raises:
        ValueError: If ``area_overhead`` is negative, NaN or infinite.
    """
    check_area_overhead(area_overhead)

    base_area = baseline.floorplan.core_area
    base_utilization = baseline.utilization()
    target_utilization = base_utilization / (1.0 + area_overhead)

    netlist = baseline.netlist.copy()
    placement = place_design(
        netlist,
        utilization=target_utilization,
        aspect_ratio=baseline.floorplan.core_height / baseline.floorplan.core_width,
        die_margin=baseline.floorplan.die_margin,
        use_quadratic=use_quadratic,
        detailed=detailed,
    )
    num_fillers = len(insert_fillers(placement)) if add_fillers else 0

    actual_overhead = placement.floorplan.core_area / base_area - 1.0
    return DefaultSpreadResult(
        placement=placement,
        requested_overhead=area_overhead,
        actual_overhead=actual_overhead,
        utilization=placement.utilization(),
        num_fillers=num_fillers,
    )
