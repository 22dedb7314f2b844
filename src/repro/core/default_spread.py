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

from ..placement import Placement, PlacementView, place_view
from .area_manager import check_area_overhead

# Unused here, but perfbench/spans.py wraps these names at this lookup site.
from ..placement import insert_fillers, place_design  # noqa: F401


@dataclass
class DefaultSpreadResult:
    """Outcome of a uniform utilization relaxation.

    Attributes:
        placement: The re-placed design, a view over the baseline's
            netlist (whose own cells keep the baseline's coordinates).
        requested_overhead: Area overhead requested (fraction of the
            baseline core area).
        actual_overhead: Area overhead actually obtained after snapping the
            core outline to whole rows and sites.
        utilization: Resulting utilization factor.
        num_fillers: Filler cells inserted into the remaining whitespace.
    """

    placement: PlacementView
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
    re-placing the design (:func:`repro.placement.place_view`, warm-started
    from the baseline's cells) at a proportionally lower utilization
    factor, so every region's cell density drops by the same ratio.  The
    result is a view over the baseline's netlist; nothing is copied or
    moved, so relaxations of one baseline may run concurrently.

    Args:
        baseline: The reference placement or view (defines the baseline
            core area, utilization factor and start coordinates).
        area_overhead: Requested fractional area overhead (e.g. ``0.161``
            for the paper's 16.1% point); must be non-negative.
        use_quadratic: Forwarded to :func:`repro.placement.place_view`.
        detailed: Forwarded to :func:`repro.placement.place_view`.
        add_fillers: Fill the resulting whitespace with dummy cells
            (:meth:`PlacementView.with_fillers`).

    Returns:
        A :class:`DefaultSpreadResult`.

    Raises:
        ValueError: If ``area_overhead`` is negative, NaN or infinite.
    """
    check_area_overhead(area_overhead)

    base = PlacementView.of(baseline)
    target_utilization = base.utilization() / (1.0 + area_overhead)
    relaxed = place_view(
        base.netlist,
        utilization=target_utilization,
        aspect_ratio=base.floorplan.core_height / base.floorplan.core_width,
        die_margin=base.floorplan.die_margin,
        use_quadratic=use_quadratic,
        detailed=detailed,
        start=(base.x, base.y, base.row),
    )
    placement = relaxed.with_fillers() if add_fillers else relaxed

    return DefaultSpreadResult(
        placement=placement,
        requested_overhead=area_overhead,
        actual_overhead=relaxed.floorplan.core_area / base.floorplan.core_area - 1.0,
        utilization=relaxed.utilization(),
        num_fillers=len(placement.fillers),
    )
