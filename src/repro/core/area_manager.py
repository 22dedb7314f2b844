"""The area-management tool (Figure 2 of the paper).

"The initial thermal map, together with the placed netlist info and a
user-specified area overhead, are processed by our area management tool,
which, using one of the two strategies, yields a modified placed netlist
with better thermal properties."

:func:`manage_area` is that tool: it takes the placed design, the cell-by-
cell power report, the thermal map, a strategy spec and the overhead,
detects the hotspots, and applies the strategy.  Strategies are plugins
resolved through :mod:`repro.core.strategy` — the built-ins are ``default``
(uniform utilization relaxation), ``eri`` (empty row insertion), ``hw``
(hotspot wrapper on top of the Default solution, as in the paper's
Figure 6), ``hybrid`` (ERI then wrapper) and ``gradient`` (row-temperature-
proportional whitespace) — and anything registered via
:func:`~repro.core.strategy.register_strategy` plugs in the same way.  The
spec is the only parameter channel: every tunable of a transform
(detection threshold, ring geometry, ...) is a spec parameter.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

from ..placement import Placement, PlacementView
from ..power import PowerReport
from ..thermal import ThermalMap
from .hotspot import detect_hotspots
from .strategy import StrategyContext, StrategyResult, StrategySpec, resolve_strategy


def check_area_overhead(area_overhead: float) -> None:
    """Reject an area overhead that is negative, NaN or infinite.

    Raises:
        ValueError: If ``area_overhead`` is not a finite number >= 0.
    """
    if not math.isfinite(area_overhead) or area_overhead < 0.0:
        raise ValueError(
            f"area_overhead must be finite and non-negative, got {area_overhead!r}"
        )


def manage_area(
    placement: Placement,
    power: PowerReport,
    thermal_map: ThermalMap,
    strategy: StrategySpec,
    area_overhead: float,
    relax: Optional[Callable[[], PlacementView]] = None,
) -> StrategyResult:
    """Produce the modified placed netlist for one strategy and overhead.

    Hotspots are detected on ``thermal_map`` at the strategy's effective
    threshold (its ``hotspot_threshold`` parameter, else its class default)
    and handed to the strategy's ``apply``.

    Args:
        placement: The baseline placed design (left untouched).
        power: Cell-by-cell power report.
        thermal_map: Thermal map of the baseline placement.
        strategy: Strategy spec — a registered name (``"eri"``), a
            parameterized spec (``"hw:ring_um=8"``), a mapping or a
            resolved :class:`~repro.core.strategy.WhitespaceStrategy`.
        area_overhead: User-specified fractional area overhead.
        relax: Supplies the Default solution at ``area_overhead`` to the
            strategy (:attr:`StrategyContext.relax`); the flow passes its
            keyed ``relax`` stage.  Relaxed on demand when omitted.

    Raises:
        ValueError: On an unknown or malformed spec, or an overhead that
            is negative or not finite.
    """
    impl = resolve_strategy(strategy)
    check_area_overhead(area_overhead)
    hotspots = detect_hotspots(
        thermal_map,
        placement,
        power=power,
        threshold_fraction=impl.effective_hotspot_threshold(),
    )
    return impl.apply(
        StrategyContext(
            placement=placement,
            power=power,
            thermal_map=thermal_map,
            hotspots=hotspots,
            area_overhead=area_overhead,
            relax=relax,
        )
    )


__all__ = ["check_area_overhead", "manage_area"]
