"""The area-management tool (Figure 2 of the paper).

"The initial thermal map, together with the placed netlist info and a
user-specified area overhead, are processed by our area management tool,
which, using one of the two strategies, yields a modified placed netlist
with better thermal properties."

:class:`AreaManager` is that tool: it takes the placed design, the cell-by-
cell power report and the thermal map, detects the hotspots, and applies
the requested strategy.  Strategies are plugins resolved through
:mod:`repro.core.strategy` — the built-ins are ``default`` (uniform
utilization relaxation), ``eri`` (empty row insertion), ``hw`` (hotspot
wrapper on top of the Default solution, as in the paper's Figure 6),
``hybrid`` (ERI then wrapper) and ``gradient`` (row-temperature-
proportional whitespace) — and anything registered via
:func:`~repro.core.strategy.register_strategy` plugs in the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..placement import Placement
from ..power import PowerReport
from ..thermal import ThermalMap
from .builtin_strategies import ERI_HOTSPOT_THRESHOLD, HW_HOTSPOT_THRESHOLD
from .hotspot import Hotspot, detect_hotspots
from .strategy import (
    StrategyContext,
    StrategySpec,
    WhitespaceStrategy,
    resolve_strategy,
)

@dataclass
class AreaManagementConfig:
    """Configuration of the area-management tool: what Figure 2 feeds it.

    The strategy spec is the only parameter channel: every tunable of a
    transform (detection threshold, ring geometry, ...) is a spec
    parameter, so a result's canonical spec names everything that shaped it.

    Attributes:
        area_overhead: User-specified fractional area overhead.
        strategy: Whitespace-allocation strategy spec — a registered name
            (``"eri"``), a parameterized spec (``"hw:ring_um=8"``), a
            mapping or a resolved :class:`WhitespaceStrategy`.  After
            construction this field holds the plain strategy name (the
            canonical spec when parameters are bound); the resolved
            instance is :attr:`strategy_impl`.
    """

    area_overhead: float = 0.15
    strategy: StrategySpec = "eri"

    def __post_init__(self) -> None:
        self.strategy_impl: WhitespaceStrategy = resolve_strategy(self.strategy)
        # The field keeps the full canonical spec (so dataclasses.replace()
        # and equality preserve bound parameters); bare names stay bare.
        self.strategy = self.strategy_impl.spec
        if self.area_overhead < 0.0:
            raise ValueError("area_overhead must be non-negative")

    @property
    def effective_hotspot_threshold(self) -> float:
        """The strategy's detection threshold: its ``hotspot_threshold``
        parameter, else its class default (broad for empty row insertion,
        :data:`ERI_HOTSPOT_THRESHOLD`; tight for the hotspot wrapper,
        :data:`HW_HOTSPOT_THRESHOLD`)."""
        return self.strategy_impl.effective_hotspot_threshold()


@dataclass
class AreaManagementResult:
    """The modified placed netlist plus book-keeping.

    Attributes:
        placement: The new placement.
        strategy: Name (canonical spec) of the strategy that produced it.
        hotspots: Hotspots detected on the input thermal map.
        requested_overhead: Overhead requested by the user.
        actual_overhead: Core-area overhead actually introduced (0.0 for the
            hotspot wrapper, which redistributes existing whitespace).
        inserted_rows: Rows inserted (row-inserting strategies only).
        num_fillers: Filler cells inserted.
        details: The strategy-specific result object.
    """

    placement: Placement
    strategy: str
    hotspots: List[Hotspot]
    requested_overhead: float
    actual_overhead: float
    inserted_rows: int = 0
    num_fillers: int = 0
    details: object = None


class AreaManager:
    """Post-placement whitespace manager.

    Args:
        config: Tool configuration.
    """

    def __init__(self, config: Optional[AreaManagementConfig] = None) -> None:
        self.config = config if config is not None else AreaManagementConfig()

    # ------------------------------------------------------------------

    def detect(
        self,
        placement: Placement,
        thermal_map: ThermalMap,
        power: Optional[PowerReport] = None,
    ) -> List[Hotspot]:
        """Detect hotspots with the configured (per-strategy) threshold."""
        return detect_hotspots(
            thermal_map,
            placement,
            power=power,
            threshold_fraction=self.config.effective_hotspot_threshold,
        )

    def optimize(
        self,
        placement: Placement,
        power: PowerReport,
        thermal_map: ThermalMap,
        hotspots: Optional[Sequence[Hotspot]] = None,
    ) -> AreaManagementResult:
        """Produce the modified placed netlist for the configured strategy.

        Args:
            placement: The baseline placed design.
            power: Cell-by-cell power report.
            thermal_map: Thermal map of the baseline placement.
            hotspots: Pre-detected hotspots; detected here when omitted.

        Returns:
            An :class:`AreaManagementResult`.
        """
        config = self.config
        spots = list(hotspots) if hotspots is not None else self.detect(
            placement, thermal_map, power
        )
        ctx = StrategyContext(
            placement=placement,
            power=power,
            thermal_map=thermal_map,
            hotspots=spots,
            config=config,
        )
        result = config.strategy_impl.apply(ctx)
        return AreaManagementResult(
            placement=result.placement,
            strategy=config.strategy,
            hotspots=spots,
            requested_overhead=config.area_overhead,
            actual_overhead=result.actual_overhead,
            inserted_rows=result.inserted_rows,
            num_fillers=result.num_fillers,
            details=result.details,
        )


__all__ = [
    "ERI_HOTSPOT_THRESHOLD",
    "HW_HOTSPOT_THRESHOLD",
    "AreaManagementConfig",
    "AreaManagementResult",
    "AreaManager",
]
