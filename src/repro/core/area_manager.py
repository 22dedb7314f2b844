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
from ..thermal import Package, ThermalMap, simulate_placement
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
    """Configuration of the area-management tool.

    Attributes:
        area_overhead: User-specified fractional area overhead.
        strategy: Whitespace-allocation strategy spec — a registered name
            (``"eri"``), a parameterized spec (``"hw:ring_um=8"``), a
            mapping or a resolved :class:`WhitespaceStrategy`.  After
            construction this field holds the plain strategy name (the
            canonical spec when parameters are bound); the resolved
            instance is :attr:`strategy_impl`.
        hotspot_threshold: Fraction of the lateral temperature range above
            which a thermal cell belongs to a hotspot.  ``None`` (the
            default) selects the strategy's own default: empty row
            insertion targets the broader warm area around each hotspot
            (:data:`ERI_HOTSPOT_THRESHOLD`), while the hotspot wrapper needs
            tight, concentrated hotspots (:data:`HW_HOTSPOT_THRESHOLD`).
        max_hotspots: Only target the hottest N hotspots (``None`` = all).
        wrapper_ring_um: Whitespace-ring width for the hotspot wrapper
            (overridable per spec via the ``ring_um`` parameter).
        wrapper_max_source_units: Units treated as a hotspot's source
            (overridable per spec via ``max_source_units``).
        add_fillers: Fill created whitespace with dummy cells.
    """

    area_overhead: float = 0.15
    strategy: StrategySpec = "eri"
    hotspot_threshold: Optional[float] = None
    max_hotspots: Optional[int] = None
    wrapper_ring_um: float = 6.0
    wrapper_max_source_units: int = 2
    add_fillers: bool = True

    def __post_init__(self) -> None:
        self.strategy_impl: WhitespaceStrategy = resolve_strategy(self.strategy)
        # The field keeps the full canonical spec (so dataclasses.replace()
        # and equality preserve bound parameters); bare names stay bare.
        self.strategy = self.strategy_impl.spec
        if self.area_overhead < 0.0:
            raise ValueError("area_overhead must be non-negative")
        if self.hotspot_threshold is not None and not 0.0 < self.hotspot_threshold <= 1.0:
            raise ValueError("hotspot_threshold must be in (0, 1]")

    @property
    def effective_hotspot_threshold(self) -> float:
        """The detection threshold, resolved per strategy when unset."""
        if self.hotspot_threshold is not None:
            return self.hotspot_threshold
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
            max_hotspots=self.config.max_hotspots,
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

    # ------------------------------------------------------------------

    def optimize_and_resimulate(
        self,
        placement: Placement,
        power: PowerReport,
        thermal_map: ThermalMap,
        package: Optional[Package] = None,
        nx: int = 40,
        ny: int = 40,
        cache=None,
        method: Optional[str] = None,
    ) -> tuple:
        """Run :meth:`optimize` and re-run the thermal simulation on the result.

        The re-solve warm-starts from the input map's temperature field:
        the transformed die keeps the grid resolution, so the baseline
        rises are an excellent multigrid starting guess (the LU backend
        ignores them).

        Args:
            placement: The baseline placed design.
            power: Cell-by-cell power report.
            thermal_map: Thermal map of the baseline placement.
            package: Thermal stack for the re-simulation.
            nx: Grid cells in x.
            ny: Grid cells in y.
            cache: Optional :class:`repro.flow.cache.SolverCache` to share
                the prepared solver with other simulations.
            method: Thermal solver backend (``"lu"``/``"multigrid"``/``"auto"``).

        Returns:
            ``(result, new_thermal_map)``.
        """
        result = self.optimize(placement, power, thermal_map)
        new_map = simulate_placement(
            result.placement, power, package=package, nx=nx, ny=ny,
            cache=cache, method=method, warm_start=thermal_map,
        )
        return result, new_map


__all__ = [
    "ERI_HOTSPOT_THRESHOLD",
    "HW_HOTSPOT_THRESHOLD",
    "AreaManagementConfig",
    "AreaManagementResult",
    "AreaManager",
]
