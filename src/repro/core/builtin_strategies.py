"""The built-in whitespace strategies, registered on the plugin API.

The paper's three techniques (``default``, ``eri``, ``hw``) are ported
onto :class:`~repro.core.strategy.WhitespaceStrategy` unchanged in
behaviour, and two new techniques open scenario space the paper does not
cover:

* ``hybrid`` — ERI relaxes the broad warm region, then the hotspot
  wrapper concentrates the whitespace around the residual tight peaks.
* ``gradient`` — the empty-row budget is apportioned over all rows
  proportionally to the row-average temperature rise (banded/smeared heat
  rather than concentrated hotspots).

Importing this module (which :mod:`repro.core` does) populates the
registry; third-party strategies register the same way from outside the
package (``examples/custom_strategy.py``).
"""

from __future__ import annotations

from ..placement import Placement, PlacementView
from .default_spread import apply_default_spread
from .empty_row import (
    apply_empty_row_insertion,
    apply_row_insertions,
    rows_for_overhead,
)
from .gradient import plan_gradient_insertion_points
from .hotspot import project_hotspots
from .strategy import (
    StrategyContext,
    StrategyResult,
    WhitespaceStrategy,
    register_strategy,
)
from .wrapper import apply_hotspot_wrapper

#: Default hotspot-detection threshold for empty row insertion: the method
#: acts on "the area around a given hotspot", so a generous fraction of the
#: warm region is included.
ERI_HOTSPOT_THRESHOLD = 0.5

#: Default hotspot-detection threshold for the hotspot wrapper: the method
#: is "particularly useful for small concentrated hotspots", so only the
#: tight core of each hotspot is wrapped.
HW_HOTSPOT_THRESHOLD = 0.75


def default_relaxation(baseline: Placement | PlacementView, area_overhead: float) -> PlacementView:
    """Default's relaxed placement of ``baseline`` at ``area_overhead``, without fillers.

    :func:`apply_default_spread` re-places the baseline's netlist on
    coordinate arrays and returns a view over it; no netlist is copied
    and no cell object built.  ``default`` fills this view and ``hw``
    wraps it; :class:`~repro.flow.graph.FlowGraph` keys it as its
    ``relax`` stage so both share one relaxation per overhead.
    """
    return apply_default_spread(baseline, area_overhead, add_fillers=False).placement


def _relaxed_overhead(ctx: StrategyContext, relaxed: PlacementView) -> float:
    """Core-area overhead of a relaxed placement over the baseline."""
    return relaxed.floorplan.core_area / ctx.placement.floorplan.core_area - 1.0


@register_strategy
class DefaultSpreadStrategy(WhitespaceStrategy):
    """Uniform utilization relaxation (the paper's "Default" baseline)."""

    name = "default"
    default_hotspot_threshold = ERI_HOTSPOT_THRESHOLD

    def apply(self, ctx: StrategyContext) -> StrategyResult:
        relaxed = ctx.relaxed()
        placement = relaxed.with_fillers()
        return StrategyResult(
            placement=placement,
            actual_overhead=_relaxed_overhead(ctx, relaxed),
            num_fillers=len(placement.fillers) - len(relaxed.fillers),
        )


@register_strategy
class EmptyRowInsertionStrategy(WhitespaceStrategy):
    """Empty Row Insertion: whole empty rows around each hotspot (Sec. III-A)."""

    name = "eri"
    default_hotspot_threshold = ERI_HOTSPOT_THRESHOLD

    def apply(self, ctx: StrategyContext) -> StrategyResult:
        result = apply_empty_row_insertion(
            ctx.placement, ctx.hotspots, area_overhead=ctx.area_overhead
        )
        return StrategyResult(
            placement=result.placement,
            actual_overhead=result.actual_overhead,
            inserted_rows=result.inserted_rows,
            num_fillers=result.num_fillers,
            details=result,
        )


class _WrapperMixin(WhitespaceStrategy):
    """Shared wrapper pass for strategies ending in a hotspot-wrapper step.

    The ring geometry is the spec's ``ring_um`` / ``max_source_units``
    parameters — one rule for every wrapper-based strategy.
    """

    @classmethod
    def _validate_params(cls, params):
        validated = super()._validate_params(params)
        ring = validated.get("ring_um")
        if ring is not None and ring < 0.0:
            raise ValueError(
                f"strategy {cls.name!r}: ring_um must be non-negative, got {ring}"
            )
        units = validated.get("max_source_units")
        if units is not None and units < 1:
            raise ValueError(
                f"strategy {cls.name!r}: max_source_units must be >= 1, got {units}"
            )
        return validated

    def _wrap(self, ctx: StrategyContext, view: PlacementView, hotspots):
        """Wrap ``view`` around ``hotspots`` projected onto its core; the
        result's placement is a view over the same netlist."""
        return apply_hotspot_wrapper(
            view,
            project_hotspots(hotspots, ctx.placement, view),
            ring_width_um=float(self.param("ring_um")),
            max_source_units=int(self.param("max_source_units")),
        )


@register_strategy
class HotspotWrapperStrategy(_WrapperMixin):
    """Hotspot Wrapper: a whitespace ring isolating each tight hotspot (Sec. III-B)."""

    name = "hw"
    default_hotspot_threshold = HW_HOTSPOT_THRESHOLD
    param_defaults = {"ring_um": 6.0, "max_source_units": 2}

    def apply(self, ctx: StrategyContext) -> StrategyResult:
        # Start from the Default solution at the requested overhead (as in
        # the paper's Figure 6), project the hotspots detected on the
        # baseline map onto that placement, then wrap them.
        relaxed = ctx.relaxed()
        hw_result = self._wrap(ctx, relaxed, ctx.hotspots)
        return StrategyResult(
            placement=hw_result.placement,
            actual_overhead=_relaxed_overhead(ctx, relaxed),
            num_fillers=hw_result.num_fillers,
            details=hw_result,
        )


@register_strategy
class HybridStrategy(_WrapperMixin):
    """ERI on the broad warm region, then the wrapper on the residual peak.

    Empty row insertion spends the whole area budget relaxing the broad
    warm band (hotspots at this strategy's own threshold), after which the
    hotspot wrapper — which consumes no extra area — concentrates the
    placement's whitespace around the tight concentrated peaks (hotspots
    re-detected at ``tight_threshold``, projected onto the grown core).
    Targets scenarios with both a wide warm region and a sharp peak, where
    neither ERI nor HW alone is a good fit.  ``details["eri"].placement``
    is the ERI view the wrapper started from, ``details["wrapper"]`` the
    wrapped result.
    """

    name = "hybrid"
    default_hotspot_threshold = ERI_HOTSPOT_THRESHOLD
    param_defaults = {
        "ring_um": 6.0,
        "max_source_units": 2,
        "tight_threshold": HW_HOTSPOT_THRESHOLD,
    }

    @classmethod
    def _validate_params(cls, params):
        validated = super()._validate_params(params)
        tight = validated.get("tight_threshold")
        if tight is not None and not 0.0 < tight <= 1.0:
            raise ValueError(
                f"strategy {cls.name!r}: tight_threshold must be in (0, 1], got {tight}"
            )
        return validated

    def apply(self, ctx: StrategyContext) -> StrategyResult:
        eri_result = apply_empty_row_insertion(
            ctx.placement,
            ctx.hotspots,
            area_overhead=ctx.area_overhead,
            add_fillers=False,
        )
        tight = ctx.detect(float(self.param("tight_threshold")))
        hw_result = self._wrap(ctx, eri_result.placement, tight)
        return StrategyResult(
            placement=hw_result.placement,
            actual_overhead=eri_result.actual_overhead,
            inserted_rows=eri_result.inserted_rows,
            num_fillers=hw_result.num_fillers,
            details={"eri": eri_result, "wrapper": hw_result},
        )


@register_strategy
class GradientStrategy(WhitespaceStrategy):
    """Whitespace per row proportional to the row-average temperature rise.

    The empty-row budget is apportioned over *all* placement rows by the
    thermal map's row-average rise above the lateral minimum (largest-
    remainder method), so warm bands receive whitespace in proportion to
    their warmth — neither uniformly (Default) nor hotspot-locally (ERI).
    The ``exponent`` parameter sharpens (``> 1``) or flattens (``< 1``)
    the allocation.
    """

    name = "gradient"
    default_hotspot_threshold = ERI_HOTSPOT_THRESHOLD
    param_defaults = {"exponent": 1.0}

    @classmethod
    def _validate_params(cls, params):
        validated = super()._validate_params(params)
        exponent = validated.get("exponent")
        if exponent is not None and exponent <= 0.0:
            raise ValueError(
                f"strategy {cls.name!r}: exponent must be positive, got {exponent}"
            )
        return validated

    def apply(self, ctx: StrategyContext) -> StrategyResult:
        num_rows = rows_for_overhead(ctx.placement, ctx.area_overhead)
        points = plan_gradient_insertion_points(
            ctx.placement,
            ctx.thermal_map,
            num_rows,
            exponent=float(self.param("exponent")),
        )
        result = apply_row_insertions(
            ctx.placement, points, requested_overhead=ctx.area_overhead
        )
        return StrategyResult(
            placement=result.placement,
            actual_overhead=result.actual_overhead,
            inserted_rows=result.inserted_rows,
            num_fillers=result.num_fillers,
            details=result,
        )
