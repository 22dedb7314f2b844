"""The paper's contribution: hotspot-driven post-placement whitespace management."""

from .hotspot import Hotspot, detect_hotspots, hotspot_summary, project_hotspots
from .default_spread import DefaultSpreadResult, apply_default_spread
from .empty_row import (
    EmptyRowInsertionResult,
    apply_empty_row_insertion,
    apply_row_insertions,
    plan_insertion_points,
    rows_for_overhead,
)
from .wrapper import HotspotWrapperResult, WrappedHotspot, apply_hotspot_wrapper
from .gradient import plan_gradient_insertion_points, row_temperature_weights
from .strategy import (
    StrategyContext,
    StrategyResult,
    StrategySpec,
    WhitespaceStrategy,
    available_strategies,
    describe_strategies,
    format_strategy_spec,
    parse_strategy_spec,
    register_strategy,
    resolve_strategy,
    split_spec_list,
    strategy_class,
    unregister_strategy,
)
from .builtin_strategies import (
    ERI_HOTSPOT_THRESHOLD,
    HW_HOTSPOT_THRESHOLD,
    DefaultSpreadStrategy,
    EmptyRowInsertionStrategy,
    GradientStrategy,
    HotspotWrapperStrategy,
    HybridStrategy,
)
from .area_manager import check_area_overhead, manage_area

__all__ = [
    "Hotspot",
    "detect_hotspots",
    "hotspot_summary",
    "project_hotspots",
    "DefaultSpreadResult",
    "apply_default_spread",
    "EmptyRowInsertionResult",
    "apply_empty_row_insertion",
    "apply_row_insertions",
    "plan_insertion_points",
    "rows_for_overhead",
    "HotspotWrapperResult",
    "WrappedHotspot",
    "apply_hotspot_wrapper",
    "plan_gradient_insertion_points",
    "row_temperature_weights",
    "StrategyContext",
    "StrategyResult",
    "StrategySpec",
    "WhitespaceStrategy",
    "available_strategies",
    "describe_strategies",
    "format_strategy_spec",
    "parse_strategy_spec",
    "register_strategy",
    "resolve_strategy",
    "split_spec_list",
    "strategy_class",
    "unregister_strategy",
    "DefaultSpreadStrategy",
    "EmptyRowInsertionStrategy",
    "GradientStrategy",
    "HotspotWrapperStrategy",
    "HybridStrategy",
    "ERI_HOTSPOT_THRESHOLD",
    "HW_HOTSPOT_THRESHOLD",
    "check_area_overhead",
    "manage_area",
]
