#!/usr/bin/env python3
"""Registering a third-party whitespace strategy — no edits to ``src/repro``.

The strategy layer is an open plugin API: subclass
:class:`repro.core.WhitespaceStrategy`, decorate it with
:func:`repro.core.register_strategy`, and every entry point — the
area-management tool :func:`~repro.core.manage_area`,
:func:`repro.flow.evaluate_strategy`, the :class:`repro.flow.Campaign`
grid runner and the ``repro`` CLI — dispatches to it by name,
parameterized specs included.

This example registers a "checkerboard" strategy (empty rows at a fixed
stride across the whole core — a deliberately simple planner that is
neither hotspot-local nor temperature-weighted) and runs it through a
small campaign next to the built-ins::

    PYTHONPATH=src:examples python examples/custom_strategy.py
"""

from __future__ import annotations

import logging

from repro.analysis import figure6_report
from repro.bench import scattered_hotspots_workload, small_synthetic_circuit
from repro.core import (
    StrategyContext,
    StrategyResult,
    WhitespaceStrategy,
    apply_row_insertions,
    register_strategy,
    rows_for_overhead,
)
from repro.flow import Campaign, ExperimentSetup, SolverCache


@register_strategy
class CheckerboardStrategy(WhitespaceStrategy):
    """Empty rows at a fixed stride across the whole core.

    The ``stride`` parameter sets the spacing of candidate rows: the
    empty-row budget for the requested overhead is spent on every
    ``stride``-th baseline row, wrapping around until the budget is gone.
    """

    name = "checkerboard"
    default_hotspot_threshold = 0.5
    param_defaults = {"stride": 2}

    def apply(self, ctx: StrategyContext) -> StrategyResult:
        stride = max(1, int(self.param("stride")))
        budget = rows_for_overhead(ctx.placement, ctx.area_overhead)
        num_rows = ctx.placement.floorplan.num_rows
        points = sorted((i * stride) % num_rows for i in range(budget))
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


def main() -> None:
    logging.basicConfig(level=logging.INFO, format="%(message)s")

    netlist = small_synthetic_circuit()
    workload = scattered_hotspots_workload(netlist)
    cache = SolverCache()
    setup = ExperimentSetup.prepare(netlist, workload, cache=cache)

    # The registered name — parameterized spec forms included — is a
    # first-class citizen of the campaign grid.
    campaign = Campaign(
        setup,
        strategies=("eri", "checkerboard", "checkerboard:stride=4"),
        overheads=(0.10, 0.20),
        cache=cache,
        name="custom-strategy-example",
    )
    result = campaign.run()

    print()
    print(figure6_report(result.outcomes()))
    for record in result.records:
        if record.strategy_params:
            print(f"{record.point.strategy}: params {record.strategy_params}")


if __name__ == "__main__":
    main()
