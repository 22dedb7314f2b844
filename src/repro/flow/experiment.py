"""End-to-end experiment driver.

Reproduces the paper's full flow (Figure 2) as a single, reusable object:

1. logic/physical synthesis substitute — the synthetic benchmark is placed
   at a baseline utilization factor;
2. power estimation — random vectors, logic simulation, switching activity,
   cell-by-cell power;
3. thermal simulation — power map binned onto the 40 x 40 grid, RC network
   solved for the baseline thermal map;
4. area management — one of the strategies (Default / ERI / HW) applied at
   a requested area overhead;
5. re-simulation and metric extraction — peak-temperature reduction, actual
   overhead, timing overhead.

Every step runs as a stage of a :class:`~repro.flow.graph.FlowGraph`,
the one implementation of the pipeline.  Callers that pass no ``flow`` get
a pass-through graph — one over ``ArtifactStore(maxsize=0)``, which caches
nothing and hashes nothing; passing a caching graph makes the same calls
incremental without changing a single result bit.

The figure/table benchmarks in ``benchmarks/`` are thin wrappers around
:func:`sweep_overheads` (Figure 6), :func:`concentrated_hotspot_table`
(Table I) and :class:`ExperimentSetup` (Figure 5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..bench import Workload
from ..core import Hotspot, StrategySpec, apply_empty_row_insertion, detect_hotspots
from ..netlist import Netlist
from ..placement import Placement
from ..power import PowerReport
from ..power.power_map import PowerMap
from ..thermal import Package, ThermalGrid, ThermalMap, default_package
from ..timing import TimingReport
from .cache import SolverCache
from .graph import FlowGraph
from .store import ArtifactStore

# Unused here since every stage body lives in FlowGraph, but kept as module
# attributes: perfbench/spans.py wraps these names at this lookup site.
from ..placement import place_design  # noqa: F401
from ..power import build_power_map, estimate_activity  # noqa: F401

#: Overheads of the paper's Figure 6 sweep (fractions of the core area).
DEFAULT_OVERHEADS = (0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40)

#: The paper's three whitespace-allocation strategies.
DEFAULT_STRATEGIES = ("default", "eri", "hw")


@dataclass
class ExperimentSetup:
    """Baseline state shared by all strategy evaluations of one experiment.

    Attributes:
        netlist: The benchmark design.
        workload: The workload shaping the hotspots.
        placement: Baseline placement at the baseline utilization factor.
        power: Cell-by-cell power report (unchanged by the techniques).
        thermal_map: Thermal map of the baseline placement.
        power_map: Power map of the baseline placement.
        hotspots: Hotspots detected on the baseline thermal map.
        timing: Baseline timing report.
        package: Thermal package model used throughout.
        base_utilization: Baseline utilization factor.
        grid_nx: Thermal grid resolution in x.
        grid_ny: Thermal grid resolution in y.
    """

    netlist: Netlist
    workload: Workload
    placement: Placement
    power: PowerReport
    thermal_map: ThermalMap
    power_map: PowerMap
    hotspots: List[Hotspot]
    timing: TimingReport
    package: Package
    base_utilization: float
    grid_nx: int
    grid_ny: int

    @classmethod
    def prepare(
        cls,
        netlist: Netlist,
        workload: Workload,
        base_utilization: float = 0.85,
        package: Optional[Package] = None,
        grid_nx: int = 40,
        grid_ny: int = 40,
        hotspot_threshold: float = 0.5,
        num_cycles: int = 24,
        batch_size: int = 32,
        seed: int = 2010,
        use_quadratic: bool = True,
        clock_period_ps: float = 1000.0,
        cache: Optional[SolverCache] = None,
        flow: Optional[FlowGraph] = None,
    ) -> "ExperimentSetup":
        """Run the baseline flow: place, estimate power, solve thermal, STA.

        Args:
            netlist: The benchmark design.
            workload: Per-unit activity profile.
            base_utilization: Baseline utilization factor (the un-relaxed
                placement all overheads are measured against).
            package: Thermal stack; :func:`default_package` when omitted.
            grid_nx: Thermal grid resolution in x (paper: 40).
            grid_ny: Thermal grid resolution in y (paper: 40).
            hotspot_threshold: Hotspot-detection threshold fraction.
            num_cycles: Logic-simulation cycles for activity estimation.
            batch_size: Parallel random streams for activity estimation.
            seed: Random seed for vector generation.
            use_quadratic: Use the quadratic global placer.
            clock_period_ps: Clock period for timing analysis (1 GHz).
            cache: Optional :class:`SolverCache`; the baseline geometry's
                factorisation is stored there for later reuse.
            flow: Optional :class:`~repro.flow.graph.FlowGraph` the
                baseline stages run through; with a caching graph a second
                ``prepare`` of the same circuit (or a strategy evaluation
                sharing the prefix) reuses the stored artifacts instead of
                re-running synthesis, placement and power estimation.  A
                pass-through graph over ``cache`` is used when omitted.

        Returns:
            The prepared :class:`ExperimentSetup`.
        """
        pkg = package if package is not None else default_package()
        if flow is None:
            flow = FlowGraph(store=ArtifactStore(maxsize=0), solver_cache=cache)

        placement = flow.synth(
            netlist, utilization=base_utilization, use_quadratic=use_quadratic
        ).placement
        # A warm synth hit returns the stored placement, whose netlist is a
        # content-equal clone of the argument; downstream stages must use
        # *that* object so coordinates and identity agree.
        netlist = placement.netlist
        power = flow.power(
            netlist, workload,
            num_cycles=num_cycles, batch_size=batch_size, seed=seed,
        ).power
        # One binning pass serves both the thermal solve and the stored map.
        legal = flow.legalize(placement, power, nx=grid_nx, ny=grid_ny, package=pkg)
        power_map = legal.power_map
        thermal_map = flow.thermal(power_map, legal.grid).thermal_map
        hotspots = detect_hotspots(
            thermal_map, placement, power=power, threshold_fraction=hotspot_threshold
        )
        timing = flow.sta(
            placement, temperature=thermal_map.peak, clock_period_ps=clock_period_ps,
        ).timing

        return cls(
            netlist=netlist,
            workload=workload,
            placement=placement,
            power=power,
            thermal_map=thermal_map,
            power_map=power_map,
            hotspots=hotspots,
            timing=timing,
            package=pkg,
            base_utilization=base_utilization,
            grid_nx=grid_nx,
            grid_ny=grid_ny,
        )


@dataclass
class StrategyOutcome:
    """One point of the evaluation: a strategy applied at one overhead.

    Attributes:
        strategy: Canonical strategy spec — the registered name
            (``"eri"``), including any parameter overrides
            (``"hw:ring_um=8.0"``).
        requested_overhead: Requested area overhead fraction.
        actual_overhead: Core-area overhead actually obtained.
        temperature_reduction: Peak temperature-rise reduction fraction.
        peak_rise: Peak temperature rise of the transformed design (K).
        gradient: On-die gradient of the transformed design (K).
        timing_overhead: Critical-path increase fraction (``None`` when the
            timing analysis was skipped).
        inserted_rows: Rows inserted (ERI only).
        core_width: Core width of the transformed design in micrometres.
        core_height: Core height of the transformed design in micrometres.
        num_fillers: Filler cells inserted.
        fallback_used: True when the point's thermal map came from the
            solver's degraded LU fallback (multigrid stall or injected
            fault); such records are exact but not bitwise-comparable to a
            healthy multigrid run.
    """

    strategy: str
    requested_overhead: float
    actual_overhead: float
    temperature_reduction: float
    peak_rise: float
    gradient: float
    timing_overhead: Optional[float]
    inserted_rows: int
    core_width: float
    core_height: float
    num_fillers: int
    fallback_used: bool = False


@dataclass
class PreparedEvaluation:
    """The transform half of one evaluation point, before the thermal solve.

    Produced by :func:`prepare_evaluation`; :func:`finish_evaluation` turns
    it (plus a solved thermal map) into a :class:`StrategyOutcome`.  The
    split lets :class:`~repro.flow.runner.Campaign` run all transforms
    first, group the resulting power maps by die geometry and solve each
    group as one batched multi-RHS block.

    Attributes:
        setup: The experiment baseline the point was evaluated against.
        strategy_spec: Canonical spec string of the resolved strategy.
        requested_overhead: Requested area overhead fraction.
        result: The transformed placement with its outcome fields
            (``placement``, ``actual_overhead``, ``inserted_rows``,
            ``num_fillers``) — the ``whitespace`` stage's
            :class:`~repro.flow.artifacts.WhitespaceArtifact`, or Table I's
            fixed-row-count ERI result.
        power_map: The transformed placement's binned power map.
        grid: Thermal grid covering the transformed die outline.
    """

    setup: ExperimentSetup
    strategy_spec: str
    requested_overhead: float
    result: object
    power_map: PowerMap
    grid: ThermalGrid


def prepare_evaluation(
    setup: ExperimentSetup,
    strategy: StrategySpec,
    area_overhead: float,
    hotspot_threshold: Optional[float] = None,
    wrapper_ring_um: float = 6.0,
    flow: Optional[FlowGraph] = None,
) -> PreparedEvaluation:
    """Apply one strategy at one overhead, stopping short of the solve.

    Runs the ``whitespace`` and ``legalize`` stages — the area-management
    transform and the binning of the transformed placement's power map —
    on ``flow`` (a pass-through graph when omitted), returning everything
    the thermal solve and the outcome extraction need.
    """
    if flow is None:
        flow = FlowGraph(store=ArtifactStore(maxsize=0))
    # The transform re-detects hotspots with its per-strategy threshold:
    # empty row insertion targets the broad warm area, the wrapper the
    # tight core.
    ws = flow.whitespace(
        setup.placement, setup.power, setup.thermal_map,
        strategy=strategy, area_overhead=area_overhead,
        hotspot_threshold=hotspot_threshold, wrapper_ring_um=wrapper_ring_um,
    )
    legal = flow.legalize(
        ws.placement, setup.power,
        nx=setup.grid_nx, ny=setup.grid_ny, package=setup.package,
    )
    return PreparedEvaluation(
        setup=setup,
        strategy_spec=ws.strategy_spec,
        requested_overhead=area_overhead,
        result=ws,
        power_map=legal.power_map,
        grid=legal.grid,
    )


def finish_evaluation(
    prepared: PreparedEvaluation,
    new_map: ThermalMap,
    analyze_timing: bool = True,
    flow: Optional[FlowGraph] = None,
) -> StrategyOutcome:
    """Extract the :class:`StrategyOutcome` from a solved evaluation point.

    Timing runs as the ``sta`` stage of ``flow`` (a pass-through graph
    when omitted).
    """
    setup = prepared.setup
    result = prepared.result
    timing_overhead_value: Optional[float] = None
    if analyze_timing:
        if flow is None:
            flow = FlowGraph(store=ArtifactStore(maxsize=0))
        new_timing = flow.sta(
            result.placement, temperature=new_map.peak,
            clock_period_ps=setup.timing.clock_period_ps,
        ).timing
        timing_overhead_value = new_timing.overhead_versus(setup.timing)

    return StrategyOutcome(
        strategy=prepared.strategy_spec,
        requested_overhead=prepared.requested_overhead,
        actual_overhead=result.actual_overhead,
        temperature_reduction=new_map.reduction_versus(setup.thermal_map),
        peak_rise=new_map.peak_rise,
        gradient=new_map.gradient,
        timing_overhead=timing_overhead_value,
        inserted_rows=result.inserted_rows,
        core_width=result.placement.floorplan.core_width,
        core_height=result.placement.floorplan.core_height,
        num_fillers=result.num_fillers,
        # getattr: thermal maps unpickled from a pre-existing artifact
        # store predate the flag.
        fallback_used=bool(getattr(new_map, "fallback_used", False)),
    )


def evaluate_strategy(
    setup: ExperimentSetup,
    strategy: StrategySpec,
    area_overhead: float,
    analyze_timing: bool = True,
    hotspot_threshold: Optional[float] = None,
    wrapper_ring_um: float = 6.0,
    cache: Optional[SolverCache] = None,
    flow: Optional[FlowGraph] = None,
) -> StrategyOutcome:
    """Apply one strategy at one overhead and measure the outcome.

    Args:
        setup: The prepared experiment baseline.
        strategy: Any registered strategy spec — a name (``"eri"``), a
            parameterized spec (``"hw:ring_um=8"``), a mapping, or a
            resolved :class:`~repro.core.WhitespaceStrategy`.
        area_overhead: Requested area overhead fraction.
        analyze_timing: Re-run STA on the transformed placement.
        hotspot_threshold: Optional override of the detection threshold.
        wrapper_ring_um: Whitespace ring width for the hotspot wrapper.
        cache: Optional :class:`SolverCache` shared across evaluations;
            points whose transformed placements share a die outline (e.g.
            the hotspot wrapper reuses the Default outline at the same
            overhead) then share one prepared solver.
        flow: Optional :class:`~repro.flow.graph.FlowGraph` the
            evaluation's stages run through.  With a caching graph,
            repeated points re-run nothing and changed points re-run only
            the stages whose input hashes changed; results are
            bitwise-identical either way.  ``cache`` is then ignored in
            favour of the graph's own solver cache.  A pass-through graph
            over ``cache`` is used when omitted.

    Returns:
        The measured :class:`StrategyOutcome`.
    """
    if flow is None:
        flow = FlowGraph(store=ArtifactStore(maxsize=0), solver_cache=cache)
    prepared = prepare_evaluation(
        setup, strategy, area_overhead,
        hotspot_threshold=hotspot_threshold,
        wrapper_ring_um=wrapper_ring_um,
        flow=flow,
    )
    # The re-solve warm-starts from the baseline temperature field: the
    # transformed die shares the grid resolution, so the baseline rises are
    # an excellent multigrid starting guess (LU simply ignores them).
    new_map = flow.thermal(
        prepared.power_map, prepared.grid, warm_start=setup.thermal_map
    ).thermal_map
    return finish_evaluation(prepared, new_map, analyze_timing=analyze_timing, flow=flow)


def sweep_overheads(
    setup: ExperimentSetup,
    overheads: Sequence[float] = DEFAULT_OVERHEADS,
    strategies: Sequence[StrategySpec] = DEFAULT_STRATEGIES,
    analyze_timing: bool = False,
    cache: Optional[SolverCache] = None,
    flow: Optional[FlowGraph] = None,
) -> List[StrategyOutcome]:
    """Reproduce Figure 6: reduction versus overhead for every strategy.

    All points run through one graph and share one :class:`SolverCache`,
    so die outlines revisited across the sweep (the hotspot wrapper reuses
    the Default outline at each overhead) are factorised only once.

    Args:
        setup: The prepared experiment baseline (scattered-hotspot workload
            for the paper's first test set).
        overheads: Area-overhead sweep points.
        strategies: Strategies to evaluate.
        analyze_timing: Also compute the timing overhead per point (slower).
        cache: Solver cache to share; a fresh one is created when omitted.
        flow: Optional :class:`~repro.flow.graph.FlowGraph` to run every
            point through (see :func:`evaluate_strategy`); a pass-through
            graph over ``cache`` when omitted.

    Returns:
        One :class:`StrategyOutcome` per (strategy, overhead) pair.
    """
    if flow is None:
        flow = FlowGraph(store=ArtifactStore(maxsize=0), solver_cache=cache)
    return [
        evaluate_strategy(
            setup, strategy, overhead, analyze_timing=analyze_timing, flow=flow
        )
        for strategy in strategies
        for overhead in overheads
    ]


def concentrated_hotspot_table(
    setup: ExperimentSetup,
    row_counts: Sequence[int] = (20, 40),
    analyze_timing: bool = False,
    cache: Optional[SolverCache] = None,
) -> List[StrategyOutcome]:
    """Reproduce Table I: Default versus ERI on a concentrated hotspot.

    For every requested row count the equivalent area overhead is computed
    (rows x row area / baseline core area); the Default scheme is evaluated
    at that same overhead, and ERI is evaluated with exactly that many
    inserted rows — matching the paper's pairing of rows 1/3 and 2/4.

    Args:
        setup: Baseline prepared with the concentrated-hotspot workload.
        row_counts: Numbers of rows to insert (paper: 20 and 40).
        analyze_timing: Also compute timing overheads.
        cache: Solver cache to share; a fresh one is created when omitted.

    Returns:
        Outcomes ordered as in the paper's table: all Default rows first,
        then the ERI rows.
    """
    flow = FlowGraph(store=ArtifactStore(maxsize=0), solver_cache=cache)
    base_rows = setup.placement.floorplan.num_rows
    overheads = [count / base_rows for count in row_counts]

    outcomes: List[StrategyOutcome] = [
        evaluate_strategy(
            setup, "default", overhead, analyze_timing=analyze_timing, flow=flow
        )
        for overhead in overheads
    ]
    # ERI inserts exactly ``count`` rows at the baseline hotspots — a
    # pairing the registered ``eri`` strategy cannot express (it re-detects
    # hotspots at its own threshold) — then shares the evaluation's tail.
    for count, overhead in zip(row_counts, overheads):
        eri = apply_empty_row_insertion(setup.placement, setup.hotspots, num_rows=count)
        legal = flow.legalize(
            eri.placement, setup.power,
            nx=setup.grid_nx, ny=setup.grid_ny, package=setup.package,
        )
        new_map = flow.thermal(
            legal.power_map, legal.grid, warm_start=setup.thermal_map
        ).thermal_map
        prepared = PreparedEvaluation(
            setup=setup,
            strategy_spec="eri",
            requested_overhead=overhead,
            result=eri,
            power_map=legal.power_map,
            grid=legal.grid,
        )
        outcomes.append(
            finish_evaluation(prepared, new_map, analyze_timing=analyze_timing, flow=flow)
        )
    return outcomes
