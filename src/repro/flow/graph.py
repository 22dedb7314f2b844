"""Staged flow-graph executor over content-addressed artifacts.

:class:`FlowGraph` is the one implementation of the paper's evaluation
pipeline (netlist -> placement -> power -> thermal -> STA), as seven
explicit stages::

    synth ──────┬─> legalize ─> thermal ─> sta        (baseline branch)
    power ──────┤
    relax ──> whitespace ─┴─> legalize ─> thermal ─> sta   (per-strategy branch)

``relax`` is the Default solution at one overhead (the baseline re-placed
at the relaxed utilization, no fillers), keyed per (baseline, overhead,
engine): ``default`` fills it and ``hw`` wraps it, so a sweep relaxes once
per overhead, not once per strategy.  ``whitespace`` runs the strategy and
keeps its result as a :class:`~repro.placement.PlacementView` — coordinate
arrays over the baseline's netlist — so no per-point netlist clone
outlives its transform; ``legalize`` bins and ``sta`` times the view's
arrays (never ``view.netlist``'s own cells, which are the baseline's).  To
export a transformed design, call ``placement.to_placement()`` then
``materialize_fillers()`` before :func:`~repro.netlist.write_def`.

Every caller runs through it: :class:`~repro.flow.experiment.ExperimentSetup`,
:func:`~repro.flow.experiment.evaluate_strategy`, the thread and process
executors of :class:`~repro.flow.runner.Campaign` and the ``repro serve``
daemon's miss batches.  Each stage method computes a deterministic content
hash of its inputs (:mod:`repro.flow.artifacts`), looks the result up in
the :class:`~repro.flow.store.ArtifactStore`, and executes only on a miss
— so a multi-strategy sweep pays for the shared prefix (``synth``,
``power``) once and re-runs only the ``whitespace -> thermal -> sta``
suffix per strategy, and a repeated sweep against an on-disk store re-runs
nothing at all; a campaign's grouped solves run through the batched
form, :meth:`FlowGraph.thermal_many`, whose lanes are ``thermal``
artifacts.  Results never depend on the store: a cold, warm or
disk-replayed stage returns bitwise the same artifact — the
golden-equivalence suite (``tests/test_flow_graph_equivalence.py``)
asserts this.

A graph whose store can hold nothing (:meth:`FlowGraph.pass_through`) is
a *pass-through*: stage bodies run directly, with no hashing, no per-key
lock and no store traffic, so callers that cache nothing pay nothing for
the graph.  Its artifacts carry ``key=None``.

Thread safety: stage execution is single-flight per ``(stage, key)`` —
concurrent :class:`~repro.flow.runner.Campaign` workers asking for the same
artifact block on one build — and the per-stage execution/hit counters are
kept under one lock, so tests can assert exact counts.  This per-key lock
is the flow's only single-flight rule, and batched thermal lanes do not
take it; two processes (or two concurrent batches) may both build an
artifact and publish the same content.
"""

from __future__ import annotations

import threading
from collections import Counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core import StrategySpec, check_area_overhead, manage_area, resolve_strategy
from ..core import builtin_strategies
from ..engine import get_engine
from ..netlist import Netlist
from ..placement import Placement, PlacementView, place_design
from ..power import PowerModel, PowerReport, build_power_map, estimate_activity
from ..power.power_map import PowerMap
from ..thermal import Package, ThermalGrid, ThermalMap, default_package
from ..thermal.solver import grid_for_placement, resolve_thermal_method
from ..timing import DelayModel, StaticTimingAnalyzer
from .artifacts import (
    FLOW_KEY_VERSION,
    LegalizedArtifact,
    PlacementArtifact,
    PowerArtifact,
    RelaxArtifact,
    StaArtifact,
    ThermalArtifact,
    WhitespaceArtifact,
    grid_digest,
    hash_parts,
    netlist_digest,
    package_digest,
    placement_digest,
    power_digest,
    power_map_digest,
    thermal_map_digest,
    workload_digest,
)
from .cache import SolverCache
from .store import ArtifactStore

#: Stage names in pipeline order.
STAGES = ("synth", "power", "relax", "whitespace", "legalize", "thermal", "sta")


def _thermal_key(
    power_map: PowerMap, grid: ThermalGrid, warm_start: Optional[ThermalMap], resolved: str
) -> str:
    """The ``thermal`` key: LU ignores the warm start entirely, while the
    multigrid iterate depends on it at the bit level."""
    warm = warm_start if resolved == "multigrid" else None
    return hash_parts(
        FLOW_KEY_VERSION, "thermal",
        power_map_digest(power_map), grid_digest(grid), resolved,
        thermal_map_digest(warm) if warm is not None else None,
    )


def _publishable(artifact: ThermalArtifact) -> bool:
    """False for a degraded (LU-fallback) map, which under a multigrid key
    would be served verbatim to later healthy runs."""
    return not getattr(artifact.thermal_map, "fallback_used", False)


class FlowGraph:
    """Incremental executor of the staged physical-design flow.

    Args:
        store: Content-addressed artifact store shared by all stages; a
            fresh in-memory :class:`ArtifactStore` is created when omitted.
            Pass one with a ``root`` to persist artifacts across processes,
            or a memory-only one with ``maxsize=0`` for a hash-free
            pass-through graph.
        solver_cache: :class:`SolverCache` the ``thermal`` stage draws
            prepared solvers from (and whose ``method`` selects the
            backend); a fresh unbounded cache is created when omitted.

    Attributes:
        stage_executions: Per-stage count of actual stage-body executions.
        stage_hits: Per-stage count of lookups served from the store.
    """

    def __init__(
        self,
        store: Optional[ArtifactStore] = None,
        solver_cache: Optional[SolverCache] = None,
    ) -> None:
        self.store = store if store is not None else ArtifactStore()
        self.solver_cache = (
            solver_cache if solver_cache is not None else SolverCache()
        )
        self._lock = threading.Lock()
        self._building: Dict[Tuple[str, str], threading.Lock] = {}
        self.stage_executions: Counter = Counter()
        self.stage_hits: Counter = Counter()

    @classmethod
    def pass_through(cls, solver_cache: Optional[SolverCache] = None) -> "FlowGraph":
        """A graph over ``ArtifactStore(maxsize=0)``: caches and hashes nothing."""
        return cls(store=ArtifactStore(maxsize=0), solver_cache=solver_cache)

    # ------------------------------------------------------------------
    # Executor core
    # ------------------------------------------------------------------

    def _pass_through(self) -> bool:
        """Whether the store can hold nothing, so keys would buy nothing."""
        return self.store.root is None and self.store.maxsize == 0

    def _run(
        self,
        stage: str,
        key: Callable[[], str],
        build: Callable[[Optional[str]], object],
        cacheable: Optional[Callable[[object], bool]] = None,
    ):
        """Return the artifact for ``stage``, executing ``build`` on a miss.

        ``key`` computes the stage's input hash; it is only called when
        the store can hold the artifact — a pass-through graph runs
        ``build(None)`` directly.  Otherwise execution is single-flight:
        concurrent requests for the same key block on a per-key lock so
        the stage body runs exactly once; requests for different keys
        build in parallel.  When ``cacheable`` is given and rejects the
        freshly built artifact, it is returned but *not* published to the
        store (the thermal stage uses this to keep degraded fallback
        solves out of the content-addressed cache).
        """
        if self._pass_through():
            artifact = build(None)
            with self._lock:
                self.stage_executions[stage] += 1
            return artifact
        key = key()
        artifact = self.store.get(stage, key)
        if artifact is not None:
            with self._lock:
                self.stage_hits[stage] += 1
            return artifact
        with self._lock:
            build_lock = self._building.setdefault((stage, key), threading.Lock())
        try:
            with build_lock:
                artifact = self.store.get(stage, key)
                if artifact is not None:
                    with self._lock:
                        self.stage_hits[stage] += 1
                    return artifact
                artifact = build(key)
                with self._lock:
                    self.stage_executions[stage] += 1
                if cacheable is None or cacheable(artifact):
                    self.store.put(stage, key, artifact)
                return artifact
        finally:
            with self._lock:
                self._building.pop((stage, key), None)

    def stats(self) -> Dict[str, object]:
        """Per-stage counters plus the store's, for run metadata."""
        with self._lock:
            executions = dict(self.stage_executions)
            hits = dict(self.stage_hits)
        return {
            "stage_executions": executions,
            "stage_hits": hits,
            "artifact_store": self.store.stats().as_dict(),
        }

    # ------------------------------------------------------------------
    # Stages
    # ------------------------------------------------------------------

    def synth(
        self,
        netlist: Netlist,
        utilization: float = 0.85,
        use_quadratic: bool = True,
    ) -> PlacementArtifact:
        """``synth``/global-place: floorplan and place at ``utilization``.

        Keyed on the netlist's structural content plus the placer knobs —
        the whole-design prefix every strategy evaluation shares.  The
        placement is frozen into a :class:`~repro.placement.PlacementView`
        over the placed ``netlist`` (whose cells carry the same
        coordinates), so every later stage reads an immutable baseline.
        """
        def key() -> str:
            return hash_parts(
                FLOW_KEY_VERSION, "synth",
                netlist_digest(netlist), utilization, use_quadratic, "view",
            )

        def build(key: Optional[str]) -> PlacementArtifact:
            placement = place_design(
                netlist, utilization=utilization, use_quadratic=use_quadratic
            )
            return PlacementArtifact(key=key, placement=PlacementView.of(placement))

        return self._run("synth", key, build)

    def power(
        self,
        netlist: Netlist,
        workload,
        num_cycles: int = 24,
        batch_size: int = 32,
        seed: int = 2010,
    ) -> PowerArtifact:
        """``power``: logic-simulate the workload, estimate per-cell power.

        Keyed on the design, the workload's resolved toggle probabilities,
        the simulation knobs and the active execution engine (compiled and
        reference logic simulation are not bit-identical).
        """
        def key() -> str:
            return hash_parts(
                FLOW_KEY_VERSION, "power",
                netlist_digest(netlist), workload_digest(workload, netlist),
                num_cycles, batch_size, seed, get_engine(),
            )

        def build(key: Optional[str]) -> PowerArtifact:
            activity = estimate_activity(
                netlist,
                workload.port_toggle_probabilities(netlist),
                num_cycles=num_cycles,
                batch_size=batch_size,
                seed=seed,
            )
            report = PowerModel().estimate(netlist, activity)
            return PowerArtifact(key=key, power=report)

        return self._run("power", key, build)

    def relax(self, placement: Placement, area_overhead: float) -> RelaxArtifact:
        """``relax``: the Default solution at ``area_overhead``, without fillers.

        Keyed on the baseline placement, the overhead (as a float, so
        ``0`` and ``0.0`` share an artifact) and the engine.  Computed by
        :func:`~repro.core.builtin_strategies.default_relaxation`, which
        re-places one netlist copy and freezes it into a view over the
        baseline's netlist.
        """
        check_area_overhead(area_overhead)
        overhead = float(area_overhead)

        def key() -> str:
            return hash_parts(
                FLOW_KEY_VERSION, "relax",
                placement_digest(placement), overhead, get_engine(),
            )

        def build(key: Optional[str]) -> RelaxArtifact:
            return RelaxArtifact(
                key=key, placement=builtin_strategies.default_relaxation(placement, overhead)
            )

        return self._run("relax", key, build)

    def whitespace(
        self,
        placement: Placement,
        power: PowerReport,
        thermal_map: ThermalMap,
        strategy: StrategySpec = "eri",
        area_overhead: float = 0.15,
    ) -> WhitespaceArtifact:
        """``whitespace``: apply one area-management strategy.

        Keyed on the baseline placement, the power report, the thermal map
        the hotspots are detected on, the *canonical* strategy spec and the
        overhead (as a float) — the spec carries every strategy parameter,
        so ``"hw:ring_um=8"`` and ``"hw:ring_um=8.0"`` share an artifact
        while any real parameter change invalidates it.  Strategies that
        start from the Default solution read this graph's :meth:`relax`.
        The result is a :class:`~repro.placement.PlacementView` over the
        baseline's netlist; a plugin's :class:`Placement` is frozen into
        one.
        """
        impl = resolve_strategy(strategy)
        spec = impl.spec
        check_area_overhead(area_overhead)
        overhead = float(area_overhead)

        def key() -> str:
            return hash_parts(
                FLOW_KEY_VERSION, "whitespace",
                placement_digest(placement), power_digest(power),
                thermal_map_digest(thermal_map),
                spec, overhead, get_engine(), "view",
            )

        def build(key: Optional[str]) -> WhitespaceArtifact:
            result = manage_area(
                placement, power, thermal_map, impl, overhead,
                relax=lambda: self.relax(placement, overhead).placement,
            )
            return WhitespaceArtifact(
                key=key,
                placement=PlacementView.of(result.placement, placement.netlist),
                strategy_spec=spec,
                requested_overhead=overhead,
                actual_overhead=result.actual_overhead,
                inserted_rows=result.inserted_rows,
                num_fillers=result.num_fillers,
            )

        return self._run("whitespace", key, build)

    def legalize(
        self,
        placement: Placement,
        power: PowerReport,
        nx: int = 40,
        ny: int = 40,
        package: Optional[Package] = None,
    ) -> LegalizedArtifact:
        """``legalize``: bin power onto the grid covering the die outline.

        Keyed on the (transformed) placement's content, the power report,
        the grid resolution, the package and the engine.
        """
        pkg = package if package is not None else default_package()
        def key() -> str:
            return hash_parts(
                FLOW_KEY_VERSION, "legalize",
                placement_digest(placement), power_digest(power),
                nx, ny, package_digest(pkg), get_engine(),
            )

        def build(key: Optional[str]) -> LegalizedArtifact:
            power_map = build_power_map(placement, power, nx=nx, ny=ny, over_die=True)
            grid = grid_for_placement(placement, package=pkg, nx=nx, ny=ny)
            return LegalizedArtifact(key=key, power_map=power_map, grid=grid)

        return self._run("legalize", key, build)

    def thermal(
        self,
        power_map: PowerMap,
        grid: ThermalGrid,
        warm_start: Optional[ThermalMap] = None,
        method: Optional[str] = None,
    ) -> ThermalArtifact:
        """``thermal``: solve the steady-state network for ``power_map``.

        The solver comes from the graph's :class:`SolverCache`, so die
        outlines revisited across strategies share one factorisation.  The
        key covers the *resolved* backend and, for multigrid only, the
        warm start.  A degraded (LU-fallback) map is not published.

        Args:
            method: Per-call backend override; defaults to the solver
                cache's configured method.
        """
        resolved = resolve_thermal_method(
            self.solver_cache.method if method is None else method, grid
        )

        def build(key: Optional[str]) -> ThermalArtifact:
            solver = self.solver_cache.solver(grid, method=resolved)
            rises = warm_start.grid_rises if warm_start is not None else None
            thermal_map = solver.solve_power_map(power_map, x0=rises)
            return ThermalArtifact(key=key, thermal_map=thermal_map, method=resolved)

        return self._run(
            "thermal",
            lambda: _thermal_key(power_map, grid, warm_start, resolved),
            build,
            cacheable=_publishable,
        )

    def thermal_many(
        self,
        power_maps: Sequence[PowerMap],
        grids: Sequence[ThermalGrid],
        warm_starts: Sequence[Optional[ThermalMap]],
    ) -> List[ThermalArtifact]:
        """Batched ``thermal`` over lanes that share one solver geometry.

        Lane ``i`` is ``thermal(power_maps[i], grids[i], warm_starts[i])``:
        it gets exactly that call's key, is served from the store on a hit
        and published unless degraded.  The misses are solved as one
        warm-started :meth:`~repro.thermal.solver.ThermalSolver.solve_many`
        block, whose lanes are bitwise one-point solves.
        """
        resolved = resolve_thermal_method(self.solver_cache.method, grids[0])
        keys: List[Optional[str]] = [None] * len(power_maps)
        if not self._pass_through():
            keys = [
                _thermal_key(power_map, grid, warm_start, resolved)
                for power_map, grid, warm_start in zip(power_maps, grids, warm_starts)
            ]
        artifacts = [None if key is None else self.store.get("thermal", key) for key in keys]
        misses = [lane for lane, artifact in enumerate(artifacts) if artifact is None]
        if misses:
            grid = grids[misses[0]]
            x0 = np.zeros((grid.num_nodes, len(misses)))
            warm = False
            for column, lane in enumerate(misses):
                start = warm_starts[lane]
                rises = start.grid_rises if start is not None else None
                if rises is not None and rises.shape[0] == x0.shape[0]:
                    x0[:, column] = rises
                    warm = True
            solved = self.solver_cache.solver(grid, method=resolved).solve_many(
                [power_maps[lane] for lane in misses], x0=x0 if warm else None
            )
            for lane, thermal_map in zip(misses, solved):
                artifact = ThermalArtifact(
                    key=keys[lane], thermal_map=thermal_map, method=resolved
                )
                artifacts[lane] = artifact
                if keys[lane] is not None and _publishable(artifact):
                    self.store.put("thermal", keys[lane], artifact)
        hits = len(artifacts) - len(misses)
        with self._lock:
            if hits:
                self.stage_hits["thermal"] += hits
            if misses:
                self.stage_executions["thermal"] += len(misses)
        return artifacts

    def sta(
        self,
        placement: Placement,
        temperature: float,
        clock_period_ps: float = 1000.0,
    ) -> StaArtifact:
        """``sta``: static timing analysis at the solved temperature.

        Keyed on the placement content (wire delays depend on net lengths,
        so coordinates are part of the input), the delay-model temperature,
        the clock period and the engine.  Wire lengths are measured on the
        placement's own coordinates — a view's arrays, not its netlist's
        (baseline) cells.
        """
        def key() -> str:
            return hash_parts(
                FLOW_KEY_VERSION, "sta",
                placement_digest(placement), temperature, clock_period_ps,
                get_engine(),
            )

        def build(key: Optional[str]) -> StaArtifact:
            delay_model = DelayModel(temperature=temperature)
            timing = StaticTimingAnalyzer(
                placement.netlist,
                delay_model=delay_model,
                clock_period_ps=clock_period_ps,
                placement=placement,
            ).analyze()
            return StaArtifact(key=key, timing=timing)

        return self._run("sta", key, build)


__all__ = ["STAGES", "FlowGraph"]
