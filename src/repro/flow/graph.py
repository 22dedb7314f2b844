"""Staged flow-graph executor over content-addressed artifacts.

:class:`FlowGraph` decomposes the monolithic evaluation pipeline
(netlist -> placement -> power -> thermal -> STA) into six explicit stages::

    synth ──────┬─> legalize ─> thermal ─> sta        (baseline branch)
    power ──────┤
    whitespace ─┴─> legalize ─> thermal ─> sta        (per-strategy branch)

Each stage method computes a deterministic content hash of its inputs
(:mod:`repro.flow.artifacts`), looks the result up in the
:class:`~repro.flow.store.ArtifactStore`, and executes only on a miss —
so a multi-strategy sweep pays for the shared prefix (``synth``, ``power``)
once and re-runs only the ``whitespace -> thermal -> sta`` suffix per
strategy, and a repeated sweep against an on-disk store re-runs nothing at
all.  Stage bodies call exactly the same underlying functions as the
monolithic path (:func:`repro.placement.placer.place_design`,
:class:`~repro.core.area_manager.AreaManager`,
:class:`~repro.thermal.solver.ThermalSolver`, ...), so staged results are
bitwise-identical to monolithic ones — the golden-equivalence suite
(``tests/test_flow_graph_equivalence.py``) asserts this.

Thread safety: stage execution is single-flight per ``(stage, key)`` —
concurrent :class:`~repro.flow.runner.Campaign` workers asking for the same
artifact block on one build — and the per-stage execution/hit counters are
kept under one lock, so tests can assert exact counts.
"""

from __future__ import annotations

import threading
from collections import Counter
from typing import Callable, Dict, Optional, Tuple

from ..core import AreaManagementConfig, AreaManager, StrategySpec
from ..engine import get_engine
from ..netlist import Netlist
from ..placement import Placement, place_design
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
STAGES = ("synth", "power", "whitespace", "legalize", "thermal", "sta")


class FlowGraph:
    """Incremental executor of the staged physical-design flow.

    Args:
        store: Content-addressed artifact store shared by all stages; a
            fresh in-memory :class:`ArtifactStore` is created when omitted.
            Pass one with a ``root`` to persist artifacts across processes.
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

    # ------------------------------------------------------------------
    # Executor core
    # ------------------------------------------------------------------

    def _run(
        self,
        stage: str,
        key: str,
        build: Callable[[], object],
        cacheable: Optional[Callable[[object], bool]] = None,
    ):
        """Return the artifact for ``(stage, key)``, executing on a miss.

        Single-flight: concurrent requests for the same key block on a
        per-key lock so the stage body runs exactly once; requests for
        different keys build in parallel.  When ``cacheable`` is given and
        rejects the freshly built artifact, it is returned but *not*
        published to the store (the thermal stage uses this to keep
        degraded fallback solves out of the content-addressed cache).
        """
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
                artifact = build()
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
        the whole-design prefix every strategy evaluation shares.
        """
        key = hash_parts(
            FLOW_KEY_VERSION, "synth",
            netlist_digest(netlist), utilization, use_quadratic,
        )

        def build() -> PlacementArtifact:
            placement = place_design(
                netlist, utilization=utilization, use_quadratic=use_quadratic
            )
            return PlacementArtifact(key=key, placement=placement)

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
        key = hash_parts(
            FLOW_KEY_VERSION, "power",
            netlist_digest(netlist), workload_digest(workload, netlist),
            num_cycles, batch_size, seed, get_engine(),
        )

        def build() -> PowerArtifact:
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

    def whitespace(
        self,
        placement: Placement,
        power: PowerReport,
        thermal_map: ThermalMap,
        strategy: StrategySpec = "eri",
        area_overhead: float = 0.15,
        hotspot_threshold: Optional[float] = None,
        wrapper_ring_um: float = 6.0,
    ) -> WhitespaceArtifact:
        """``whitespace``: apply one area-management strategy.

        Keyed on the baseline placement, the power report, the thermal map
        the hotspots are detected on, and the *canonical* strategy spec
        plus every knob of the resolved config — so ``"hw:ring_um=8"`` and
        ``"hw:ring_um=8.0"`` share an artifact while any real parameter
        change invalidates it.
        """
        config = AreaManagementConfig(
            area_overhead=area_overhead,
            strategy=strategy,
            hotspot_threshold=hotspot_threshold,
            wrapper_ring_um=wrapper_ring_um,
        )
        key = hash_parts(
            FLOW_KEY_VERSION, "whitespace",
            placement_digest(placement), power_digest(power),
            thermal_map_digest(thermal_map),
            config.strategy_impl.spec, config.area_overhead,
            config.hotspot_threshold, config.max_hotspots,
            config.wrapper_ring_um, config.wrapper_max_source_units,
            config.add_fillers, get_engine(),
        )

        def build() -> WhitespaceArtifact:
            result = AreaManager(config).optimize(placement, power, thermal_map)
            return WhitespaceArtifact(
                key=key,
                placement=result.placement,
                strategy_spec=config.strategy_impl.spec,
                requested_overhead=config.area_overhead,
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
        key = hash_parts(
            FLOW_KEY_VERSION, "legalize",
            placement_digest(placement), power_digest(power),
            nx, ny, package_digest(pkg), get_engine(),
        )

        def build() -> LegalizedArtifact:
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
        key includes the *resolved* backend, and — for multigrid only — the
        warm-start field's digest: LU ignores ``x0`` entirely, while the
        multigrid iterate depends on it at the bit level.

        Args:
            method: Per-call backend override; defaults to the solver
                cache's configured method.
        """
        resolved = resolve_thermal_method(
            self.solver_cache.method if method is None else method, grid
        )
        warm = warm_start if resolved == "multigrid" else None
        key = hash_parts(
            FLOW_KEY_VERSION, "thermal",
            power_map_digest(power_map), grid_digest(grid), resolved,
            thermal_map_digest(warm) if warm is not None else None,
        )

        def build() -> ThermalArtifact:
            solver = self.solver_cache.solver(grid, method=resolved)
            rises = warm_start.grid_rises if warm_start is not None else None
            thermal_map = solver.solve_power_map(power_map, x0=rises)
            return ThermalArtifact(key=key, thermal_map=thermal_map, method=resolved)

        def cacheable(artifact) -> bool:
            # A degraded (LU-fallback) map under a multigrid key would be
            # served verbatim to later healthy runs — keep it out of the
            # content-addressed store.
            return not getattr(artifact.thermal_map, "fallback_used", False)

        return self._run("thermal", key, build, cacheable=cacheable)

    def sta(
        self,
        placement: Placement,
        temperature: float,
        clock_period_ps: float = 1000.0,
    ) -> StaArtifact:
        """``sta``: static timing analysis at the solved temperature.

        Keyed on the placement content (wire delays depend on net lengths,
        so coordinates are part of the input), the delay-model temperature,
        the clock period and the engine.
        """
        key = hash_parts(
            FLOW_KEY_VERSION, "sta",
            placement_digest(placement), temperature, clock_period_ps,
            get_engine(),
        )

        def build() -> StaArtifact:
            delay_model = DelayModel(temperature=temperature)
            timing = StaticTimingAnalyzer(
                placement.netlist,
                delay_model=delay_model,
                clock_period_ps=clock_period_ps,
            ).analyze()
            return StaArtifact(key=key, timing=timing)

        return self._run("sta", key, build)


__all__ = ["STAGES", "FlowGraph"]
