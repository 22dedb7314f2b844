"""Stage benchmarks: the compiled array engine versus the reference paths.

Measures the flow's hot stages on the full (~12k cell) synthetic benchmark
— logic simulation + power estimation, static timing, thermal-grid binning,
the steady-state thermal solve — and the quickstart flow end-to-end, with
the compiled engine against the reference per-object loops.  Results are
written to ``.bench_out/BENCH_pipeline.json`` (untracked), so a test run
never dirties the tree; copy that file over the committed
``BENCH_pipeline.json`` at the repository root to record a new
measurement.

Thresholds (asserted at full size): >=3x on logic-sim + power, >=2.8x on
the end-to-end quickstart flow, >=2x on STA, >=3x on binning, >=2.8x on a
warm-started thermal feedback sequence (multigrid versus LU) — the two
solver-stage floors sit ~10% under the typically measured 3.2x so runner
noise cannot flake the suite; the recorded numbers tell the real story.
Set ``REPRO_BENCH_SMOKE=1`` to run on the scaled-down benchmark (and a
reduced thermal grid) instead (CI smoke): numbers are still recorded and
backends are still checked for agreement, but the speedup floors are not
enforced — tiny designs make wall-clock ratios meaningless on noisy
runners.
"""

from __future__ import annotations

import gc
import json
import os
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.bench import (
    build_synthetic_circuit,
    scattered_hotspots_workload,
    small_synthetic_circuit,
)
from repro.core import manage_area
from repro.engine import use_engine
from repro.flow import (
    ArtifactStore,
    ExperimentSetup,
    FlowGraph,
    SolverCache,
    evaluate_strategy,
)
from repro.placement import place_design
from repro.power import (
    LogicSimulator,
    PowerModel,
    SwitchingActivity,
    build_power_map,
    generate_vectors,
)
from repro.thermal import ThermalSolver, grid_for_placement, simulate_placement
from repro.timing import StaticTimingAnalyzer

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

#: Speedup floors demanded of the compiled engine (full-size runs only).
MIN_LOGICSIM_POWER_SPEEDUP = 3.0
MIN_END_TO_END_SPEEDUP = 2.8
MIN_STA_SPEEDUP = 2.0
MIN_BINNING_SPEEDUP = 3.0
MIN_THERMAL_SOLVE_SPEEDUP = 2.8
MIN_STAGED_REPLAY_SPEEDUP = 3.0
MIN_RESUME_SPEEDUP = 5.0

#: Thermal grid resolution of the thermal_solve stage: the paper's 40 x 40
#: at full size, reduced for CI smoke so the LU baseline stays cheap.
THERMAL_GRID = 24 if SMOKE else 40

RESULTS: dict = {}


def _best(fn, repeats: int = 3):
    """Best wall-clock of ``repeats`` runs; returns (seconds, last result).

    Garbage from earlier benchmark modules is collected before each run so
    a GC pause triggered by unrelated fixtures never lands inside a timed
    region.
    """
    best = float("inf")
    value = None
    for _ in range(repeats):
        gc.collect()
        start = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - start)
    return best, value


def _record(stage: str, reference_s: float, compiled_s: float, **extra) -> float:
    speedup = reference_s / compiled_s
    RESULTS[stage] = {
        "reference_s": round(reference_s, 6),
        "compiled_s": round(compiled_s, 6),
        "speedup": round(speedup, 3),
        **extra,
    }
    print(f"\n[{stage}] reference {reference_s:.3f}s -> compiled "
          f"{compiled_s:.3f}s ({speedup:.2f}x)")
    return speedup


@pytest.fixture(scope="module")
def pipeline_circuit():
    """A dedicated circuit instance (not shared with the other benchmarks,
    so re-placing it here cannot stale their session fixtures)."""
    return small_synthetic_circuit() if SMOKE else build_synthetic_circuit()


@pytest.fixture(scope="module", autouse=True)
def write_bench_json(pipeline_circuit):
    """Persist whatever stages ran to .bench_out/BENCH_pipeline.json on teardown."""
    yield
    payload = {
        "benchmark": "pipeline_stages",
        "smoke": SMOKE,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "circuit": {
            "name": pipeline_circuit.name,
            "cells": pipeline_circuit.num_cells,
            "nets": pipeline_circuit.num_nets,
        },
        "stages": RESULTS,
    }
    path = Path(__file__).resolve().parent.parent / ".bench_out" / "BENCH_pipeline.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {path}")


class TestPipelineStages:
    def test_logicsim_power_stage(self, pipeline_circuit):
        """Logic simulation + power estimation: the flow's hottest stage."""
        netlist = pipeline_circuit
        workload = scattered_hotspots_workload(netlist)
        vectors = generate_vectors(
            netlist, workload.port_toggle_probabilities(netlist),
            num_cycles=24, batch_size=32, seed=2010,
        )

        def stage(engine):
            with use_engine(engine):
                simulator = LogicSimulator(netlist)
                result = simulator.simulate(vectors)
                activity = SwitchingActivity.from_simulation(netlist, result)
                power = PowerModel().estimate(netlist, activity)
            return power.total()

        netlist.compiled()  # one-time lowering, outside the timed region
        compiled_s, compiled_total = _best(lambda: stage("compiled"))
        reference_s, reference_total = _best(lambda: stage("reference"), repeats=1)

        assert compiled_total == pytest.approx(reference_total, rel=1e-12)
        speedup = _record("logicsim_power", reference_s, compiled_s,
                          num_cycles=24, batch_size=32)
        if not SMOKE:
            assert speedup >= MIN_LOGICSIM_POWER_SPEEDUP, (
                f"logic-sim+power only {speedup:.2f}x faster than reference"
            )

    def test_sta_stage(self, pipeline_circuit):
        """Static timing analysis on the placed design."""
        netlist = pipeline_circuit
        place_design(netlist, utilization=0.85)
        analyzer = StaticTimingAnalyzer(netlist)

        compiled_s, compiled_report = _best(
            lambda: analyzer.analyze(engine="compiled")
        )
        reference_s, reference_report = _best(
            lambda: analyzer.analyze(engine="reference")
        )

        assert compiled_report.critical_path_ps == pytest.approx(
            reference_report.critical_path_ps, rel=1e-12
        )
        assert compiled_report.worst_path.endpoint == reference_report.worst_path.endpoint
        speedup = _record("sta", reference_s, compiled_s,
                          num_endpoints=compiled_report.num_endpoints)
        if not SMOKE:
            assert speedup >= MIN_STA_SPEEDUP, (
                f"STA only {speedup:.2f}x faster than reference"
            )

    def test_binning_stage(self, pipeline_circuit):
        """Power-map binning (cells -> thermal grid)."""
        netlist = pipeline_circuit
        placement = place_design(netlist, utilization=0.85)
        activity = SwitchingActivity.uniform(netlist, 0.2)
        power = PowerModel().estimate(netlist, activity)

        compiled_s, compiled_map = _best(
            lambda: build_power_map(placement, power, engine="compiled"), repeats=5
        )
        reference_s, reference_map = _best(
            lambda: build_power_map(placement, power, engine="reference")
        )

        np.testing.assert_allclose(
            compiled_map.power_w, reference_map.power_w, rtol=1e-12, atol=1e-18
        )
        speedup = _record("power_binning", reference_s, compiled_s)
        if not SMOKE:
            assert speedup >= MIN_BINNING_SPEEDUP, (
                f"binning only {speedup:.2f}x faster than reference"
            )

    def test_thermal_solve_stage(self, pipeline_circuit):
        """Steady-state thermal solve: LU versus multigrid, cold and warm.

        Times the shape of the leakage-feedback loop — one solver setup for
        a fresh die geometry followed by several re-solves with slightly
        changed power — which is exactly what every sweep point and
        feedback iteration pays.  The LU path factorises once and solves
        triangularly; the multigrid path builds its hierarchy and
        warm-starts every re-solve from the previous temperature field.
        """
        netlist = pipeline_circuit
        placement = place_design(netlist, utilization=0.85)
        activity = SwitchingActivity.uniform(netlist, 0.2)
        power = PowerModel().estimate(netlist, activity)
        grid = grid_for_placement(placement, nx=THERMAL_GRID, ny=THERMAL_GRID)
        base_map = build_power_map(
            placement, power, nx=THERMAL_GRID, ny=THERMAL_GRID
        ).power_w
        # Leakage-feedback-sized perturbations of the power map.
        rng = np.random.default_rng(2010)
        re_solves = [
            base_map * (1.0 + 0.002 * rng.random(base_map.shape))
            for _ in range(3)
        ]

        def lu_sequence():
            solver = ThermalSolver(grid, method="lu")
            maps = [solver.solve(base_map)]
            maps.extend(solver.solve(power_map) for power_map in re_solves)
            return maps

        def mg_sequence():
            solver = ThermalSolver(grid, method="multigrid")
            maps = [solver.solve(base_map)]
            for power_map in re_solves:
                maps.append(solver.solve(power_map, x0=maps[-1].grid_rises))
            return maps

        # Interleave the timing rounds so machine-load drift during the
        # benchmark biases neither backend.
        lu_s = mg_s = float("inf")
        lu_maps = mg_maps = None
        for _ in range(4):
            gc.collect()
            start = time.perf_counter()
            lu_maps = lu_sequence()
            lu_s = min(lu_s, time.perf_counter() - start)
            gc.collect()
            start = time.perf_counter()
            mg_maps = mg_sequence()
            mg_s = min(mg_s, time.perf_counter() - start)

        # Backend agreement on every map of the sequence.
        for lu_map, mg_map in zip(lu_maps, mg_maps):
            scale = np.abs(lu_map.rise_map()).max()
            worst = np.abs(mg_map.rise_map() - lu_map.rise_map()).max() / scale
            assert worst <= 1e-8, f"multigrid off by {worst:.2e} relative"

        # Per-solve timings for the record: cold includes solver setup.
        def lu_cold():
            return ThermalSolver(grid, method="lu").solve(base_map)

        def mg_cold():
            return ThermalSolver(grid, method="multigrid").solve(base_map)

        lu_cold_s, _ = _best(lu_cold)
        mg_cold_s, _ = _best(mg_cold)
        warm_solver = ThermalSolver(grid, method="multigrid")
        warm_map = warm_solver.solve(base_map)
        mg_warm_s, _ = _best(
            lambda: warm_solver.solve(re_solves[0], x0=warm_map.grid_rises)
        )

        speedup = _record(
            "thermal_solve", lu_s, mg_s,
            floor=MIN_THERMAL_SOLVE_SPEEDUP,
            grid=f"{THERMAL_GRID}x{THERMAL_GRID}x{grid.nz}",
            num_re_solves=len(re_solves),
            lu_cold_s=round(lu_cold_s, 6),
            mg_cold_s=round(mg_cold_s, 6),
            mg_warm_solve_s=round(mg_warm_s, 6),
        )
        if not SMOKE:
            assert speedup >= MIN_THERMAL_SOLVE_SPEEDUP, (
                f"warm-started multigrid feedback sequence only {speedup:.2f}x "
                f"faster than the LU path"
            )

    def test_staged_sweep(self):
        """3-strategy sweep through the staged flow graph.

        Correctness is asserted at every size (including smoke): the cold
        staged sweep runs the shared prefix — placement and power
        estimation — exactly once for all three strategies, a warm replay
        over the same store executes *zero* stages, and both are bitwise
        identical to the monolithic sweep.  The recorded speedup compares
        the monolithic sweep against the warm staged replay, which is the
        cost of re-running yesterday's sweep against an unchanged design.
        """
        strategies = ("default", "eri", "hw")
        overhead = 0.15

        def fresh_inputs():
            netlist = (
                small_synthetic_circuit() if SMOKE else build_synthetic_circuit()
            )
            return netlist, scattered_hotspots_workload(netlist)

        def sweep(setup, flow=None, cache=None):
            return [
                evaluate_strategy(
                    setup, strategy, overhead, analyze_timing=True,
                    cache=cache, flow=flow,
                )
                for strategy in strategies
            ]

        netlist, workload = fresh_inputs()
        cache = SolverCache()
        gc.collect()
        start = time.perf_counter()
        mono_setup = ExperimentSetup.prepare(netlist, workload, cache=cache)
        mono = sweep(mono_setup, cache=cache)
        mono_s = time.perf_counter() - start

        flow = FlowGraph(store=ArtifactStore())
        netlist, workload = fresh_inputs()
        gc.collect()
        start = time.perf_counter()
        staged_setup = ExperimentSetup.prepare(netlist, workload, flow=flow)
        cold = sweep(staged_setup, flow=flow)
        cold_s = time.perf_counter() - start

        executions = dict(flow.stage_executions)
        assert executions["synth"] == 1, (
            f"3-strategy sweep ran synth {executions['synth']}x, expected once"
        )
        assert executions["power"] == 1, (
            f"3-strategy sweep ran power {executions['power']}x, expected once"
        )
        assert cold == mono, "staged sweep diverged from monolithic sweep"

        # Warm replay: a content-equal circuit through the warm store.
        netlist, workload = fresh_inputs()
        gc.collect()
        start = time.perf_counter()
        warm_setup = ExperimentSetup.prepare(netlist, workload, flow=flow)
        warm = sweep(warm_setup, flow=flow)
        warm_s = time.perf_counter() - start

        assert warm == mono, "warm staged replay diverged from monolithic sweep"
        assert dict(flow.stage_executions) == executions, (
            "warm replay re-executed stages"
        )

        speedup = _record(
            "staged_sweep", mono_s, warm_s,
            floor=MIN_STAGED_REPLAY_SPEEDUP,
            strategies=list(strategies),
            cold_staged_s=round(cold_s, 6),
            stage_executions=executions,
        )
        if not SMOKE:
            assert speedup >= MIN_STAGED_REPLAY_SPEEDUP, (
                f"warm staged replay only {speedup:.2f}x faster than the "
                f"monolithic sweep"
            )

    def test_campaign_resume(self, tmp_path):
        """Warm campaign replay against a persistent result store.

        A cold campaign evaluates every grid point and publishes each
        record to an on-disk :class:`ResultStore`; the warm rerun — a
        fresh store instance over the same root, as after a restart —
        answers the whole grid from disk and evaluates nothing.  That
        replay is the cost of resuming an interrupted (or repeated) sweep,
        and it must dominate recomputation.  Correctness is asserted at
        every size: zero points evaluated on the warm run and records
        identical to the cold run's.
        """
        from repro.flow import Campaign, ResultStore

        strategies = ("default", "eri", "hw")
        overheads = (0.05, 0.1, 0.15, 0.2)
        netlist = (
            small_synthetic_circuit() if SMOKE else build_synthetic_circuit()
        )
        workload = scattered_hotspots_workload(netlist)
        setup = ExperimentSetup.prepare(netlist, workload)
        root = tmp_path / "results"

        def run(tag):
            campaign = Campaign(
                setup, strategies, overheads,
                result_store=ResultStore(root=root), name=tag,
            )
            return campaign.run()

        gc.collect()
        start = time.perf_counter()
        cold = run("bench-cold")
        cold_s = time.perf_counter() - start
        assert cold.metadata["num_evaluated"] == len(cold.records)

        warm_s, warm = _best(lambda: run("bench-warm"))
        assert warm.metadata["num_evaluated"] == 0
        assert warm.metadata["store_hits"] == len(cold.records)
        assert [record.outcome for record in warm.records] == [
            record.outcome for record in cold.records
        ]

        speedup = _record(
            "campaign_resume", cold_s, warm_s,
            floor=MIN_RESUME_SPEEDUP,
            num_points=len(cold.records),
            store_root_entries=warm.metadata["result_store"]["disk_hits"],
        )
        if not SMOKE:
            assert speedup >= MIN_RESUME_SPEEDUP, (
                f"warm campaign replay only {speedup:.2f}x faster than the "
                f"cold run"
            )

    def test_quickstart_end_to_end(self):
        """The full quickstart flow: place, simulate, solve, ERI, re-solve.

        Each engine runs the complete flow on its own fresh circuit so
        neither inherits compiled state or prepared solvers from the other.
        The reference side is pinned to the LU backend (the original
        system); the compiled side uses the default auto-selected solver,
        which picks multigrid at the quickstart grid.
        """
        def quickstart(engine, solver_method):
            netlist = (
                small_synthetic_circuit() if SMOKE else build_synthetic_circuit()
            )
            cache = SolverCache(method=solver_method)
            with use_engine(engine):
                start = time.perf_counter()
                workload = scattered_hotspots_workload(netlist)
                setup = ExperimentSetup.prepare(
                    netlist, workload, base_utilization=0.85, cache=cache
                )
                result = manage_area(
                    setup.placement, setup.power, setup.thermal_map, "eri", 0.15
                )
                new_map = simulate_placement(
                    result.placement, setup.power, package=setup.package,
                    cache=cache, warm_start=setup.thermal_map,
                )
                elapsed = time.perf_counter() - start
            return elapsed, new_map.reduction_versus(setup.thermal_map)

        times = {"compiled": float("inf"), "reference": float("inf")}
        reductions = {}
        for _ in range(3):
            for engine, solver_method in (
                ("compiled", "auto"), ("reference", "lu"),
            ):
                gc.collect()
                elapsed, reduction = quickstart(engine, solver_method)
                times[engine] = min(times[engine], elapsed)
                reductions[engine] = reduction

        # The engines agree to rounding; the solver backends (multigrid on
        # the compiled side, LU on the reference side) to their iteration
        # tolerance.
        assert reductions["compiled"] == pytest.approx(
            reductions["reference"], rel=1e-6
        )
        speedup = _record(
            "quickstart_end_to_end", times["reference"], times["compiled"],
            floor=MIN_END_TO_END_SPEEDUP,
            temperature_reduction=round(reductions["compiled"], 6),
        )
        if not SMOKE:
            assert speedup >= MIN_END_TO_END_SPEEDUP, (
                f"quickstart flow only {speedup:.2f}x faster than reference"
            )
