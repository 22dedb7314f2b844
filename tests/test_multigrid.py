"""Multigrid thermal engine: agreement with LU, warm starts, batching.

The multigrid backend must be a drop-in replacement for the sparse direct
factorisation: same temperatures (to well below 1e-8 relative), same
package-node elimination, and a ``solve_many`` path whose batched lanes
are bitwise the sequential solves, whatever the batch width.  Warm starts must measurably cut the outer
iteration count — that is the property the feedback loops and sweep
re-solves rely on.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from repro.bench import scattered_hotspots_workload, small_synthetic_circuit
from repro.flow import (
    Campaign,
    ExperimentSetup,
    SolverCache,
    evaluate_strategy,
    geometry_key,
)
from repro.thermal import (
    MULTIGRID_AUTO_MIN_NODES,
    MultigridSolver,
    Package,
    ThermalGrid,
    ThermalNetwork,
    ThermalSolver,
    default_package,
    low_cost_package,
    resolve_thermal_method,
    simulate_placement,
    simulate_with_leakage_feedback,
)

#: Relative agreement demanded between the two backends, everywhere.
AGREEMENT_RTOL = 1e-8


def random_power(nx: int, ny: int, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).random((ny, nx)) * 1e-4


def no_lateral_package() -> Package:
    base = default_package()
    return Package(
        layers=base.layers,
        active_layer=base.active_layer,
        bottom_htc=base.bottom_htc,
        top_htc=base.top_htc,
        lateral_htc=0.0,
        package_resistance=base.package_resistance,
    )


def no_package_node_package() -> Package:
    base = default_package()
    return Package(
        layers=base.layers,
        active_layer=base.active_layer,
        bottom_htc=base.bottom_htc,
        top_htc=base.top_htc,
        lateral_htc=base.lateral_htc,
        package_resistance=0.0,
    )


class TestAgreementWithLU:
    """Multigrid temperatures match the direct factorisation everywhere."""

    @pytest.mark.parametrize(
        "width,height,nx,ny,package_builder,seed",
        [
            (1500.0, 1500.0, 40, 40, default_package, 0),     # the paper grid
            (1234.5, 876.9, 27, 13, default_package, 1),      # non-power-of-two
            (640.0, 2210.0, 13, 41, low_cost_package, 2),     # tall aspect
            (800.0, 800.0, 33, 40, no_lateral_package, 3),    # adiabatic sides
            (980.0, 700.0, 24, 17, no_package_node_package, 4),  # no pkg node
        ],
    )
    def test_randomized_geometries(self, width, height, nx, ny, package_builder, seed):
        grid = ThermalGrid(width, height, nx=nx, ny=ny, package=package_builder())
        power = random_power(nx, ny, seed)
        lu = ThermalSolver(grid, method="lu").solve(power)
        mg = ThermalSolver(grid, method="multigrid").solve(power)
        scale = np.abs(lu.rise_map()).max()
        assert scale > 0
        worst = np.abs(mg.rise_map() - lu.rise_map()).max() / scale
        assert worst <= AGREEMENT_RTOL, f"multigrid off by {worst:.2e} relative"
        if lu.package_temperature is not None:
            assert mg.package_temperature == pytest.approx(
                lu.package_temperature, rel=AGREEMENT_RTOL
            )

    def test_full_field_agreement(self):
        grid = ThermalGrid(1100.0, 900.0, nx=21, ny=19, package=default_package())
        power = random_power(21, 19, 7)
        lu = ThermalSolver(grid, keep_full_field=True, method="lu").solve(power)
        mg = ThermalSolver(grid, keep_full_field=True, method="multigrid").solve(power)
        scale = np.abs(lu.full_field - lu.ambient).max()
        worst = np.abs(mg.full_field - lu.full_field).max() / scale
        assert worst <= AGREEMENT_RTOL


class TestPackageSchurElimination:
    """The rank-1 package elimination must match the full bordered system."""

    @pytest.mark.parametrize("method", ["lu", "multigrid"])
    def test_matches_unreduced_system(self, method):
        grid = ThermalGrid(700.0, 900.0, nx=14, ny=18, package=default_package())
        network = ThermalNetwork(grid)
        assert network.package_node is not None
        power = random_power(14, 18, 11)

        # Reference: solve the full system including the package node's
        # dense row, with no Schur elimination at all.
        full = network.conductance_matrix.tocsc()
        rhs = network.power_vector(power)
        reference = spla.spsolve(full, rhs)

        solved = ThermalSolver(grid, keep_full_field=True, method=method).solve(power)
        ref_field = reference[: grid.num_nodes].reshape(grid.nz, grid.ny, grid.nx)
        scale = np.abs(ref_field).max()
        worst = np.abs((solved.full_field - solved.ambient) - ref_field).max() / scale
        assert worst <= AGREEMENT_RTOL
        assert solved.package_temperature - solved.ambient == pytest.approx(
            float(reference[network.package_node]), rel=1e-7
        )


class TestWarmStart:
    def test_warm_start_cuts_iterations(self):
        grid = ThermalGrid(1500.0, 1500.0, nx=40, ny=40, package=default_package())
        solver = ThermalSolver(grid, method="multigrid")
        power = random_power(40, 40, 21)
        baseline = solver.solve(power)
        cold_iterations = solver.last_iterations
        assert cold_iterations > 2

        # A leakage-feedback-sized perturbation re-solved from the previous
        # field must converge in strictly fewer outer iterations.
        perturbed = power * 1.001
        solver.solve(perturbed)
        cold_perturbed = solver.last_iterations
        solver.solve(perturbed, x0=baseline.grid_rises)
        warm_perturbed = solver.last_iterations
        assert warm_perturbed < cold_perturbed

        # Re-solving the identical map from its own solution is free.
        solver.solve(power, x0=baseline.grid_rises)
        assert solver.last_iterations == 0

    def test_warm_start_does_not_change_the_answer(self):
        grid = ThermalGrid(900.0, 1200.0, nx=18, ny=25, package=default_package())
        solver = ThermalSolver(grid, method="multigrid")
        power = random_power(18, 25, 22)
        baseline = solver.solve(power)
        warm = solver.solve(power * 1.05, x0=baseline.grid_rises)
        cold = solver.solve(power * 1.05)
        np.testing.assert_allclose(
            warm.temperatures, cold.temperatures, rtol=1e-9, atol=1e-12
        )

    def test_mismatched_warm_start_is_ignored(self):
        grid = ThermalGrid(900.0, 900.0, nx=12, ny=12, package=default_package())
        solver = ThermalSolver(grid, method="multigrid")
        power = random_power(12, 12, 23)
        stale = np.ones(17)  # wrong length: must fall back to a cold start
        result = solver.solve(power, x0=stale)
        reference = solver.solve(power)
        np.testing.assert_allclose(
            result.temperatures, reference.temperatures, rtol=1e-12
        )

    def test_lu_ignores_warm_start_bitwise(self):
        grid = ThermalGrid(800.0, 800.0, nx=10, ny=10, package=default_package())
        solver = ThermalSolver(grid, method="lu")
        power = random_power(10, 10, 24)
        cold = solver.solve(power)
        warm = solver.solve(power, x0=cold.grid_rises)
        assert cold.temperatures.tobytes() == warm.temperatures.tobytes()


class TestSolveMany:
    @pytest.mark.parametrize("method", ["lu", "multigrid"])
    def test_batched_equals_sequential(self, method):
        """Every lane of every batch width, cold or warm-started per lane,
        is bitwise the one-point solve of the same power map."""
        grid = ThermalGrid(1500.0, 1500.0, nx=40, ny=40, package=default_package())
        solver = ThermalSolver(grid, method=method)
        stack = [random_power(40, 40, 30 + i) for i in range(5)]
        baseline = solver.solve(random_power(40, 40, 99)).grid_rises
        x0 = np.stack([baseline * (1.0 + 0.01 * i) for i in range(5)], axis=1)
        for warm in (False, True):
            singles = [
                solver.solve(power, x0=x0[:, lane].copy() if warm else None)
                for lane, power in enumerate(stack)
            ]
            for width in range(1, len(stack) + 1):
                batched = solver.solve_many(
                    stack[:width], x0=x0[:, :width] if warm else None
                )
                assert len(batched) == width
                for lane, (single, solved) in enumerate(zip(singles, batched)):
                    where = f"width {width} lane {lane} warm={warm}"
                    assert np.array_equal(
                        solved.grid_rises, single.grid_rises
                    ), where
                    assert np.array_equal(
                        solved.temperatures, single.temperatures
                    ), where
                    assert (
                        solved.package_temperature == single.package_temperature
                    ), where

    def test_empty_stack(self):
        grid = ThermalGrid(400.0, 400.0, nx=8, ny=8, package=default_package())
        assert ThermalSolver(grid).solve_many([]) == []

    def test_warm_started_lanes(self):
        grid = ThermalGrid(1000.0, 1000.0, nx=20, ny=20, package=default_package())
        solver = ThermalSolver(grid, method="multigrid")
        stack = [random_power(20, 20, 40 + i) for i in range(3)]
        baseline = solver.solve(stack[0])
        x0 = np.repeat(baseline.grid_rises[:, None], 3, axis=1)
        warm = solver.solve_many(stack, x0=x0)
        cold = solver.solve_many(stack)
        for w, c in zip(warm, cold):
            np.testing.assert_allclose(
                w.temperatures, c.temperatures, rtol=1e-9, atol=1e-12
            )


class TestAutoHeuristicAndCacheKeys:
    def test_resolve_validates(self):
        with pytest.raises(ValueError, match="unknown thermal solver method"):
            resolve_thermal_method("cholesky")

    def test_auto_picks_by_size(self):
        small = ThermalGrid(400.0, 400.0, nx=8, ny=8, package=default_package())
        large = ThermalGrid(1500.0, 1500.0, nx=40, ny=40, package=default_package())
        assert small.num_nodes < MULTIGRID_AUTO_MIN_NODES <= large.num_nodes
        assert resolve_thermal_method("auto", small) == "lu"
        assert resolve_thermal_method("auto", large) == "multigrid"
        assert resolve_thermal_method("lu", large) == "lu"
        assert resolve_thermal_method("multigrid", small) == "multigrid"
        assert ThermalSolver(large).method == "multigrid"
        assert ThermalSolver(small).method == "lu"

    def test_geometry_key_includes_resolved_method(self):
        grid = ThermalGrid(500.0, 500.0, nx=10, ny=10, package=default_package())
        lu_key = geometry_key(grid, method="lu")
        mg_key = geometry_key(grid, method="multigrid")
        auto_key = geometry_key(grid, method="auto")
        assert lu_key != mg_key
        assert auto_key == lu_key  # auto resolves to lu at this size
        assert "lu" in lu_key and "multigrid" in mg_key

    def test_cache_never_hands_lu_to_a_multigrid_request(self):
        grid = ThermalGrid(600.0, 600.0, nx=12, ny=12, package=default_package())
        cache = SolverCache(method="lu")
        lu_solver = cache.solver(grid)
        mg_solver = cache.solver(grid, method="multigrid")
        assert lu_solver is not mg_solver
        assert lu_solver.method == "lu"
        assert mg_solver.method == "multigrid"
        assert cache.stats().misses == 2
        # Repeated requests hit their own entries.
        assert cache.solver(grid) is lu_solver
        assert cache.solver(grid, method="multigrid") is mg_solver
        assert cache.stats().hits == 2

    def test_cache_method_configures_built_solvers(self):
        grid = ThermalGrid(600.0, 700.0, nx=11, ny=13, package=default_package())
        cache = SolverCache(method="multigrid")
        assert cache.solver(grid).method == "multigrid"
        assert cache.key_for(grid) in cache

    def test_multigrid_coarsens_the_paper_grid(self):
        grid = ThermalGrid(1500.0, 1500.0, nx=40, ny=40, package=default_package())
        mg = MultigridSolver(grid)
        assert mg.num_levels >= 3
        coarsest = mg.levels[-1]
        assert coarsest.coarse_lu is not None
        assert coarsest.nx * coarsest.ny <= 40 * 40


class TestFlowIntegration:
    @pytest.fixture(scope="class")
    def setup16(self):
        circuit = small_synthetic_circuit()
        workload = scattered_hotspots_workload(circuit)
        return ExperimentSetup.prepare(
            circuit, workload, grid_nx=16, grid_ny=16,
            num_cycles=6, batch_size=4, seed=11,
        )

    def test_simulate_placement_method_override(self, setup16):
        lu = simulate_placement(
            setup16.placement, setup16.power, nx=16, ny=16, method="lu"
        )
        mg = simulate_placement(
            setup16.placement, setup16.power, nx=16, ny=16, method="multigrid"
        )
        scale = np.abs(lu.rise_map()).max()
        assert np.abs(mg.rise_map() - lu.rise_map()).max() / scale <= AGREEMENT_RTOL
        assert lu.grid_rises is not None and mg.grid_rises is not None

    def test_leakage_feedback_backends_agree(self, setup16):
        from repro.power import PowerModel, estimate_activity

        activity = estimate_activity(
            setup16.netlist,
            setup16.workload.port_toggle_probabilities(setup16.netlist),
            num_cycles=6, batch_size=4, seed=11,
        )
        lu = simulate_with_leakage_feedback(
            setup16.placement, activity, PowerModel(), nx=16, ny=16,
            iterations=3, method="lu",
        )
        mg = simulate_with_leakage_feedback(
            setup16.placement, activity, PowerModel(), nx=16, ny=16,
            iterations=3, method="multigrid",
        )
        scale = np.abs(lu.rise_map()).max()
        assert np.abs(mg.rise_map() - lu.rise_map()).max() / scale <= 1e-7

    def test_campaign_batched_equals_per_point(self, setup16):
        strategies = ("default", "eri", "hw")
        overheads = (0.1, 0.2)
        cache = SolverCache()
        per_point = [
            evaluate_strategy(
                setup16, strategy, overhead, analyze_timing=False, cache=cache
            )
            for strategy in strategies
            for overhead in overheads
        ]
        batched = Campaign(
            setup16, strategies=strategies, overheads=overheads, name="b",
        ).run(max_workers=2)

        assert [r.outcome for r in batched.records] == per_point  # bitwise
        # The hotspot wrapper reuses the Default outline at each overhead,
        # so batching must have grouped the grid into fewer solves.
        assert 0 < batched.metadata["num_solve_groups"] < len(batched.records)
        assert batched.cache_misses == batched.metadata["num_solve_groups"]
        assert "batch_solves" not in batched.metadata

    def test_campaign_batched_multigrid(self, setup16):
        """A multigrid record does not depend on its batch-mates.

        Default and the hotspot wrapper share a die outline at the same
        overhead, so a two-strategy campaign solves them as one two-lane
        block; each record must equal, bitwise, the one-strategy
        campaign's, the standalone evaluation's and a process worker's.
        """
        def cache():
            return SolverCache(method="multigrid")

        strategies, overheads = ("default", "hw"), (0.15,)
        pair = Campaign(
            setup16, strategies, overheads, cache=cache(), name="pair"
        ).run(max_workers=1)
        assert pair.metadata["thermal_solver"] == "multigrid"
        assert pair.metadata["num_solve_groups"] == 1
        alone = [
            Campaign(setup16, (strategy,), overheads, cache=cache(), name=strategy)
            .run(max_workers=1).records[0].outcome
            for strategy in strategies
        ]
        standalone = [
            evaluate_strategy(
                setup16, strategy, overheads[0], analyze_timing=False,
                cache=cache(),
            )
            for strategy in strategies
        ]
        sharded = Campaign(
            setup16, strategies, overheads, cache=cache(), name="sharded",
            executor="process",
        ).run(max_workers=2)
        outcomes = [r.outcome for r in pair.records]
        assert outcomes == alone
        assert outcomes == standalone
        assert outcomes == [r.outcome for r in sharded.records]

    def test_batch_solves_keyword_is_deprecated(self, setup16):
        with pytest.warns(DeprecationWarning, match="batch_solves"):
            campaign = Campaign(setup16, ("eri",), (0.1,), batch_solves=True)
        assert not hasattr(campaign, "batch_solves")
