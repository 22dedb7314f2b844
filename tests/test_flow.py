"""Integration tests: the end-to-end experiment flow on the small benchmark.

These tests exercise the complete Figure 2 loop (place -> power -> thermal
-> area management -> re-simulate) and check the qualitative results the
paper reports: every technique reduces the peak temperature, the reduction
grows with the area overhead, and the hotspot-targeted techniques are at
least competitive with blind spreading.
"""

from dataclasses import asdict

import pytest

from repro.core import apply_empty_row_insertion
from repro.flow import (
    Campaign,
    ExperimentSetup,
    FlowGraph,
    PreparedEvaluation,
    concentrated_hotspot_table,
    evaluate_strategy,
    finish_evaluation,
    sweep_overheads,
)
from repro.bench import concentrated_hotspot_workload
from repro.placement import PlacementView


@pytest.fixture(scope="module")
def setup(small_circuit, small_workload):
    # Work on a copy: ExperimentSetup.prepare places the netlist it is
    # given, and the session-scoped benchmark must stay untouched for the
    # other test modules.
    return ExperimentSetup.prepare(
        small_circuit.copy(),
        small_workload,
        num_cycles=10,
        batch_size=8,
        seed=7,
        use_quadratic=True,
    )


@pytest.fixture(scope="module")
def table1_setup(small_circuit):
    circuit = small_circuit.copy()
    workload = concentrated_hotspot_workload(circuit)
    return ExperimentSetup.prepare(
        circuit, workload, num_cycles=10, batch_size=8, seed=7,
        use_quadratic=False,
    )


def reference_concentrated_hotspot_table(setup, row_counts, analyze_timing):
    """The executable spec of Table I: Default at ``count / num_rows``
    overhead, then ERI inserting exactly ``count`` rows at the baseline
    hotspots, each solved warm-started from the baseline field."""
    flow = FlowGraph.pass_through()
    overheads = [count / setup.placement.floorplan.num_rows for count in row_counts]
    outcomes = [
        evaluate_strategy(setup, "default", overhead, analyze_timing=analyze_timing)
        for overhead in overheads
    ]
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
            setup=setup, strategy_spec="eri", requested_overhead=overhead,
            result=eri, power_map=legal.power_map, grid=legal.grid,
        )
        outcomes.append(
            finish_evaluation(prepared, new_map, analyze_timing=analyze_timing, flow=flow)
        )
    return outcomes


class TestSetup:
    def test_baseline_state(self, setup):
        assert isinstance(setup.placement, PlacementView)
        assert setup.placement.netlist is setup.netlist
        assert setup.placement.to_placement().check_legal() == []
        assert setup.power.total() > 0.0
        assert setup.thermal_map.peak_rise > 0.5
        assert setup.hotspots
        assert setup.timing.critical_path_ps > 0.0
        assert setup.power_map.total_power == pytest.approx(setup.power.total(), rel=1e-9)

    def test_hotspots_caused_by_active_units(self, setup, small_workload):
        leading = {h.dominant_units[0] for h in setup.hotspots if h.dominant_units}
        assert leading & set(small_workload.active_units)


class TestEvaluateStrategy:
    @pytest.mark.parametrize("strategy", ["default", "eri", "hw"])
    def test_each_strategy_reduces_peak_temperature(self, setup, strategy):
        outcome = evaluate_strategy(setup, strategy, 0.20, analyze_timing=False)
        assert outcome.temperature_reduction > 0.0
        assert outcome.peak_rise < setup.thermal_map.peak_rise

    def test_reduction_grows_with_overhead(self, setup):
        small = evaluate_strategy(setup, "eri", 0.10, analyze_timing=False)
        large = evaluate_strategy(setup, "eri", 0.35, analyze_timing=False)
        assert large.temperature_reduction > small.temperature_reduction

    def test_eri_reports_inserted_rows_and_geometry(self, setup):
        outcome = evaluate_strategy(setup, "eri", 0.20, analyze_timing=False)
        base = setup.placement.floorplan
        assert outcome.inserted_rows >= 0.2 * base.num_rows - 1
        assert outcome.core_width == pytest.approx(base.core_width)
        assert outcome.core_height > base.core_height

    def test_default_keeps_aspect_and_grows_area(self, setup):
        outcome = evaluate_strategy(setup, "default", 0.20, analyze_timing=False)
        base = setup.placement.floorplan
        new_area = outcome.core_width * outcome.core_height
        assert new_area > base.core_area
        assert outcome.actual_overhead >= 0.20 - 1e-9

    def test_timing_overhead_is_small(self, setup):
        outcome = evaluate_strategy(setup, "eri", 0.20, analyze_timing=True)
        assert outcome.timing_overhead is not None
        # The paper reports a maximum of around 2%; allow a generous band
        # (the transforms must not wreck timing).
        assert outcome.timing_overhead < 0.10

    def test_targeted_methods_competitive_with_default(self, setup):
        overhead = 0.25
        default = evaluate_strategy(setup, "default", overhead, analyze_timing=False)
        eri = evaluate_strategy(setup, "eri", overhead, analyze_timing=False)
        # Compare efficiency (reduction per unit of actual overhead) so core
        # snapping differences do not bias the comparison.
        default_eff = default.temperature_reduction / default.actual_overhead
        eri_eff = eri.temperature_reduction / eri.actual_overhead
        assert eri_eff >= 0.85 * default_eff


class TestSweeps:
    def test_sweep_produces_one_outcome_per_point(self, setup):
        outcomes = sweep_overheads(
            setup, overheads=(0.10, 0.30), strategies=("default", "eri")
        )
        assert len(outcomes) == 4
        assert {o.strategy for o in outcomes} == {"default", "eri"}

    def test_concentrated_table_structure(self, table1_setup):
        rows = concentrated_hotspot_table(table1_setup, row_counts=(6, 12))
        assert len(rows) == 4
        assert [r.strategy for r in rows] == ["default", "default", "eri", "eri"]
        assert rows[2].inserted_rows == 6
        assert rows[3].inserted_rows == 12
        # All four configurations reduce the peak temperature.
        assert all(r.temperature_reduction > 0.0 for r in rows)
        # ERI with more rows beats ERI with fewer rows.
        assert rows[3].temperature_reduction > rows[2].temperature_reduction

    @pytest.mark.parametrize("analyze_timing", [False, True])
    def test_concentrated_table_matches_reference(self, table1_setup, analyze_timing):
        """The Table I campaign equals the hand-built evaluation field for
        field: ``rows_for_overhead(count / num_rows)`` is ``count``, and
        ERI's own detection threshold is the baseline's."""
        rows = concentrated_hotspot_table(
            table1_setup, row_counts=(6, 12), analyze_timing=analyze_timing
        )
        reference = reference_concentrated_hotspot_table(
            table1_setup, (6, 12), analyze_timing
        )
        assert [asdict(row) for row in rows] == [asdict(row) for row in reference]


class TestRecordsCarryTheirSpec:
    SPECS = ("hw:ring_um=12", "hybrid:ring_um=9", "eri:hotspot_threshold=0.9",
             "gradient:exponent=2")

    def test_rerunning_a_record_strategy_reproduces_it(self, setup):
        """The spec is the only parameter channel: a record's ``strategy``
        string alone re-evaluates it bitwise."""
        result = Campaign(setup, self.SPECS, (0.15,), analyze_timing=True).run()
        assert len(result.records) == len(self.SPECS)
        for record in result.records:
            assert ":" in record.outcome.strategy
            rerun = evaluate_strategy(
                setup, record.outcome.strategy, record.point.overhead
            )
            assert rerun == record.outcome

