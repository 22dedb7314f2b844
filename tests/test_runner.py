"""Campaign runner: grid order, determinism, persistence."""

from __future__ import annotations

import json

import pytest

from repro.bench import small_synthetic_circuit, scattered_hotspots_workload
from repro.flow import (
    Campaign,
    CampaignPoint,
    CampaignRecord,
    CampaignResult,
    ExperimentSetup,
    SolverCache,
    sweep_overheads,
)

NX = NY = 16


@pytest.fixture(scope="module")
def runner_setup():
    circuit = small_synthetic_circuit()
    workload = scattered_hotspots_workload(circuit)
    return ExperimentSetup.prepare(
        circuit, workload, grid_nx=NX, grid_ny=NY,
        num_cycles=6, batch_size=4, seed=11,
    )


@pytest.fixture(scope="module")
def campaign_result(runner_setup):
    campaign = Campaign(
        runner_setup, strategies=("default", "eri"), overheads=(0.1, 0.2),
        name="unit-grid",
    )
    return campaign.run(max_workers=2)


class TestGrid:
    def test_points_in_canonical_order(self, runner_setup):
        campaign = Campaign(
            runner_setup, strategies=("default", "eri"), overheads=(0.1, 0.2)
        )
        workload = runner_setup.workload.name
        assert campaign.points == [
            CampaignPoint(workload, "default", 0.1),
            CampaignPoint(workload, "default", 0.2),
            CampaignPoint(workload, "eri", 0.1),
            CampaignPoint(workload, "eri", 0.2),
        ]
        assert len(campaign) == 4

    def test_single_setup_is_keyed_by_workload_name(self, runner_setup):
        campaign = Campaign(runner_setup)
        assert list(campaign.setups) == [runner_setup.workload.name]

    def test_empty_setups_rejected(self):
        with pytest.raises(ValueError):
            Campaign({})

    @pytest.mark.parametrize(
        "overhead", [float("nan"), float("inf"), float("-inf"), -0.1]
    )
    def test_bad_overheads_rejected_at_construction(self, runner_setup, overhead):
        # Like a bad spec, a bad overhead fails here, not as a quarantined
        # point with an unrelated error deep inside the run.
        with pytest.raises(ValueError, match="finite and non-negative"):
            Campaign(runner_setup, ("eri",), (0.1, overhead))


class TestRun:
    def test_records_follow_grid_order(self, runner_setup, campaign_result):
        points = [record.point for record in campaign_result.records]
        assert points == Campaign(
            runner_setup, strategies=("default", "eri"), overheads=(0.1, 0.2)
        ).points

    def test_parallel_matches_serial_and_plain_sweep(self, runner_setup, campaign_result):
        serial = Campaign(
            runner_setup, strategies=("default", "eri"), overheads=(0.1, 0.2)
        ).run(max_workers=1)
        assert [r.outcome for r in serial.records] == [
            r.outcome for r in campaign_result.records
        ]
        # The runner is just sweep_overheads with scheduling: same outcomes.
        swept = sweep_overheads(
            runner_setup, overheads=(0.1, 0.2), strategies=("default", "eri"),
            cache=SolverCache(),
        )
        assert swept == [record.outcome for record in serial.records]

    def test_metadata_reports_grid_and_cache(self, campaign_result):
        meta = campaign_result.metadata
        assert meta["num_points"] == 4
        assert meta["strategies"] == ["default", "eri"]
        assert meta["overheads"] == [0.1, 0.2]
        assert meta["solver_cache"]["misses"] > 0
        assert meta["elapsed_s"] > 0.0

    def test_outcomes_filter_by_workload(self, runner_setup, campaign_result):
        workload = runner_setup.workload.name
        assert len(campaign_result.outcomes(workload)) == 4
        assert campaign_result.outcomes("missing") == []
        assert campaign_result.workloads() == [workload]

    def test_find_locates_grid_cell(self, campaign_result):
        record = campaign_result.find("eri", 0.2)
        assert record is not None
        assert record.outcome.strategy == "eri"
        assert campaign_result.find("eri", 0.99) is None

    def test_find_prefers_exact_spec_over_bare_name_match(self, campaign_result):
        base = campaign_result.records[0]
        parameterized = CampaignRecord(
            point=CampaignPoint(base.point.workload, "hw:ring_um=12.0", 0.15),
            outcome=base.outcome,
            elapsed_s=0.0,
        )
        exact = CampaignRecord(
            point=CampaignPoint(base.point.workload, "hw", 0.15),
            outcome=base.outcome,
            elapsed_s=0.0,
        )
        result = CampaignResult(records=[parameterized, exact])
        # Exact spec wins even though the parameterized record comes first...
        assert result.find("hw", 0.15) is exact
        assert result.find("hw:ring_um=12.0", 0.15) is parameterized
        # ...and a bare name still falls back to a parameterized-only grid.
        only_param = CampaignResult(records=[parameterized])
        assert only_param.find("hw", 0.15) is parameterized
        assert parameterized.strategy_params == {"ring_um": 12.0}

    def test_find_canonicalises_the_query_spec(self, campaign_result):
        base = campaign_result.records[0]
        record = CampaignRecord(
            point=CampaignPoint(base.point.workload, "hw:ring_um=8.0", 0.15),
            outcome=base.outcome,
            elapsed_s=0.0,
        )
        result = CampaignResult(records=[record])
        # The user's non-canonical form (int 8) still finds the stored
        # canonical point (float 8.0); unknown names just return None.
        assert result.find("hw:ring_um=8", 0.15) is record
        assert result.find("not-registered", 0.15) is None


class TestPersistence:
    def test_json_roundtrip(self, campaign_result, tmp_path):
        path = campaign_result.to_json(tmp_path / "nested" / "result.json")
        assert path.exists()
        loaded = CampaignResult.from_json(path)
        assert loaded.metadata["num_points"] == 4
        assert [r.outcome for r in loaded.records] == [
            r.outcome for r in campaign_result.records
        ]
        assert [r.point for r in loaded.records] == [
            r.point for r in campaign_result.records
        ]

    def test_json_is_flat_records(self, campaign_result, tmp_path):
        path = campaign_result.to_json(tmp_path / "result.json")
        payload = json.loads(path.read_text())
        assert set(payload) == {"metadata", "records"}
        first = payload["records"][0]
        for column in ("workload", "strategy", "requested_overhead",
                       "temperature_reduction", "peak_rise", "elapsed_s"):
            assert column in first

    def test_csv_has_header_and_rows(self, campaign_result, tmp_path):
        path = campaign_result.to_csv(tmp_path / "result.csv")
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1 + len(campaign_result.records)
        assert lines[0].startswith("workload,strategy,")

    def test_record_dict_roundtrip(self, campaign_result):
        record = campaign_result.records[0]
        assert CampaignRecord.from_dict(record.to_dict()) == record
