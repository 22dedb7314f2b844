"""Process-sharded campaign execution: parity with the thread executor."""

from __future__ import annotations

import pytest

from repro.bench import small_synthetic_circuit, scattered_hotspots_workload
from repro.flow import ArtifactStore, Campaign, ExperimentSetup, FlowGraph, ResultStore

NX = NY = 16
STRATEGIES = ("default", "eri")
OVERHEADS = (0.1, 0.2)


@pytest.fixture(scope="module")
def shard_setup():
    circuit = small_synthetic_circuit()
    workload = scattered_hotspots_workload(circuit)
    return ExperimentSetup.prepare(
        circuit, workload, grid_nx=NX, grid_ny=NY,
        num_cycles=6, batch_size=4, seed=11,
    )


@pytest.fixture(scope="module")
def serial_result(shard_setup):
    return Campaign(
        shard_setup, STRATEGIES, OVERHEADS, name="serial"
    ).run(max_workers=1)


class TestShardedCampaign:
    def test_constructor_validation(self, shard_setup):
        with pytest.raises(ValueError, match="executor"):
            Campaign(shard_setup, STRATEGIES, OVERHEADS, executor="mpi")

    def test_process_workers_share_a_disk_artifact_cache(
        self, shard_setup, serial_result, tmp_path
    ):
        """Process workers run every point through a graph over the
        campaign's on-disk artifact tier: records stay bitwise-equal to the
        serial thread run, and a later thread campaign over a fresh graph
        on the same root replays every transform from disk."""
        root = tmp_path / "artifacts"
        sharded = Campaign(
            shard_setup, STRATEGIES, OVERHEADS, executor="process",
            flow=FlowGraph(store=ArtifactStore(root=root)), name="sharded-flow",
        ).run(max_workers=2)
        assert len(sharded.records) == len(serial_result.records)
        for ours, reference in zip(sharded.records, serial_result.records):
            assert ours.point == reference.point
            assert ours.outcome == reference.outcome  # bitwise, not approx
        assert "flow_stages" in sharded.metadata

        replay_flow = FlowGraph(store=ArtifactStore(root=root))
        replay = Campaign(
            shard_setup, STRATEGIES, OVERHEADS, flow=replay_flow, name="replay",
        ).run(max_workers=2)
        points = len(STRATEGIES) * len(OVERHEADS)
        assert replay_flow.stage_hits["whitespace"] == points
        assert replay_flow.stage_executions["whitespace"] == 0
        for ours, reference in zip(replay.records, serial_result.records):
            assert ours.outcome == reference.outcome

    def test_sharded_matches_serial_bitwise(self, shard_setup, serial_result):
        sharded = Campaign(
            shard_setup, STRATEGIES, OVERHEADS,
            executor="process", name="sharded",
        ).run(max_workers=2)
        assert sharded.metadata["executor"] == "process"
        assert len(sharded.records) == len(serial_result.records)
        for ours, reference in zip(sharded.records, serial_result.records):
            assert ours.point == reference.point
            assert ours.outcome == reference.outcome  # bitwise, not approx

    def test_sharded_publishes_and_resumes(self, shard_setup, serial_result, tmp_path):
        store = ResultStore(root=tmp_path / "results")
        first = Campaign(
            shard_setup, STRATEGIES, OVERHEADS,
            executor="process", result_store=store, name="cold",
        ).run(max_workers=2)
        assert first.metadata["store_hits"] == 0
        assert first.metadata["num_evaluated"] == 4

        # A fresh store instance over the same root resumes from disk —
        # and a *thread* campaign can consume process-published records.
        warm = Campaign(
            shard_setup, STRATEGIES, OVERHEADS,
            result_store=ResultStore(root=tmp_path / "results"), name="warm",
        ).run(max_workers=2)
        assert warm.metadata["num_evaluated"] == 0
        assert warm.metadata["store_hits"] == 4
        for ours, reference in zip(warm.records, serial_result.records):
            assert ours.outcome == reference.outcome

    def test_process_run_publishes_to_a_memory_only_store(
        self, shard_setup, serial_result
    ):
        """Workers cannot reach a memory-only store, so the parent publishes
        each record once; a second run on the same store reuses them all."""
        store = ResultStore()
        first = Campaign(
            shard_setup, STRATEGIES, OVERHEADS, executor="process",
            result_store=store, name="cold-memory",
        ).run(max_workers=2)
        assert first.metadata["num_evaluated"] == 4
        assert store.stats().writes == 4
        again = Campaign(
            shard_setup, STRATEGIES, OVERHEADS, executor="process",
            result_store=store, name="warm-memory",
        ).run(max_workers=2)
        assert again.metadata["store_hits"] == 4
        assert again.metadata["num_evaluated"] == 0
        assert store.stats().writes == 4
        for ours, reference in zip(again.records, serial_result.records):
            assert ours.outcome == reference.outcome

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_solve_groups_are_counted_on_every_executor(
        self, shard_setup, executor
    ):
        """Default and the hotspot wrapper share a die outline at one
        overhead: threads solve them as one group, while each process task
        holds one point, so the workers' counts sum to one per point."""
        result = Campaign(
            shard_setup, ("default", "hw"), (0.1,), executor=executor,
            name=f"groups-{executor}",
        ).run(max_workers=2)
        expected = {"thread": 1, "process": 2}[executor]
        assert result.metadata["num_solve_groups"] == expected

    def test_worker_failure_raises(self, shard_setup):
        campaign = Campaign(
            shard_setup, ("eri",), (0.1,), executor="process", name="boom",
            fail_fast=True,
        )
        # Corrupt the grid after validation: the worker-side resolver
        # rejects the spec and the parent must surface that, not hang.
        campaign.strategies = ("no-such-strategy",)
        with pytest.raises(RuntimeError, match="shard worker failed"):
            campaign.run(max_workers=1)

    def test_worker_failure_quarantines_by_default(self, shard_setup):
        campaign = Campaign(
            shard_setup, ("eri",), (0.1,), executor="process", name="boom-soft"
        )
        campaign.strategies = ("no-such-strategy",)
        result = campaign.run(max_workers=1)
        assert result.records == []
        failed = result.failed_points
        assert len(failed) == 1
        assert failed[0]["strategy"] == "no-such-strategy"
        assert "no-such-strategy" in failed[0]["error"]


class TestSolverCacheCounts:
    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_solver_lookups_match_solve_groups(self, shard_setup, executor):
        """Every solve group looks its solver up once, and the metadata
        counts those lookups wherever they ran: process workers ship the
        deltas of their own caches back to the parent."""
        result = Campaign(
            shard_setup, ("default", "eri", "hw"), (0.1,), executor=executor,
        ).run(max_workers=2)
        groups = result.metadata["num_solve_groups"]
        assert result.cache_hits + result.cache_misses == groups
        assert result.cache_misses >= 1
