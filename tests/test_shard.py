"""Process-sharded campaign execution: shared-memory packing + parity."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.bench import small_synthetic_circuit, scattered_hotspots_workload
from repro.flow import ArtifactStore, Campaign, ExperimentSetup, FlowGraph, ResultStore
from repro.flow.shard import attach_setups, pack_setups

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


class TestPacking:
    def test_roundtrip_restores_arrays_bitwise(self, shard_setup):
        setups = {"wl": shard_setup}
        original_power = shard_setup.power_map.power_w.copy()
        original_temps = shard_setup.thermal_map.temperatures.copy()

        segments, skeleton, specs = pack_setups(setups)
        try:
            # The live setups must be intact after packing.
            np.testing.assert_array_equal(
                shard_setup.power_map.power_w, original_power
            )
            np.testing.assert_array_equal(
                shard_setup.thermal_map.temperatures, original_temps
            )
            attached, attached_segments = attach_setups(skeleton, specs)
            try:
                clone = attached["wl"]
                np.testing.assert_array_equal(
                    clone.power_map.power_w, original_power
                )
                np.testing.assert_array_equal(
                    clone.thermal_map.temperatures, original_temps
                )
                # Attached views are read-only windows on shared pages.
                assert not clone.power_map.power_w.flags.writeable
                with pytest.raises((ValueError, RuntimeError)):
                    clone.power_map.power_w[0] = 0.0
            finally:
                for segment in attached_segments:
                    segment.close()
        finally:
            for segment in segments:
                segment.close()
                segment.unlink()

    def test_skeleton_excludes_shared_arrays(self, shard_setup):
        setups = {"wl": shard_setup}
        baseline = len(pickle.dumps(setups, protocol=pickle.HIGHEST_PROTOCOL))
        segments, skeleton, specs = pack_setups(setups)
        try:
            shared_bytes = sum(
                int(np.prod(shape)) * np.dtype(dtype).itemsize
                for entries in specs.values()
                for _oa, _aa, _name, shape, dtype in entries
            )
            assert shared_bytes > 0
            assert len(skeleton) < baseline
        finally:
            for segment in segments:
                segment.close()
                segment.unlink()


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
