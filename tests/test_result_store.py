"""Result store: keys, persistence, pruning, resume."""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
import signal
import time

import pytest

from repro.bench import small_synthetic_circuit, scattered_hotspots_workload
from repro.engine import get_engine
from repro.flow import (
    Campaign,
    ExperimentSetup,
    FlowGraph,
    ResultStore,
    prune_store,
    result_key,
    scan_store,
    setup_digest,
)
from repro.flow.store import RESULT_SUFFIX, read_blob, write_blob

NX = NY = 16


@pytest.fixture(scope="module")
def store_setup():
    circuit = small_synthetic_circuit()
    workload = scattered_hotspots_workload(circuit)
    return ExperimentSetup.prepare(
        circuit, workload, grid_nx=NX, grid_ny=NY,
        num_cycles=6, batch_size=4, seed=11,
    )


class TestKeys:
    def test_setup_digest_stable_across_identical_prepares(self, store_setup):
        circuit = small_synthetic_circuit()
        workload = scattered_hotspots_workload(circuit)
        again = ExperimentSetup.prepare(
            circuit, workload, grid_nx=NX, grid_ny=NY,
            num_cycles=6, batch_size=4, seed=11,
        )
        assert setup_digest(again) == setup_digest(store_setup)

    def test_setup_digest_sensitive_to_inputs(self, store_setup):
        circuit = small_synthetic_circuit()
        workload = scattered_hotspots_workload(circuit)
        other_seed = ExperimentSetup.prepare(
            circuit, workload, grid_nx=NX, grid_ny=NY,
            num_cycles=6, batch_size=4, seed=12,
        )
        assert setup_digest(other_seed) != setup_digest(store_setup)

    def test_result_key_sensitive_to_every_component(self, store_setup):
        fingerprint = setup_digest(store_setup)
        base = dict(
            strategy_spec="eri", overhead=0.15, method="lu",
            engine="compiled", analyze_timing=False,
        )

        def key(**overrides):
            merged = {**base, **overrides}
            return result_key(
                overrides.get("fingerprint", fingerprint),
                merged["strategy_spec"], merged["overhead"],
                method=merged["method"], engine=merged["engine"],
                analyze_timing=merged["analyze_timing"],
            )

        reference = key()
        assert key() == reference  # deterministic
        assert key(fingerprint=fingerprint[::-1]) != reference
        assert key(strategy_spec="hw") != reference
        assert key(overhead=0.2) != reference
        assert key(method="multigrid") != reference
        assert key(engine="reference") != reference
        assert key(analyze_timing=True) != reference

    def test_campaign_point_keys_follow_engine_and_method(self, store_setup):
        campaign = Campaign(store_setup, ("eri",), (0.1,))
        point = campaign.points[0]
        key = campaign.result_key_for(point)
        assert key == campaign.result_key_for(point)  # stable
        # The small grid resolves "auto" to LU; pinning multigrid must
        # change the key (the backends agree to tolerance, not bitwise).
        from repro.flow import SolverCache

        pinned = Campaign(
            store_setup, ("eri",), (0.1,), cache=SolverCache(method="multigrid")
        )
        assert pinned.result_key_for(point) != key
        assert get_engine() == "compiled"


class TestResultStore:
    def test_memory_roundtrip_and_counters(self):
        store = ResultStore()
        assert store.get("k") is None
        store.put("k", {"value": 1})
        assert store.get("k") == {"value": 1}
        stats = store.stats()
        assert (stats.hits, stats.misses, stats.writes) == (1, 1, 1)
        assert stats.hit_rate == 0.5

    def test_disk_tier_survives_new_instance(self, tmp_path):
        first = ResultStore(root=tmp_path / "store")
        first.put("deadbeef", [1, 2, 3])
        second = ResultStore(root=tmp_path / "store")
        assert second.get("deadbeef") == [1, 2, 3]
        assert second.stats().disk_hits == 1

    def test_entries_shard_by_key_prefix(self, tmp_path):
        store = ResultStore(root=tmp_path / "store")
        store.put("abcd", "x")
        assert (tmp_path / "store" / "ab" / f"abcd{RESULT_SUFFIX}").exists()

    def test_memory_lru_bound(self):
        store = ResultStore(maxsize=2)
        for index in range(3):
            store.put(f"k{index}", index)
        assert len(store) == 2
        assert store.get("k0") is None  # oldest evicted
        assert store.get("k2") == 2

    def test_corrupt_disk_entry_evicted_not_served(self, tmp_path):
        store = ResultStore(root=tmp_path / "store")
        store.put("cafe", {"good": True})
        path = tmp_path / "store" / "ca" / f"cafe{RESULT_SUFFIX}"
        path.write_bytes(path.read_bytes()[:-3] + b"xyz")
        fresh = ResultStore(root=tmp_path / "store")
        assert fresh.get("cafe") is None
        assert fresh.stats().corrupt_evictions == 1
        assert not path.exists()

    def test_pickles_by_configuration(self, tmp_path):
        store = ResultStore(root=tmp_path / "store", maxsize=7)
        store.put("k", 1)
        clone = pickle.loads(pickle.dumps(store))
        assert clone.root == store.root
        assert clone.maxsize == 7
        assert len(clone) == 0  # contents travel via disk, not pickle
        assert clone.get("k") == 1

def _racing_writer(root, key, value, start_event, results):
    """Hammer one key with puts; verify the entry is always intact."""
    store = ResultStore(root=root)
    start_event.wait()
    try:
        for _ in range(50):
            store.put(key, value)
            read = store._read_disk(key)
            assert read == value, read
        results.put("ok")
    except Exception as error:  # pragma: no cover - failure reporting
        results.put(f"{type(error).__name__}: {error}")


class TestCrossProcess:
    def test_racing_writers_never_corrupt(self, tmp_path):
        """Parallel processes publishing the same key leave intact entries."""
        ctx = mp.get_context()
        start = ctx.Event()
        results = ctx.Queue()
        value = {"payload": list(range(100))}
        workers = [
            ctx.Process(
                target=_racing_writer,
                args=(tmp_path / "store", "sharedkey", value, start, results),
            )
            for _ in range(4)
        ]
        for worker in workers:
            worker.start()
        start.set()
        outcomes = [results.get(timeout=60) for _ in workers]
        for worker in workers:
            worker.join(timeout=10)
        assert outcomes == ["ok"] * 4
        # And the final on-disk entry verifies.
        store = ResultStore(root=tmp_path / "store")
        assert store.get("sharedkey") == value

class TestScanPrune:
    def _populate(self, root, count=4):
        store = ResultStore(root=root)
        for index in range(count):
            store.put(f"key{index:02d}", {"index": index, "pad": "x" * 200})
        return store

    def test_scan_counts_entries_and_bytes(self, tmp_path):
        root = tmp_path / "store"
        self._populate(root)
        usage = scan_store(root)
        assert usage.entries == 4
        assert usage.total_bytes > 0
        assert usage.by_group == {"results": (4, usage.total_bytes)}
        assert scan_store(tmp_path / "absent").entries == 0

    def test_scan_groups_artifact_store_stages(self, tmp_path):
        root = tmp_path / "artifacts"
        write_blob(root / "thermal" / "aa.art", {"stage": "thermal"})
        write_blob(root / "synth" / "bb.art", {"stage": "synth"})
        usage = scan_store(root)
        assert usage.entries == 2
        assert set(usage.by_group) == {"thermal", "synth"}

    def test_prune_by_age(self, tmp_path):
        root = tmp_path / "store"
        self._populate(root)
        now = time.time()
        old = root / "ke" / f"key00{RESULT_SUFFIX}"
        os.utime(old, (now - 10 * 86400, now - 10 * 86400))
        report = prune_store(root, max_age_days=5, now=now)
        assert report.removed == 1 and report.kept == 3
        assert not old.exists()

    def test_prune_by_size_drops_oldest_first(self, tmp_path):
        root = tmp_path / "store"
        self._populate(root)
        now = time.time()
        for index in range(4):  # distinct mtimes, key00 oldest; all past
            # the min_age_s live-writer guard so size pressure applies.
            age = 100 - index
            path = root / "ke" / f"key{index:02d}{RESULT_SUFFIX}"
            os.utime(path, (now - age, now - age))
        usage = scan_store(root)
        per_entry_mb = usage.total_bytes / 4 / 1e6
        report = prune_store(root, max_size_mb=2.5 * per_entry_mb, now=now)
        assert report.removed == 2
        assert not (root / "ke" / f"key00{RESULT_SUFFIX}").exists()
        assert (root / "ke" / f"key03{RESULT_SUFFIX}").exists()

    def test_prune_dry_run_removes_nothing(self, tmp_path):
        root = tmp_path / "store"
        self._populate(root)
        report = prune_store(root, max_size_mb=0.0, dry_run=True, min_age_s=0.0)
        assert report.removed == 4
        assert scan_store(root).entries == 4

    def test_prune_cleans_stale_strays_only(self, tmp_path):
        root = tmp_path / "store"
        self._populate(root)
        fresh_tmp = root / "ke" / "key99.tmp.123.456"
        fresh_tmp.write_bytes(b"staging")
        stale_tmp = root / "ke" / "zz.tmp.123.456"
        stale_tmp.write_bytes(b"partial")
        now = time.time()
        os.utime(stale_tmp, (now - 3600, now - 3600))
        report = prune_store(root, now=now)
        assert report.strays_removed == 1
        assert fresh_tmp.exists() and not stale_tmp.exists()
        assert scan_store(root).entries == 4  # entries untouched


class TestCampaignResume:
    STRATEGIES = ("default", "eri")
    OVERHEADS = (0.1, 0.2)

    def _campaign(self, setup, store, **kwargs):
        return Campaign(
            setup, self.STRATEGIES, self.OVERHEADS,
            result_store=store, name="resume-test", **kwargs
        )

    def test_rerun_recomputes_zero_points(self, store_setup, tmp_path):
        store = ResultStore(root=tmp_path / "results")
        first = self._campaign(store_setup, store).run(max_workers=2)
        assert first.metadata["num_evaluated"] == 4
        assert first.metadata["store_hits"] == 0

        rerun = self._campaign(
            store_setup, ResultStore(root=tmp_path / "results")
        ).run(max_workers=2)
        assert rerun.metadata["num_evaluated"] == 0
        assert rerun.metadata["store_hits"] == 4
        assert [r.outcome for r in rerun.records] == [
            r.outcome for r in first.records
        ]

    def test_int_spelled_overheads_replay_a_float_spelled_store(
        self, store_setup, tmp_path
    ):
        """``0`` and ``0.0`` name one point: an int-spelled rerun is served
        entirely from the float-spelled run's store, executing no stage."""
        store = ResultStore(root=tmp_path / "results")
        first = Campaign(
            store_setup, ("eri", "default"), [0.0, 1.0], result_store=store,
            flow=FlowGraph(),
        ).run(max_workers=1)
        assert first.metadata["num_evaluated"] == 4
        flow = FlowGraph()
        rerun = Campaign(
            store_setup, ("eri", "default"), [0, 1],
            result_store=ResultStore(root=tmp_path / "results"), flow=flow,
        ).run(max_workers=1)
        assert rerun.metadata["store_hits"] == 4
        assert sum(flow.stage_executions.values()) == 0
        assert [r.point for r in rerun.records] == [r.point for r in first.records]
        assert all(type(r.point.overhead) is float for r in rerun.records)
        assert [r.outcome for r in rerun.records] == [r.outcome for r in first.records]

    def test_store_reuse_matches_fresh_run_bitwise(self, store_setup, tmp_path):
        reference = Campaign(
            store_setup, self.STRATEGIES, self.OVERHEADS, name="ref"
        ).run(max_workers=1)
        store = ResultStore(root=tmp_path / "results")
        self._campaign(store_setup, store).run(max_workers=1)
        served = self._campaign(store_setup, store).run(max_workers=1)
        assert [r.outcome for r in served.records] == [
            r.outcome for r in reference.records
        ]

    def test_sigint_batched_path(self, store_setup, tmp_path, monkeypatch):
        """Interrupt mid-run: the run stops cleanly, a rerun computes the
        rest and the merged records match an uninterrupted sweep."""
        from repro.flow import runner as runner_module

        real_prepare = runner_module.prepare_evaluation
        calls = {"count": 0}

        def interrupting_prepare(*args, **kwargs):
            calls["count"] += 1
            prepared = real_prepare(*args, **kwargs)
            if calls["count"] == 2:
                os.kill(os.getpid(), signal.SIGINT)
            return prepared

        monkeypatch.setattr(
            runner_module, "prepare_evaluation", interrupting_prepare
        )
        store = ResultStore(root=tmp_path / "results")
        partial = self._campaign(store_setup, store).run(max_workers=1)
        assert partial.metadata["interrupted"] is True
        assert len(partial.records) < 4

        monkeypatch.setattr(runner_module, "prepare_evaluation", real_prepare)
        resumed = self._campaign(
            store_setup, ResultStore(root=tmp_path / "results"),
        ).run(max_workers=1)
        assert resumed.metadata["interrupted"] is False
        assert len(resumed.records) == 4
        assert resumed.metadata["store_hits"] == len(partial.records)

        reference = Campaign(
            store_setup, self.STRATEGIES, self.OVERHEADS, name="ref"
        ).run(max_workers=1)
        assert [r.outcome for r in resumed.records] == [
            r.outcome for r in reference.records
        ]


class TestBlobHelpers:
    def test_write_read_roundtrip(self, tmp_path):
        path = tmp_path / "nested" / "blob.bin"
        write_blob(path, {"a": [1, 2, 3]})
        assert read_blob(path) == {"a": [1, 2, 3]}

    def test_missing_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            read_blob(tmp_path / "absent.bin")
