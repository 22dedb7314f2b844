"""Crash-consistency suite: kill-9 debris, ``repro fsck``, and recovery.

A hard kill can interrupt the stores at exactly two seams — between
claiming a key and publishing its entry, and between staging a ``.tmp.*``
blob and the atomic rename.  This suite seeds real ``kind="exit"`` faults
(``os._exit`` mid-write, the kill-9 analogue) in subprocesses, then proves
the recovery contract:

* :func:`~repro.flow.recover.fsck_store` finds every category of debris
  (orphaned claims, stale temp files, corrupt blobs, unparseable keys)
  and ``--repair`` deletes or quarantines it atomically;
* after ``fsck --repair`` the store is clean and a rerun *resumes* —
  published survivors are reused, only the lost points recompute, and the
  merged result is bitwise-identical to an uninterrupted run;
* :func:`~repro.flow.recover.recover_store` (the startup pass) is safe
  against live peers: it only removes temp files with provably dead
  writers and claims past the stale threshold;
* single-flight claim handling survives clock skew, and
  :func:`~repro.flow.store.prune_store` racing a live writer never
  deletes young claims or fresh blobs.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.bench import scattered_hotspots_workload, small_synthetic_circuit
from repro.cli import main as cli_main
from repro.faults import FaultPlan, FaultRule
from repro.flow import (
    Campaign,
    ExperimentSetup,
    ResultStore,
    fsck_store,
    prune_store,
    recover_store,
)
from repro.flow.store import (
    QUARANTINE_DIR,
    RESULT_SUFFIX,
    STALE_CLAIM_S,
    BlobIntegrityError,
    read_blob,
    write_blob,
)

#: A syntactically valid store key (32 lowercase hex chars).
KEY = "ab" * 16

#: Source tree for subprocess PYTHONPATH.
SRC = str(Path(repro.__file__).resolve().parents[1])


def _entry_path(root: Path, key: str = KEY) -> Path:
    return root / key[:2] / f"{key}{RESULT_SUFFIX}"


def _run_child(code: str, plan: FaultPlan, timeout: float = 180.0):
    """Run ``code`` in a child interpreter with ``plan`` in REPRO_FAULTS."""
    env = dict(os.environ)
    env["REPRO_FAULTS"] = plan.to_json()
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, timeout=timeout,
    )


@pytest.fixture(scope="module")
def recover_setup():
    circuit = small_synthetic_circuit()
    workload = scattered_hotspots_workload(circuit)
    return ExperimentSetup.prepare(
        circuit, workload, grid_nx=16, grid_ny=16,
        num_cycles=6, batch_size=4, seed=11,
    )


class TestFsck:
    def test_missing_root_is_clean(self, tmp_path):
        report = fsck_store(tmp_path / "absent")
        assert report.clean and report.entries_checked == 0

    def test_healthy_store_is_clean(self, tmp_path):
        root = tmp_path / "store"
        ResultStore(root=root).put(KEY, {"value": 1})
        report = fsck_store(root)
        assert report.clean
        assert report.entries_checked == 1

    def test_finds_and_repairs_every_debris_category(self, tmp_path):
        root = tmp_path / "store"
        store = ResultStore(root=root)
        store.put(KEY, {"value": 1})
        shard = root / KEY[:2]
        claim = shard / f"{KEY}.lock"
        claim.touch()
        tmp = shard / f"{KEY}{RESULT_SUFFIX}.tmp.999999.1"
        tmp.write_bytes(b"partial")
        bad_key = shard / f"not-a-key{RESULT_SUFFIX}"
        bad_key.write_bytes(b"renamed wrong")
        corrupt_key = "cd" * 16
        corrupt = _entry_path(root, corrupt_key)
        write_blob(corrupt, {"value": 2})
        corrupt.write_bytes(corrupt.read_bytes()[:-4] + b"XXXX")
        with pytest.raises(BlobIntegrityError):
            read_blob(corrupt)

        found = fsck_store(root)
        assert not found.clean
        assert found.orphaned_claims == [claim]
        assert found.stale_tmp == [tmp]
        assert found.bad_keys == [bad_key]
        assert found.corrupt_blobs == [corrupt]
        assert found.num_repaired == 0  # check-only: nothing touched
        assert claim.exists() and tmp.exists() and corrupt.exists()

        repaired = fsck_store(root, repair=True)
        assert repaired.num_repaired == 4
        assert repaired.repair_errors == 0
        assert not claim.exists() and not tmp.exists()
        # Debris is deleted; damaged *entries* are quarantined for the
        # operator, and the quarantine is outside later scans.
        quarantine = root / QUARANTINE_DIR
        assert (quarantine / corrupt.name).exists()
        assert (quarantine / bad_key.name).exists()
        after = fsck_store(root)
        assert after.clean
        assert after.entries_checked == 1  # the healthy entry survived
        assert ResultStore(root=root).get(KEY) == {"value": 1}

    def test_verify_blobs_can_be_skipped(self, tmp_path):
        root = tmp_path / "store"
        entry = _entry_path(root)
        write_blob(entry, {"value": 1})
        entry.write_bytes(entry.read_bytes()[:-4] + b"XXXX")
        assert fsck_store(root, verify_blobs=False).clean
        assert fsck_store(root).corrupt_blobs == [entry]

    def test_works_on_artifact_stores_too(self, tmp_path):
        root = tmp_path / "artifacts"
        entry = root / "thermal" / f"{KEY}.art"
        write_blob(entry, {"stage": "thermal"})
        assert fsck_store(root).entries_checked == 1
        entry.write_bytes(b"torn")
        report = fsck_store(root, repair=True)
        assert report.corrupt_blobs == [entry]
        assert (root / QUARANTINE_DIR / entry.name).exists()

    def test_cli_exit_codes(self, tmp_path, capsys):
        root = tmp_path / "store"
        ResultStore(root=root).put(KEY, {"value": 1})
        (root / KEY[:2] / f"{KEY}.lock").touch()
        assert cli_main(["fsck", str(root)]) == 1  # found, not repaired
        assert "orphaned claim" in capsys.readouterr().out
        assert cli_main(["fsck", "--repair", str(root)]) == 0
        assert cli_main(["fsck", str(root)]) == 0  # clean now
        assert "clean" in capsys.readouterr().out
        assert cli_main(["fsck", str(tmp_path / "absent")]) == 1


class TestKill9:
    def test_kill9_between_stage_and_publish_leaves_tmp(self, tmp_path):
        root = tmp_path / "store"
        plan = FaultPlan(rules=[FaultRule(site="store.publish", kind="exit")])
        child = _run_child(
            "from repro.faults import install_env_plan\n"
            "from repro.flow import ResultStore\n"
            "install_env_plan()\n"
            f"ResultStore(root={str(root)!r}).put({KEY!r}, {{'value': 1}})\n",
            plan,
        )
        assert child.returncode == 70, child.stderr
        report = fsck_store(root)
        assert len(report.stale_tmp) == 1
        assert report.entries_checked == 0  # nothing was published
        assert fsck_store(root, repair=True).num_repaired == 1
        assert fsck_store(root).clean
        # The rerun simply recomputes and publishes: resumable.
        store = ResultStore(root=root)
        store.put(KEY, {"value": 1})
        assert ResultStore(root=root).get(KEY) == {"value": 1}

    def test_kill9_after_claim_leaves_orphan_lock(self, tmp_path):
        root = tmp_path / "store"
        plan = FaultPlan(rules=[FaultRule(site="store.claim", kind="exit")])
        child = _run_child(
            "from repro.faults import install_env_plan\n"
            "from repro.flow import ResultStore\n"
            "install_env_plan()\n"
            f"store = ResultStore(root={str(root)!r})\n"
            f"store.compute_if_missing({KEY!r}, lambda: 'value')\n",
            plan,
        )
        assert child.returncode == 70, child.stderr
        report = fsck_store(root)
        assert len(report.orphaned_claims) == 1
        assert fsck_store(root, repair=True).num_repaired == 1
        # With the claim gone the next writer claims immediately instead
        # of waiting out the stale window.
        start = time.monotonic()
        record, computed = ResultStore(root=root).compute_if_missing(
            KEY, lambda: "value"
        )
        assert computed and record == "value"
        assert time.monotonic() - start < STALE_CLAIM_S / 10

    def test_killed_sweep_resumes_after_fsck_repair(
        self, tmp_path, recover_setup
    ):
        """The acceptance scenario: kill -9 a sweep mid-publication, fsck
        --repair the store, rerun — the merged result is bitwise-identical
        to an uninterrupted sweep."""
        root = tmp_path / "results"
        # The child dies inside its *second* point's publication (the
        # fault matches that point's blob name): one point is durable,
        # one left a .tmp, two were never reached.
        child = _run_child(
            "from repro import faults\n"
            "from repro.bench import scattered_hotspots_workload, "
            "small_synthetic_circuit\n"
            "from repro.flow import Campaign, CampaignPoint, "
            "ExperimentSetup, ResultStore\n"
            "circuit = small_synthetic_circuit()\n"
            "workload = scattered_hotspots_workload(circuit)\n"
            "setup = ExperimentSetup.prepare(circuit, workload, grid_nx=16, "
            "grid_ny=16, num_cycles=6, batch_size=4, seed=11)\n"
            "campaign = Campaign(setup, ('default', 'eri'), (0.1, 0.2), "
            f"name='victim', result_store=ResultStore(root={str(root)!r}))\n"
            "second = CampaignPoint(workload=workload.name, "
            "strategy='default', overhead=0.2)\n"
            "key = campaign.result_key_for(second)\n"
            "faults.activate(faults.FaultPlan(rules=[faults.FaultRule("
            "site='store.publish', kind='exit', "
            "match={'path': key + '.res'})]))\n"
            "campaign.run(max_workers=1)\n",
            FaultPlan(),  # env plan unused; the child installs its own
        )
        assert child.returncode == 70, child.stderr
        report = fsck_store(root, repair=True)
        assert len(report.stale_tmp) == 1
        assert report.entries_checked == 1  # exactly one point survived
        assert fsck_store(root).clean

        # The rerun reuses the survivor and recomputes the rest.
        reference = Campaign(
            recover_setup, ("default", "eri"), (0.1, 0.2), name="uninterrupted",
        ).run(max_workers=1)
        rerun = Campaign(
            recover_setup, ("default", "eri"), (0.1, 0.2), name="resume",
            result_store=ResultStore(root=root),
        ).run(max_workers=1)
        assert rerun.metadata["store_hits"] == 1
        assert rerun.metadata["num_evaluated"] == 3
        assert len(rerun.records) == len(reference.records)
        for ours, ref in zip(rerun.records, reference.records):
            assert ours.point == ref.point
            assert ours.outcome == ref.outcome  # bitwise


class TestRecoverStore:
    def test_removes_only_dead_writer_tmp(self, tmp_path):
        root = tmp_path / "store"
        shard = root / KEY[:2]
        shard.mkdir(parents=True)
        # Provably dead writer: a child that has already exited.
        probe = subprocess.Popen([sys.executable, "-c", "pass"])
        probe.wait()
        dead_tmp = shard / f"{KEY}{RESULT_SUFFIX}.tmp.{probe.pid}.1"
        dead_tmp.write_bytes(b"orphan")
        live_tmp = shard / f"{KEY}{RESULT_SUFFIX}.tmp.{os.getpid()}.1"
        live_tmp.write_bytes(b"in flight")
        odd_tmp = shard / f"{KEY}{RESULT_SUFFIX}.tmp.notapid"
        odd_tmp.write_bytes(b"unparseable")
        report = recover_store(root)
        assert report.stale_tmp == [dead_tmp]
        assert not dead_tmp.exists()
        assert live_tmp.exists()  # live peer: untouchable
        assert odd_tmp.exists()  # unverifiable: left alone

    def test_claims_only_removed_past_stale_threshold(self, tmp_path):
        root = tmp_path / "store"
        shard = root / KEY[:2]
        shard.mkdir(parents=True)
        fresh = shard / f"{KEY}.lock"
        fresh.touch()
        stale = shard / f"{'ef' * 16}.lock"
        stale.touch()
        now = time.time()
        os.utime(stale, (now - STALE_CLAIM_S - 10, now - STALE_CLAIM_S - 10))
        report = recover_store(root, now=now)
        assert report.orphaned_claims == [stale]
        assert fresh.exists() and not stale.exists()

    def test_future_mtime_claim_is_left_alone(self, tmp_path):
        # A claim stamped by a fast-skewed peer clock must never look
        # stale to recovery, no matter how large the skew.
        root = tmp_path / "store"
        shard = root / KEY[:2]
        shard.mkdir(parents=True)
        skewed = shard / f"{KEY}.lock"
        skewed.touch()
        now = time.time()
        os.utime(skewed, (now + 7200, now + 7200))
        assert recover_store(root, now=now).orphaned_claims == []
        assert skewed.exists()

    def test_campaign_clears_predecessor_debris_at_startup(
        self, tmp_path, recover_setup
    ):
        root = tmp_path / "results"
        shard = root / KEY[:2]
        shard.mkdir(parents=True)
        old_claim = shard / f"{KEY}.lock"
        old_claim.touch()
        past = time.time() - 2 * STALE_CLAIM_S
        os.utime(old_claim, (past, past))
        result = Campaign(
            recover_setup, ("eri",), (0.1,), name="startup-recovery",
            result_store=ResultStore(root=root),
        ).run(max_workers=1)
        assert len(result.records) == 1
        assert not old_claim.exists()

    def test_server_clears_predecessor_debris_at_startup(
        self, tmp_path, recover_setup
    ):
        from repro.service import SweepServer

        root = tmp_path / "results"
        shard = root / KEY[:2]
        shard.mkdir(parents=True)
        old_claim = shard / f"{KEY}.lock"
        old_claim.touch()
        past = time.time() - 2 * STALE_CLAIM_S
        os.utime(old_claim, (past, past))
        with SweepServer(
            {recover_setup.workload.name: recover_setup}, port=0,
            result_store=ResultStore(root=root),
        ):
            # The startup recovery pass runs in the constructor, before
            # the first request is accepted.
            assert not old_claim.exists()


class TestClockSkew:
    def test_backdated_stale_claim_broken_promptly(self, tmp_path):
        # A claim stamped by a slow peer clock (or simply abandoned long
        # ago) crosses the stale threshold: the waiter breaks it and
        # computes without waiting out its whole wait budget.
        store = ResultStore(root=tmp_path / "store")
        claim = store._claim_path(KEY)
        claim.parent.mkdir(parents=True, exist_ok=True)
        claim.touch()
        past = time.time() - STALE_CLAIM_S - 10
        os.utime(claim, (past, past))
        start = time.monotonic()
        record, computed = store.compute_if_missing(
            KEY, lambda: "value", poll_s=0.01, wait_timeout_s=30.0
        )
        assert computed and record == "value"
        assert time.monotonic() - start < 10.0  # broke, did not wait out
        assert not claim.exists()

    def test_future_mtime_claim_never_goes_stale_but_wait_bounds(self, tmp_path):
        # The other direction: a fast-skewed peer stamped the claim in the
        # future, so its age stays negative forever.  The waiter must not
        # spin for good — the wait budget expires and it computes locally —
        # and it must not delete a claim it cannot prove abandoned.
        store = ResultStore(root=tmp_path / "store")
        claim = store._claim_path(KEY)
        claim.parent.mkdir(parents=True, exist_ok=True)
        claim.touch()
        future = time.time() + 7200
        os.utime(claim, (future, future))
        record, computed = store.compute_if_missing(
            KEY, lambda: "value", poll_s=0.01, wait_timeout_s=0.2
        )
        assert computed and record == "value"
        assert claim.exists()  # the skewed peer's claim is not ours to break
        assert store.get(KEY) == "value"


class TestPruneVersusLiveWriter:
    def test_fresh_blobs_and_claims_survive_any_pressure(self, tmp_path):
        # A live writer just published one entry and claimed another key;
        # a concurrent prune under maximum pressure (age 0, size 0) must
        # not delete either.
        root = tmp_path / "store"
        store = ResultStore(root=root)
        store.put(KEY, {"value": 1})
        entry = _entry_path(root)
        claim = store._claim_path("cd" * 16)
        claim.parent.mkdir(parents=True, exist_ok=True)
        claim.touch()
        tmp = entry.with_name(f"{entry.name}.tmp.{os.getpid()}.1")
        tmp.write_bytes(b"staging")
        report = prune_store(root, max_age_days=0.0, max_size_mb=0.0)
        assert report.removed == 0
        assert report.strays_removed == 0
        assert entry.exists() and claim.exists() and tmp.exists()
        assert ResultStore(root=root).get(KEY) == {"value": 1}

    def test_aged_entries_still_prunable(self, tmp_path):
        root = tmp_path / "store"
        ResultStore(root=root).put(KEY, {"value": 1})
        entry = _entry_path(root)
        now = time.time()
        os.utime(entry, (now - 3600, now - 3600))
        report = prune_store(root, max_age_days=0.0, now=now)
        assert report.removed == 1
        assert not entry.exists()

    def test_min_age_zero_restores_aggressive_pruning(self, tmp_path):
        root = tmp_path / "store"
        ResultStore(root=root).put(KEY, {"value": 1})
        report = prune_store(root, max_size_mb=0.0, min_age_s=0.0)
        assert report.removed == 1
