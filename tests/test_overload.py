"""Overload behaviour: the governor ladder, shedding, fairness, chaos.

The acceptance harness at the bottom drives a seeded burst plan through
every overload seam (``service.admit``, ``service.queue``,
``governor.pressure``) and checks the whole contract: admitted points are
bitwise-identical to an unloaded run, every shed/throttled request is
retried to success inside its ``retry_after_s`` schedule, RSS stays under
the budget, and the shed/throttled/rejected counters are *exact* — twice,
with the same seed.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro import faults
from repro.bench import small_synthetic_circuit, scattered_hotspots_workload
from repro.faults import FaultPlan, RetryPolicy, active_plan
from repro.flow import ArtifactStore, Campaign, ExperimentSetup, ResultStore
from repro.service import (
    ClientQuota,
    ResourceGovernor,
    SweepClient,
    SweepServer,
    ThrottledError,
)
from repro.service.admission import AdmissionError
from repro.service.governor import process_rss_mb
from repro.service.server import _Task
from repro.flow.runner import CampaignPoint

NX = NY = 16
STRATEGIES = ("default", "eri")
OVERHEADS = (0.1, 0.2)


def _prepare(seed: int = 11) -> ExperimentSetup:
    circuit = small_synthetic_circuit()
    workload = scattered_hotspots_workload(circuit)
    return ExperimentSetup.prepare(
        circuit, workload, grid_nx=NX, grid_ny=NY,
        num_cycles=6, batch_size=4, seed=seed,
    )


@pytest.fixture(scope="module")
def served_setup():
    return _prepare()


@pytest.fixture(scope="module")
def reference_result(served_setup):
    """Unloaded in-process sweep the served records must match bitwise."""
    return Campaign(served_setup, STRATEGIES, OVERHEADS, name="ref").run(
        max_workers=1
    )


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    yield
    faults.deactivate()


class TestRssSampling:
    def test_rss_is_positive_and_plausible(self):
        rss = process_rss_mb()
        assert 1.0 < rss < 1_000_000.0


class _FakeRss:
    def __init__(self, value: float) -> None:
        self.value = value

    def __call__(self) -> float:
        return self.value


class TestGovernorLadder:
    def test_no_budget_never_degrades(self):
        store = ResultStore()
        for index in range(10):
            store.put(f"k{index}", index)
        governor = ResourceGovernor(result_store=store, rss_fn=_FakeRss(10_000))
        assert governor.check() == "ok"
        assert len(store) == 10

    def test_no_budget_never_samples(self):
        calls = []

        def rss():
            calls.append(1)
            return 10_000.0

        governor = ResourceGovernor(rss_fn=rss)
        for _ in range(5):
            assert governor.check() == "ok"
        assert calls == []
        assert governor.rss_mb() == 10_000.0  # health() still samples
        assert len(calls) == 1

    def test_elevated_halves_memory_tiers(self):
        store = ResultStore()
        artifacts = ArtifactStore()
        for index in range(10):
            store.put(f"k{index}", index)
            artifacts.put("stage", f"k{index}", index)
        rss = _FakeRss(850.0)
        governor = ResourceGovernor(
            max_rss_mb=1000.0, result_store=store, artifact_store=artifacts,
            rss_fn=rss,
        )
        assert governor.check() == "elevated"
        assert len(store) == 5 and len(artifacts) == 5
        assert governor.stats()["lru_shrinks"] >= 1
        assert governor.stats()["pressure_events"] == 1

    def test_critical_disables_then_ok_restores(self):
        store = ResultStore(maxsize=100)
        for index in range(10):
            store.put(f"k{index}", index)
        rss = _FakeRss(1200.0)
        governor = ResourceGovernor(
            max_rss_mb=1000.0, result_store=store, rss_fn=rss,
        )
        assert governor.check() == "critical"
        assert governor.should_shed()
        assert len(store) == 0
        # Store-only reads: the memory tier must not regrow while critical.
        store.put("new", 1)
        assert len(store) == 0
        rss.value = 100.0
        assert governor.check() == "ok"
        assert not governor.should_shed()
        store.put("back", 2)
        assert len(store) == 1  # original maxsize restored

    def test_pressure_seam_forces_critical(self):
        plan = FaultPlan(seed=9).fail("governor.pressure", times=1)
        governor = ResourceGovernor()  # no budget at all
        with active_plan(plan):
            assert governor.check() == "critical"
            assert governor.check() == "ok"  # times=1 exhausted
        assert plan.fired("governor.pressure") == 1


class TestServerOverloadPaths:
    def test_throttled_sweep_retries_to_success(self, served_setup, tmp_path):
        """burst=1: back-to-back sweeps throttle, the retrying client wins."""
        instance = SweepServer(
            {served_setup.workload.name: served_setup},
            result_store=ResultStore(root=tmp_path / "rate"),
            port=0,
            quota=ClientQuota(requests_per_s=5.0, burst=1),
        )
        name = served_setup.workload.name
        with instance:
            host, port = instance.address
            # Compute the point under a separate client (its own bucket) so
            # the hasty pair below are store hits: back-to-back must mean a
            # few ms apart, not a cold solve that can outlast the 0.2 s refill.
            SweepClient(host=host, port=port, client_id="warmup").sweep(
                name, ("default",), (0.1,)
            )
            fail_fast = SweepClient(
                host=host, port=port, client_id="hasty",
                retry_policy=RetryPolicy(max_attempts=1),
            )
            fail_fast.sweep(name, ("default",), (0.1,))
            with pytest.raises(ThrottledError) as info:
                fail_fast.sweep(name, ("default",), (0.1,))
            assert info.value.retry_after_s is not None
            assert 0.0 < info.value.retry_after_s <= 0.2  # exact refill time

            patient = SweepClient(
                host=host, port=port, client_id="patient",
                retry_policy=RetryPolicy(max_attempts=5, backoff_s=0.01),
            )
            patient.sweep(name, ("default",), (0.1,))  # store hit
            result, _stats = patient.sweep(name, ("default",), (0.1,))
            assert len(result.records) == 1
            health = SweepClient(host=host, port=port).health()
            assert health["throttled_total"] >= 2
            assert health["clients"]["hasty"]["throttled"] >= 1

    def test_concurrent_request_cap_rejects_with_retry_after(
        self, served_setup, tmp_path
    ):
        instance = SweepServer(
            {served_setup.workload.name: served_setup},
            result_store=ResultStore(root=tmp_path / "cap"),
            port=0,
            max_pending_requests=1,
        )
        with instance:
            # Pin the server at its concurrency cap, then knock.
            with instance._lock:
                instance._active_requests = 1
            host, port = instance.address
            client = SweepClient(
                host=host, port=port,
                retry_policy=RetryPolicy(max_attempts=1),
            )
            with pytest.raises(ThrottledError) as info:
                client.sweep(served_setup.workload.name, ("default",), (0.1,))
            assert info.value.code == "overloaded"
            assert info.value.retry_after_s == pytest.approx(0.25)
            with instance._lock:
                instance._active_requests = 0
            result, _stats = SweepClient(host=host, port=port).sweep(
                served_setup.workload.name, ("default",), (0.1,)
            )
            assert len(result.records) == 1

    def test_inflight_cap_sheds_oldest_deadline_first(self, served_setup):
        """White-box: a full server sheds the queued point closest to its
        deadline, and the shed waiter gets a structured retryable error."""
        instance = SweepServer(
            {served_setup.workload.name: served_setup},
            port=0,
            max_inflight_points=1,
        )
        # Not started: the scheduler is off, so the victim stays queued.
        victim = _Task(
            "victim-key",
            CampaignPoint(served_setup.workload.name, "default", 0.1),
            analyze_timing=False,
            client="early-bird",
            deadline=time.monotonic() + 0.5,
        )
        instance._pending[victim.key] = victim
        instance._queue.put(victim)

        response = {}

        def sweep():
            response.update(instance._handle_sweep({
                "workload": served_setup.workload.name,
                "strategies": ["eri"],
                "overheads": [0.3],
                "timeout_s": 1.5,  # later deadline: allowed to displace
            }, client="late-comer"))

        thread = threading.Thread(target=sweep)
        thread.start()
        # The victim's future fails promptly with the shed rejection.
        with pytest.raises(AdmissionError) as info:
            victim.future.result(timeout=5.0)
        assert info.value.code == "shed"
        assert info.value.retryable and info.value.retry_after_s is not None
        thread.join(timeout=10.0)
        # The displacing request then waited out its own deadline
        # (scheduler off) — but it was admitted, not rejected.
        assert "deadline exceeded" in response["error"]
        counters = instance.admission.counters()
        assert counters["shed_total"] == 1
        assert instance.admission.client_stats()["early-bird"]["shed"] == 1
        instance.shutdown()


class TestFairness:
    def test_small_sweep_is_not_starved_by_a_big_one(
        self, served_setup, tmp_path
    ):
        """Satellite: a 3-point client cuts through a 12-point backlog.

        With FIFO gathering the small client would wait out the whole big
        sweep; round-robin gathering puts its points in the next batch.
        Both clients' records must stay bitwise-identical to unloaded runs.
        """
        name = served_setup.workload.name
        big_grid = dict(strategies=("default", "eri"),
                        overheads=(0.05, 0.1, 0.15, 0.2, 0.25, 0.3))
        small_grid = dict(strategies=("hw",), overheads=(0.12, 0.18, 0.24))
        reference = {
            "big": Campaign(
                served_setup, big_grid["strategies"], big_grid["overheads"],
                name="ref-big",
            ).run(max_workers=1),
            "small": Campaign(
                served_setup, small_grid["strategies"],
                small_grid["overheads"], name="ref-small",
            ).run(max_workers=1),
        }
        instance = SweepServer(
            {name: served_setup},
            result_store=ResultStore(root=tmp_path / "fair"),
            port=0,
            batch_window_s=0.25,
            max_batch=2,  # small batches: fairness decides who goes next
            max_workers=1,
            quota=ClientQuota(max_points_per_request=64),
        )
        done_at = {}
        results = {}
        with instance:
            host, port = instance.address

            def submit(tag, grid, delay):
                time.sleep(delay)
                client = SweepClient(
                    host=host, port=port, client_id=tag, timeout=120.0,
                )
                results[tag] = client.sweep(name, **grid)[0]
                done_at[tag] = time.monotonic()

            threads = [
                threading.Thread(target=submit, args=("big", big_grid, 0.0)),
                threading.Thread(
                    target=submit, args=("small", small_grid, 0.05)
                ),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=180.0)
            health = SweepClient(host=host, port=port).health()

        assert set(done_at) == {"big", "small"}
        # The fairness claim: 3 points finish well before the 12-point
        # backlog, despite arriving second.
        assert done_at["small"] < done_at["big"]
        for tag in ("big", "small"):
            records = results[tag].records
            assert len(records) == len(reference[tag].records)
            for ours, ref in zip(records, reference[tag].records):
                assert ours.point == ref.point
                assert ours.outcome == ref.outcome
        assert set(health["clients"]) >= {"big", "small"}


def _burst_plan() -> FaultPlan:
    """The seeded overload-chaos plan: one pressure episode, two
    throttles, one enqueue shed — all aimed at client ``storm``."""
    plan = FaultPlan(seed=2010)
    plan.fail("governor.pressure", times=1)
    plan.fail("service.admit", times=2, match={"client": "storm"})
    plan.fail("service.queue", times=1, match={"client": "storm"})
    return plan


def _run_storm(served_setup, store_root):
    """One seeded overload episode; returns (result, counters, fires, health)."""
    name = served_setup.workload.name
    plan = _burst_plan()
    instance = SweepServer(
        {name: served_setup},
        result_store=ResultStore(root=store_root),
        port=0,
        quota=ClientQuota(
            requests_per_s=1000.0, max_points_per_request=16,
            max_inflight_points=64,
        ),
        max_inflight_points=64,
        max_rss_mb=4096.0,
        shed_retry_after_s=0.05,
    )
    with active_plan(plan):
        with instance:
            host, port = instance.address
            client = SweepClient(
                host=host, port=port, client_id="storm",
                retry_policy=RetryPolicy(max_attempts=8, backoff_s=0.01),
            )
            started = time.monotonic()
            result, _stats = client.sweep(name, STRATEGIES, OVERHEADS)
            elapsed = time.monotonic() - started
            health = SweepClient(host=host, port=port, client_id="probe").health()
        counters = instance.admission.counters()
    fires = {
        site: plan.fired(site)
        for site in ("governor.pressure", "service.admit", "service.queue")
    }
    return result, counters, fires, health, elapsed


class TestOverloadChaosHarness:
    def test_seeded_burst_storm_is_survivable_and_deterministic(
        self, served_setup, tmp_path, reference_result
    ):
        """The acceptance harness (see module docstring)."""
        runs = [
            _run_storm(served_setup, tmp_path / f"storm{index}")
            for index in range(2)
        ]
        for result, counters, fires, health, elapsed in runs:
            # Every fault the plan scheduled actually fired.
            assert fires == {
                "governor.pressure": 1,
                "service.admit": 2,
                "service.queue": 1,
            }
            # Exact counters: 1 pressure shed + 1 enqueue shed, 2 throttles,
            # no outright rejections.
            assert counters["throttled_total"] == 2
            assert counters["shed_total"] == 2
            assert counters["rejected_total"] == 0
            assert counters["admitted_total"] >= 1
            # The client retried every rejection to success within its
            # retry_after_s schedule: 4 rejected attempts at <= 0.05s
            # floor plus one real evaluation.
            assert len(result.records) == len(reference_result.records)
            assert elapsed < 60.0
            # Admitted points are bitwise-identical to the unloaded run.
            for ours, reference in zip(
                result.records, reference_result.records
            ):
                assert ours.point == reference.point
                assert ours.outcome == reference.outcome
            # The budget held: no pressure left behind, RSS under cap.
            assert health["rss_mb"] < health["max_rss_mb"]
            assert health["pressure"] == "ok"
            assert health["clients"]["storm"]["shed"] == 2
            assert health["clients"]["storm"]["throttled"] == 2
        # Determinism across runs with the same seed.
        assert runs[0][1] == runs[1][1]  # counters
        assert runs[0][2] == runs[1][2]  # fault fires
