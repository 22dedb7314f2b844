"""Deadline suite: hung work is bounded on every execution tier.

PR 8's chaos suite proved components that *fail* are quarantined; this
suite proves components that *hang* are cancelled.  A seeded ``hang``
fault (:class:`~repro.faults.FaultRule` with ``kind="hang"``) is pushed
through the serial, threaded, batched, process-sharded and served sweep
paths under a per-point deadline.  The invariants:

* the sweep *completes* in bounded wall-clock time — a hanging point is
  cancelled (cooperatively, or by the parent watchdog SIGKILLing a stuck
  shard worker) and quarantined, never allowed to wedge the grid;
* ``metadata["timeouts"]`` counts exactly the attempts lost to blown
  deadlines;
* surviving records stay bitwise-identical to a fault-free run;
* ``DeadlineExceeded`` is retryable, so a transient hang heals under the
  retry policy;
* a blown deadline inside the multigrid loop propagates — it never
  triggers (and pays for) the LU fallback.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro import faults
from repro.bench import scattered_hotspots_workload, small_synthetic_circuit
from repro.deadlines import (
    Budget,
    Deadline,
    DeadlineExceeded,
    check_active,
    current_deadline,
    deadline_scope,
)
from repro.faults import FaultPlan, FaultRule, RetryPolicy, active_plan
from repro.flow import Campaign, ExperimentSetup
from repro.service import ServiceError, SweepClient, SweepServer
from repro.thermal import ThermalGrid, ThermalSolver, default_package

NX = NY = 16
STRATEGIES = ("default", "eri")
OVERHEADS = (0.1, 0.2)

#: Per-point deadline used by the campaign tests: far above a healthy
#: point's runtime on this grid, far below the suite's patience.
POINT_TIMEOUT_S = 0.75


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    """No test may leave a fault plan installed process-wide."""
    yield
    faults.deactivate()


@pytest.fixture(autouse=True)
def _no_leaked_scope():
    """No test may leave a deadline scope on the main thread."""
    yield
    assert current_deadline() is None


@pytest.fixture(scope="module")
def deadline_setup():
    circuit = small_synthetic_circuit()
    workload = scattered_hotspots_workload(circuit)
    return ExperimentSetup.prepare(
        circuit, workload, grid_nx=NX, grid_ny=NY,
        num_cycles=6, batch_size=4, seed=11,
    )


@pytest.fixture(scope="module")
def reference(deadline_setup):
    """Fault-free serial sweep the surviving records must match bitwise."""
    return Campaign(deadline_setup, STRATEGIES, OVERHEADS, name="ref").run(
        max_workers=1
    )


def _hang_rule(**match):
    """An unbounded cooperative hang: only a deadline can end it."""
    return FaultRule(
        site="point.evaluate", kind="hang", times=None,
        match=match or {"strategy": "eri", "overhead": 0.2},
    )


def _assert_survivors_bitwise(result, reference_result, *, expect_failed=1):
    assert result.metadata["num_failed"] == expect_failed
    failed = result.failed_points
    assert len(failed) == expect_failed
    for entry in failed:
        assert entry["strategy"] == "eri" and entry["overhead"] == 0.2
        assert "deadline exceeded" in entry["error"]
    survivors = {record.point: record for record in result.records}
    assert len(survivors) == len(reference_result.records) - expect_failed
    for ref in reference_result.records:
        if ref.point in survivors:
            assert survivors[ref.point].outcome == ref.outcome  # bitwise


class TestDeadline:
    def test_after_and_remaining(self):
        deadline = Deadline.after(60.0)
        assert 0.0 < deadline.remaining() <= 60.0
        assert not deadline.expired()
        deadline.check("fine")  # must not raise
        with pytest.raises(ValueError, match=">= 0"):
            Deadline.after(-1.0)

    def test_never_is_inert(self):
        never = Deadline.never()
        assert never.remaining() == float("inf")
        assert not never.expired()
        never.check("fine")

    def test_expired_check_names_site_and_overrun(self):
        deadline = Deadline.after(0.0)
        assert deadline.expired()
        assert deadline.remaining() <= 0.0
        with pytest.raises(DeadlineExceeded, match="solver.multigrid") as info:
            deadline.check("solver.multigrid")
        assert info.value.site == "solver.multigrid"
        assert info.value.overrun_s >= 0.0
        assert isinstance(info.value, TimeoutError)

    def test_sub_is_capped_by_parent(self):
        parent = Deadline.after(0.5)
        child = parent.sub(3600.0)
        assert child.instant == parent.instant  # cannot outlive the parent
        tighter = parent.sub(0.0)
        assert tighter.instant <= parent.instant
        unlimited_child = Deadline.never().sub(1.0)
        assert unlimited_child.instant is not None

    def test_min_picks_the_tighter(self):
        soon = Deadline.after(0.1)
        late = Deadline.after(60.0)
        assert soon.min(late) is soon
        assert late.min(soon) is soon
        assert Deadline.never().min(soon) is soon
        assert soon.min(Deadline.never()) is soon

    def test_budget_split_carves_off(self):
        budget = Budget(10.0)
        child = budget.split(0.3)
        assert child.seconds == pytest.approx(3.0)
        assert budget.seconds == pytest.approx(7.0)
        deadline = child.deadline()
        assert 0.0 < deadline.remaining() <= 3.0
        with pytest.raises(ValueError, match="fraction"):
            budget.split(1.5)
        with pytest.raises(ValueError, match=">= 0"):
            Budget(-1.0)

    def test_unlimited_budget_stays_unlimited(self):
        budget = Budget(None)
        assert budget.split(0.5).seconds is None
        assert budget.seconds is None
        assert budget.deadline().instant is None


class TestScopes:
    def test_check_active_without_scope_is_a_noop(self):
        assert current_deadline() is None
        check_active("anywhere")  # must not raise

    def test_scope_installs_and_restores(self):
        with deadline_scope(Deadline.after(60.0)) as effective:
            assert current_deadline() is effective
            check_active("inside")
        assert current_deadline() is None

    def test_expired_scope_cancels(self):
        with deadline_scope(Deadline.after(0.0)):
            with pytest.raises(DeadlineExceeded, match="loop"):
                check_active("loop")

    def test_nested_scope_takes_the_tighter(self):
        # An inner never-deadline cannot loosen an expired outer one.
        with deadline_scope(Deadline.after(0.0)):
            with deadline_scope(Deadline.never()):
                with pytest.raises(DeadlineExceeded):
                    check_active("nested")

    def test_scopes_are_thread_local(self):
        seen = {}

        def probe():
            seen["deadline"] = current_deadline()
            check_active("other thread")  # no scope here: no raise

        with deadline_scope(Deadline.after(0.0)):
            thread = threading.Thread(target=probe)
            thread.start()
            thread.join(timeout=10.0)
        assert seen["deadline"] is None

    def test_deadline_exceeded_is_retryable(self):
        policy = RetryPolicy()
        assert policy.classify(DeadlineExceeded("site"))
        assert not policy.classify(ValueError())


class TestHangFault:
    def test_bounded_hang_returns(self):
        plan = FaultPlan(rules=[
            FaultRule(site="s", kind="hang", hang_s=0.05)
        ])
        with active_plan(plan):
            start = time.monotonic()
            faults.inject("s", {})
        assert 0.05 <= time.monotonic() - start < 5.0
        assert plan.fired("s") == 1

    def test_cooperative_hang_cancelled_by_deadline(self):
        with active_plan(FaultPlan(rules=[_hang_rule()])):
            start = time.monotonic()
            with deadline_scope(Deadline.after(0.1)):
                with pytest.raises(DeadlineExceeded):
                    faults.inject(
                        "point.evaluate", {"strategy": "eri", "overhead": 0.2}
                    )
        assert time.monotonic() - start < 5.0

    def test_hang_rule_validation_and_roundtrip(self):
        with pytest.raises(ValueError, match="hang_s"):
            FaultRule(site="s", kind="hang", hang_s=-1.0)
        rule = FaultRule(site="s", kind="hang", hang_s=0.5, cooperative=False)
        clone = FaultRule.from_dict(rule.to_dict())
        assert clone.kind == "hang"
        assert clone.hang_s == 0.5
        assert clone.cooperative is False
        # The default (cooperative) is not serialized, and parses back.
        default = FaultRule.from_dict(FaultRule(site="s", kind="hang").to_dict())
        assert default.cooperative is True and default.hang_s is None


class TestSolverCancellation:
    def test_multigrid_deadline_bypasses_lu_fallback(self):
        grid = ThermalGrid(800.0, 800.0, nx=NX, ny=NY, package=default_package())
        power = np.random.default_rng(3).random((NY, NX)) * 1e-4
        solver = ThermalSolver(grid, method="multigrid")
        with deadline_scope(Deadline.after(0.0)):
            with pytest.raises(DeadlineExceeded):
                solver.solve(power)
        # A blown deadline must not be absorbed into a degraded record —
        # and must never start the (expensive) LU factorisation.
        assert solver.fallback_count == 0
        healthy = solver.solve(power)  # scope gone: solves normally
        assert not healthy.fallback_used


class TestCampaignTimeouts:
    def test_hanging_point_quarantined_serial(self, deadline_setup, reference):
        with active_plan(FaultPlan(rules=[_hang_rule()])):
            start = time.monotonic()
            result = Campaign(
                deadline_setup, STRATEGIES, OVERHEADS, name="serial-hang",
                point_timeout_s=POINT_TIMEOUT_S,
            ).run(max_workers=1)
        assert time.monotonic() - start < 60.0  # bounded, not wedged
        _assert_survivors_bitwise(result, reference)
        assert result.metadata["timeouts"] == 1
        assert result.metadata["point_timeout_s"] == POINT_TIMEOUT_S

    def test_hanging_point_quarantined_threaded(self, deadline_setup, reference):
        with active_plan(FaultPlan(rules=[_hang_rule()])):
            result = Campaign(
                deadline_setup, STRATEGIES, OVERHEADS, name="thread-hang",
                point_timeout_s=POINT_TIMEOUT_S,
            ).run(max_workers=2)
        _assert_survivors_bitwise(result, reference)
        assert result.metadata["timeouts"] == 1

    def test_hanging_point_quarantined_batched(self, deadline_setup, reference):
        # Serial: the hanging point times out in the transform phase while
        # its batch-mates go on to a grouped solve without it.
        with active_plan(FaultPlan(rules=[_hang_rule()])):
            result = Campaign(
                deadline_setup, STRATEGIES, OVERHEADS, name="batched-hang",
                point_timeout_s=POINT_TIMEOUT_S,
            ).run(max_workers=1)
        _assert_survivors_bitwise(result, reference)
        assert result.metadata["timeouts"] == 1

    def test_transient_hang_retried_to_success(self, deadline_setup, reference):
        # The hang only matches attempt 0: the timed-out attempt is
        # retryable (DeadlineExceeded is a TimeoutError), so one retry
        # converges the sweep to the fault-free answer, bitwise.
        plan = FaultPlan(rules=[
            _hang_rule(strategy="eri", overhead=0.2, attempt=0)
        ])
        with active_plan(plan):
            result = Campaign(
                deadline_setup, STRATEGIES, OVERHEADS, name="retry-hang",
                point_timeout_s=POINT_TIMEOUT_S,
                retry_policy=RetryPolicy(max_attempts=2, backoff_s=0.0),
            ).run(max_workers=1)
        assert result.metadata["num_failed"] == 0
        assert result.metadata["timeouts"] == 1
        assert result.metadata["retries"] == 1
        for ours, ref in zip(result.records, reference.records):
            assert ours.outcome == ref.outcome

    def test_without_timeout_bounded_hang_just_runs_long(self, deadline_setup):
        # No point_timeout_s: a (bounded) hang is slow, not fatal — the
        # campaign has no deadline to blow.
        plan = FaultPlan(rules=[FaultRule(
            site="point.evaluate", kind="hang", hang_s=0.1,
            match={"strategy": "eri", "overhead": 0.2},
        )])
        with active_plan(plan):
            result = Campaign(
                deadline_setup, STRATEGIES, OVERHEADS, name="no-timeout",
            ).run(max_workers=1)
        assert result.metadata["num_failed"] == 0
        assert result.metadata["timeouts"] == 0


class TestShardedTimeouts:
    def test_cooperative_hang_quarantined_sharded(self, deadline_setup, reference):
        # The worker's own deadline scope cancels the pollable hang; the
        # parent counts the timeout and quarantines the point.
        with active_plan(FaultPlan(rules=[_hang_rule()])):
            result = Campaign(
                deadline_setup, STRATEGIES, OVERHEADS,
                executor="process", name="shard-hang",
                point_timeout_s=POINT_TIMEOUT_S,
            ).run(max_workers=2)
        _assert_survivors_bitwise(result, reference)
        assert result.metadata["timeouts"] == 1

    def test_watchdog_kills_stuck_worker(self, deadline_setup, reference):
        # cooperative=False never polls the deadline — the worker is
        # genuinely stuck, as in native code.  The parent watchdog must
        # SIGKILL it past the grace window; the requeued attempt (the rule
        # matches attempt 0 only) then succeeds on a respawned worker.
        plan = FaultPlan(rules=[FaultRule(
            site="shard.worker", kind="hang", cooperative=False, times=None,
            match={"strategy": "default", "overhead": 0.1, "attempt": 0},
        )])
        with active_plan(plan):
            start = time.monotonic()
            result = Campaign(
                deadline_setup, STRATEGIES, OVERHEADS,
                executor="process", name="watchdog",
                point_timeout_s=POINT_TIMEOUT_S,
            ).run(max_workers=2)
        assert time.monotonic() - start < 120.0
        assert result.metadata["num_failed"] == 0
        assert result.metadata["timeouts"] >= 1
        assert result.metadata["respawns"] >= 1
        assert len(result.records) == len(reference.records)
        for ours, ref in zip(result.records, reference.records):
            assert ours.point == ref.point
            assert ours.outcome == ref.outcome  # bitwise


    def test_retry_backoff_is_not_a_hang(self, deadline_setup, reference):
        # The worker's campaign sleeps 3.5 s before retrying (eri, 0.2),
        # longer than the watchdog's deadline plus grace: a planned pause
        # must not get the worker killed, and the point heals as on threads.
        plan = FaultPlan().fail(
            "point.evaluate", times=None,
            match={"strategy": "eri", "overhead": 0.2, "attempt": 0},
        )
        policy = RetryPolicy(
            max_attempts=2, backoff_s=3.5, max_backoff_s=3.5, jitter_fraction=0.0
        )
        with active_plan(plan):
            result = Campaign(
                deadline_setup, STRATEGIES, OVERHEADS,
                executor="process", name="shard-backoff",
                point_timeout_s=POINT_TIMEOUT_S, retry_policy=policy,
            ).run(max_workers=2)
        assert result.metadata["num_failed"] == 0
        assert result.metadata["retries"] == 1
        assert result.metadata["respawns"] == 0
        assert result.metadata["timeouts"] == 0
        for ours, ref in zip(result.records, reference.records):
            assert ours.outcome == ref.outcome  # bitwise


class TestServiceDeadlines:
    @pytest.fixture(scope="class")
    def server(self, deadline_setup):
        instance = SweepServer(
            {deadline_setup.workload.name: deadline_setup}, port=0,
            batch_window_s=0.05, point_timeout_s=POINT_TIMEOUT_S,
        )
        with instance:
            yield instance

    def test_health_reports_deadline_config_and_inflight_age(self, server):
        host, port = server.address
        health = SweepClient(host=host, port=port).health()
        assert health["request_timeout_s"] == server.request_timeout_s
        assert health["point_timeout_s"] == POINT_TIMEOUT_S
        assert health["oldest_inflight_s"] == 0.0  # nothing pending

    def test_bad_client_timeout_rejected(self, server, deadline_setup):
        name = deadline_setup.workload.name
        base = {
            "op": "sweep", "workload": name,
            "strategies": ["eri"], "overheads": [0.1],
        }
        response = server._handle_sweep({**base, "timeout_s": -1})
        assert not response["ok"] and "timeout_s must be > 0" in response["error"]
        response = server._handle_sweep({**base, "timeout_s": "nope"})
        assert not response["ok"] and "bad timeout_s" in response["error"]

    def test_served_hanging_point_fails_fast_then_heals(
        self, server, deadline_setup
    ):
        host, port = server.address
        name = deadline_setup.workload.name
        client = SweepClient(host=host, port=port)
        with active_plan(FaultPlan(rules=[_hang_rule()])):
            start = time.monotonic()
            with pytest.raises(ServiceError, match="failed after"):
                client.sweep(name, STRATEGIES, OVERHEADS)
        assert time.monotonic() - start < 60.0  # cancelled, not wedged
        assert client.ping()["ok"]  # the daemon survived
        # Fault gone: only the timed-out point is recomputed.
        result, stats = client.sweep(name, STRATEGIES, OVERHEADS)
        assert len(result.records) == 4
        assert stats["store_hits"] == 3
        assert stats["computed"] == 1

    def test_batch_deadline_bounds_a_hung_batch(self, deadline_setup):
        # A cooperative hang at the batch seam runs under the per-batch
        # deadline scope: the batch fails its waiters within
        # request_timeout_s instead of wedging the scheduler thread.
        instance = SweepServer(
            {deadline_setup.workload.name: deadline_setup}, port=0,
            batch_window_s=0.05, request_timeout_s=1.0,
        )
        plan = FaultPlan(rules=[
            FaultRule(site="service.batch", kind="hang", times=1)
        ])
        with instance:
            host, port = instance.address
            client = SweepClient(host=host, port=port)
            with active_plan(plan):
                start = time.monotonic()
                with pytest.raises(ServiceError, match="deadline exceeded"):
                    client.sweep(
                        deadline_setup.workload.name, ("eri",), (0.1,)
                    )
                assert time.monotonic() - start < 30.0
            assert client.ping()["ok"]  # scheduler thread still alive
