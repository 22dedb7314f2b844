"""Chaos suite: deterministic fault injection across every execution tier.

A seeded :class:`~repro.faults.FaultPlan` is pushed through the serial,
threaded, process-sharded and served sweep paths.  The invariants under
test are the fault-tolerance contract of the campaign machinery:

* the sweep *completes* — a poisoned point is quarantined into the result
  metadata, not allowed to abort the grid;
* surviving records are bitwise-identical to a fault-free run;
* a crashed shard worker is respawned and its in-flight point requeued;
* a multigrid stall (or injected solver fault) degrades to the exact LU
  fallback and flags the record, instead of failing the point;
* the service client retries connect/read failures under its policy, and
  the server drains gracefully on request.
"""

from __future__ import annotations

import socket
import threading
import time

import numpy as np
import pytest

from repro import faults
from repro.bench import scattered_hotspots_workload, small_synthetic_circuit
from repro.cli import main as cli_main
from repro.faults import (
    FaultPlan,
    FaultRule,
    InjectedFault,
    RetryPolicy,
    active_plan,
    plan_from_env,
)
from repro.flow import Campaign, ExperimentSetup, ResultStore, SolverCache
from repro.service import ServiceError, SweepClient, SweepServer, request_once
from repro.thermal import ThermalGrid, ThermalSolver, default_package

NX = NY = 16
STRATEGIES = ("default", "eri")
OVERHEADS = (0.1, 0.2)


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    """No test may leave a fault plan installed process-wide."""
    yield
    faults.deactivate()


@pytest.fixture(scope="module")
def chaos_setup():
    circuit = small_synthetic_circuit()
    workload = scattered_hotspots_workload(circuit)
    return ExperimentSetup.prepare(
        circuit, workload, grid_nx=NX, grid_ny=NY,
        num_cycles=6, batch_size=4, seed=11,
    )


@pytest.fixture(scope="module")
def reference(chaos_setup):
    """Fault-free serial sweep the surviving records must match bitwise."""
    return Campaign(chaos_setup, STRATEGIES, OVERHEADS, name="ref").run(
        max_workers=1
    )


@pytest.fixture(scope="module")
def reference_mg(chaos_setup):
    """Fault-free multigrid-backend sweep, for the degraded-mode tests."""
    return Campaign(
        chaos_setup, STRATEGIES, OVERHEADS, name="ref-mg",
        cache=SolverCache(method="multigrid"),
    ).run(max_workers=1)


def _poison_rule():
    """Every attempt at (eri, 0.2) raises — the point cannot succeed."""
    return FaultRule(
        site="point.evaluate", times=None,
        match={"strategy": "eri", "overhead": 0.2},
    )


def _assert_survivors_bitwise(result, reference_result, *, expect_failed=1):
    assert result.metadata["num_failed"] == expect_failed
    failed = result.failed_points
    assert len(failed) == expect_failed
    for entry in failed:
        assert entry["strategy"] == "eri" and entry["overhead"] == 0.2
        assert "injected fault" in entry["error"]
    survivors = {record.point: record for record in result.records}
    assert len(survivors) == len(reference_result.records) - expect_failed
    for ref in reference_result.records:
        if ref.point in survivors:
            assert survivors[ref.point].outcome == ref.outcome  # bitwise


class TestFaultPlan:
    def test_inject_is_noop_without_plan(self):
        assert faults.get_active() is None
        faults.inject("anything", {"x": 1})  # must not raise

    def test_rule_matching_and_exhaustion(self):
        plan = FaultPlan().fail("site.a", match={"k": 1}, times=2)
        with pytest.raises(InjectedFault):
            plan.on_call("site.a", {"k": 1, "extra": "ignored"})
        plan.on_call("site.a", {"k": 2})  # context mismatch: no fire
        plan.on_call("site.b", {"k": 1})  # site mismatch: no fire
        with pytest.raises(InjectedFault):
            plan.on_call("site.a", {"k": 1})
        plan.on_call("site.a", {"k": 1})  # times=2 exhausted
        assert plan.fired("site.a") == 2
        assert plan.seen("site.a") == 4
        assert plan.seen("site.b") == 1

    def test_injected_fault_names_site_and_context(self):
        plan = FaultPlan().fail("shard.worker")
        with pytest.raises(InjectedFault, match="shard.worker") as info:
            plan.on_call("shard.worker", {"strategy": "eri"})
        assert info.value.site == "shard.worker"
        assert "strategy='eri'" in str(info.value)

    def test_custom_exception_type(self):
        plan = FaultPlan().fail("io", exception="ConnectionError")
        with pytest.raises(ConnectionError):
            plan.on_call("io", {})
        with pytest.raises(ValueError, match="unknown exception"):
            FaultRule(site="io", exception="NoSuchError")

    def test_bad_rule_specs_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            FaultRule(site="x", kind="segfault")
        with pytest.raises(ValueError, match="probability"):
            FaultRule(site="x", probability=1.5)
        with pytest.raises(ValueError, match="unknown fault rule keys"):
            FaultRule.from_dict({"site": "x", "color": "red"})
        with pytest.raises(ValueError, match="site"):
            FaultRule.from_dict({"kind": "raise"})

    def test_json_roundtrip_and_env_parsing(self):
        plan = FaultPlan(seed=7).fail(
            "shard.worker", kind="exit",
            match={"strategy": "eri", "overhead": 0.1, "attempt": 0},
        ).fail("point.evaluate", times=None)
        clone = plan_from_env(plan.to_json())
        assert clone.seed == 7
        assert [rule.to_dict() for rule in clone.rules] == [
            rule.to_dict() for rule in plan.rules
        ]
        assert plan_from_env("") is None
        assert plan_from_env("   ") is None
        with pytest.raises(ValueError, match="not valid JSON"):
            plan_from_env("{nope")
        with pytest.raises(ValueError, match="JSON object"):
            plan_from_env("[1, 2]")

    def test_active_plan_restores_previous(self):
        outer = FaultPlan()
        inner = FaultPlan()
        faults.activate(outer)
        with active_plan(inner):
            assert faults.get_active() is inner
        assert faults.get_active() is outer

    def test_probability_coin_is_seed_deterministic(self):
        def firing_pattern(seed):
            plan = FaultPlan(seed=seed).fail(
                "maybe", times=None, probability=0.5
            )
            pattern = []
            for _ in range(32):
                try:
                    plan.on_call("maybe", {})
                    pattern.append(False)
                except InjectedFault:
                    pattern.append(True)
            return pattern

        assert firing_pattern(3) == firing_pattern(3)
        assert any(firing_pattern(3)) and not all(firing_pattern(3))
        assert firing_pattern(3) != firing_pattern(4)

    def test_plan_pickles_for_worker_transport(self):
        import pickle

        plan = FaultPlan(seed=5).fail("shard.worker", kind="exit")
        plan.fail("store.write")
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.seed == 5 and clone.rules[0].kind == "exit"
        with pytest.raises(InjectedFault):
            clone.on_call("store.write", {})  # lock was rebuilt


class TestRetryPolicy:
    def test_default_never_retries(self):
        policy = RetryPolicy()
        assert policy.max_attempts == 1
        assert policy.classify(InjectedFault("x"))
        assert policy.classify(ConnectionError())
        assert not policy.classify(ValueError())

    def test_delay_is_deterministic_and_bounded(self):
        policy = RetryPolicy(
            max_attempts=5, backoff_s=0.1, backoff_multiplier=2.0,
            max_backoff_s=0.3, jitter_fraction=0.1,
        )
        first = [policy.delay_s(n, token="t") for n in range(1, 5)]
        second = [policy.delay_s(n, token="t") for n in range(1, 5)]
        assert first == second  # pure function of (attempt, token)
        for attempt, delay in enumerate(first, start=1):
            base = min(0.3, 0.1 * 2.0 ** (attempt - 1))
            assert base <= delay <= base * 1.1
        assert policy.delay_s(1, token="t") != policy.delay_s(1, token="u")

    def test_zero_backoff_and_validation(self):
        assert RetryPolicy(max_attempts=2, backoff_s=0.0).delay_s(1) == 0.0
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_s=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter_fraction=2.0)
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=2).delay_s(0)


class TestSerialAndThreadedQuarantine:
    def test_poisoned_point_quarantined_serial(self, chaos_setup, reference):
        with active_plan(FaultPlan(rules=[_poison_rule()])):
            result = Campaign(
                chaos_setup, STRATEGIES, OVERHEADS, name="serial-chaos"
            ).run(max_workers=1)
        _assert_survivors_bitwise(result, reference)
        assert result.metadata["degraded_points"] == 0

    def test_poisoned_point_quarantined_threaded(self, chaos_setup, reference):
        with active_plan(FaultPlan(rules=[_poison_rule()])):
            result = Campaign(
                chaos_setup, STRATEGIES, OVERHEADS, name="thread-chaos"
            ).run(max_workers=2)
        _assert_survivors_bitwise(result, reference)

    def test_poisoned_point_quarantined_batched(self, chaos_setup, reference):
        # Serial: the poisoned point drops out before the grouped solve,
        # and its former batch-mates still match the fault-free sweep.
        with active_plan(FaultPlan(rules=[_poison_rule()])):
            result = Campaign(
                chaos_setup, STRATEGIES, OVERHEADS, name="batched-chaos",
            ).run(max_workers=1)
        _assert_survivors_bitwise(result, reference)

    def test_fail_fast_aborts_instead(self, chaos_setup):
        with active_plan(FaultPlan(rules=[_poison_rule()])):
            with pytest.raises(InjectedFault):
                Campaign(
                    chaos_setup, STRATEGIES, OVERHEADS, name="ff",
                    fail_fast=True,
                ).run(max_workers=1)

    def test_transient_fault_retried_to_success(self, chaos_setup, reference):
        # The fault only matches attempt 0: one retry converges the sweep
        # to the fault-free answer, bitwise.
        plan = FaultPlan().fail(
            "point.evaluate", times=None,
            match={"strategy": "eri", "overhead": 0.2, "attempt": 0},
        )
        policy = RetryPolicy(max_attempts=2, backoff_s=0.0)
        with active_plan(plan):
            result = Campaign(
                chaos_setup, STRATEGIES, OVERHEADS, name="retry",
                retry_policy=policy,
            ).run(max_workers=1)
        assert result.metadata["num_failed"] == 0
        assert result.metadata["retries"] == 1
        assert plan.fired("point.evaluate") == 1
        for ours, ref in zip(result.records, reference.records):
            assert ours.outcome == ref.outcome

    def test_nonretryable_error_not_retried(self, chaos_setup):
        plan = FaultPlan().fail(
            "point.evaluate", times=None, exception="ValueError",
            match={"strategy": "eri", "overhead": 0.2},
        )
        with active_plan(plan):
            result = Campaign(
                chaos_setup, STRATEGIES, OVERHEADS, name="nonretry",
                retry_policy=RetryPolicy(max_attempts=3, backoff_s=0.0),
            ).run(max_workers=1)
        assert result.metadata["retries"] == 0
        assert result.metadata["num_failed"] == 1
        assert plan.fired("point.evaluate") == 1


class TestShardedChaos:
    def test_worker_crash_respawns_and_requeues(self, chaos_setup, reference):
        # Kill the worker evaluating (default, 0.1) on its first attempt:
        # the parent must respawn a worker, requeue the point, and finish
        # the grid bitwise-identical to the fault-free run.
        plan = FaultPlan(seed=1).fail(
            "shard.worker", kind="exit",
            match={"strategy": "default", "overhead": 0.1, "attempt": 0},
        )
        with active_plan(plan):
            result = Campaign(
                chaos_setup, STRATEGIES, OVERHEADS,
                executor="process", name="crash",
            ).run(max_workers=2)
        assert result.metadata["num_failed"] == 0
        assert result.metadata["respawns"] >= 1
        assert len(result.records) == len(reference.records)
        for ours, ref in zip(result.records, reference.records):
            assert ours.point == ref.point
            assert ours.outcome == ref.outcome  # bitwise

    def test_poisoned_point_quarantined_sharded(self, chaos_setup, reference):
        with active_plan(FaultPlan(rules=[_poison_rule()])):
            result = Campaign(
                chaos_setup, STRATEGIES, OVERHEADS,
                executor="process", name="shard-poison",
            ).run(max_workers=2)
        _assert_survivors_bitwise(result, reference)

    def test_full_chaos_sweep(self, chaos_setup, reference_mg):
        """The acceptance scenario: one seeded sweep with a worker crash, a
        poisoned point and forced multigrid non-convergence completes
        without aborting."""
        plan = FaultPlan(seed=2010)
        plan.fail(
            "shard.worker", kind="exit",
            match={"strategy": "default", "overhead": 0.1, "attempt": 0},
        )
        plan.rules.append(_poison_rule())
        # Every multigrid solve "stalls": the solver must degrade to LU.
        plan.fail("solver.multigrid", times=None)
        with active_plan(plan):
            result = Campaign(
                chaos_setup, STRATEGIES, OVERHEADS,
                executor="process", name="full-chaos",
                cache=SolverCache(method="multigrid"),
            ).run(max_workers=2)

        # Completed: the poisoned point is quarantined with its exception,
        # everything else survived.
        assert result.metadata["num_failed"] == 1
        entry = result.failed_points[0]
        assert entry["strategy"] == "eri" and entry["overhead"] == 0.2
        assert "injected fault" in entry["error"]
        assert result.metadata["respawns"] >= 1
        assert len(result.records) == 3

        # Every surviving record took the LU fallback and says so.
        assert result.metadata["degraded_points"] == 3
        for record in result.records:
            assert record.degraded
            ref = next(
                r for r in reference_mg.records if r.point == record.point
            )
            # Structural decisions come from the shared baseline: exact.
            assert record.outcome.inserted_rows == ref.outcome.inserted_rows
            assert record.outcome.actual_overhead == ref.outcome.actual_overhead
            # Thermal numbers come from the exact LU fallback: equal to the
            # healthy multigrid run to solver tolerance, not bitwise.
            assert record.outcome.peak_rise == pytest.approx(
                ref.outcome.peak_rise, rel=1e-6
            )


class TestSolverFallback:
    @pytest.fixture()
    def grid(self):
        return ThermalGrid(800.0, 800.0, nx=NX, ny=NY, package=default_package())

    @pytest.fixture()
    def power(self):
        return np.random.default_rng(3).random((NY, NX)) * 1e-4

    def test_injected_stall_falls_back_to_exact_lu(self, grid, power):
        lu = ThermalSolver(grid, method="lu").solve(power)
        solver = ThermalSolver(grid, method="multigrid")
        with active_plan(FaultPlan().fail("solver.multigrid")):
            degraded = solver.solve(power)
        assert degraded.fallback_used
        assert solver.fallback_count == 1
        assert solver.last_fallback_used
        # The fallback runs the same factorisation as method="lu"; only the
        # package-node elimination vector (computed at construction, by the
        # multigrid backend) differs, at solver tolerance.
        np.testing.assert_allclose(
            degraded.temperatures, lu.temperatures, rtol=1e-10, atol=1e-10
        )
        # And the next (healthy) solve is not flagged.
        healthy = solver.solve(power)
        assert not healthy.fallback_used
        assert solver.fallback_count == 1

    def test_genuine_nonconvergence_falls_back(self, grid, power):
        solver = ThermalSolver(grid, method="multigrid")
        solver._mg.max_iterations = 0  # no budget: every solve stalls
        solved = solver.solve(power)
        assert solved.fallback_used
        assert solver.fallback_count == 1
        lu = ThermalSolver(grid, method="lu").solve(power)
        np.testing.assert_allclose(
            solved.temperatures, lu.temperatures, rtol=1e-10, atol=1e-10
        )

    def test_fallback_disabled_raises(self, grid, power):
        solver = ThermalSolver(grid, method="multigrid", fallback=False)
        with active_plan(FaultPlan().fail("solver.multigrid")):
            with pytest.raises(InjectedFault):
                solver.solve(power)
        assert solver.fallback_count == 0


class TestStoreChaos:
    def test_write_fault_keeps_record_in_memory(self, tmp_path):
        store = ResultStore(root=tmp_path / "store")
        with active_plan(FaultPlan().fail("store.write")):
            store.put("k1", {"value": 1})
        assert store.stats().write_errors == 1
        assert store.get("k1") == {"value": 1}  # memory tier still serves
        # The entry never reached disk: a fresh instance misses.
        assert ResultStore(root=tmp_path / "store").get("k1") is None
        # Healthy writes still persist.
        store.put("k2", {"value": 2})
        assert ResultStore(root=tmp_path / "store").get("k2") == {"value": 2}

    def test_read_fault_treated_as_corruption(self, tmp_path):
        ResultStore(root=tmp_path / "store").put("k", "payload")
        reader = ResultStore(root=tmp_path / "store")
        with active_plan(FaultPlan().fail("store.read")):
            assert reader.get("k") is None  # evicted, not served blindly
        assert reader.stats().corrupt_evictions == 1
        # The damaged entry was evicted from disk; a recompute republishes.
        assert reader.get("k") is None
        reader.put("k", "payload")
        assert ResultStore(root=tmp_path / "store").get("k") == "payload"

    def test_campaign_survives_write_fault_and_recomputes_later(
        self, chaos_setup, tmp_path, reference
    ):
        with active_plan(FaultPlan().fail("store.write")):
            first = Campaign(
                chaos_setup, STRATEGIES, OVERHEADS, name="lossy",
                result_store=ResultStore(root=tmp_path / "results"),
            ).run(max_workers=1)
        assert len(first.records) == 4  # durability degraded, sweep did not
        # One record exists only in the dead process's memory: a rerun
        # against the same root recomputes exactly that point.
        rerun = Campaign(
            chaos_setup, STRATEGIES, OVERHEADS, name="rerun",
            result_store=ResultStore(root=tmp_path / "results"),
        ).run(max_workers=1)
        assert rerun.metadata["store_hits"] == 3
        assert rerun.metadata["num_evaluated"] == 1
        for ours, ref in zip(rerun.records, reference.records):
            assert ours.outcome == ref.outcome


@pytest.fixture(scope="module")
def chaos_server(chaos_setup):
    instance = SweepServer(
        {chaos_setup.workload.name: chaos_setup}, port=0, batch_window_s=0.05
    )
    with instance:
        yield instance


class TestServiceChaos:
    def test_health_probe(self, chaos_server):
        host, port = chaos_server.address
        health = SweepClient(host=host, port=port).health()
        assert health["status"] == "serving"
        assert health["pending"] == 0
        assert health["workloads"] == [
            sorted(chaos_server.setups)[0]
        ]

    def test_client_retries_connect_failures(self, chaos_server):
        host, port = chaos_server.address
        plan = FaultPlan().fail("client.request", times=2)
        client = SweepClient(
            host=host, port=port,
            retry_policy=RetryPolicy(max_attempts=3, backoff_s=0.0),
        )
        with active_plan(plan):
            response = client.ping()
        assert response["ok"]
        assert plan.fired("client.request") == 2  # two failures, then through

    def test_request_once_default_does_not_retry(self, chaos_server):
        host, port = chaos_server.address
        with active_plan(FaultPlan().fail("client.request")):
            with pytest.raises(InjectedFault):
                request_once(host, port, {"op": "ping"})

    def test_server_side_fault_is_an_error_response(self, chaos_server):
        host, port = chaos_server.address
        client = SweepClient(host=host, port=port)
        with active_plan(FaultPlan().fail("service.sweep")):
            with pytest.raises(ServiceError, match="injected fault"):
                client.sweep("anything", STRATEGIES, OVERHEADS)
        # The daemon survived the fault and still answers.
        assert client.ping()["ok"]

    def test_failed_point_fails_only_its_waiters(self, chaos_setup, chaos_server):
        host, port = chaos_server.address
        name = chaos_setup.workload.name
        client = SweepClient(host=host, port=port)
        with active_plan(FaultPlan(rules=[_poison_rule()])):
            with pytest.raises(ServiceError, match="failed after"):
                client.sweep(name, STRATEGIES, OVERHEADS)
        # The three healthy points were solved and stored; only the
        # poisoned one is recomputed once the fault is gone.
        result, stats = client.sweep(name, STRATEGIES, OVERHEADS)
        assert stats["store_hits"] == 3
        assert stats["computed"] == 1
        assert len(result.records) == 4
        assert chaos_server.stats()["failed_points"] == 1

    def test_drain_shutdown_finishes_inflight_sweeps(self, chaos_setup):
        instance = SweepServer(
            {chaos_setup.workload.name: chaos_setup}, port=0,
            batch_window_s=0.3,
        )
        instance.start()
        host, port = instance.address
        name = chaos_setup.workload.name
        outcome = {}

        def submit():
            client = SweepClient(host=host, port=port)
            outcome["result"] = client.sweep(name, STRATEGIES, OVERHEADS)

        thread = threading.Thread(target=submit)
        thread.start()
        try:
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline and not instance._pending:
                time.sleep(0.01)
            assert instance._pending, "sweep never reached the queue"
            SweepClient(host=host, port=port).shutdown_server(drain=True)
        finally:
            thread.join(timeout=120.0)
        # The in-flight sweep completed despite the shutdown...
        result, _stats = outcome["result"]
        assert len(result.records) == 4
        # ... and the server is now gone: new connections are refused.
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline and instance._serve_thread.is_alive():
            time.sleep(0.02)
        assert not instance._serve_thread.is_alive()
        with pytest.raises(OSError):
            request_once(host, port, {"op": "ping"}, timeout=2.0)

    def test_draining_server_rejects_new_sweeps(self, chaos_setup):
        instance = SweepServer(
            {chaos_setup.workload.name: chaos_setup}, port=0
        )
        instance.start()
        try:
            instance._draining.set()  # as the shutdown op does, pre-response
            response = instance._dispatch(
                b'{"op": "sweep", "workload": "x", '
                b'"strategies": ["eri"], "overheads": [0.1]}'
            )
            assert not response["ok"]
            assert "draining" in response["error"]
            health = instance._dispatch(b'{"op": "health"}')
            assert health["status"] == "draining"
        finally:
            instance.shutdown()


class TestCliFaults:
    def test_jobs_must_be_positive(self, capsys):
        for command in ("sweep", "serve"):
            for bad in ("0", "-2", "x"):
                with pytest.raises(SystemExit) as info:
                    cli_main([command, "--jobs", bad])
                assert info.value.code == 2
        err = capsys.readouterr().err
        assert "positive integer" in err

    def test_max_point_retries_validated(self, capsys, tmp_path):
        assert cli_main(
            ["sweep", "--small", "--max-point-retries", "-1",
             "--out", str(tmp_path)]
        ) == 2
        assert "--max-point-retries" in capsys.readouterr().err

    def test_submit_down_server_names_address(self, capsys, tmp_path):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        # Nothing listens on `port` any more: submit must fail cleanly.
        status = cli_main([
            "submit", "--host", "127.0.0.1", "--port", str(port),
            "--out", str(tmp_path),
        ])
        assert status == 2
        err = capsys.readouterr().err
        assert f"127.0.0.1:{port}" in err
        assert "cannot reach server" in err

    def test_env_plan_installs_for_cli_runs(self, monkeypatch, capsys):
        plan = FaultPlan(seed=9).fail("point.evaluate", times=None)
        monkeypatch.setenv(faults.ENV_VAR, plan.to_json())
        # `strategies` is the cheapest command that goes through main().
        assert cli_main(["strategies"]) == 0
        installed = faults.get_active()
        assert installed is not None and installed.seed == 9

    def test_env_plan_bad_json_is_a_clean_error(self, monkeypatch, capsys):
        monkeypatch.setenv(faults.ENV_VAR, "{broken")
        assert cli_main(["strategies"]) == 2
        assert "not valid JSON" in capsys.readouterr().err
