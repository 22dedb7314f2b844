"""The ``repro serve`` daemon: protocol, dedupe, cross-request batching."""

from __future__ import annotations

import json
import socket
import sys
import threading
import time

import pytest

from repro.bench import small_synthetic_circuit, scattered_hotspots_workload
from repro.faults import FaultPlan, RetryPolicy, active_plan
from repro.flow import Campaign, ExperimentSetup, ResultStore
from repro.service import ServiceError, SweepClient, SweepServer, request_once
from repro.service.server import PROTOCOL

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
    """In-process campaign the served records must match bitwise."""
    return Campaign(served_setup, STRATEGIES, OVERHEADS, name="ref").run(
        max_workers=1
    )


@pytest.fixture()
def server(served_setup, tmp_path):
    instance = SweepServer(
        {served_setup.workload.name: served_setup},
        result_store=ResultStore(root=tmp_path / "results"),
        port=0,
    )
    with instance:
        yield instance


@pytest.fixture()
def client(server):
    host, port = server.address
    return SweepClient(host=host, port=port)


class TestProtocol:
    def test_ping_reports_protocol_and_workloads(self, server, client, served_setup):
        response = client.ping()
        assert response["protocol"] == PROTOCOL
        assert response["workloads"] == [served_setup.workload.name]
        assert server.address[1] != 0  # port 0 resolved to a real port

    def test_stats_op(self, client):
        stats = client.stats()
        assert stats["requests"] == 0
        assert "result_store" in stats and "solver_cache" in stats

    def test_malformed_and_unknown_requests(self, server):
        host, port = server.address
        assert not request_once(host, port, {"op": "warp"})["ok"]
        response = request_once(host, port, {"op": "sweep"})
        assert not response["ok"] and "workload" in response["error"]

    def test_sweep_validation_errors(self, client, served_setup):
        name = served_setup.workload.name
        with pytest.raises(ServiceError, match="unknown workload"):
            client.sweep("nope", STRATEGIES, OVERHEADS)
        with pytest.raises(ServiceError, match="bad sweep spec"):
            client.sweep(name, ["no-such-strategy"], OVERHEADS)
        with pytest.raises(ServiceError, match="strategies and overheads"):
            client.sweep(name, [], OVERHEADS)

    @pytest.mark.parametrize("overhead", [float("nan"), float("inf"), -0.1])
    def test_bad_overheads_are_bad_sweep_specs(self, server, served_setup, overhead):
        # A JSON NaN/Infinity (or a negative overhead) is rejected at the
        # front door: nothing is queued or computed.
        host, port = server.address
        response = request_once(host, port, {
            "op": "sweep", "workload": served_setup.workload.name,
            "strategies": ["eri"], "overheads": [0.1, overhead],
        })
        assert response["ok"] is False
        assert "bad sweep spec" in response["error"]
        assert "finite and non-negative" in response["error"]
        stats = server.stats()
        assert stats["points_requested"] == 0
        assert stats["points_solved"] == 0

    def test_shutdown_op(self, served_setup, tmp_path):
        instance = SweepServer(
            {served_setup.workload.name: served_setup},
            result_store=ResultStore(root=tmp_path / "shut"),
            port=0,
        )
        instance.start()
        host, port = instance.address
        SweepClient(host=host, port=port).shutdown_server()
        instance._serve_thread.join(timeout=10.0)
        assert not instance._serve_thread.is_alive()


class TestServedSweeps:
    def test_served_records_match_in_process_bitwise(
        self, client, served_setup, reference_result
    ):
        result, stats = client.sweep(
            served_setup.workload.name, STRATEGIES, OVERHEADS
        )
        assert stats["computed"] == 4 and stats["store_hits"] == 0
        assert len(result.records) == 4
        for ours, reference in zip(result.records, reference_result.records):
            assert ours.point == reference.point
            assert ours.outcome == reference.outcome  # survives JSON wire

    def test_repeat_sweep_served_from_store(self, client, served_setup):
        name = served_setup.workload.name
        client.sweep(name, STRATEGIES, OVERHEADS)
        _result, stats = client.sweep(name, STRATEGIES, OVERHEADS)
        assert stats["store_hits"] == 4
        assert stats["computed"] == 0
        assert stats["server"]["points_solved"] == 4  # lifetime, not 8

    def test_store_prewarms_server(self, served_setup, tmp_path):
        store = ResultStore(root=tmp_path / "prewarm")
        Campaign(
            served_setup, STRATEGIES, OVERHEADS, result_store=store
        ).run(max_workers=1)
        instance = SweepServer(
            {served_setup.workload.name: served_setup},
            result_store=ResultStore(root=tmp_path / "prewarm"),
            port=0,
        )
        with instance:
            host, port = instance.address
            _result, stats = SweepClient(host=host, port=port).sweep(
                served_setup.workload.name, STRATEGIES, OVERHEADS
            )
        assert stats["store_hits"] == 4 and stats["computed"] == 0

    def test_concurrent_overlapping_sweeps_batch_and_join(
        self, served_setup, tmp_path, reference_result
    ):
        """Two overlapping clients: shared points join in flight, and the
        union solves in fewer geometry groups than it has points."""
        instance = SweepServer(
            {served_setup.workload.name: served_setup},
            result_store=ResultStore(root=tmp_path / "conc"),
            port=0,
            batch_window_s=0.3,  # generous: let both requests land in one batch
        )
        name = served_setup.workload.name
        with instance:
            host, port = instance.address
            results = {}

            def submit(tag, strategies, overheads):
                client = SweepClient(host=host, port=port)
                results[tag] = client.sweep(name, strategies, overheads)

            # Overlap: both grids contain (eri, 0.1) and (eri, 0.2).
            threads = [
                threading.Thread(
                    target=submit, args=("a", ("default", "eri"), OVERHEADS)
                ),
                threading.Thread(
                    target=submit, args=("b", ("eri", "hw"), OVERHEADS)
                ),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            stats = instance.stats()

        assert set(results) == {"a", "b"}
        # 8 requested points over 6 unique: the 2 shared points were
        # computed once (in-flight join or store hit, depending on timing).
        assert stats["points_requested"] == 8
        assert stats["points_solved"] == 6
        assert stats["inflight_joins"] + stats["result_store"]["hits"] >= 2
        # Cross-request geometry batching: fewer solve groups than points.
        assert 0 < stats["num_solve_groups"] < stats["points_solved"]

        # Both clients got records bitwise-identical to a local campaign.
        for tag in ("a", "b"):
            result, _stats = results[tag]
            for record in result.records:
                reference = reference_result.find(
                    record.point.strategy, record.point.overhead
                )
                if reference is not None:
                    assert record.outcome == reference.outcome


def _count_accepts(instance: SweepServer) -> list:
    """Record every connection ``instance`` accepts (call before start)."""
    accepted = []
    accept = instance._tcp.process_request

    def counting(request, client_address):
        accepted.append(request)
        accept(request, client_address)

    instance._tcp.process_request = counting
    return accepted


def _handler_threads() -> list:
    return [
        thread for thread in threading.enumerate()
        if thread.name.endswith("(process_request_thread)")
    ]


class TestConnectionReuse:
    @pytest.fixture()
    def counted(self, served_setup, tmp_path):
        instance = SweepServer(
            {served_setup.workload.name: served_setup},
            result_store=ResultStore(root=tmp_path / "results"),
            port=0,
        )
        accepted = _count_accepts(instance)
        with instance:
            yield instance, accepted

    def test_sequential_requests_share_one_connection(self, counted, served_setup):
        instance, accepted = counted
        name = served_setup.workload.name
        with SweepClient(*instance.address) as client:
            client.sweep(name, ("default",), (0.1,))
            for _ in range(9):
                _result, stats = client.sweep(name, ("default",), (0.1,))
                assert stats["store_hits"] == 1
            for _ in range(10):
                assert client.ping()["ok"]
        assert len(accepted) == 1

    def test_threads_sharing_a_client_get_their_own_records(
        self, counted, served_setup
    ):
        instance, accepted = counted
        name = served_setup.workload.name
        overheads = (0.05, 0.1, 0.15, 0.2)
        reference = Campaign(served_setup, STRATEGIES, overheads).run(max_workers=1)
        grid = [(s, o) for s in STRATEGIES for o in overheads]
        client = SweepClient(*instance.address)
        results = {}

        def submit(strategy, overhead):
            results[strategy, overhead] = [
                client.sweep(name, (strategy,), (overhead,))[0] for _ in range(3)
            ]

        threads = [threading.Thread(target=submit, args=point) for point in grid]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the callers' pool use
        try:
            with client:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert set(results) == set(grid)
        for (strategy, overhead), rounds in results.items():
            expected = reference.find(strategy, overhead)
            for result in rounds:
                (record,) = result.records
                assert record.point == expected.point
                assert record.outcome == expected.outcome
        assert len(accepted) <= len(grid)

    def test_idle_connection_closed_by_server_reconnects_once(self, counted):
        instance, accepted = counted
        with SweepClient(
            *instance.address,
            retry_policy=RetryPolicy(max_attempts=3, backoff_s=30.0),
        ) as client:
            assert client.ping()["ok"]
            accepted[0].shutdown(socket.SHUT_RDWR)
            plan = FaultPlan()
            with active_plan(plan):
                assert client.ping()["ok"]
        assert plan.seen("client.request") == 1  # one attempt: no backoff
        assert len(accepted) == 2

    def test_server_restart_on_same_port_reconnects_once(
        self, served_setup, tmp_path
    ):
        setups = {served_setup.workload.name: served_setup}
        first = SweepServer(setups, port=0)
        first.start()
        host, port = first.address
        client = SweepClient(
            host, port, retry_policy=RetryPolicy(max_attempts=3, backoff_s=30.0),
        )
        try:
            assert client.ping()["ok"]
        finally:
            first.shutdown()
        second = SweepServer(setups, port=port)
        accepted = _count_accepts(second)
        with second, client:
            plan = FaultPlan()
            with active_plan(plan):
                assert client.ping()["ok"]
        assert plan.seen("client.request") == 1
        assert len(accepted) == 1

    def test_timed_out_request_closes_its_connection(self, counted, served_setup):
        instance, accepted = counted
        name = served_setup.workload.name
        with SweepClient(
            *instance.address, timeout=0.3, retry_policy=RetryPolicy()
        ) as client:
            assert client.ping()["ok"]
            hang = FaultPlan().fail("service.sweep", kind="hang", hang_s=1.0)
            with active_plan(hang):
                with pytest.raises(OSError):
                    client.sweep(name, ("eri",), (0.1,))
                # The hung sweep answers late; that answer must not be
                # read as the reply to this ping.
                response = client.ping()
            assert response["protocol"] == PROTOCOL
            client.timeout = 120.0
            result, _stats = client.sweep(name, ("default",), (0.2,))
        assert [(r.point.strategy, r.point.overhead) for r in result.records] == [
            ("default", 0.2)
        ]
        assert len(accepted) == 2

    def test_shutdown_ends_handler_threads_of_idle_connections(
        self, served_setup
    ):
        instance = SweepServer({served_setup.workload.name: served_setup}, port=0)
        instance.start()
        client = SweepClient(*instance.address)
        assert client.ping()["ok"]
        with client, socket.create_connection(instance.address, timeout=10.0) as raw:
            raw.sendall(b'{"op": "ping"}\n')
            assert json.loads(raw.makefile("rb").readline())["ok"]
            assert _handler_threads()
            instance.shutdown()
            deadline = time.monotonic() + 5.0
            while _handler_threads() and time.monotonic() < deadline:
                time.sleep(0.02)
            assert not _handler_threads()

    def test_draining_server_rejects_sweeps_on_open_connections(
        self, served_setup
    ):
        instance = SweepServer(
            {served_setup.workload.name: served_setup}, port=0,
            batch_window_s=0.5,
        )
        accepted = _count_accepts(instance)
        instance.start()
        name = served_setup.workload.name
        idle = SweepClient(*instance.address)
        assert idle.ping()["ok"]
        outcome = {}

        def submit():
            with SweepClient(*instance.address) as client:
                outcome["result"] = client.sweep(name, ("hw",), (0.1,))

        thread = threading.Thread(target=submit)
        drain = threading.Thread(target=instance.shutdown, kwargs={"drain": True})
        thread.start()
        try:
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline and not instance._pending:
                time.sleep(0.01)
            assert instance._pending, "sweep never reached the queue"
            drain.start()
            while time.monotonic() < deadline and not instance._draining.is_set():
                time.sleep(0.01)
            assert idle.health()["status"] == "draining"
            with pytest.raises(ServiceError, match="draining"):
                idle.sweep(name, ("default",), (0.1,))
        finally:
            thread.join(timeout=120)
            if drain.ident is None:
                instance.shutdown()
            else:
                drain.join(timeout=60)
            idle.close()
        result, _stats = outcome["result"]
        assert len(result.records) == 1
        assert len(accepted) == 2

    def test_one_line_clients_still_work(self, server):
        host, port = server.address
        assert request_once(host, port, {"op": "ping"})["protocol"] == PROTOCOL
        with socket.create_connection((host, port), timeout=10.0) as raw:
            reader = raw.makefile("rb")
            for _ in range(2):
                raw.sendall(b'{"op": "ping"}\n')
                assert json.loads(reader.readline())["protocol"] == PROTOCOL

    def test_close_and_context_manager(self, counted):
        instance, accepted = counted
        with SweepClient(*instance.address) as client:
            assert client.ping()["ok"]
        assert client.ping()["ok"]  # a closed client reconnects lazily
        client.close()
        assert len(accepted) == 2
