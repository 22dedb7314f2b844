"""The ``repro serve`` daemon: protocol, dedupe, cross-request batching."""

from __future__ import annotations

import threading

import pytest

from repro.bench import small_synthetic_circuit, scattered_hotspots_workload
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
