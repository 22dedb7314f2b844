"""Service front door: quotas, auth, fair queueing, protocol hardening."""

from __future__ import annotations

import json
import random
import socket

import pytest

from repro import faults
from repro.bench import small_synthetic_circuit, scattered_hotspots_workload
from repro.faults import FaultPlan, active_plan
from repro.flow import ExperimentSetup, ResultStore
from repro.service import (
    AdmissionController,
    AdmissionError,
    AuthError,
    ClientQuota,
    SweepClient,
    SweepServer,
    request_once,
)
from repro.service.admission import FairTaskQueue

NX = NY = 16


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


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    yield
    faults.deactivate()


class TestClientQuota:
    def test_parse_full_spec(self):
        quota = ClientQuota.parse(
            "requests_per_s=5,max_inflight_points=64,"
            "max_points_per_request=16,burst=10"
        )
        assert quota.requests_per_s == 5.0
        assert quota.max_inflight_points == 64
        assert quota.max_points_per_request == 16
        assert quota.bucket_size == 10.0

    def test_default_burst_is_ceil_of_rate(self):
        assert ClientQuota(requests_per_s=2.5).bucket_size == 3.0
        assert ClientQuota(requests_per_s=0.5).bucket_size == 1.0

    @pytest.mark.parametrize("text", [
        "", "nope", "speed=3", "requests_per_s=fast",
        "requests_per_s=0", "max_inflight_points=-1",
    ])
    def test_parse_rejects_bad_specs(self, text):
        with pytest.raises(ValueError):
            ClientQuota.parse(text)

    def test_burst_requires_rate(self):
        with pytest.raises(ValueError, match="burst requires"):
            ClientQuota(burst=5)


class TestAdmissionController:
    def test_passthrough_without_quota(self):
        controller = AdmissionController()
        for _ in range(100):
            controller.admit("anyone", 1000)
        assert controller.counters()["admitted_total"] == 100

    def test_token_bucket_rate_with_deterministic_retry_after(self):
        clock = FakeClock()
        controller = AdmissionController(
            quota=ClientQuota(requests_per_s=2.0, burst=1), clock=clock,
        )
        controller.admit("a", 1)
        with pytest.raises(AdmissionError) as info:
            controller.admit("a", 1)
        # Exact bucket math: an empty 1-deep bucket refills at 2/s, so
        # the next token is 0.5s away — the retry_after contract.
        assert info.value.code == "throttled"
        assert info.value.retryable
        assert info.value.retry_after_s == pytest.approx(0.5)
        clock.advance(0.5)
        controller.admit("a", 1)  # the promised instant really admits

    def test_rate_limit_is_per_client(self):
        clock = FakeClock()
        controller = AdmissionController(
            quota=ClientQuota(requests_per_s=1.0, burst=1), clock=clock,
        )
        controller.admit("a", 1)
        controller.admit("b", 1)  # b has its own bucket
        with pytest.raises(AdmissionError):
            controller.admit("a", 1)

    def test_points_per_request_cap_is_not_retryable(self):
        controller = AdmissionController(
            quota=ClientQuota(max_points_per_request=4)
        )
        with pytest.raises(AdmissionError) as info:
            controller.admit("a", 5)
        assert info.value.code == "too_many_points"
        assert not info.value.retryable
        assert controller.counters()["rejected_total"] == 1

    def test_inflight_quota_charged_and_released(self):
        controller = AdmissionController(
            quota=ClientQuota(max_inflight_points=6)
        )
        controller.admit("a", 4)
        with pytest.raises(AdmissionError) as info:
            controller.admit("a", 4)
        assert info.value.code == "quota" and info.value.retryable
        controller.release("a", 4)
        controller.admit("a", 4)
        stats = controller.client_stats()["a"]
        assert stats["inflight_points"] == 4
        assert stats["throttled"] == 1

    def test_admit_seam_converts_fault_to_throttle(self):
        plan = FaultPlan(seed=3).fail(
            "service.admit", times=2, match={"client": "storm"}
        )
        controller = AdmissionController()
        with active_plan(plan):
            for _ in range(2):
                with pytest.raises(AdmissionError) as info:
                    controller.admit("storm", 1)
                assert info.value.code == "throttled"
                assert info.value.retry_after_s is not None
            controller.admit("storm", 1)  # times=2 exhausted
            controller.admit("calm", 1)   # other clients unmatched
        assert plan.fired("service.admit") == 2
        assert controller.counters()["throttled_total"] == 2

    def test_rejection_wire_form(self):
        error = AdmissionError("shed", "dropped", retry_after_s=0.25)
        response = error.to_response()
        assert response == {
            "ok": False, "error": "dropped", "code": "shed",
            "retryable": True, "retry_after_s": 0.25,
        }


class FakeClock:
    def __init__(self, start: float = 100.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class _Item:
    def __init__(self, client: str, deadline: float = float("inf")) -> None:
        self.client = client
        self.deadline = deadline

    def __repr__(self) -> str:
        return f"_Item({self.client}, {self.deadline})"


class TestFairTaskQueue:
    def test_round_robin_across_clients(self):
        fair = FairTaskQueue()
        a1, a2, a3 = _Item("a"), _Item("a"), _Item("a")
        b1, c1 = _Item("b"), _Item("c")
        for item in (a1, a2, a3, b1, c1):
            fair.put(item)
        # One greedy client's backlog interleaves with everyone else's.
        order = [fair.get(timeout=0.1) for _ in range(5)]
        assert order == [a1, b1, c1, a2, a3]

    def test_get_times_out_empty(self):
        assert FairTaskQueue().get(timeout=0.01) is None

    def test_shed_prefers_earliest_deadlines(self):
        fair = FairTaskQueue()
        early, mid, late = _Item("a", 1.0), _Item("b", 2.0), _Item("a", 3.0)
        for item in (late, early, mid):
            fair.put(item)
        victims = fair.shed_before(deadline=2.5, count=5)
        assert victims == [early, mid]  # late outlives the bound; kept
        assert len(fair) == 1
        assert fair.get(timeout=0.1) is late

    def test_shed_never_displaces_longer_lived_work(self):
        fair = FairTaskQueue()
        fair.put(_Item("a", deadline=10.0))
        assert fair.shed_before(deadline=5.0, count=1) == []
        assert len(fair) == 1


class TestAuth:
    @pytest.fixture()
    def auth_server(self, served_setup, tmp_path):
        instance = SweepServer(
            {served_setup.workload.name: served_setup},
            result_store=ResultStore(root=tmp_path / "auth"),
            port=0,
            auth_token="hunter2",
        )
        with instance:
            yield instance

    def test_ping_and_health_stay_open(self, auth_server):
        host, port = auth_server.address
        client = SweepClient(host=host, port=port)  # no token
        assert client.ping()["protocol"]
        assert client.health()["status"] == "serving"

    def test_sweep_without_token_is_auth_error(self, auth_server, served_setup):
        host, port = auth_server.address
        client = SweepClient(host=host, port=port)
        with pytest.raises(AuthError):
            client.sweep(served_setup.workload.name, ("default",), (0.1,))
        assert auth_server.stats()["rejected_total"] == 1

    def test_sweep_with_wrong_token_is_auth_error(self, auth_server, served_setup):
        host, port = auth_server.address
        client = SweepClient(host=host, port=port, token="wrong")
        with pytest.raises(AuthError):
            client.sweep(served_setup.workload.name, ("default",), (0.1,))

    def test_sweep_with_token_succeeds(self, auth_server, served_setup):
        host, port = auth_server.address
        client = SweepClient(host=host, port=port, token="hunter2")
        result, stats = client.sweep(
            served_setup.workload.name, ("default",), (0.1,)
        )
        assert len(result.records) == 1
        assert stats["computed"] == 1

    def test_shutdown_requires_token(self, auth_server):
        host, port = auth_server.address
        response = request_once(host, port, {"op": "shutdown"})
        assert not response["ok"] and response["code"] == "auth"
        health = SweepClient(host=host, port=port).health()
        assert health["status"] == "serving"


@pytest.fixture()
def hardened_server(served_setup, tmp_path):
    instance = SweepServer(
        {served_setup.workload.name: served_setup},
        result_store=ResultStore(root=tmp_path / "hard"),
        port=0,
        max_request_bytes=4096,
    )
    with instance:
        yield instance


def _raw_exchange(address, data: bytes, read_lines: int = 1):
    """Send raw bytes, return up to ``read_lines`` response lines."""
    with socket.create_connection(address, timeout=10.0) as conn:
        conn.sendall(data)
        conn.shutdown(socket.SHUT_WR)
        raw = b""
        conn.settimeout(10.0)
        while raw.count(b"\n") < read_lines:
            try:
                chunk = conn.recv(65536)
            except socket.timeout:
                break
            if not chunk:
                break
            raw += chunk
    return raw.split(b"\n")[:read_lines]


class TestProtocolHardening:
    def test_malformed_json_gets_structured_error(self, hardened_server):
        (line,) = _raw_exchange(hardened_server.address, b"{not json]\n")
        response = json.loads(line)
        assert not response["ok"] and response["code"] == "bad_request"

    def test_garbage_line_does_not_kill_the_connection(self, hardened_server):
        with socket.create_connection(hardened_server.address, timeout=10.0) as conn:
            reader = conn.makefile("rb")
            conn.sendall(b"\x00\xff\xfe garbage \x80\n")
            first = json.loads(reader.readline())
            assert not first["ok"]
            # Same connection, next frame: still served.
            conn.sendall(b'{"op": "ping"}\n')
            second = json.loads(reader.readline())
            assert second["ok"]

    def test_deeply_nested_json_is_refused_not_fatal(self, hardened_server):
        bomb = b"[" * 2000 + b"]" * 2000 + b"\n"
        (line,) = _raw_exchange(hardened_server.address, bomb)
        response = json.loads(line)
        assert not response["ok"] and response["code"] == "bad_request"

    def test_oversized_payload_structured_error_and_resync(self, hardened_server):
        big = b'{"op": "sweep", "pad": "' + b"x" * 8192 + b'"}\n'
        with socket.create_connection(hardened_server.address, timeout=10.0) as conn:
            reader = conn.makefile("rb")
            conn.sendall(big)
            first = json.loads(reader.readline())
            assert not first["ok"] and first["code"] == "payload_too_large"
            # Framing resynced on the newline: the connection still works.
            conn.sendall(b'{"op": "ping"}\n')
            assert json.loads(reader.readline())["ok"]

    def test_truncated_frame_is_dropped_silently(self, hardened_server):
        lines = _raw_exchange(
            hardened_server.address, b'{"op": "ping"', read_lines=1
        )
        assert lines in ([], [b""])  # no response, no crash
        host, port = hardened_server.address
        assert SweepClient(host=host, port=port).ping()["protocol"]

    def test_unknown_op_counts_as_bad_request(self, hardened_server):
        host, port = hardened_server.address
        response = request_once(host, port, {"op": "warp"})
        assert not response["ok"] and response["code"] == "bad_request"
        assert hardened_server.stats()["bad_requests"] >= 1

    def test_fuzzed_frames_never_wedge_the_server(self, hardened_server):
        """Seeded byte-mutation fuzz over valid frames.

        Every mutation must leave the daemon serving and must not leak a
        pending future (a wedged waiter would show up in health()).
        """
        rng = random.Random(0xC0FFEE)
        valid = json.dumps({
            "op": "sweep", "workload": "no-such-workload",
            "strategies": ["eri"], "overheads": [0.1],
        }).encode()
        for _ in range(60):
            frame = bytearray(valid)
            for _ in range(rng.randint(1, 8)):
                mutation = rng.randrange(3)
                position = rng.randrange(len(frame))
                if mutation == 0:
                    frame[position] = rng.randrange(256)
                elif mutation == 1:
                    del frame[position]
                else:
                    frame.insert(position, rng.randrange(256))
            payload = bytes(frame)
            if rng.random() < 0.3:
                payload = payload[: rng.randrange(1, max(2, len(payload)))]
            else:
                payload += b"\n"
            _raw_exchange(hardened_server.address, payload)
        host, port = hardened_server.address
        health = SweepClient(host=host, port=port).health()
        assert health["status"] == "serving"
        assert health["pending"] == 0
        assert health["queue_depth"] == 0
