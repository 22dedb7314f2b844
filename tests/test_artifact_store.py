"""ArtifactStore unit tests: tiers, LRU bounds, and disk corruption.

The on-disk tier must be paranoid: any entry whose payload fails the
sha256 integrity check — truncated, bit-flipped, garbage, or written by
something else entirely — is detected, deleted, reported as a miss, and
transparently recomputed by the flow graph.  Nothing may ever unpickle a
damaged payload.
"""

from __future__ import annotations

import pickle
import threading

import pytest

from repro.bench import scattered_hotspots_workload, small_synthetic_circuit
from repro.flow import ArtifactStore, ExperimentSetup, FlowGraph, evaluate_strategy
from repro.flow.store import _MAGIC


def _entry_path(store: ArtifactStore, stage: str, key: str):
    return store.root / stage / f"{key}.art"


class TestMemoryTier:
    def test_round_trip_and_counters(self):
        store = ArtifactStore()
        assert store.get("synth", "k1") is None
        store.put("synth", "k1", {"value": 1})
        assert store.get("synth", "k1") == {"value": 1}
        stats = store.stats()
        assert (stats.hits, stats.misses, stats.writes) == (1, 1, 1)
        assert stats.disk_hits == 0
        assert len(store) == 1
        assert ("synth", "k1") in store

    def test_same_key_different_stage_is_distinct(self):
        store = ArtifactStore()
        store.put("synth", "k", "placed")
        store.put("power", "k", "estimated")
        assert store.get("synth", "k") == "placed"
        assert store.get("power", "k") == "estimated"

    def test_lru_bound_evicts_oldest(self):
        store = ArtifactStore(maxsize=2)
        store.put("s", "a", 1)
        store.put("s", "b", 2)
        store.put("s", "c", 3)
        assert store.get("s", "a") is None
        assert store.get("s", "b") == 2
        assert store.get("s", "c") == 3
        assert len(store) == 2

    def test_get_refreshes_lru_order(self):
        store = ArtifactStore(maxsize=2)
        store.put("s", "a", 1)
        store.put("s", "b", 2)
        assert store.get("s", "a") == 1  # "a" becomes most recent
        store.put("s", "c", 3)           # so "b" is the eviction victim
        assert store.get("s", "b") is None
        assert store.get("s", "a") == 1

    def test_maxsize_zero_disables_retention(self):
        store = ArtifactStore(maxsize=0)
        store.put("s", "a", 1)
        assert store.get("s", "a") is None
        assert len(store) == 0

    def test_negative_maxsize_rejected(self):
        with pytest.raises(ValueError):
            ArtifactStore(maxsize=-1)


class TestDiskTier:
    def test_disk_round_trip_after_memory_clear(self, tmp_path):
        store = ArtifactStore(root=tmp_path)
        store.put("thermal", "k1", {"peak": 12.5})
        store.clear_memory()
        assert store.get("thermal", "k1") == {"peak": 12.5}
        stats = store.stats()
        assert stats.disk_hits == 1
        assert stats.corrupt_evictions == 0
        # The disk hit repopulated the memory tier.
        assert ("thermal", "k1") in store

    def test_fresh_store_reads_previous_store_entries(self, tmp_path):
        ArtifactStore(root=tmp_path).put("sta", "k", (1.0, 2.0))
        second = ArtifactStore(root=tmp_path)
        assert second.get("sta", "k") == (1.0, 2.0)
        assert second.stats().disk_hits == 1

    def test_entry_format_is_magic_sha_payload(self, tmp_path):
        store = ArtifactStore(root=tmp_path)
        store.put("power", "k", [1, 2, 3])
        blob = _entry_path(store, "power", "k").read_bytes()
        assert blob.startswith(_MAGIC)
        assert blob[len(_MAGIC) + 64:len(_MAGIC) + 65] == b"\n"
        assert pickle.loads(blob[len(_MAGIC) + 65:]) == [1, 2, 3]


class TestUnwritableRoot:
    def test_staged_flow_degrades_to_memory(self, tmp_path):
        """A root under a regular file cannot be created: every disk write
        fails, is counted, and the flow runs on from the memory tier."""

        def staged_run(store):
            flow = FlowGraph(store=store)
            circuit = small_synthetic_circuit()
            setup = ExperimentSetup.prepare(
                circuit, scattered_hotspots_workload(circuit),
                grid_nx=16, grid_ny=16, num_cycles=6, flow=flow,
            )
            outcome = evaluate_strategy(
                setup, "eri", 0.15, analyze_timing=True, flow=flow
            )
            return setup, outcome, flow

        blocker = tmp_path / "not-a-directory"
        blocker.write_text("a regular file")
        setup, outcome, flow = staged_run(ArtifactStore(root=blocker / "store"))
        reference_setup, reference, _ = staged_run(ArtifactStore())

        assert outcome == reference
        assert (
            setup.thermal_map.temperatures == reference_setup.thermal_map.temperatures
        ).all()
        assert flow.store.stats().write_errors >= 1


class TestDiskCorruption:
    def _corrupt_and_probe(self, tmp_path, mutate):
        """Write an entry, vandalise it with ``mutate``, probe the store."""
        store = ArtifactStore(root=tmp_path)
        store.put("legalize", "k", {"grid": 40})
        store.clear_memory()
        path = _entry_path(store, "legalize", "k")
        mutate(path)
        return store, path

    @pytest.mark.parametrize("mutate", [
        pytest.param(lambda p: p.write_bytes(p.read_bytes()[:-7]), id="truncated"),
        pytest.param(lambda p: p.write_bytes(b"not an artifact"), id="garbage"),
        pytest.param(lambda p: p.write_bytes(b""), id="empty"),
        pytest.param(
            lambda p: p.write_bytes(_flip_payload_bit(p.read_bytes())),
            id="bit-flipped-payload",
        ),
        pytest.param(
            lambda p: p.write_bytes(_flip_digest_char(p.read_bytes())),
            id="bit-flipped-digest",
        ),
    ])
    def test_damaged_entry_is_missed_and_evicted(self, tmp_path, mutate):
        store, path = self._corrupt_and_probe(tmp_path, mutate)
        assert store.get("legalize", "k") is None
        stats = store.stats()
        assert stats.corrupt_evictions == 1
        assert stats.misses == 1
        assert not path.exists(), "corrupt entry must be deleted"

    def test_hash_valid_but_unpicklable_payload_is_evicted(self, tmp_path):
        """A correctly-hashed payload that fails to deserialize (written by
        an incompatible producer) counts as corruption too."""
        import hashlib

        def mutate(path):
            payload = b"\x80\x05not really a pickle"
            digest = hashlib.sha256(payload).hexdigest().encode("ascii")
            path.write_bytes(_MAGIC + digest + b"\n" + payload)

        store, path = self._corrupt_and_probe(tmp_path, mutate)
        assert store.get("legalize", "k") is None
        assert store.stats().corrupt_evictions == 1
        assert not path.exists()

    def test_recompute_repairs_the_entry(self, tmp_path):
        store, path = self._corrupt_and_probe(
            tmp_path, lambda p: p.write_bytes(b"garbage")
        )
        assert store.get("legalize", "k") is None
        # The flow graph reacts to the miss by recomputing and re-putting:
        store.put("legalize", "k", {"grid": 40})
        store.clear_memory()
        assert store.get("legalize", "k") == {"grid": 40}
        assert store.stats().corrupt_evictions == 1

    def test_flow_graph_recomputes_through_corruption(
        self, tmp_path, small_placement, small_power
    ):
        """End to end: corrupt every on-disk entry under a real stage run;
        the graph silently rebuilds bitwise-identical artifacts."""
        flow = FlowGraph(store=ArtifactStore(root=tmp_path))
        original = flow.legalize(small_placement, small_power, nx=12, ny=12)
        assert flow.stage_executions["legalize"] == 1

        for entry in tmp_path.rglob("*.art"):
            entry.write_bytes(b"vandalised")
        flow.store.clear_memory()

        rebuilt = flow.legalize(small_placement, small_power, nx=12, ny=12)
        assert flow.stage_executions["legalize"] == 2
        assert flow.store.stats().corrupt_evictions >= 1
        assert rebuilt.key == original.key
        assert (rebuilt.power_map.power_w == original.power_map.power_w).all()


class TestConcurrency:
    def test_parallel_put_get_is_consistent(self, tmp_path):
        store = ArtifactStore(root=tmp_path)
        errors = []

        def worker(worker_id):
            try:
                for i in range(25):
                    key = f"k{i % 5}"
                    store.put("s", key, (worker_id, i))
                    got = store.get("s", key)
                    assert got is not None
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        stats = store.stats()
        assert stats.writes == 8 * 25
        assert stats.hits == 8 * 25  # every get right after a put must hit


def _flip_payload_bit(blob: bytes) -> bytes:
    """Flip one bit in the pickled payload, leaving the header intact."""
    header_end = len(_MAGIC) + 64 + 1
    body = bytearray(blob)
    body[header_end + 3] ^= 0x10
    return bytes(body)


def _flip_digest_char(blob: bytes) -> bytes:
    """Corrupt the stored digest itself."""
    body = bytearray(blob)
    index = len(_MAGIC) + 5
    body[index] = ord("0") if body[index] != ord("0") else ord("1")
    return bytes(body)
