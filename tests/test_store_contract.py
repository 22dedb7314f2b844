"""The tiered-store contract, checked once for both stores.

:class:`~repro.flow.ArtifactStore` and :class:`~repro.flow.ResultStore`
share one memory-LRU + verified-disk core and differ only in where an
entry lives on disk.  Every test here runs against both, through a small
adapter that hides the artifact store's ``stage`` argument.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import Callable

import pytest

from repro.faults import FaultPlan, active_plan
from repro.flow import ArtifactStore, ResultStore

STAGE = "thermal"


@dataclass(frozen=True)
class Kind:
    """One store class under the single-key interface the contract uses."""

    make: Callable
    address: Callable  # key -> positional address of get()/put()
    entry: Callable  # key -> what ``in store`` takes
    relpath: Callable  # key -> entry path relative to the root

    def get(self, store, key):
        return store.get(*self.address(key))

    def put(self, store, key, value):
        store.put(*self.address(key), value)


KINDS = {
    "artifact": Kind(
        make=ArtifactStore,
        address=lambda key: (STAGE, key),
        entry=lambda key: (STAGE, key),
        relpath=lambda key: f"{STAGE}/{key}.art",
    ),
    "result": Kind(
        make=ResultStore,
        address=lambda key: (key,),
        entry=lambda key: key,
        relpath=lambda key: f"{key[:2]}/{key}.res",
    ),
}


@pytest.fixture(params=sorted(KINDS))
def kind(request) -> Kind:
    return KINDS[request.param]


class TestStoreContract:
    def test_round_trip_and_counters(self, kind):
        store = kind.make()
        assert kind.get(store, "k1") is None
        kind.put(store, "k1", {"value": 1})
        assert kind.get(store, "k1") == {"value": 1}
        stats = store.stats()
        assert (stats.hits, stats.misses, stats.writes) == (1, 1, 1)
        assert (stats.disk_hits, stats.corrupt_evictions) == (0, 0)
        assert (stats.write_errors, stats.single_flight_waits) == (0, 0)
        assert stats.hit_rate == 0.5
        assert stats.as_dict()["memory_size"] == 1
        assert len(store) == 1
        assert kind.entry("k1") in store

    def test_lru_order_and_bound(self, kind):
        store = kind.make(maxsize=2)
        kind.put(store, "a", 1)
        kind.put(store, "b", 2)
        assert kind.get(store, "a") == 1  # "a" becomes most recent
        kind.put(store, "c", 3)           # so "b" is the eviction victim
        assert len(store) == 2
        assert kind.get(store, "b") is None
        assert kind.get(store, "a") == 1
        assert kind.get(store, "c") == 3

    def test_maxsize_zero_keeps_nothing_in_memory(self, kind, tmp_path):
        memory_only = kind.make(maxsize=0)
        kind.put(memory_only, "a", 1)
        assert kind.get(memory_only, "a") is None
        assert len(memory_only) == 0
        # With a disk tier every lookup is served, and verified, from disk.
        on_disk = kind.make(root=tmp_path, maxsize=0)
        kind.put(on_disk, "a", 1)
        assert kind.get(on_disk, "a") == 1
        assert len(on_disk) == 0
        assert on_disk.stats().disk_hits == 1

    def test_negative_maxsize_rejected(self, kind):
        with pytest.raises(ValueError):
            kind.make(maxsize=-1)

    def test_disk_tier_survives_new_instance(self, kind, tmp_path):
        kind.put(kind.make(root=tmp_path), "k", (1.0, 2.0))
        assert (tmp_path / kind.relpath("k")).is_file()
        second = kind.make(root=tmp_path)
        assert kind.get(second, "k") == (1.0, 2.0)
        assert second.stats().disk_hits == 1
        assert kind.entry("k") in second  # the disk hit refilled memory

    def test_clear_memory_keeps_disk_and_counters(self, kind, tmp_path):
        store = kind.make(root=tmp_path)
        kind.put(store, "k", "v")
        store.clear_memory()
        assert len(store) == 0
        assert kind.get(store, "k") == "v"
        assert (store.stats().writes, store.stats().disk_hits) == (1, 1)

    def test_corrupt_entry_evicted_and_counted(self, kind, tmp_path):
        kind.put(kind.make(root=tmp_path), "k", {"good": True})
        path = tmp_path / kind.relpath("k")
        path.write_bytes(path.read_bytes()[:-3] + b"xyz")
        fresh = kind.make(root=tmp_path)
        assert kind.get(fresh, "k") is None
        stats = fresh.stats()
        assert (stats.corrupt_evictions, stats.misses) == (1, 1)
        assert not path.exists(), "corrupt entry must be deleted"

    def test_write_fault_keeps_memory_copy(self, kind, tmp_path):
        store = kind.make(root=tmp_path)
        with active_plan(FaultPlan().fail("store.write")):
            kind.put(store, "k1", {"value": 1})
        assert store.stats().write_errors == 1
        assert kind.get(store, "k1") == {"value": 1}
        assert not (tmp_path / kind.relpath("k1")).exists()
        assert kind.get(kind.make(root=tmp_path), "k1") is None
        # Healthy writes still persist.
        kind.put(store, "k2", {"value": 2})
        assert kind.get(kind.make(root=tmp_path), "k2") == {"value": 2}

    def test_read_fault_counts_as_corruption(self, kind, tmp_path):
        kind.put(kind.make(root=tmp_path), "k", "payload")
        reader = kind.make(root=tmp_path)
        with active_plan(FaultPlan().fail("store.read")):
            assert kind.get(reader, "k") is None
        assert reader.stats().corrupt_evictions == 1
        assert not (tmp_path / kind.relpath("k")).exists()

    def test_shrink(self, kind, tmp_path):
        store = kind.make(root=tmp_path)
        for index in range(4):
            kind.put(store, f"k{index}", index)
        assert store.shrink(1) == 3
        assert len(store) == 1
        assert kind.entry("k3") in store  # the most recent entry survives
        assert store.shrink(5) == 0
        with pytest.raises(ValueError):
            store.shrink(-1)
        # Shrinking trims memory only: the disk tier still serves.
        assert kind.get(store, "k0") == 0
        assert store.stats().disk_hits == 1

    def test_pickles_by_configuration(self, kind, tmp_path):
        store = kind.make(root=tmp_path, maxsize=7)
        kind.put(store, "k", 1)
        clone = pickle.loads(pickle.dumps(store))
        assert (clone.root, clone.maxsize) == (store.root, 7)
        assert len(clone) == 0  # contents travel via disk, not pickle
        assert kind.get(clone, "k") == 1
