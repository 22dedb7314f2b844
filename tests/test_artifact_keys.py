"""Property tests for the content-addressed artifact keys.

Two invariants make the flow graph trustworthy:

* **Sensitivity** — any semantically meaningful mutation (a moved cell, an
  added gate, a different overhead, another solver backend) changes the
  digest of every stage it feeds, so a stale artifact can never be served.
* **Stability** — semantically neutral round-trips (``Netlist.copy()``,
  pickling, re-parsing a canonical strategy spec such as ``hw:ring_um=8``
  versus ``hw:ring_um=8.0``) leave the digests bit-for-bit unchanged, so
  equal work is never repeated.

The digests feed :class:`~repro.flow.graph.FlowGraph` stage keys, so both
directions are also checked at the stage level through execution counters.
"""

from __future__ import annotations

import math
import pickle
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.flow import (
    ArtifactStore, Campaign, ExperimentSetup, FlowGraph, netlist_digest, placement_digest,
)
from repro.flow import artifacts
from repro.flow.artifacts import hash_parts, power_digest, thermal_map_digest
from repro.netlist import Netlist
from repro.netlist.cell import CellInstance
from repro.placement import PlacementView, assign_port_positions

_SETTINGS = dict(max_examples=20, deadline=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])


def _clone(placement):
    """An independent, content-equal copy of a placement."""
    return pickle.loads(pickle.dumps(placement))


@pytest.fixture
def hash_calls(monkeypatch):
    """Names of the functions that open a content hash, in call order."""
    calls = []
    real = artifacts._new_hasher

    def counting():
        calls.append(sys._getframe(1).f_code.co_name)
        return real()

    monkeypatch.setattr(artifacts, "_new_hasher", counting)
    return calls


class TestHashParts:
    @given(value=st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-(2 ** 63), max_value=2 ** 63 - 1),
        st.floats(allow_nan=False),
        st.text(max_size=40),
        st.binary(max_size=40),
        st.lists(st.floats(allow_nan=False), max_size=10),
        st.dictionaries(st.text(max_size=8), st.integers(), max_size=6),
    ))
    @settings(max_examples=60, deadline=None)
    def test_digest_is_deterministic(self, value):
        assert hash_parts(value) == hash_parts(value)

    @given(a=st.floats(allow_nan=False), b=st.floats(allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_distinct_floats_have_distinct_digests(self, a, b):
        """hash-equal <=> bitwise-equal for the float encoding."""
        # Bits, not ``==``: 0.0 == -0.0, yet their encodings differ.
        if np.float64(a).tobytes() == np.float64(b).tobytes():
            assert hash_parts(a) == hash_parts(b)
        else:
            assert hash_parts(a) != hash_parts(b)

    def test_types_are_tagged(self):
        # 1 vs 1.0 vs True vs "1" must all be distinct key material even
        # though Python considers some of them equal.
        digests = {hash_parts(1), hash_parts(1.0), hash_parts(True), hash_parts("1")}
        assert len(digests) == 4

    def test_containers_are_shape_sensitive(self):
        assert hash_parts([1, 2], [3]) != hash_parts([1], [2, 3])
        a = np.arange(6, dtype=float)
        assert hash_parts(a.reshape(2, 3)) != hash_parts(a.reshape(3, 2))

    def test_unsupported_types_are_rejected(self):
        with pytest.raises(TypeError):
            hash_parts(object())


class TestNoOpRoundTrips:
    def test_netlist_copy_preserves_digest(self, small_circuit):
        assert netlist_digest(small_circuit.copy()) == netlist_digest(small_circuit)

    def test_pickle_round_trip_preserves_digests(self, small_placement):
        clone = _clone(small_placement)
        assert netlist_digest(clone.netlist) == netlist_digest(small_placement.netlist)
        assert placement_digest(clone) == placement_digest(small_placement)

    def test_power_report_round_trip(self, small_power):
        clone = pickle.loads(pickle.dumps(small_power))
        assert power_digest(clone) == power_digest(small_power)

    def test_thermal_map_round_trip(self, small_thermal):
        clone = pickle.loads(pickle.dumps(small_thermal))
        assert thermal_map_digest(clone) == thermal_map_digest(small_thermal)

    def test_canonical_spec_reparse_is_a_stage_hit(
        self, small_placement, small_power, small_thermal
    ):
        """``hw:ring_um=8`` and ``hw:ring_um=8.0`` canonicalise to the same
        spec, so the second request must be served from the store."""
        flow = FlowGraph(store=ArtifactStore())
        first = flow.whitespace(
            small_placement, small_power, small_thermal, strategy="hw:ring_um=8"
        )
        again = flow.whitespace(
            small_placement, small_power, small_thermal, strategy="hw:ring_um=8.0"
        )
        assert flow.stage_executions["whitespace"] == 1
        assert flow.stage_hits["whitespace"] == 1
        assert again.key == first.key

    def test_digest_is_identity_insensitive(self, small_placement):
        """Two object graphs with equal content share one key space."""
        flow = FlowGraph(store=ArtifactStore())
        k1 = flow.synth(small_placement.netlist.copy()).key
        k2 = flow.synth(small_placement.netlist.copy()).key
        assert k1 == k2
        assert flow.stage_executions["synth"] == 1


class TestMutationSensitivity:
    @given(cell_index=st.integers(min_value=0, max_value=10_000),
           delta=st.floats(min_value=0.25, max_value=40.0))
    @settings(**_SETTINGS)
    def test_moving_any_cell_changes_placement_digest_only(
        self, small_placement, cell_index, delta
    ):
        clone = _clone(small_placement)
        cells = list(clone.netlist.cells.values())
        cell = cells[cell_index % len(cells)]
        before_placement = placement_digest(clone)
        before_netlist = netlist_digest(clone.netlist)
        cell.place(cell.x + delta, cell.y, cell.row)
        assert placement_digest(clone) != before_placement
        assert netlist_digest(clone.netlist) == before_netlist

    def test_ulp_sized_move_changes_digest(self, small_placement):
        """Even a one-ULP coordinate change is a different placement."""
        clone = _clone(small_placement)
        cell = next(iter(clone.netlist.cells.values()))
        before = placement_digest(clone)
        cell.place(math.nextafter(cell.x, math.inf), cell.y, cell.row)
        assert placement_digest(clone) != before

    @given(width=st.integers(min_value=1, max_value=6))
    @settings(**_SETTINGS)
    def test_structural_edit_changes_netlist_digest(self, small_placement, width):
        clone = _clone(small_placement)
        before = netlist_digest(clone.netlist)
        previous = None
        for i in range(width):
            cell = clone.netlist.add_cell(f"added_{i}", "INV_X1", unit="extra")
            clone.netlist.connect(f"added_net_{i}", cell.pin("A"))
            if previous is not None:
                clone.netlist.connect(f"added_net_{i}", previous.pin("Y"))
            previous = cell
        assert netlist_digest(clone.netlist) != before

    def test_raw_coordinate_write_is_seen(self, small_placement):
        """A mutable placement is never memoised: a raw ``cell.x`` write,
        with no marker call, changes the next digest and centre gather."""
        clone = _clone(small_placement)
        before = placement_digest(clone)
        cx_before = clone.cell_center_arrays()[0]
        cell = next(iter(clone.netlist.cells.values()))
        cell.x += 3.0
        assert placement_digest(clone) != before
        cx_after = clone.cell_center_arrays()[0]
        assert cx_after[0] == cx_before[0] + 3.0
        assert np.array_equal(cx_after[1:], cx_before[1:], equal_nan=True)

    def test_power_perturbation_changes_power_digest(self, small_power):
        from dataclasses import replace

        from repro.power import PowerReport

        powers = dict(small_power.cell_powers)
        name = next(iter(powers))
        entry = powers[name]
        powers[name] = replace(
            entry, switching=math.nextafter(entry.switching, math.inf)
        )
        perturbed = PowerReport(
            powers, small_power.frequency_hz, small_power.temperature
        )
        assert power_digest(perturbed) != power_digest(small_power)


class TestStageKeySensitivity:
    def test_overhead_and_strategy_change_whitespace_key(
        self, small_placement, small_power, small_thermal
    ):
        flow = FlowGraph(store=ArtifactStore())
        base = flow.whitespace(small_placement, small_power, small_thermal,
                               strategy="eri", area_overhead=0.15)
        other_overhead = flow.whitespace(small_placement, small_power, small_thermal,
                                         strategy="eri", area_overhead=0.20)
        other_strategy = flow.whitespace(small_placement, small_power, small_thermal,
                                         strategy="default", area_overhead=0.15)
        keys = {base.key, other_overhead.key, other_strategy.key}
        assert len(keys) == 3
        assert flow.stage_executions["whitespace"] == 3

    def test_solver_method_changes_thermal_key(
        self, small_placement, small_power
    ):
        flow = FlowGraph(store=ArtifactStore())
        legal = flow.legalize(small_placement, small_power, nx=12, ny=12)
        lu = flow.thermal(legal.power_map, legal.grid, method="lu")
        mg = flow.thermal(legal.power_map, legal.grid, method="multigrid")
        assert lu.key != mg.key
        assert flow.stage_executions["thermal"] == 2
        # Same method again: pure hit.
        flow.thermal(legal.power_map, legal.grid, method="lu")
        assert flow.stage_executions["thermal"] == 2
        assert flow.stage_hits["thermal"] == 1

    def test_grid_resolution_changes_legalize_key(
        self, small_placement, small_power
    ):
        flow = FlowGraph(store=ArtifactStore())
        a = flow.legalize(small_placement, small_power, nx=12, ny=12)
        b = flow.legalize(small_placement, small_power, nx=16, ny=16)
        assert a.key != b.key
        assert flow.stage_executions["legalize"] == 2

    def test_temperature_changes_sta_key(self, small_placement):
        flow = FlowGraph(store=ArtifactStore())
        cold = flow.sta(small_placement, temperature=40.0)
        hot = flow.sta(small_placement, temperature=math.nextafter(40.0, math.inf))
        assert cold.key != hot.key
        assert flow.stage_executions["sta"] == 2


class TestPortMoves:
    def test_moving_one_port_changes_placement_digest(self, small_placement):
        clone = _clone(small_placement)
        before = placement_digest(clone)
        port = next(iter(clone.netlist.ports.values()))
        clone.netlist.place_port(port, port.x + 1.0, port.y)
        assert placement_digest(clone) != before

    def test_reassigning_port_positions_changes_placement_digest(self, small_placement):
        """The global placer's port spreading must not leave a stale key."""
        clone = _clone(small_placement)
        before = placement_digest(clone)
        assign_port_positions(clone.netlist, clone.floorplan.with_extra_rows(4))
        assert placement_digest(clone) != before


class TestPlacementStamps:
    def test_move_in_same_design_invalidates_memo(self, small_placement, hash_calls):
        a = _clone(small_placement)
        digest = placement_digest(a)
        cell = next(iter(a.netlist.cells.values()))
        cell.place(cell.x + 1.0, cell.y, cell.row)
        hash_calls.clear()
        assert placement_digest(a) != digest
        assert hash_calls == ["placement_digest"]

    def test_concurrent_moves_never_leave_a_stale_digest(self, small_placement):
        """One mover and one hasher thread per design, four threads on
        fewer cores with a tiny switch interval: once the movers finish,
        every memoised digest and coordinate gather matches a fresh one."""
        designs = [_clone(small_placement) for _ in range(2)]
        done = [threading.Event() for _ in designs]

        def move(index):
            cells = list(designs[index].netlist.cells.values())[:100]
            for _ in range(30):
                for cell in cells:
                    cell.place(cell.x + 0.25, cell.y, cell.row)
            done[index].set()

        def hash_until_done(index):
            while not done[index].is_set():
                placement_digest(designs[index])
                designs[index].cell_center_arrays()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(fn, i) for i in range(2) for fn in (move, hash_until_done)]
                for future in futures:
                    future.result(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        for design in designs:
            fresh = _clone(design)
            assert placement_digest(design) == placement_digest(fresh)
            for got, want in zip(design.cell_center_arrays(), fresh.cell_center_arrays()):
                np.testing.assert_array_equal(got, want)

    def test_standalone_cell_pickle_leaves_its_design_behind(self, small_circuit):
        """A pickled cell carries its own slots (and, if connected, the net
        objects its pins reach) but never the owning netlist."""
        design = small_circuit.copy()
        cell = design.add_cell("lonely", "INV_X1")
        cell.place(1.0, 2.0, 0)
        blob = pickle.dumps(cell)
        assert b"_netlist_from_state" not in blob
        assert len(blob) < 2048
        restored = pickle.loads(blob)
        assert (restored.name, restored.x, restored.y, restored.row) == ("lonely", 1.0, 2.0, 0)
        restored.place(3.0, 2.0, 0)  # a free-standing cell still moves


class TestEncodingBoundaries:
    def _netlist(self, library, cell_names, sinks_per_net=()):
        netlist = Netlist("enc", library)
        for name in cell_names:
            netlist.add_cell(name, "INV_X1")
        for net, sinks in sinks_per_net:
            for name in sinks:
                netlist.connect(net, netlist.cells[name].pin("A"))
        return netlist

    def test_cell_name_boundaries(self, library):
        assert netlist_digest(self._netlist(library, ["ab", "c"])) != netlist_digest(
            self._netlist(library, ["a", "bc"])
        )

    def test_sink_list_boundaries(self, library):
        names = ["x", "y", "z"]
        first = self._netlist(library, names, [("n1", ["x", "y"]), ("n2", ["z"])])
        second = self._netlist(library, names, [("n1", ["x"]), ("n2", ["y", "z"])])
        assert netlist_digest(first) != netlist_digest(second)

    def test_string_columns_separate_joins_and_none(self):
        def column(values):
            hasher = artifacts._new_hasher()
            artifacts._feed_strings(hasher, values)
            return hasher.hexdigest()

        assert column(["ab", "c"]) != column(["a", "bc"])
        assert column([None]) != column([""])
        assert column(["a", None]) != column([None, "a"])

    def test_unplaced_cell_differs_from_one_at_zero(self, small_placement):
        at_zero, unplaced = _clone(small_placement), _clone(small_placement)
        next(iter(at_zero.netlist.cells.values())).x = 0.0
        next(iter(unplaced.netlist.cells.values())).x = None
        assert placement_digest(at_zero) != placement_digest(unplaced)

    def test_signed_zero_is_a_different_coordinate(self, small_placement):
        """Raw float64 bytes: ``-0.0`` and ``0.0`` hash apart."""
        pos, neg = _clone(small_placement), _clone(small_placement)
        next(iter(pos.netlist.cells.values())).x = 0.0
        next(iter(neg.netlist.cells.values())).x = -0.0
        assert placement_digest(pos) != placement_digest(neg)


@pytest.fixture(scope="module")
def sweep_setup(small_circuit, small_workload):
    return ExperimentSetup.prepare(
        small_circuit.copy(), small_workload, num_cycles=10, batch_size=8, seed=7,
    )


class TestHashCounts:
    """A batched sweep hashes each placement exactly once (a count gate,
    not a wall-clock floor)."""

    STRATEGIES = ("default", "eri", "hw", "hybrid", "gradient")

    @pytest.mark.parametrize("max_workers", [1, 2])
    def test_one_placement_hash_per_transformed_placement(
        self, sweep_setup, hash_calls, max_workers
    ):
        placement_digest(sweep_setup.placement)  # the baseline is already hashed
        hash_calls.clear()
        flow = FlowGraph()
        campaign = Campaign(
            sweep_setup, strategies=self.STRATEGIES, overheads=(0.1, 0.2),
            analyze_timing=True, cache=flow.solver_cache, flow=flow,
        )
        result = campaign.run(max_workers=max_workers)
        assert len(result.records) == 10
        assert flow.stage_executions["whitespace"] == 10
        assert hash_calls.count("placement_digest") == 10


class TestCopyCounts:
    """A batched sweep relaxes once per overhead and copies the netlist
    only inside the wrapper transforms, never re-levelizing: every copy
    shares the baseline's compiled connectivity and dies with its
    transform (count gates, not wall-clock floors)."""

    STRATEGIES = ("default", "eri", "hw", "hybrid", "gradient")

    @pytest.mark.parametrize("max_workers", [1, 2])
    def test_copies_relaxations_and_no_new_levelization(
        self, sweep_setup, monkeypatch, max_workers
    ):
        from repro.core import builtin_strategies, default_spread
        from repro.netlist.compiled import Connectivity

        counts = {"copy": 0, "levelize": 0, "place_design": 0, "apply_default_spread": 0}
        lock = threading.Lock()

        def counting(name, real):
            def wrapper(*args, **kwargs):
                with lock:
                    counts[name] += 1
                return real(*args, **kwargs)
            return wrapper

        sweep_setup.placement.netlist.compiled().levels  # built by prepare
        monkeypatch.setattr(Netlist, "copy", counting("copy", Netlist.copy))
        monkeypatch.setattr(
            Connectivity, "_levelize", counting("levelize", Connectivity._levelize)
        )
        monkeypatch.setattr(
            default_spread, "place_design",
            counting("place_design", default_spread.place_design),
        )
        monkeypatch.setattr(
            builtin_strategies, "apply_default_spread",
            counting("apply_default_spread", builtin_strategies.apply_default_spread),
        )
        flow = FlowGraph()
        campaign = Campaign(
            sweep_setup, strategies=self.STRATEGIES, overheads=(0.1, 0.3),
            analyze_timing=True, cache=flow.solver_cache, flow=flow,
        )
        result = campaign.run(max_workers=max_workers)
        assert len(result.records) == 10
        # One relaxation per overhead (shared by default and hw), one copy
        # per relaxation and one per wrapper point (hw, hybrid).
        assert counts == {
            "copy": 6, "levelize": 0, "place_design": 2, "apply_default_spread": 2,
        }
        assert flow.stage_executions["relax"] == 2


@pytest.fixture(scope="module", params=[1, 2], ids=["workers1", "workers2"])
def filler_sweep(request, sweep_setup):
    """A 5 x 2 sweep counting filler cell objects, filler materializations
    and content-hash openings, keeping every whitespace artifact."""
    counts = {"filler_cells": 0, "add_fillers": 0}
    hashed, artifacts_seen = [], []
    lock = threading.Lock()
    real_init, real_add_fillers = CellInstance.__init__, Netlist.add_fillers
    real_hasher, real_whitespace = artifacts._new_hasher, FlowGraph.whitespace

    def init(self, name, master, *args, **kwargs):
        if master.is_filler:
            with lock:
                counts["filler_cells"] += 1
        real_init(self, name, master, *args, **kwargs)

    def add_fillers(self, *args, **kwargs):
        with lock:
            counts["add_fillers"] += 1
        return real_add_fillers(self, *args, **kwargs)

    def hasher():
        with lock:
            hashed.append(sys._getframe(1).f_code.co_name)
        return real_hasher()

    def whitespace(self, *args, **kwargs):
        artifact = real_whitespace(self, *args, **kwargs)
        with lock:
            artifacts_seen.append(artifact)
        return artifact

    placement_digest(sweep_setup.placement)  # the baseline is already hashed
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(CellInstance, "__init__", init)
        patch.setattr(Netlist, "add_fillers", add_fillers)
        patch.setattr(artifacts, "_new_hasher", hasher)
        patch.setattr(FlowGraph, "whitespace", whitespace)
        flow = FlowGraph()
        result = Campaign(
            sweep_setup, strategies=TestCopyCounts.STRATEGIES, overheads=(0.1, 0.3),
            analyze_timing=True, cache=flow.solver_cache, flow=flow,
        ).run(max_workers=request.param)
    assert len(result.records) == len(artifacts_seen) == 10
    return counts, hashed, artifacts_seen


class TestFillerCounts:
    """Fillers stay a placement-owned block on the sweep path: no filler
    cell object, no materialization and no re-hash of a transformed
    netlist (count gates, not wall-clock floors)."""

    def test_no_filler_cell_objects(self, filler_sweep):
        counts, _, _ = filler_sweep
        assert counts == {"filler_cells": 0, "add_fillers": 0}

    def test_transformed_netlists_are_never_rehashed(self, filler_sweep):
        _, hashed, _ = filler_sweep
        assert hashed.count("netlist_digest") == 0
        assert hashed.count("placement_digest") == 10

    def test_every_artifact_is_a_view_over_the_baseline_netlist(
        self, filler_sweep, sweep_setup
    ):
        _, _, seen = filler_sweep
        for ws in seen:
            assert isinstance(ws.placement, PlacementView)
            assert ws.placement.netlist is sweep_setup.netlist

    def test_every_point_owns_its_fillers_as_a_block(self, filler_sweep):
        _, _, seen = filler_sweep
        assert sum(ws.num_fillers for ws in seen) > 0
        for ws in seen:
            assert len(ws.placement.fillers) == ws.num_fillers


def test_public_hotspot_wrapper_leaves_its_input_untouched(
    small_placement, small_power, small_thermal
):
    """The wrapper's in-place core must not leak into the copying form: a
    filled input (the core first strips fillers) keeps its digest and rows."""
    from repro.core import apply_hotspot_wrapper, detect_hotspots
    from repro.placement import insert_fillers

    hotspots = detect_hotspots(
        small_thermal, small_placement, power=small_power, threshold_fraction=0.85,
    )
    filled = _clone(small_placement)
    insert_fillers(filled)
    digest = placement_digest(filled)
    rows = [[cell.name for cell in row.cells] for row in filled.rows]
    result = apply_hotspot_wrapper(filled, hotspots)
    assert result.placement is not filled and result.wrapped
    assert placement_digest(filled) == digest
    assert [[cell.name for cell in row.cells] for row in filled.rows] == rows
