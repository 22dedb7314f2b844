"""Equivalence suite: the compiled array engine versus the reference paths.

Every fast path introduced by the compiled structure-of-arrays engine must
reproduce the reference (per-object loop) implementation: identical toggle
and one counts from the logic simulator, per-cell power to float tolerance,
identical power maps and cell-temperature lookups, and the same STA critical
path.  The designs used here are randomized synthetic DAGs (plus the shared
scaled-down benchmark), including the dangling-pin edge cases and
post-mutation cache invalidation.
"""

import math
import pickle
import random
import sys
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core import apply_row_insertions
from repro.engine import use_engine
from repro.netlist import CompiledNetlist, Netlist, default_library
from repro.netlist.compiled import Connectivity
from repro.placement import insert_fillers, place_design, remove_fillers
from repro.power import (
    LogicSimulator,
    PowerModel,
    SwitchingActivity,
    build_power_map,
    generate_vectors,
)
from repro.power.power_map import PowerMap
from repro.thermal import (
    ThermalGrid,
    ThermalNetwork,
    cell_temperature_array,
    cell_temperatures,
    default_package,
    simulate_placement,
    simulate_with_leakage_feedback,
)
from repro.timing import DelayModel, StaticTimingAnalyzer

COMB_MASTERS = (
    "INV_X1", "INV_X2", "BUF_X1", "NAND2_X1", "NAND3_X1", "NOR2_X1",
    "NOR3_X1", "AND2_X1", "OR2_X1", "XOR2_X1", "XNOR2_X1", "AOI21_X1",
    "OAI21_X1", "MUX2_X1", "HA_X1", "FA_X1",
)


def random_netlist(seed: int, num_gates: int = 60, num_inputs: int = 6,
                   num_ffs: int = 4) -> Netlist:
    """A random acyclic design covering every master plus dangling pins."""
    rng = random.Random(seed)
    library = default_library()
    netlist = Netlist(f"rand_{seed}", library)

    nets = []
    for i in range(num_inputs):
        name = f"in{i}"
        netlist.add_port(name, "input")
        netlist.connect_port(name, name)
        nets.append(name)

    ffs = []
    for i in range(num_ffs):
        ff = netlist.add_cell(f"ff{i}", "DFF_X1")
        q_net = f"q{i}"
        netlist.connect(q_net, ff.pin("Q"))
        nets.append(q_net)
        ffs.append(ff)

    gate_outputs = []
    for g in range(num_gates):
        master = library[rng.choice(COMB_MASTERS)]
        inst = netlist.add_cell(f"g{g}", master)
        for pin_name in master.inputs:
            netlist.connect(rng.choice(nets), inst.pin(pin_name))
        for k, pin_name in enumerate(master.outputs):
            out = f"n{g}_{k}"
            netlist.connect(out, inst.pin(pin_name))
            nets.append(out)
            gate_outputs.append(out)

    for ff in ffs:
        netlist.connect(rng.choice(gate_outputs), ff.pin("D"))

    for i in range(3):
        po = f"out{i}"
        netlist.add_port(po, "output")
        netlist.connect_port(rng.choice(gate_outputs), po)

    # Edge cases: an input pin left unconnected, an output pin left
    # unconnected, and a net with sinks the simulator never drives.
    half = netlist.add_cell("half_wired", "NAND2_X1")
    netlist.connect("in0", half.pin("A"))
    netlist.connect("half_out", half.pin("Y"))
    lonely = netlist.add_cell("lonely", "INV_X1")
    netlist.connect("in1", lonely.pin("A"))
    floater = netlist.add_cell("floater", "INV_X1")
    netlist.connect("undriven_net", floater.pin("A"))
    netlist.connect("floater_out", floater.pin("Y"))
    return netlist


def simulate_both(netlist, seed=11, num_cycles=10, batch_size=4, warmup=2):
    vectors = generate_vectors(
        netlist, {}, num_cycles=num_cycles, batch_size=batch_size, seed=seed
    )
    sim = LogicSimulator(netlist)
    reference = sim.simulate(vectors, warmup_cycles=warmup, engine="reference")
    compiled = sim.simulate(vectors, warmup_cycles=warmup, engine="compiled")
    return reference, compiled


def assert_simulations_equal(reference, compiled):
    assert compiled.num_cycles == reference.num_cycles
    assert compiled.batch_size == reference.batch_size
    assert set(compiled.one_counts) == set(reference.one_counts)
    for net, count in reference.one_counts.items():
        assert compiled.one_counts[net] == count, net
    assert set(compiled.toggle_counts) == set(reference.toggle_counts)
    for net, count in reference.toggle_counts.items():
        assert compiled.toggle_counts[net] == count, net
    assert set(compiled.final_values) == set(reference.final_values)
    for net, arr in reference.final_values.items():
        assert np.array_equal(compiled.final_values[net], arr), net


class TestLogicSimEquivalence:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_random_designs(self, seed):
        netlist = random_netlist(seed)
        reference, compiled = simulate_both(netlist, seed=seed + 100)
        assert_simulations_equal(reference, compiled)

    def test_small_benchmark(self, small_circuit):
        reference, compiled = simulate_both(small_circuit, num_cycles=8)
        assert_simulations_equal(reference, compiled)

    def test_no_warmup_and_single_cycle(self):
        netlist = random_netlist(7)
        reference, compiled = simulate_both(netlist, num_cycles=1, warmup=0)
        assert_simulations_equal(reference, compiled)

    def test_evaluate_combinational(self):
        netlist = random_netlist(5, num_ffs=2)
        sim = LogicSimulator(netlist)
        inputs = {f"in{i}": np.array([bool(i % 2), True]) for i in range(6)}
        registers = {"ff0": np.array([True, False])}
        reference = sim.evaluate_combinational(inputs, registers, engine="reference")
        compiled = sim.evaluate_combinational(inputs, registers, engine="compiled")
        assert set(compiled) == set(reference)
        for net, arr in reference.items():
            assert np.array_equal(compiled[net], arr), net

    def test_missing_stimulus_raises(self):
        netlist = random_netlist(9)
        vectors = generate_vectors(
            netlist, {}, num_cycles=4, batch_size=2, seed=0
        )
        del vectors.values["in0"]
        sim = LogicSimulator(netlist)
        with pytest.raises(KeyError):
            sim.simulate(vectors, engine="compiled")


class TestPowerEquivalence:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_per_cell_power_matches(self, seed):
        netlist = random_netlist(seed)
        _, result = simulate_both(netlist, seed=seed)
        activity = SwitchingActivity.from_simulation(netlist, result)
        model = PowerModel()
        reference = model.estimate(netlist, activity, engine="reference")
        compiled = model.estimate(netlist, activity, engine="compiled")
        for name in netlist.cells:
            assert compiled.power_of(name) == pytest.approx(
                reference.power_of(name), rel=1e-12, abs=1e-20
            ), name
        assert compiled.total() == pytest.approx(reference.total(), rel=1e-12)
        assert compiled.total_dynamic() == pytest.approx(
            reference.total_dynamic(), rel=1e-12
        )
        assert compiled.total_leakage() == pytest.approx(
            reference.total_leakage(), rel=1e-12
        )

    def test_report_breakdowns_match(self):
        netlist = random_netlist(4)
        activity = SwitchingActivity.uniform(netlist, 0.3)
        model = PowerModel(temperature=60.0)
        reference = model.estimate(netlist, activity, engine="reference")
        compiled = model.estimate(netlist, activity, engine="compiled")
        for name, breakdown in reference.cell_powers.items():
            fast = compiled.cell_powers[name]
            assert fast.switching == pytest.approx(breakdown.switching, rel=1e-12, abs=1e-20)
            assert fast.internal == pytest.approx(breakdown.internal, rel=1e-12, abs=1e-20)
            assert fast.leakage == pytest.approx(breakdown.leakage, rel=1e-12, abs=1e-20)

    def test_temperature_map_matches(self):
        netlist = random_netlist(6)
        activity = SwitchingActivity.uniform(netlist, 0.25)
        model = PowerModel()
        rng = random.Random(0)
        temps = {name: 25.0 + 60.0 * rng.random() for name in netlist.cells}
        reference = model.estimate_with_temperature_map(
            netlist, activity, temps, engine="reference"
        )
        compiled = model.estimate_with_temperature_map(
            netlist, activity, temps, engine="compiled"
        )
        assert compiled.total() == pytest.approx(reference.total(), rel=1e-12)
        assert compiled.temperature == pytest.approx(reference.temperature, rel=1e-12)

    def test_total_for_names_extends_with_zeros(self):
        netlist = random_netlist(8)
        activity = SwitchingActivity.uniform(netlist, 0.2)
        report = PowerModel().estimate(netlist, activity, engine="compiled")
        names = list(netlist.cells) + ["added_filler_1", "added_filler_2"]
        totals = report.total_for_names(names)
        assert totals.shape == (len(names),)
        assert totals[-1] == 0.0 and totals[-2] == 0.0
        assert totals[: len(netlist.cells)].sum() == pytest.approx(report.total())


class TestBinningEquivalence:
    @pytest.fixture(scope="class")
    def placed_design(self):
        netlist = random_netlist(12, num_gates=120)
        placement = place_design(netlist, utilization=0.8)
        activity = SwitchingActivity.uniform(netlist, 0.3)
        power = PowerModel().estimate(netlist, activity)
        return placement, power

    @pytest.mark.parametrize("over_die", [True, False])
    def test_power_map_matches(self, placed_design, over_die):
        placement, power = placed_design
        reference = build_power_map(
            placement, power, nx=16, ny=12, over_die=over_die, engine="reference"
        )
        compiled = build_power_map(
            placement, power, nx=16, ny=12, over_die=over_die, engine="compiled"
        )
        np.testing.assert_allclose(
            compiled.power_w, reference.power_w, rtol=1e-12, atol=1e-18
        )

    def test_cell_temperatures_match(self, placed_design):
        placement, power = placed_design
        thermal_map = simulate_placement(placement, power, nx=16, ny=16)
        reference = cell_temperatures(
            placement, thermal_map, nx=16, ny=16, engine="reference"
        )
        compiled = cell_temperatures(
            placement, thermal_map, nx=16, ny=16, engine="compiled"
        )
        assert set(compiled) == set(reference)
        for name, temp in reference.items():
            assert compiled[name] == pytest.approx(temp, rel=1e-12), name

    def test_cell_temperature_array_alignment(self, placed_design):
        placement, power = placed_design
        thermal_map = simulate_placement(placement, power, nx=16, ny=16)
        temps = cell_temperature_array(
            placement, thermal_map, nx=16, ny=16, default=25.0
        )
        comp = placement.netlist.compiled()
        by_name = cell_temperatures(placement, thermal_map, nx=16, ny=16)
        for i, name in enumerate(comp.cell_names):
            assert temps[i] == pytest.approx(by_name.get(name, 25.0), rel=1e-12)

    def test_leakage_feedback_matches(self, placed_design):
        placement, _ = placed_design
        activity = SwitchingActivity.uniform(placement.netlist, 0.3)
        model = PowerModel()
        with use_engine("reference"):
            reference = simulate_with_leakage_feedback(
                placement, activity, model, nx=16, ny=16, iterations=3
            )
        with use_engine("compiled"):
            compiled = simulate_with_leakage_feedback(
                placement, activity, model, nx=16, ny=16, iterations=3
            )
        np.testing.assert_allclose(
            compiled.temperatures, reference.temperatures, rtol=1e-9
        )

    def test_placement_move_invalidates_coordinate_cache(self, placed_design):
        placement, power = placed_design
        build_power_map(placement, power, nx=16, ny=16)
        # Move every cell in one row; the epoch-keyed cache must refresh.
        row = max(placement.rows, key=lambda r: len(r.cells))
        row.pack()
        reference = build_power_map(placement, power, nx=16, ny=16, engine="reference")
        compiled = build_power_map(placement, power, nx=16, ny=16, engine="compiled")
        np.testing.assert_allclose(
            compiled.power_w, reference.power_w, rtol=1e-12, atol=1e-18
        )


class TestStaEquivalence:
    @pytest.mark.parametrize("seed", [1, 3, 5])
    def test_unplaced_design(self, seed):
        netlist = random_netlist(seed)
        analyzer = StaticTimingAnalyzer(netlist, delay_model=DelayModel(temperature=45.0))
        reference = analyzer.analyze(engine="reference")
        compiled = analyzer.analyze(engine="compiled")
        assert compiled.critical_path_ps == pytest.approx(
            reference.critical_path_ps, rel=1e-12
        )
        assert compiled.worst_slack_ps == pytest.approx(
            reference.worst_slack_ps, rel=1e-12
        )
        assert compiled.num_endpoints == reference.num_endpoints
        assert compiled.worst_path.endpoint == reference.worst_path.endpoint
        assert compiled.worst_path.through_cells == reference.worst_path.through_cells

    def test_placed_design(self):
        netlist = random_netlist(21, num_gates=100)
        place_design(netlist, utilization=0.8)
        analyzer = StaticTimingAnalyzer(netlist)
        reference = analyzer.analyze(engine="reference")
        compiled = analyzer.analyze(engine="compiled")
        assert compiled.critical_path_ps == pytest.approx(
            reference.critical_path_ps, rel=1e-12
        )
        assert compiled.worst_path.endpoint == reference.worst_path.endpoint
        assert compiled.worst_path.through_cells == reference.worst_path.through_cells

    def test_small_benchmark_with_temperature(self, small_circuit):
        analyzer = StaticTimingAnalyzer(small_circuit)
        reference = analyzer.analyze(temperature=85.0, engine="reference")
        compiled = analyzer.analyze(temperature=85.0, engine="compiled")
        assert compiled.critical_path_ps == pytest.approx(
            reference.critical_path_ps, rel=1e-12
        )
        assert compiled.worst_path.endpoint == reference.worst_path.endpoint


class TestCacheInvalidation:
    def test_mutation_recompiles(self):
        netlist = random_netlist(30)
        first = netlist.compiled()
        assert netlist.compiled() is first  # cached while unchanged

        reference, compiled = simulate_both(netlist, seed=1)
        assert_simulations_equal(reference, compiled)

        # Structural mutation through the Netlist API: a new gate tapping an
        # existing net and driving a new one.
        inst = netlist.add_cell("late_gate", "NOR2_X1")
        netlist.connect("n0_0", inst.pin("A"))
        netlist.connect("in2", inst.pin("B"))
        netlist.connect("late_net", inst.pin("Y"))

        second = netlist.compiled()
        assert second is not first
        assert "late_net" in second.net_index

        reference, compiled = simulate_both(netlist, seed=2)
        assert_simulations_equal(reference, compiled)

    def test_cell_removal_recompiles(self):
        netlist = random_netlist(31)
        netlist.compiled()
        before = netlist.compiled().num_cells
        netlist.remove_cell("lonely")
        after = netlist.compiled().num_cells
        assert after == before - 1
        reference, compiled = simulate_both(netlist, seed=3)
        assert_simulations_equal(reference, compiled)

    def test_power_after_filler_insertion(self):
        """Reports stay usable when the placed copy gains filler cells."""
        netlist = random_netlist(32)
        activity = SwitchingActivity.uniform(netlist, 0.2)
        report = PowerModel().estimate(netlist, activity)
        total_before = report.total()
        netlist.add_cell("fill_late", "FILL_X4")
        totals = report.total_for_names(list(netlist.cells))
        assert totals[-1] == 0.0
        assert totals.sum() == pytest.approx(total_before)


def compiled_sections(comp):
    """Every section of a compiled view, in comparable form."""
    terminals = comp.connectivity.terminals(comp.netlist)
    return {
        "num_cells": comp.num_cells,
        "num_nets": comp.num_nets,
        "num_slots": comp.num_slots,
        "cell_names": comp.cell_names,
        "cell_index": comp.cell_index,
        "net_names": comp.net_names,
        "net_index": comp.net_index,
        "pi_ports": comp.pi_ports,
        "unit_names": comp.unit_names,
        "unit_codes": comp.unit_codes,
        "cell_width_um": comp.cell_width_um,
        "cell_area_um2": comp.cell_area_um2,
        "is_filler": comp.is_filler,
        "leakage_nw": comp.leakage_nw,
        "internal_energy_fj": comp.internal_energy_fj,
        "intrinsic_delay_ps": comp.intrinsic_delay_ps,
        "drive_res_kohm": comp.drive_res_kohm,
        "is_sequential": comp.is_sequential,
        "sink_pin_cap_ff": comp.sink_pin_cap_ff,
        "num_sinks": comp.num_sinks,
        "outpin_cell": comp.outpin_cell,
        "outpin_net": comp.outpin_net,
        "seq_cells": comp.seq_cells,
        "seq_d_slot": comp.seq_d_slot,
        "seq_q_slot": comp.seq_q_slot,
        "driven_slots": comp.driven_slots,
        "levels": [
            [(g.master.name, g.op, g.cells, g.fanin, g.out) for g in level]
            for level in comp.levels
        ],
        "launch_cell": comp.launch_cell,
        "launch_net": comp.launch_net,
        "ep_names": comp.ep_names,
        "ep_slot": comp.ep_slot,
        "ep_setup": comp.ep_setup,
        "terminals": tuple(terminals),
        "cell_centers": comp.cell_center_arrays(),
        "net_hpwl_um": comp.net_hpwl_um(),
    }


def assert_same_sections(got, want, path="compiled"):
    """Exact (bitwise, dtype-aware) equality of nested section data."""
    if isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray), path
        assert got.dtype == want.dtype and got.shape == want.shape, path
        assert np.array_equal(got, want, equal_nan=want.dtype.kind == "f"), path
    elif isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), path
        for key in want:
            assert_same_sections(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, (list, tuple)):
        assert type(got) is type(want) and len(got) == len(want), path
        for i, (a, b) in enumerate(zip(got, want)):
            assert_same_sections(a, b, f"{path}[{i}]")
    else:
        assert got == want, path


def assert_matches_fresh(netlist):
    """``netlist.compiled()`` equals a fresh, unshared compilation."""
    assert_same_sections(
        compiled_sections(netlist.compiled()),
        compiled_sections(CompiledNetlist(netlist)),
    )


def _connect_spare_input(netlist):
    netlist.connect("in1", netlist.cells["half_wired"].pin("B"))


def _disconnect_sink(netlist):
    pin = netlist.cells["lonely"].pin("A")
    pin.net.sink_pins.remove(pin)
    pin.net = None
    netlist.invalidate_compiled()


def _add_logic_cell(netlist):
    gate = netlist.add_cell("late_gate", "NOR2_X1")
    netlist.connect("in2", gate.pin("A"))


def _remove_logic_cell(netlist):
    netlist.remove_cell("lonely")


def _add_net(netlist):
    netlist.add_net("late_net")


def _add_port(netlist):
    netlist.add_port("late_out", "output")


class TestSharedConnectivity:
    """Copies share the compiled connectivity until their structure diverges.

    In every case the shared view must equal a fresh ``CompiledNetlist``
    exactly; the no-edit cases must share the connectivity object (``is``)
    and the edit cases must not.
    """

    @pytest.fixture()
    def placed(self):
        netlist = random_netlist(70, num_gates=80)
        placement = place_design(netlist, utilization=0.7)
        placement.netlist.compiled().levels  # sections built on the source
        return placement

    @staticmethod
    def _connectivity(netlist):
        return netlist.compiled().connectivity

    def test_plain_copy(self, placed):
        clone = placed.netlist.copy()
        assert self._connectivity(clone) is self._connectivity(placed.netlist)
        assert_matches_fresh(clone)

    def test_copy_of_uncompiled_netlist_shares_and_builds_once(self):
        source = random_netlist(71)
        clone = source.copy()
        assert self._connectivity(clone) is self._connectivity(source)
        assert_matches_fresh(clone)
        assert_matches_fresh(source)

    def test_copy_plus_fillers(self, placed):
        copy = placed.copy()
        inserted = insert_fillers(copy)
        assert inserted and copy.fillers is inserted
        assert list(copy.netlist.cells) == list(placed.netlist.cells)
        assert self._connectivity(copy.netlist) is self._connectivity(placed.netlist)
        assert_matches_fresh(copy.netlist)

    def test_materialized_fillers_drop_the_share(self, placed):
        copy = placed.copy()
        insert_fillers(copy)
        cells = copy.materialize_fillers()
        assert cells and copy.netlist.compiled().num_cells == len(copy.netlist.cells)
        assert self._connectivity(copy.netlist) is not self._connectivity(placed.netlist)
        assert_matches_fresh(copy.netlist)
        assert_matches_fresh(placed.netlist)

    def test_copy_after_eri(self, placed):
        result = apply_row_insertions(placed, [0, 2, 2, 5])
        moved = result.placement.to_placement().netlist
        assert result.num_fillers > 0
        port = next(iter(moved.ports.values()))
        port.x, port.y = port.x + 3.0, port.y + 7.0
        assert self._connectivity(moved) is self._connectivity(placed.netlist)
        assert_matches_fresh(moved)
        assert_matches_fresh(placed.netlist)  # the source's ports did not move

    def test_copy_after_remove_fillers(self, placed):
        filled = placed.copy()
        block = insert_fillers(filled)
        copy = filled.copy()
        assert copy.fillers is block  # the copy carries the block
        assert remove_fillers(copy) == len(block) > 0
        assert not copy.fillers and filled.fillers is block
        assert self._connectivity(copy.netlist) is self._connectivity(placed.netlist)
        assert_matches_fresh(copy.netlist)
        assert_matches_fresh(filled.netlist)
        # Removing materialized filler cells is a structural edit.
        filled.materialize_fillers()
        assert remove_fillers(filled) == len(block)
        assert self._connectivity(filled.netlist) is not self._connectivity(placed.netlist)
        assert_matches_fresh(filled.netlist)

    def test_source_edited_after_the_copy(self):
        source = random_netlist(72)
        clone = source.copy()
        shared = clone._connectivity
        _add_logic_cell(source)
        # Sections are built only now, and from the clone: the edit on the
        # source must not leak into them.
        assert self._connectivity(clone) is shared
        assert self._connectivity(source) is not shared
        assert_matches_fresh(clone)
        assert_matches_fresh(source)

    @pytest.mark.parametrize("edit", [
        _connect_spare_input, _disconnect_sink, _add_logic_cell,
        _remove_logic_cell, _add_net, _add_port,
    ])
    def test_structural_edit_drops_the_share(self, placed, edit):
        copy = placed.copy()
        insert_fillers(copy)
        edit(copy.netlist)
        assert self._connectivity(copy.netlist) is not self._connectivity(placed.netlist)
        assert_matches_fresh(copy.netlist)
        assert_matches_fresh(placed.netlist)

    def test_stale_view_refuses_to_read_an_edited_netlist(self):
        netlist = random_netlist(73)
        view = netlist.compiled()
        netlist.add_cell("fill_late", "FILL_X4")  # any cell edit, fillers too
        with pytest.raises(RuntimeError, match="stale"):
            view.levels
        view = netlist.compiled()
        netlist.remove_cell("lonely")
        with pytest.raises(RuntimeError, match="stale"):
            view.levels
        assert_matches_fresh(netlist)

    def test_add_fillers_rejects_taken_names_and_logic_masters(self):
        netlist = random_netlist(74)
        fill = netlist.library["FILL_X4"]
        version = netlist._version
        with pytest.raises(ValueError, match="duplicate"):
            netlist.add_fillers(["g0"], [fill])
        with pytest.raises(ValueError, match="duplicate"):
            netlist.add_fillers(["f", "f"], [fill, fill])
        with pytest.raises(ValueError, match="filler"):
            netlist.add_fillers(["f"], [netlist.library["INV_X1"]])
        assert netlist._version == version and "f" not in netlist.cells

    def test_concurrent_requests_build_each_section_once(self, monkeypatch):
        """More threads than cores race for one connectivity's sections."""
        placed = random_netlist(75, num_gates=120)
        place_design(placed, utilization=0.8)
        # Placing compiles some sections; a pickle round trip keeps the
        # coordinates and starts a connectivity with none built.
        source = pickle.loads(pickle.dumps(placed))
        copies = [source.copy() for _ in range(8)]
        calls = Counter()
        lock = threading.Lock()
        for name in ("_levelize", "_build_terminals", "_build_sta_arrays",
                     "_build_net_loads", "_build_names"):
            real = getattr(Connectivity, name)

            def counting(self, netlist, _real=real, _name=name):
                with lock:
                    calls[_name] += 1
                time.sleep(0.005)  # widen the race window
                return _real(self, netlist)

            monkeypatch.setattr(Connectivity, name, counting)

        def analyze(netlist):
            return StaticTimingAnalyzer(netlist).analyze(engine="compiled").critical_path_ps

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(analyze, netlist) for netlist in copies]
                paths = [future.result(timeout=120) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert len(set(paths)) == 1
        assert all(count == 1 for count in calls.values()), calls
        assert set(calls) >= {"_levelize", "_build_terminals", "_build_sta_arrays"}
        shared = {id(self._connectivity(netlist)) for netlist in copies}
        assert shared == {id(source._connectivity)}


class TestCustomMasters:
    def test_zero_input_tie_cell_uses_its_function(self):
        """Regression: arity-0 groups must not be forced to constant 0."""
        from repro.netlist import MasterCell

        def tie_hi(inputs):
            return (np.ones(1, dtype=bool),)

        library = default_library()
        library.add(MasterCell("TIEHI", (), ("Y",), 2, 0.0, 0.0, 0.0,
                               1.0, 0.0, tie_hi))
        netlist = Netlist("tie", library)
        netlist.add_port("in0", "input")
        netlist.connect_port("in0", "in0")
        tie = netlist.add_cell("tie0", "TIEHI")
        netlist.connect("hi", tie.pin("Y"))
        gate = netlist.add_cell("g0", "AND2_X1")
        netlist.connect("in0", gate.pin("A"))
        netlist.connect("hi", gate.pin("B"))
        netlist.connect("out", gate.pin("Y"))
        netlist.add_port("out0", "output")
        netlist.connect_port("out", "out0")

        sim = LogicSimulator(netlist)
        inputs = {"in0": np.array([True, False])}
        reference = sim.evaluate_combinational(inputs, engine="reference")
        compiled = sim.evaluate_combinational(inputs, engine="compiled")
        assert list(compiled["hi"]) == [True, True]
        for net in reference:
            # The reference stores the custom function's raw array (here
            # shape (1,)); the compiled value matrix broadcasts it across
            # the lanes.  Compare values, not the shape quirk.
            assert np.array_equal(
                compiled[net],
                np.broadcast_to(reference[net], compiled[net].shape),
            ), net

    def test_unknown_multi_input_function_falls_back(self):
        from repro.netlist import MasterCell

        def maj3(inputs):
            a, b, c = inputs
            return ((a & b) | (b & c) | (a & c),)

        library = default_library()
        library.add(MasterCell("MAJ3", ("A", "B", "C"), ("Y",), 4, 1.0, 5.0,
                               10.0, 5.0, 0.5, maj3))
        netlist = Netlist("maj", library)
        for i in range(3):
            netlist.add_port(f"in{i}", "input")
            netlist.connect_port(f"in{i}", f"in{i}")
        gate = netlist.add_cell("m0", "MAJ3")
        for pin_name, net in zip(("A", "B", "C"), ("in0", "in1", "in2")):
            netlist.connect(net, gate.pin(pin_name))
        netlist.connect("y", gate.pin("Y"))

        sim = LogicSimulator(netlist)
        inputs = {
            "in0": np.array([True, True, False]),
            "in1": np.array([True, False, False]),
            "in2": np.array([False, True, False]),
        }
        reference = sim.evaluate_combinational(inputs, engine="reference")
        compiled = sim.evaluate_combinational(inputs, engine="compiled")
        assert np.array_equal(compiled["y"], reference["y"])
        assert list(compiled["y"]) == [True, True, False]


class TestPlacementEpoch:
    def test_rebuild_rows_invalidates_coordinate_cache(self):
        """Regression: direct coordinate writes + rebuild_rows must refresh
        the epoch-keyed coordinate arrays."""
        netlist = random_netlist(60, num_gates=40)
        placement = place_design(netlist, utilization=0.8)
        cx, cy, placed = placement.cell_center_arrays()  # warm the cache

        comp = placement.netlist.compiled()
        target_name = comp.cell_names[comp.cell_index["g0"]]
        cell = netlist.cells[target_name]
        cell.y = placement.rows[0].y  # direct write, bypassing place()
        placement.rebuild_rows()

        cx2, cy2, _ = placement.cell_center_arrays()
        idx = comp.cell_index[target_name]
        assert cy2[idx] == pytest.approx(cell.center[1])


def reference_terminal_coordinates(netlist):
    """The executable spec of the netlist's own coordinate gather: one
    cell and one port at a time."""
    cells, ports = list(netlist.cells.values()), list(netlist.ports.values())
    cx, cy = np.full(len(cells), np.nan), np.full(len(cells), np.nan)
    placed = np.zeros(len(cells), dtype=bool)
    for i, cell in enumerate(cells):
        if cell.x is None or cell.y is None:
            continue
        cx[i] = cell.x + cell.width / 2.0
        cy[i] = cell.y + cell.height / 2.0
        placed[i] = True
    px, py = np.full(len(ports), np.nan), np.full(len(ports), np.nan)
    p_placed = np.zeros(len(ports), dtype=bool)
    for i, port in enumerate(ports):
        if port.x is not None:
            px[i], py[i], p_placed[i] = port.x, port.y, True
    return (cx, cy, placed), (px, py, p_placed)


class TestCoordinateGather:
    def test_gather_matches_cell_by_cell_reference_bitwise(self):
        netlist = random_netlist(70, num_gates=40)
        placement = place_design(netlist, utilization=0.8)
        cells, ports = list(netlist.cells.values()), list(netlist.ports.values())
        cells[0].x = cells[0].y = None  # unplaced
        cells[1].y = None  # half placed
        ports[0].x = ports[0].y = None
        ports[1].x, ports[1].y = 3.25, None  # placed x, no y
        ports[2].x, ports[2].y = None, 7.5  # no x, placed y
        got = netlist.compiled().terminal_coordinates()
        want = reference_terminal_coordinates(netlist)
        for got_arrays, want_arrays in zip(got, want):
            for a, b in zip(got_arrays, want_arrays):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert placement.cell_center_arrays()[2].tolist() == want[0][2].tolist()


class TestNetHpwlArrays:
    def test_trailing_terminal_less_nets(self):
        """Nets without terminals must not corrupt neighbouring segments.

        Regression: the reduceat segmentation previously clamped the start
        offset of a trailing empty net into the last real net's span,
        dropping that net's final terminal from its HPWL reduction.
        """
        library = default_library()
        netlist = Netlist("hpwl_edge", library)
        driver = netlist.add_cell("drv", "INV_X1")
        sink_a = netlist.add_cell("snk_a", "INV_X1")
        sink_b = netlist.add_cell("snk_b", "INV_X1")
        netlist.connect("wide", driver.pin("Y"))
        netlist.connect("wide", sink_a.pin("A"))
        netlist.connect("wide", sink_b.pin("A"))
        netlist.add_net("empty_tail")  # no terminals, sorts after "wide"
        driver.place(0.0, 0.0)
        sink_a.place(10.0, 0.0)
        sink_b.place(100.0, 0.0)

        comp = netlist.compiled()
        hpwl = comp.net_hpwl_um()
        for i, name in enumerate(comp.net_names):
            assert hpwl[i] == pytest.approx(netlist.nets[name].hpwl()), name

    def test_interleaved_empty_nets_match_reference(self):
        netlist = random_netlist(50, num_gates=30)
        # Sprinkle terminal-less nets between real ones.
        for i in range(5):
            netlist.add_net(f"hollow_{i}")
        place_design(netlist, utilization=0.8)
        comp = netlist.compiled()
        hpwl = comp.net_hpwl_um()
        for i, name in enumerate(comp.net_names):
            assert hpwl[i] == pytest.approx(netlist.nets[name].hpwl()), name


class TestThermalNetworkElements:
    def test_elements_match_reference(self):
        grid = ThermalGrid.for_die(
            die_width_um=80.0, die_height_um=60.0,
            package=default_package(), nx=6, ny=5,
        )
        network = ThermalNetwork(grid)
        fast = network.elements()
        slow = network._elements_reference()
        assert fast.num_nodes == slow.num_nodes
        assert fast.package_node == slow.package_node
        assert len(fast.conductances) == len(slow.conductances)
        for (fa, fb, fg), (sa, sb, sg) in zip(fast.conductances, slow.conductances):
            assert (fa, fb) == (sa, sb)
            assert fg == pytest.approx(sg, rel=1e-12)


class TestBinOfFloor:
    def test_points_below_origin_clamp_to_bin_zero(self):
        power_map = PowerMap(
            power_w=np.zeros((4, 5)),
            bin_width_um=10.0,
            bin_height_um=10.0,
            origin_um=(0.0, 0.0),
        )
        # A point just below the origin must floor to a negative raw index
        # and then clamp -- int() truncation would treat (-10, 0) as bin 0
        # "from inside".  Both map to bin 0, but the raw index must come
        # from floor so the clamp is what puts it there.
        assert power_map.bin_of(-0.5, -0.5) == (0, 0)
        assert math.floor(-0.5 / 10.0) == -1  # documents the fixed semantics
        assert power_map.bin_of(-1e-9, 5.0) == (0, 0)
        assert power_map.bin_of(9.999, 9.999) == (0, 0)
        assert power_map.bin_of(10.0, 10.0) == (1, 1)
        assert power_map.bin_of(1e9, 1e9) == (3, 4)
        assert power_map.bin_of(-1e9, -1e9) == (0, 0)

    def test_bin_of_matches_iter_cell_bins(self):
        netlist = random_netlist(40, num_gates=40)
        placement = place_design(netlist, utilization=0.8)
        from repro.power import iter_cell_bins
        from repro.power.power_map import cell_bin_indices

        comp = placement.netlist.compiled()
        iy, ix, placed = cell_bin_indices(placement, nx=8, ny=8)
        by_name = {
            cell.name: (bin_y, bin_x)
            for cell, bin_y, bin_x in iter_cell_bins(placement, nx=8, ny=8)
        }
        for i, name in enumerate(comp.cell_names):
            if name in by_name:
                assert (int(iy[i]), int(ix[i])) == by_name[name], name
