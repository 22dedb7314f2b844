"""Compiled structure-of-arrays form of a netlist.

The flow's hot paths — logic simulation, power estimation, thermal-grid
binning and static timing — are all "for every gate / cell / net" loops.
:class:`CompiledNetlist` lowers a :class:`~repro.netlist.netlist.Netlist`
into levelized NumPy index arrays so those loops become whole-array
expressions:

* every cell and net gets a dense integer index (in ``netlist.cells`` /
  ``netlist.nets`` iteration order, so independently compiled copies of the
  same design align element-for-element);
* combinational cells are levelized and grouped by master cell, giving each
  group a ``(n, fanin)`` value-slot matrix and an op code the engine
  evaluates with one vectorized boolean expression per group;
* per-cell electrical vectors (leakage, internal energy, drive resistance,
  intrinsic delay) and per-net load vectors (sink pin capacitance, fanout)
  are extracted for the power model and the timing engine;
* net terminal lists are flattened into segment arrays so all net HPWLs are
  computed with two ``reduceat`` passes.

Value slots: net ``i`` lives in row ``i`` of a values array; one extra
``zero`` row models unconnected/undriven inputs (always ``False``/arrival
``0``), and one ``trash`` row absorbs writes from unconnected output pins.

The lowering is split in two.  A :class:`Connectivity` holds everything
that depends only on the design's cells and connectivity (cell vectors,
levels, net loads, terminal segments, STA launch/endpoint arrays, ...); it
is immutable and shared *by reference* between a netlist and its
:meth:`~Netlist.copy` clones, so a whitespace transform that only moves
cells never recompiles it (its fillers are a placement-owned block, not
netlist cells).  A :class:`CompiledNetlist` is the per-netlist view on
top: its own cell and port objects.

Views are obtained through :meth:`Netlist.compiled`, which caches the view
against the netlist's structural version and hands it the netlist's shared
connectivity (see :meth:`Netlist.copy` for the sharing rules).  Placement
coordinates are *not* baked in: coordinate-dependent arrays are gathered
from the cells on every call and never cached, so moving cells never stales
a compiled netlist.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from .library import ROW_HEIGHT, VECTOR_OP_CODES, MasterCell
from .netlist import Netlist


@dataclass
class GateGroup:
    """Cells of one master within one level.

    Attributes:
        master: The shared master cell.
        op: Vector-op code (``None`` when the master's function is not a
            built-in, in which case evaluation falls back to per-cell calls).
        cells: Cell indices, shape ``(n,)``.
        fanin: Input value slots, shape ``(n, num_inputs)``.
        out: Output value slots, shape ``(n, num_outputs)`` (the trash slot
            for unconnected output pins).
    """

    master: MasterCell
    op: Optional[str]
    cells: np.ndarray
    fanin: np.ndarray
    out: np.ndarray


def _frozen(values, dtype) -> np.ndarray:
    """A read-only array: shared sections must never be written through."""
    array = np.array(values, dtype=dtype)
    array.setflags(write=False)
    return array


class _Names(NamedTuple):
    cell_names: List[str]
    cell_index: Dict[str, int]
    net_names: List[str]
    net_index: Dict[str, int]
    pi_ports: List[Tuple[str, int]]


class _CellVectors(NamedTuple):
    width_um: np.ndarray
    area_um2: np.ndarray
    is_filler: np.ndarray
    unit_code_of: Dict[str, int]
    unit_codes: np.ndarray


class _Terminals(NamedTuple):
    is_cell: np.ndarray
    #: Cell index for cell terminals, index into ``netlist.ports`` order for
    #: port terminals (ports are per-netlist objects; ERI moves the copy's).
    ref: np.ndarray
    offsets: np.ndarray


class Connectivity:
    """The immutable cell and connectivity sections of a compiled netlist.

    One object covers all cells, nets and ports of every netlist holding
    it; those netlists agree on the cells' names, masters and units, on
    every net's terminals in order, and on the ports.
    :class:`~repro.netlist.netlist.Netlist` maintains that invariant: any
    structural edit drops the netlist's reference.

    Sections are built lazily from whichever holder asks first, at most
    once per object even under concurrent requests, and reference no cell,
    net, pin or port object — only indices, names and (immutable) master
    cells — so holders never see each other's objects.  Arrays are
    read-only.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._sections: Dict[str, object] = {}

    def _section(self, name: str, netlist: Netlist, build: Callable[[Netlist], object]):
        section = self._sections.get(name)
        if section is None:
            with self._lock:
                section = self._sections.get(name)
                if section is None:
                    section = build(netlist)
                    self._sections[name] = section
        return section

    # -- names ---------------------------------------------------------------

    def names(self, netlist: Netlist) -> _Names:
        """Cell names/index, net names/index and primary-input slots."""
        return self._section("names", netlist, self._build_names)

    def _build_names(self, netlist: Netlist) -> _Names:
        cell_names = [c.name for c in netlist.cells.values()]
        net_names = list(netlist.nets)
        net_index = {n: i for i, n in enumerate(net_names)}
        pi_ports = [
            (p.name, net_index[p.net.name] if p.net is not None else -1)
            for p in netlist.primary_inputs
        ]
        return _Names(
            cell_names, {n: i for i, n in enumerate(cell_names)},
            net_names, net_index, pi_ports,
        )

    # -- per-cell vectors -------------------------------------------------------

    def cell_vectors(self, netlist: Netlist) -> _CellVectors:
        """Cell geometry vectors and first-seen unit codes."""
        return self._section("cell_vectors", netlist, self._build_cell_vectors)

    def _build_cell_vectors(self, netlist: Netlist) -> _CellVectors:
        cells = list(netlist.cells.values())
        # Dense integer codes for the logical unit each cell belongs to, in
        # first-seen cell order; lets hotspot attribution and other
        # per-unit reductions run as one np.bincount instead of a Python
        # dict accumulation.
        unit_code_of: Dict[str, int] = {}
        codes = [unit_code_of.setdefault(c.unit, len(unit_code_of)) for c in cells]
        return _CellVectors(
            _frozen([c.width for c in cells], float),
            _frozen([c.area for c in cells], float),
            _frozen([c.master.is_filler for c in cells], bool),
            unit_code_of,
            _frozen(codes, np.int64),
        )

    def electrical(self, netlist: Netlist) -> Tuple[np.ndarray, ...]:
        """Cell leakage, internal energy, delay, drive and sequential flags."""
        return self._section("electrical", netlist, self._build_electrical)

    def _build_electrical(self, netlist: Netlist) -> Tuple[np.ndarray, ...]:
        masters = [c.master for c in netlist.cells.values()]
        return (
            _frozen([m.leakage_nw for m in masters], float),
            _frozen([m.internal_energy_fj for m in masters], float),
            _frozen([m.intrinsic_delay_ps for m in masters], float),
            _frozen([m.drive_res_kohm for m in masters], float),
            _frozen([m.is_sequential for m in masters], bool),
        )

    # -- per-net loads ---------------------------------------------------------

    def net_loads(self, netlist: Netlist) -> Tuple[np.ndarray, np.ndarray]:
        """Summed sink-pin capacitance and sink count per net."""
        return self._section("net_loads", netlist, self._build_net_loads)

    def _build_net_loads(self, netlist: Netlist) -> Tuple[np.ndarray, np.ndarray]:
        nets = list(netlist.nets.values())
        # Summed in sink-pin order, matching the reference loop exactly.
        sink_pin_cap = [
            sum(p.cell.master.input_cap_ff for p in net.sink_pins) for net in nets
        ]
        return (
            _frozen(sink_pin_cap, float),
            _frozen([net.num_sinks for net in nets], np.int64),
        )

    # -- output pins, flip-flops, driven slots --------------------------------

    def outpins(self, netlist: Netlist) -> Tuple[np.ndarray, np.ndarray]:
        """Cell and net index of every connected non-filler output pin."""
        return self._section("outpins", netlist, self._build_outpins)

    def _build_outpins(self, netlist: Netlist) -> Tuple[np.ndarray, np.ndarray]:
        net_index = self.names(netlist).net_index
        outpin_cell: List[int] = []
        outpin_net: List[int] = []
        for ci, cell in enumerate(netlist.cells.values()):
            if cell.is_filler:
                continue
            for pin in cell.output_pins:
                if pin.net is not None:
                    outpin_cell.append(ci)
                    outpin_net.append(net_index[pin.net.name])
        return _frozen(outpin_cell, np.int64), _frozen(outpin_net, np.int64)

    def sequential(self, netlist: Netlist) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Flip-flop cell indices with their D-input and Q-output slots."""
        return self._section("sequential", netlist, self._build_sequential)

    def _build_sequential(self, netlist: Netlist) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        net_index = self.names(netlist).net_index
        zero, trash = len(net_index), len(net_index) + 1
        seq_cells: List[int] = []
        seq_d_slot: List[int] = []
        seq_q_slot: List[int] = []
        for ci, cell in enumerate(netlist.cells.values()):
            if not cell.is_sequential:
                continue
            in_pins = cell.input_pins
            out_pins = cell.output_pins
            d = in_pins[0].net if in_pins else None
            q = out_pins[0].net if out_pins else None
            seq_cells.append(ci)
            seq_d_slot.append(net_index[d.name] if d is not None else zero)
            seq_q_slot.append(net_index[q.name] if q is not None else trash)
        return (
            _frozen(seq_cells, np.int64),
            _frozen(seq_d_slot, np.int64),
            _frozen(seq_q_slot, np.int64),
        )

    def driven_slots(self, netlist: Netlist) -> np.ndarray:
        """Value slots written by PIs, flip-flop Qs and gate outputs."""
        return self._section("driven_slots", netlist, self._build_driven_slots)

    def _build_driven_slots(self, netlist: Netlist) -> np.ndarray:
        names = self.names(netlist)
        num_nets = len(names.net_names)
        driven: List[int] = [s for _, s in names.pi_ports if s >= 0]
        driven.extend(int(s) for s in self.sequential(netlist)[2] if s < num_nets)
        for level in self.levels(netlist):
            for group in level:
                driven.extend(int(s) for s in group.out.ravel() if s < num_nets)
        return _frozen(driven, np.int64)

    # -- STA launch/endpoint structure ----------------------------------------

    def sta_arrays(self, netlist: Netlist) -> tuple:
        """``(launch_cell, launch_net, ep_names, ep_slot, ep_setup)``."""
        return self._section("sta", netlist, self._build_sta_arrays)

    def _build_sta_arrays(self, netlist: Netlist) -> tuple:
        net_index = self.names(netlist).net_index
        launch_cell: List[int] = []
        launch_net: List[int] = []
        ep_names: List[str] = []
        ep_slot: List[int] = []
        ep_setup: List[float] = []
        for ci, cell in enumerate(netlist.cells.values()):
            if not cell.is_sequential:
                continue
            for pin in cell.output_pins:
                if pin.net is not None:
                    launch_cell.append(ci)
                    launch_net.append(net_index[pin.net.name])
            for pin in cell.input_pins:
                if pin.net is None:
                    continue
                ep_names.append(pin.full_name)
                ep_slot.append(net_index[pin.net.name])
                ep_setup.append(0.3 * cell.master.intrinsic_delay_ps)
        for port in netlist.primary_outputs:
            if port.net is not None:
                ep_names.append(port.name)
                ep_slot.append(net_index[port.net.name])
                ep_setup.append(0.0)
        return (
            _frozen(launch_cell, np.int64),
            _frozen(launch_net, np.int64),
            ep_names,
            _frozen(ep_slot, np.int64),
            _frozen(ep_setup, float),
        )

    # -- net terminals ----------------------------------------------------------

    def terminals(self, netlist: Netlist) -> _Terminals:
        """Net terminals flattened into segment arrays for reduceat HPWL."""
        return self._section("terminals", netlist, self._build_terminals)

    def _build_terminals(self, netlist: Netlist) -> _Terminals:
        cell_index = self.names(netlist).cell_index
        port_index = {id(port): i for i, port in enumerate(netlist.ports.values())}
        nets = list(netlist.nets.values())
        term_net_counts = np.zeros(len(nets), dtype=np.int64)
        term_is_cell: List[bool] = []
        term_ref: List[int] = []
        for i, net in enumerate(nets):
            count = 0
            if net.driver_pin is not None:
                term_is_cell.append(True)
                term_ref.append(cell_index[net.driver_pin.cell.name])
                count += 1
            if net.driver_port is not None:
                term_is_cell.append(False)
                term_ref.append(port_index[id(net.driver_port)])
                count += 1
            for pin in net.sink_pins:
                term_is_cell.append(True)
                term_ref.append(cell_index[pin.cell.name])
                count += 1
            for port in net.sink_ports:
                term_is_cell.append(False)
                term_ref.append(port_index[id(port)])
                count += 1
            term_net_counts[i] = count
        offsets = np.zeros(len(nets) + 1, dtype=np.int64)
        np.cumsum(term_net_counts, out=offsets[1:])
        offsets.setflags(write=False)
        return _Terminals(
            _frozen(term_is_cell, bool), _frozen(term_ref, np.int64), offsets
        )

    # -- cell nets --------------------------------------------------------------

    def cell_nets(self, netlist: Netlist) -> Tuple[Tuple[int, ...], ...]:
        """Per cell, the distinct nets on its pins, in pin order."""
        return self._section("cell_nets", netlist, self._build_cell_nets)

    def _build_cell_nets(self, netlist: Netlist) -> Tuple[Tuple[int, ...], ...]:
        net_index = self.names(netlist).net_index
        return tuple(
            tuple(dict.fromkeys(
                net_index[pin.net.name] for pin in cell.pins.values() if pin.net is not None
            ))
            for cell in netlist.cells.values()
        )

    # -- levelization -----------------------------------------------------------

    def levels(self, netlist: Netlist) -> List[List[GateGroup]]:
        """Levelized gate groups."""
        return self._section("levels", netlist, self._levelize)

    def _levelize(self, netlist: Netlist) -> List[List[GateGroup]]:
        """Topologically level the combinational cells and group by master."""
        cells = list(netlist.cells.values())
        nets = list(netlist.nets.values())
        net_pos = {id(net): i for i, net in enumerate(nets)}
        cell_pos = {id(cell): i for i, cell in enumerate(cells)}

        seq_or_filler = [c.is_sequential or c.is_filler for c in cells]
        comb = [ci for ci, skip in enumerate(seq_or_filler) if not skip]
        comb_pos = [-1] * len(cells)
        for k, ci in enumerate(comb):
            comb_pos[ci] = k

        # One pass over the pins: value slots per cell (reused below for the
        # group matrices) and the comb-to-comb dependency edges.
        zero = len(nets)
        trash = len(nets) + 1
        fanin_slots: List[List[int]] = []
        out_slots: List[List[int]] = []
        indegree = [0] * len(comb)
        level = [0] * len(comb)
        dependents: List[List[int]] = [[] for _ in comb]
        for k, ci in enumerate(comb):
            cell = cells[ci]
            pins = cell.pins
            master = cell.master
            slots = []
            for name in master.inputs:
                net = pins[name].net
                if net is None:
                    slots.append(zero)
                    continue
                slots.append(net_pos[id(net)])
                driver_pin = net.driver_pin
                if driver_pin is None:
                    continue
                di = cell_pos[id(driver_pin.cell)]
                if seq_or_filler[di]:
                    continue
                indegree[k] += 1
                dependents[comb_pos[di]].append(k)
            fanin_slots.append(slots)
            out_slots.append(
                [
                    net_pos[id(net)] if (net := pins[name].net) is not None else trash
                    for name in master.outputs
                ]
            )

        queue = deque(k for k in range(len(comb)) if indegree[k] == 0)
        processed = 0
        order: List[int] = []
        while queue:
            k = queue.popleft()
            order.append(k)
            processed += 1
            for dep in dependents[k]:
                if level[k] + 1 > level[dep]:
                    level[dep] = level[k] + 1
                indegree[dep] -= 1
                if indegree[dep] == 0:
                    queue.append(dep)

        if processed != len(comb):
            unresolved = [
                cells[comb[k]].name for k in range(len(comb)) if indegree[k] > 0
            ]
            raise ValueError(
                "combinational cycle detected involving cells: "
                + ", ".join(sorted(unresolved)[:10])
            )

        num_levels = max(level, default=-1) + 1
        # Group within each level.  Masters sharing a vector-op code and pin
        # arity (e.g. INV_X1/INV_X2) merge into one group — the op evaluates
        # them identically and per-cell electrical data is gathered by cell
        # index anyway; unknown-function masters group by master so the
        # fallback can call their own ``evaluate``.
        buckets: List[Dict[object, Tuple[MasterCell, Optional[str], List[int]]]] = [
            dict() for _ in range(num_levels)
        ]
        for k in order:
            ci = comb[k]
            master = cells[ci].master
            op = VECTOR_OP_CODES.get(master.function)
            key = (op, len(master.inputs), len(master.outputs)) if op else master
            entry = buckets[level[k]].get(key)
            if entry is None:
                buckets[level[k]][key] = (master, op, [ci])
            else:
                entry[2].append(ci)

        levels: List[List[GateGroup]] = []
        for bucket in buckets:
            groups: List[GateGroup] = []
            for master, op, members in bucket.values():
                fanin = _frozen(
                    [fanin_slots[comb_pos[ci]] for ci in members], np.int64
                ).reshape(len(members), len(master.inputs))
                out = _frozen(
                    [out_slots[comb_pos[ci]] for ci in members], np.int64
                ).reshape(len(members), len(master.outputs))
                groups.append(
                    GateGroup(
                        master=master,
                        op=op,
                        cells=_frozen(members, np.int64),
                        fanin=fanin,
                        out=out,
                    )
                )
            levels.append(groups)
        return levels


def _gather_xy(items) -> Tuple[np.ndarray, np.ndarray]:
    """The items' ``x`` and ``y`` as arrays; ``None`` becomes ``NaN``."""
    xs = np.array([item.x for item in items], dtype=np.float64)
    return xs, np.array([item.y for item in items], dtype=np.float64)


def cell_centers(
    x: np.ndarray, y: np.ndarray, widths: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cell centres ``(cx, cy, placed)`` from lower-left corners (``NaN`` where unplaced)."""
    placed = ~(np.isnan(x) | np.isnan(y))
    cx = np.where(placed, x + widths / 2.0, np.nan)
    return cx, np.where(placed, y + ROW_HEIGHT / 2.0, np.nan), placed


class CompiledNetlist:
    """One netlist's compiled view over a shared :class:`Connectivity`.

    The view holds what differs between netlists sharing a connectivity:
    its own cell and port objects.  Everything
    else is read through to the shared sections.  Build via
    :meth:`Netlist.compiled` (cached, shared); constructing one directly
    without ``connectivity`` compiles a fresh, unshared lowering.
    """

    def __init__(self, netlist: Netlist, connectivity: Optional[Connectivity] = None) -> None:
        self.netlist = netlist
        self.version = netlist._version
        conn = connectivity if connectivity is not None else Connectivity()
        self.connectivity = conn

        cells = list(netlist.cells.values())
        self._cells = cells
        self._ports = list(netlist.ports.values())

        names = conn.names(netlist)
        self.cell_names: List[str] = names.cell_names
        self.cell_index: Dict[str, int] = names.cell_index
        self.net_names: List[str] = names.net_names
        self.net_index: Dict[str, int] = names.net_index
        self.pi_ports: List[Tuple[str, int]] = names.pi_ports
        self.num_cells = len(cells)
        self.num_nets = len(self.net_names)
        #: Value slot that is always ``False`` / arrival ``0.0``.
        self.zero_slot = self.num_nets
        #: Value slot that absorbs writes from unconnected output pins.
        self.trash_slot = self.num_nets + 1
        self.num_slots = self.num_nets + 2

        # -- per-cell geometry vectors and unit codes ---------------------
        vectors = conn.cell_vectors(netlist)
        self.cell_width_um = vectors.width_um
        self.cell_area_um2 = vectors.area_um2
        self.is_filler = vectors.is_filler
        self.unit_codes = vectors.unit_codes
        self.unit_names: List[str] = list(vectors.unit_code_of)
        self.num_units = len(self.unit_names)

    def _source(self) -> Netlist:
        """The netlist shared sections are read (or first built) through.

        A view may outlive later edits of its netlist, which make it stale;
        a stale view must not build a shared section from the edited
        netlist.
        """
        netlist = self.netlist
        if netlist._version != self.version:
            raise RuntimeError(
                f"stale compiled netlist for {netlist.name!r}: the netlist was "
                "structurally edited; call Netlist.compiled() again"
            )
        return netlist

    # ------------------------------------------------------------------
    # Lazy sections
    # ------------------------------------------------------------------

    # Electrical vectors (leakage, energies, delays) are built on first use,
    # so consumers that only need geometry (power binning, hotspot
    # attribution) skip the master-cell gathers entirely.

    def _electrical(self) -> Tuple[np.ndarray, ...]:
        return self.connectivity.electrical(self._source())

    @property
    def leakage_nw(self) -> np.ndarray:
        """Per-cell leakage in nanowatts (built on first use)."""
        return self._electrical()[0]

    @property
    def internal_energy_fj(self) -> np.ndarray:
        """Per-cell internal switching energy in femtojoules."""
        return self._electrical()[1]

    @property
    def intrinsic_delay_ps(self) -> np.ndarray:
        """Per-cell intrinsic delay in picoseconds."""
        return self._electrical()[2]

    @property
    def drive_res_kohm(self) -> np.ndarray:
        """Per-cell drive resistance in kiloohms."""
        return self._electrical()[3]

    @property
    def is_sequential(self) -> np.ndarray:
        """Per-cell sequential-master flags."""
        return self._electrical()[4]

    @property
    def sink_pin_cap_ff(self) -> np.ndarray:
        """Summed sink-pin input capacitance per net (built on first use)."""
        return self.connectivity.net_loads(self._source())[0]

    @property
    def num_sinks(self) -> np.ndarray:
        """Sink count per net (built on first use)."""
        return self.connectivity.net_loads(self._source())[1]

    @property
    def outpin_cell(self) -> np.ndarray:
        """Cell index of every connected non-filler output pin."""
        return self.connectivity.outpins(self._source())[0]

    @property
    def outpin_net(self) -> np.ndarray:
        """Net index of every connected non-filler output pin."""
        return self.connectivity.outpins(self._source())[1]

    @property
    def seq_cells(self) -> np.ndarray:
        """Cell indices of sequential cells (built on first use)."""
        return self.connectivity.sequential(self._source())[0]

    @property
    def seq_d_slot(self) -> np.ndarray:
        """Per-flop D-input value slot."""
        return self.connectivity.sequential(self._source())[1]

    @property
    def seq_q_slot(self) -> np.ndarray:
        """Per-flop Q-output value slot."""
        return self.connectivity.sequential(self._source())[2]

    @property
    def levels(self) -> List[List[GateGroup]]:
        """Levelized gate groups (built on first use)."""
        return self.connectivity.levels(self._source())

    @property
    def driven_slots(self) -> np.ndarray:
        """Value slots written by PIs, flip-flop Qs and gate outputs."""
        return self.connectivity.driven_slots(self._source())

    @property
    def launch_cell(self) -> np.ndarray:
        return self.connectivity.sta_arrays(self._source())[0]

    @property
    def launch_net(self) -> np.ndarray:
        return self.connectivity.sta_arrays(self._source())[1]

    @property
    def ep_names(self) -> List[str]:
        return self.connectivity.sta_arrays(self._source())[2]

    @property
    def ep_slot(self) -> np.ndarray:
        return self.connectivity.sta_arrays(self._source())[3]

    @property
    def ep_setup(self) -> np.ndarray:
        return self.connectivity.sta_arrays(self._source())[4]

    # ------------------------------------------------------------------
    # Vectorized logic evaluation
    # ------------------------------------------------------------------

    @staticmethod
    def _eval_group(group: GateGroup, values: np.ndarray) -> None:
        """Evaluate one gate group in place on the values array."""
        op = group.op
        n = group.cells.shape[0]
        lanes = values.shape[1]
        num_outputs = group.out.shape[1]
        if group.fanin.shape[1] == 0:
            if op == "const0":
                values[group.out[:, 0]] = np.zeros((n, lanes), dtype=bool)
            else:
                # Custom zero-input master (tie cell): honour its function.
                evaluate = group.master.evaluate
                for r in range(n):
                    outputs = evaluate([])
                    for c in range(min(len(outputs), num_outputs)):
                        values[group.out[r, c]] = outputs[c]
            return
        vals = values[group.fanin]  # (n, arity, lanes)
        if op == "inv":
            values[group.out[:, 0]] = ~vals[:, 0]
        elif op == "buf":
            values[group.out[:, 0]] = vals[:, 0]
        elif op == "and":
            values[group.out[:, 0]] = np.logical_and.reduce(vals, axis=1)
        elif op == "nand":
            values[group.out[:, 0]] = ~np.logical_and.reduce(vals, axis=1)
        elif op == "or":
            values[group.out[:, 0]] = np.logical_or.reduce(vals, axis=1)
        elif op == "nor":
            values[group.out[:, 0]] = ~np.logical_or.reduce(vals, axis=1)
        elif op == "xor":
            values[group.out[:, 0]] = np.logical_xor.reduce(vals, axis=1)
        elif op == "xnor":
            values[group.out[:, 0]] = ~np.logical_xor.reduce(vals, axis=1)
        elif op == "mux2":
            a, b, sel = vals[:, 0], vals[:, 1], vals[:, 2]
            values[group.out[:, 0]] = np.where(sel, b, a)
        elif op == "aoi21":
            a, b, c = vals[:, 0], vals[:, 1], vals[:, 2]
            values[group.out[:, 0]] = ~((a & b) | c)
        elif op == "oai21":
            a, b, c = vals[:, 0], vals[:, 1], vals[:, 2]
            values[group.out[:, 0]] = ~((a | b) & c)
        elif op == "ha":
            a, b = vals[:, 0], vals[:, 1]
            values[group.out[:, 0]] = a ^ b
            values[group.out[:, 1]] = a & b
        elif op == "fa":
            a, b, cin = vals[:, 0], vals[:, 1], vals[:, 2]
            axb = a ^ b
            values[group.out[:, 0]] = axb ^ cin
            values[group.out[:, 1]] = (a & b) | (cin & axb)
        elif op == "const0":
            values[group.out[:, 0]] = np.zeros((n, lanes), dtype=bool)
        else:
            # Unknown custom function: evaluate cell by cell (reference
            # semantics, including zip-style output truncation), still
            # amortised within the level.
            evaluate = group.master.evaluate
            for r in range(n):
                outputs = evaluate(list(vals[r]))
                for c in range(min(len(outputs), num_outputs)):
                    values[group.out[r, c]] = outputs[c]

    def evaluate_levels(self, values: np.ndarray) -> None:
        """Evaluate all combinational levels in place.

        ``values`` must have shape ``(num_slots, lanes)`` with primary-input
        and flip-flop-output rows already filled.
        """
        for level in self.levels:
            for group in level:
                self._eval_group(group, values)

    # ------------------------------------------------------------------
    # Coordinate-dependent arrays (gathered on every call)
    # ------------------------------------------------------------------

    def cell_center_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-cell centre coordinates ``(cx, cy, placed_mask)``.

        Arrays are aligned with :attr:`cell_names`; unplaced cells carry
        ``NaN`` coordinates and ``False`` in the mask.  Gathered from the
        cells on every call, so a raw ``x``/``y`` write is always seen.
        """
        x, y = _gather_xy(self._cells)
        return cell_centers(x, y, self.cell_width_um)

    # ------------------------------------------------------------------
    # Vectorized HPWL
    # ------------------------------------------------------------------

    def terminal_coordinates(self) -> Tuple[Tuple[np.ndarray, ...], Tuple[np.ndarray, ...]]:
        """This netlist's own cell centres and port positions,
        ``((cx, cy, placed), (px, py, placed))``."""
        px, py = _gather_xy(self._ports)
        p_placed = ~np.isnan(px)
        return self.cell_center_arrays(), (px, np.where(p_placed, py, np.nan), p_placed)

    def net_hpwl_um(self, coordinates=None) -> np.ndarray:
        """Half-perimeter wirelength of every net over its placed terminals.

        Matches :meth:`Net.hpwl`: nets with fewer than two placed terminals
        report ``0.0``.  ``coordinates`` are the terminal positions in
        :meth:`terminal_coordinates` form — a
        :class:`~repro.placement.PlacementView`'s, say — and default to
        this netlist's own cells and ports.
        """
        terminals = self.connectivity.terminals(self._source())
        if coordinates is None:
            coordinates = self.terminal_coordinates()
        (cx, cy, placed), (px, py, p_placed) = coordinates

        is_cell = terminals.is_cell
        ref = terminals.ref
        m = ref.shape[0]
        tx = np.empty(m)
        ty = np.empty(m)
        tvalid = np.empty(m, dtype=bool)
        cell_mask = is_cell
        port_mask = ~is_cell
        tx[cell_mask] = cx[ref[cell_mask]]
        ty[cell_mask] = cy[ref[cell_mask]]
        tvalid[cell_mask] = placed[ref[cell_mask]]
        tx[port_mask] = px[ref[port_mask]]
        ty[port_mask] = py[ref[port_mask]]
        tvalid[port_mask] = p_placed[ref[port_mask]]

        starts = terminals.offsets[:-1]
        counts = np.diff(terminals.offsets)

        hpwl = np.zeros(self.num_nets)
        # Reduce only over nets that actually have terminals: their start
        # offsets are strictly increasing and in range, and consecutive
        # non-empty starts delimit exactly one net's terminal span (empty
        # nets contribute no elements in between), so reduceat segments
        # line up without any index clamping.
        nonempty = counts > 0
        if m and nonempty.any():
            seg_starts = starts[nonempty]
            placed_counts = np.add.reduceat(tvalid.astype(np.int64), seg_starts)

            lo_x = np.where(tvalid, tx, np.inf)
            hi_x = np.where(tvalid, tx, -np.inf)
            lo_y = np.where(tvalid, ty, np.inf)
            hi_y = np.where(tvalid, ty, -np.inf)
            min_x = np.minimum.reduceat(lo_x, seg_starts)
            max_x = np.maximum.reduceat(hi_x, seg_starts)
            min_y = np.minimum.reduceat(lo_y, seg_starts)
            max_y = np.maximum.reduceat(hi_y, seg_starts)

            enough = placed_counts >= 2
            seg_hpwl = np.zeros(seg_starts.shape[0])
            seg_hpwl[enough] = (max_x[enough] - min_x[enough]) + (
                max_y[enough] - min_y[enough]
            )
            hpwl[nonempty] = seg_hpwl
        return hpwl

    def net_length_um(self, fallback_um: float, coordinates=None) -> np.ndarray:
        """Estimated routed net lengths (HPWL with the wireload fallback).

        Matches :meth:`DelayModel.net_length_um`: nets whose HPWL is zero
        (fewer than two placed terminals, or coincident terminals) fall back
        to ``fallback_um * max(num_sinks, 1)``.  ``coordinates`` as for
        :meth:`net_hpwl_um`.
        """
        length = self.net_hpwl_um(coordinates)
        fallback = fallback_um * np.maximum(self.num_sinks, 1)
        return np.where(length <= 0.0, fallback, length)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CompiledNetlist({self.netlist.name}, cells={self.num_cells}, "
            f"nets={self.num_nets}, levels={len(self.levels)})"
        )
