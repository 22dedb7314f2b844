"""Compiled structure-of-arrays form of a netlist.

The flow's hot paths — logic simulation, power estimation, thermal-grid
binning and static timing — are all "for every gate / cell / net" loops.
:class:`CompiledNetlist` lowers a :class:`~repro.netlist.netlist.Netlist`
once into levelized NumPy index arrays so those loops become whole-array
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

Instances are obtained through :meth:`Netlist.compiled`, which caches the
compiled form and rebuilds it when the netlist's structural version changes
(any mutation through the ``Netlist`` API bumps the version).  Placement
coordinates are *not* baked in: coordinate-dependent arrays are gathered on
demand and cached against :meth:`Netlist.placement_state` — the design's own
placement stamp plus the process-wide raw-write generation — so moving cells
never stales a compiled netlist, and moves in another design never evict
this one's coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .cell import CellInstance
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


class CompiledNetlist:
    """Levelized structure-of-arrays lowering of one netlist.

    Build via :meth:`Netlist.compiled` (cached) rather than directly.
    """

    def __init__(self, netlist: Netlist) -> None:
        self.netlist = netlist
        self.version = netlist._version

        cells = list(netlist.cells.values())
        nets = list(netlist.nets.values())
        self._cells = cells
        self.cell_names: List[str] = [c.name for c in cells]
        self.cell_index: Dict[str, int] = {n: i for i, n in enumerate(self.cell_names)}
        self.net_names: List[str] = [n.name for n in nets]
        self.net_index: Dict[str, int] = {n: i for i, n in enumerate(self.net_names)}
        self.num_cells = len(cells)
        self.num_nets = len(nets)
        #: Value slot that is always ``False`` / arrival ``0.0``.
        self.zero_slot = self.num_nets
        #: Value slot that absorbs writes from unconnected output pins.
        self.trash_slot = self.num_nets + 1
        self.num_slots = self.num_nets + 2

        # -- per-cell geometry vectors -----------------------------------
        masters = [c.master for c in cells]
        self._masters = masters
        self.cell_width_um = np.array([c.width for c in cells], dtype=float)
        self.cell_area_um2 = np.array([c.area for c in cells], dtype=float)
        self.is_filler = np.array([m.is_filler for m in masters], dtype=bool)
        # Electrical vectors (leakage, energies, delays) are built lazily —
        # see the properties below — so consumers that only need geometry
        # (power binning, hotspot attribution on a freshly transformed
        # netlist) skip the master-cell gathers entirely.
        self._electrical: Optional[Tuple[np.ndarray, ...]] = None

        # -- per-cell unit codes -----------------------------------------
        # Dense integer codes for the logical unit each cell belongs to, in
        # first-seen cell order; lets hotspot attribution and other
        # per-unit reductions run as one np.bincount instead of a Python
        # dict accumulation.
        unit_code_of: Dict[str, int] = {}
        codes = np.empty(self.num_cells, dtype=np.int64)
        for i, cell in enumerate(cells):
            code = unit_code_of.setdefault(cell.unit, len(unit_code_of))
            codes[i] = code
        self.unit_names: List[str] = list(unit_code_of)
        self.unit_codes = codes
        self.num_units = len(self.unit_names)

        # -- per-net load vectors (lazy, see properties below) -----------
        self._net_loads: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._outpins: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._sequential: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None

        # -- primary ports -----------------------------------------------
        net_index = self.net_index
        self.pi_ports: List[Tuple[str, int]] = [
            (p.name, net_index[p.net.name] if p.net is not None else -1)
            for p in netlist.primary_inputs
        ]

        # -- lazily built sections ----------------------------------------
        # Levelization, STA launch/endpoint structure and the flattened
        # net-terminal arrays are each built on first use: consumers that
        # only need the cheap per-cell/per-net vectors (e.g. power binning
        # on a freshly copied netlist) skip their cost entirely.
        self._nets = nets
        self._levels: Optional[List[List[GateGroup]]] = None
        self._driven_slots: Optional[np.ndarray] = None
        self._sta_arrays: Optional[Tuple[np.ndarray, np.ndarray, List[str], np.ndarray, np.ndarray]] = None
        self._terminals_built = False

        # -- coordinate cache (placement-state keyed) ---------------------
        self._coords_state: Optional[Tuple[int, int, int]] = None
        self._coords: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None

    # ------------------------------------------------------------------
    # Lazy sections
    # ------------------------------------------------------------------

    def _ensure_electrical(self) -> Tuple[np.ndarray, ...]:
        if self._electrical is None:
            masters = self._masters
            self._electrical = (
                np.array([m.leakage_nw for m in masters], dtype=float),
                np.array([m.internal_energy_fj for m in masters], dtype=float),
                np.array([m.intrinsic_delay_ps for m in masters], dtype=float),
                np.array([m.drive_res_kohm for m in masters], dtype=float),
                np.array([m.is_sequential for m in masters], dtype=bool),
            )
        return self._electrical

    @property
    def leakage_nw(self) -> np.ndarray:
        """Per-cell leakage in nanowatts (built on first use)."""
        return self._ensure_electrical()[0]

    @property
    def internal_energy_fj(self) -> np.ndarray:
        """Per-cell internal switching energy in femtojoules."""
        return self._ensure_electrical()[1]

    @property
    def intrinsic_delay_ps(self) -> np.ndarray:
        """Per-cell intrinsic delay in picoseconds."""
        return self._ensure_electrical()[2]

    @property
    def drive_res_kohm(self) -> np.ndarray:
        """Per-cell drive resistance in kiloohms."""
        return self._ensure_electrical()[3]

    @property
    def is_sequential(self) -> np.ndarray:
        """Per-cell sequential-master flags."""
        return self._ensure_electrical()[4]

    def _ensure_net_loads(self) -> Tuple[np.ndarray, np.ndarray]:
        if self._net_loads is None:
            sink_pin_cap = np.zeros(self.num_nets)
            num_sinks = np.zeros(self.num_nets, dtype=np.int64)
            for i, net in enumerate(self._nets):
                # Summed in sink-pin order, matching the reference loop
                # exactly.
                sink_pin_cap[i] = sum(
                    p.cell.master.input_cap_ff for p in net.sink_pins
                )
                num_sinks[i] = net.num_sinks
            self._net_loads = (sink_pin_cap, num_sinks)
        return self._net_loads

    @property
    def sink_pin_cap_ff(self) -> np.ndarray:
        """Summed sink-pin input capacitance per net (built on first use)."""
        return self._ensure_net_loads()[0]

    @property
    def num_sinks(self) -> np.ndarray:
        """Sink count per net (built on first use)."""
        return self._ensure_net_loads()[1]

    def _ensure_outpins(self) -> Tuple[np.ndarray, np.ndarray]:
        if self._outpins is None:
            outpin_cell: List[int] = []
            outpin_net: List[int] = []
            net_index = self.net_index
            for ci, cell in enumerate(self._cells):
                if cell.is_filler:
                    continue
                for pin in cell.output_pins:
                    if pin.net is not None:
                        outpin_cell.append(ci)
                        outpin_net.append(net_index[pin.net.name])
            self._outpins = (
                np.array(outpin_cell, dtype=np.int64),
                np.array(outpin_net, dtype=np.int64),
            )
        return self._outpins

    @property
    def outpin_cell(self) -> np.ndarray:
        """Cell index of every connected non-filler output pin."""
        return self._ensure_outpins()[0]

    @property
    def outpin_net(self) -> np.ndarray:
        """Net index of every connected non-filler output pin."""
        return self._ensure_outpins()[1]

    def _ensure_sequential(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        if self._sequential is None:
            net_index = self.net_index
            seq_cells: List[int] = []
            seq_d_slot: List[int] = []
            seq_q_slot: List[int] = []
            for ci, cell in enumerate(self._cells):
                if not cell.is_sequential:
                    continue
                in_pins = cell.input_pins
                out_pins = cell.output_pins
                d = in_pins[0].net if in_pins else None
                q = out_pins[0].net if out_pins else None
                seq_cells.append(ci)
                seq_d_slot.append(
                    net_index[d.name] if d is not None else self.zero_slot
                )
                seq_q_slot.append(
                    net_index[q.name] if q is not None else self.trash_slot
                )
            self._sequential = (
                np.array(seq_cells, dtype=np.int64),
                np.array(seq_d_slot, dtype=np.int64),
                np.array(seq_q_slot, dtype=np.int64),
            )
        return self._sequential

    @property
    def seq_cells(self) -> np.ndarray:
        """Cell indices of sequential cells (built on first use)."""
        return self._ensure_sequential()[0]

    @property
    def seq_d_slot(self) -> np.ndarray:
        """Per-flop D-input value slot."""
        return self._ensure_sequential()[1]

    @property
    def seq_q_slot(self) -> np.ndarray:
        """Per-flop Q-output value slot."""
        return self._ensure_sequential()[2]

    @property
    def levels(self) -> List[List[GateGroup]]:
        """Levelized gate groups (built on first use)."""
        if self._levels is None:
            self._levels = self._levelize(self._cells)
        return self._levels

    @property
    def driven_slots(self) -> np.ndarray:
        """Value slots written by PIs, flip-flop Qs and gate outputs."""
        if self._driven_slots is None:
            driven: List[int] = [s for _, s in self.pi_ports if s >= 0]
            driven.extend(int(s) for s in self.seq_q_slot if s < self.num_nets)
            for level in self.levels:
                for group in level:
                    driven.extend(
                        int(s) for s in group.out.ravel() if s < self.num_nets
                    )
            self._driven_slots = np.array(driven, dtype=np.int64)
        return self._driven_slots

    def _ensure_sta_arrays(self) -> None:
        if self._sta_arrays is not None:
            return
        net_index = self.net_index
        launch_cell: List[int] = []
        launch_net: List[int] = []
        ep_names: List[str] = []
        ep_slot: List[int] = []
        ep_setup: List[float] = []
        for ci, cell in enumerate(self._cells):
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
        for port in self.netlist.primary_outputs:
            if port.net is not None:
                ep_names.append(port.name)
                ep_slot.append(net_index[port.net.name])
                ep_setup.append(0.0)
        self._sta_arrays = (
            np.array(launch_cell, dtype=np.int64),
            np.array(launch_net, dtype=np.int64),
            ep_names,
            np.array(ep_slot, dtype=np.int64),
            np.array(ep_setup, dtype=float),
        )

    @property
    def launch_cell(self) -> np.ndarray:
        self._ensure_sta_arrays()
        return self._sta_arrays[0]

    @property
    def launch_net(self) -> np.ndarray:
        self._ensure_sta_arrays()
        return self._sta_arrays[1]

    @property
    def ep_names(self) -> List[str]:
        self._ensure_sta_arrays()
        return self._sta_arrays[2]

    @property
    def ep_slot(self) -> np.ndarray:
        self._ensure_sta_arrays()
        return self._sta_arrays[3]

    @property
    def ep_setup(self) -> np.ndarray:
        self._ensure_sta_arrays()
        return self._sta_arrays[4]

    # ------------------------------------------------------------------
    # Levelization
    # ------------------------------------------------------------------

    def _levelize(self, cells: List[CellInstance]) -> List[List[GateGroup]]:
        """Topologically level the combinational cells and group by master."""
        net_pos = {id(net): i for i, net in enumerate(self._nets)}
        cell_pos = {id(cell): i for i, cell in enumerate(cells)}

        seq_or_filler = [c.is_sequential or c.is_filler for c in cells]
        comb = [ci for ci, skip in enumerate(seq_or_filler) if not skip]
        comb_pos = [-1] * len(cells)
        for k, ci in enumerate(comb):
            comb_pos[ci] = k

        # One pass over the pins: value slots per cell (reused below for the
        # group matrices) and the comb-to-comb dependency edges.
        zero = self.zero_slot
        trash = self.trash_slot
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

        from collections import deque

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
                fanin = np.array(
                    [fanin_slots[comb_pos[ci]] for ci in members], dtype=np.int64
                ).reshape(len(members), len(master.inputs))
                out = np.array(
                    [out_slots[comb_pos[ci]] for ci in members], dtype=np.int64
                ).reshape(len(members), len(master.outputs))
                groups.append(
                    GateGroup(
                        master=master,
                        op=op,
                        cells=np.array(members, dtype=np.int64),
                        fanin=fanin,
                        out=out,
                    )
                )
            levels.append(groups)
        return levels

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
    # Coordinate-dependent arrays (placement-state cached)
    # ------------------------------------------------------------------

    def cell_center_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-cell centre coordinates ``(cx, cy, placed_mask)``.

        Arrays are aligned with :attr:`cell_names`; unplaced cells carry
        ``NaN`` coordinates and ``False`` in the mask.  The gather is cached
        against :meth:`Netlist.placement_state`, so repeated calls with no
        intervening move in this design are free.
        """
        state = self.netlist.placement_state()
        if self._coords is not None and self._coords_state == state:
            return self._coords
        n = self.num_cells
        cx = np.full(n, np.nan)
        cy = np.full(n, np.nan)
        placed = np.zeros(n, dtype=bool)
        half_h = ROW_HEIGHT / 2.0
        for i, cell in enumerate(self._cells):
            x = cell.x
            if x is None or cell.y is None:
                continue
            cx[i] = x + cell.width / 2.0
            cy[i] = cell.y + half_h
            placed[i] = True
        self._coords = (cx, cy, placed)
        self._coords_state = state
        return self._coords

    # ------------------------------------------------------------------
    # Net terminals / vectorized HPWL
    # ------------------------------------------------------------------

    def _build_terminals(self) -> None:
        """Flatten net terminals into segment arrays for reduceat HPWL."""
        nets = self._nets
        term_net_counts = np.zeros(self.num_nets, dtype=np.int64)
        term_is_cell: List[bool] = []
        term_ref: List[int] = []
        ports: List = []
        port_pos: Dict[int, int] = {}

        def port_idx(port) -> int:
            key = id(port)
            idx = port_pos.get(key)
            if idx is None:
                idx = len(ports)
                port_pos[key] = idx
                ports.append(port)
            return idx

        for i, net in enumerate(nets):
            count = 0
            if net.driver_pin is not None:
                term_is_cell.append(True)
                term_ref.append(self.cell_index[net.driver_pin.cell.name])
                count += 1
            if net.driver_port is not None:
                term_is_cell.append(False)
                term_ref.append(port_idx(net.driver_port))
                count += 1
            for pin in net.sink_pins:
                term_is_cell.append(True)
                term_ref.append(self.cell_index[pin.cell.name])
                count += 1
            for port in net.sink_ports:
                term_is_cell.append(False)
                term_ref.append(port_idx(port))
                count += 1
            term_net_counts[i] = count

        self._term_is_cell = np.array(term_is_cell, dtype=bool)
        self._term_ref = np.array(term_ref, dtype=np.int64)
        self._term_ports = ports
        offsets = np.zeros(self.num_nets + 1, dtype=np.int64)
        np.cumsum(term_net_counts, out=offsets[1:])
        self._term_offsets = offsets
        self._terminals_built = True

    def net_hpwl_um(self) -> np.ndarray:
        """Half-perimeter wirelength of every net over its placed terminals.

        Matches :meth:`Net.hpwl`: nets with fewer than two placed terminals
        report ``0.0``.
        """
        if not self._terminals_built:
            self._build_terminals()
        cx, cy, placed = self.cell_center_arrays()
        num_ports = len(self._term_ports)
        px = np.full(num_ports, np.nan)
        py = np.full(num_ports, np.nan)
        p_placed = np.zeros(num_ports, dtype=bool)
        for i, port in enumerate(self._term_ports):
            if port.x is not None:
                px[i] = port.x
                py[i] = port.y
                p_placed[i] = True

        is_cell = self._term_is_cell
        ref = self._term_ref
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

        starts = self._term_offsets[:-1]
        counts = np.diff(self._term_offsets)

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

    def net_length_um(self, fallback_um: float) -> np.ndarray:
        """Estimated routed net lengths (HPWL with the wireload fallback).

        Matches :meth:`DelayModel.net_length_um`: nets whose HPWL is zero
        (fewer than two placed terminals, or coincident terminals) fall back
        to ``fallback_um * max(num_sinks, 1)``.
        """
        length = self.net_hpwl_um()
        fallback = fallback_um * np.maximum(self.num_sinks, 1)
        return np.where(length <= 0.0, fallback, length)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CompiledNetlist({self.netlist.name}, cells={self.num_cells}, "
            f"nets={self.num_nets}, levels={len(self.levels)})"
        )
