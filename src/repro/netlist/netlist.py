"""Gate-level netlist container.

A :class:`Netlist` holds cell instances, nets and primary ports, and offers
the structural queries the rest of the system needs: levelization for the
vectorized logic simulator, total cell area for utilization bookkeeping, and
net/fanout statistics.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional

import numpy as np

from .cell import CellInstance, Pin
from .library import CellLibrary, MasterCell
from .net import Net, Port


class Netlist:
    """A flat gate-level netlist.

    Attributes:
        name: Design name.
        library: The :class:`CellLibrary` instances refer to.
    """

    def __init__(self, name: str, library: CellLibrary) -> None:
        self.name = name
        self.library = library
        self.cells: Dict[str, CellInstance] = {}
        self.nets: Dict[str, Net] = {}
        self.ports: Dict[str, Port] = {}
        #: Structural version, bumped by every mutating method; the compiled
        #: view (:meth:`compiled`) is cached against it.
        self._version = 0
        self._compiled = None
        #: Compiled connectivity shared with this netlist's copies (see
        #: :meth:`copy`); ``None`` until compiled or copied, and after any
        #: edit that changes the connectivity.
        self._connectivity = None

    def _invalidate(self) -> None:
        """Record a structural edit that changes the connectivity."""
        self._version += 1
        self._connectivity = None

    def shares_structure_with(self, other: "Netlist") -> bool:
        """Whether ``other`` reads this netlist's compiled connectivity.

        True exactly when one is an unedited :meth:`copy` of the other (or
        of a common source): same cells, nets and ports in the same order.
        """
        return self._connectivity is not None and self._connectivity is other._connectivity

    def invalidate_compiled(self) -> None:
        """Force recompilation of the cached array form.

        Mutations performed through :class:`Netlist` methods are tracked
        automatically; call this only after mutating nets or pins directly
        (e.g. ``net.add_sink(pin)`` without going through :meth:`connect`).
        """
        self._invalidate()

    def compiled(self):
        """The netlist lowered to levelized structure-of-arrays form.

        The :class:`~repro.netlist.compiled.CompiledNetlist` view is built
        on first access and cached; any structural mutation through the
        :class:`Netlist` API invalidates it automatically.  The view reads
        its sections (cell vectors, levels, net loads, terminals, STA
        arrays) from the :class:`~repro.netlist.compiled.Connectivity`
        this netlist shares with its copies, so an unedited copy compiles
        without recomputing them.
        """
        from .compiled import CompiledNetlist

        cached = self._compiled
        if cached is None or cached.version != self._version:
            cached = CompiledNetlist(self, self._shared_connectivity())
            self._compiled = cached
        return cached

    def _shared_connectivity(self):
        """This netlist's connectivity, created (empty, built lazily) if missing."""
        from .compiled import Connectivity

        if self._connectivity is None:
            self._connectivity = Connectivity()
        return self._connectivity

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    def add_cell(self, name: str, master: str | MasterCell, unit: str = "") -> CellInstance:
        """Create and register a cell instance.

        Args:
            name: Unique instance name.
            master: Master cell name (looked up in the library) or object.
            unit: Logical block the cell belongs to.

        Returns:
            The created :class:`CellInstance`.

        Raises:
            ValueError: If an instance with that name already exists.
        """
        if name in self.cells:
            raise ValueError(f"duplicate cell instance {name!r}")
        master_cell = self.library[master] if isinstance(master, str) else master
        inst = CellInstance(name, master_cell, unit=unit)
        self.cells[name] = inst
        self._invalidate()
        return inst

    def add_fillers(self, names: List[str], masters: List[MasterCell]) -> List[CellInstance]:
        """Append unconnected filler instances in one structural edit.

        Equivalent to one :meth:`add_cell` per ``(name, master)`` pair, in
        order, as one structural edit.  Used by
        :meth:`~repro.placement.placement.Placement.materialize_fillers`.

        Raises:
            ValueError: If a name is taken or a master is not a filler; no
                cell is added then.
        """
        cells = self.cells
        if len(set(names)) != len(names) or any(n in cells for n in names):
            raise ValueError("duplicate cell instance among the filler names")
        if not all(m.is_filler for m in masters):
            raise ValueError("add_fillers accepts filler masters only")
        created = [CellInstance(n, m) for n, m in zip(names, masters)]
        cells.update(zip(names, created))
        self._invalidate()
        return created

    def add_net(self, name: str) -> Net:
        """Create and register a net, or return the existing one."""
        net = self.nets.get(name)
        if net is None:
            net = Net(name)
            self.nets[name] = net
            self._invalidate()
        return net

    def add_port(self, name: str, direction: str) -> Port:
        """Create and register a primary port.

        Raises:
            ValueError: If a port with that name already exists.
        """
        if name in self.ports:
            raise ValueError(f"duplicate port {name!r}")
        port = Port(name, direction)
        self.ports[name] = port
        self._invalidate()
        return port

    def connect(self, net_name: str, pin: Pin) -> Net:
        """Connect a cell pin to the named net (creating it if needed)."""
        net = self.add_net(net_name)
        if pin.is_output:
            net.set_driver(pin)
        else:
            net.add_sink(pin)
        self._invalidate()
        return net

    def connect_port(self, net_name: str, port_name: str) -> Net:
        """Connect a primary port to the named net (creating it if needed)."""
        net = self.add_net(net_name)
        port = self.ports[port_name]
        if port.is_input:
            net.set_driver_port(port)
        else:
            net.add_sink_port(port)
        self._invalidate()
        return net

    def remove_cell(self, name: str) -> None:
        """Remove a cell instance and disconnect its pins from their nets."""
        inst = self.cells.pop(name)
        for pin in inst.pins.values():
            net = pin.net
            if net is None:
                continue
            if net.driver_pin is pin:
                net.driver_pin = None
            if pin in net.sink_pins:
                net.sink_pins.remove(pin)
            pin.net = None
        self._invalidate()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def primary_inputs(self) -> List[Port]:
        """Primary input ports."""
        return [p for p in self.ports.values() if p.is_input]

    @property
    def primary_outputs(self) -> List[Port]:
        """Primary output ports."""
        return [p for p in self.ports.values() if p.is_output]

    @property
    def num_cells(self) -> int:
        return len(self.cells)

    @property
    def num_nets(self) -> int:
        return len(self.nets)

    def logic_cells(self) -> List[CellInstance]:
        """Cell instances that are not fillers."""
        return [c for c in self.cells.values() if not c.is_filler]

    def filler_cells(self) -> List[CellInstance]:
        """Filler cell instances."""
        return [c for c in self.cells.values() if c.is_filler]

    def sequential_cells(self) -> List[CellInstance]:
        """Flip-flop instances."""
        return [c for c in self.cells.values() if c.is_sequential]

    def combinational_cells(self) -> List[CellInstance]:
        """Non-sequential, non-filler instances."""
        return [c for c in self.cells.values() if not c.is_sequential and not c.is_filler]

    def total_cell_area(self, include_fillers: bool = False) -> float:
        """Sum of instance areas in square micrometres, in cell order."""
        compiled = self.compiled()
        areas = compiled.cell_area_um2
        if not include_fillers:
            areas = areas[~compiled.is_filler]
        # A running sum adds left to right, as a loop over the cells does.
        return np.cumsum(areas)[-1].item() if areas.size else 0

    def units(self) -> List[str]:
        """Sorted list of distinct non-empty unit labels."""
        return sorted({c.unit for c in self.cells.values() if c.unit})

    def cells_in_unit(self, unit: str) -> List[CellInstance]:
        """All cell instances whose ``unit`` label equals ``unit``."""
        return [c for c in self.cells.values() if c.unit == unit]

    def fanout_cells(self, inst: CellInstance) -> List[CellInstance]:
        """Distinct cells driven by any output pin of ``inst``."""
        seen: Dict[str, CellInstance] = {}
        for pin in inst.output_pins:
            if pin.net is None:
                continue
            for sink in pin.net.sink_pins:
                seen[sink.cell.name] = sink.cell
        return list(seen.values())

    def fanin_cells(self, inst: CellInstance) -> List[CellInstance]:
        """Distinct cells driving any input pin of ``inst``."""
        seen: Dict[str, CellInstance] = {}
        for pin in inst.input_pins:
            if pin.net is None or pin.net.driver_pin is None:
                continue
            driver = pin.net.driver_pin.cell
            seen[driver.name] = driver
        return list(seen.values())

    # ------------------------------------------------------------------
    # Levelization
    # ------------------------------------------------------------------

    def levelize(self) -> List[CellInstance]:
        """Topologically order the combinational cells.

        Sequential cell outputs and primary inputs are treated as sources;
        sequential cell data inputs and primary outputs as sinks, so any
        cycle through a flip-flop is broken at the flip-flop boundary.

        Returns:
            Combinational cell instances in a valid evaluation order.

        Raises:
            ValueError: If the combinational logic contains a cycle.
        """
        comb = self.combinational_cells()
        indegree: Dict[str, int] = {c.name: 0 for c in comb}
        dependents: Dict[str, List[CellInstance]] = {c.name: [] for c in comb}

        for inst in comb:
            for pin in inst.input_pins:
                net = pin.net
                if net is None or net.driver_pin is None:
                    continue
                driver = net.driver_pin.cell
                if driver.is_sequential or driver.is_filler:
                    continue
                indegree[inst.name] += 1
                dependents[driver.name].append(inst)

        queue: deque = deque(c for c in comb if indegree[c.name] == 0)
        order: List[CellInstance] = []
        while queue:
            inst = queue.popleft()
            order.append(inst)
            for dep in dependents[inst.name]:
                indegree[dep.name] -= 1
                if indegree[dep.name] == 0:
                    queue.append(dep)

        if len(order) != len(comb):
            unresolved = [name for name, deg in indegree.items() if deg > 0]
            raise ValueError(
                "combinational cycle detected involving cells: "
                + ", ".join(sorted(unresolved)[:10])
            )
        return order

    # ------------------------------------------------------------------
    # Merging (used by the synthetic benchmark generator)
    # ------------------------------------------------------------------

    def merge(self, other: "Netlist", prefix: str, unit: Optional[str] = None) -> None:
        """Merge another netlist into this one, prefixing all names.

        The other netlist's primary ports become ports of this design named
        ``<prefix><port>``.  Cells and nets are copied with the same prefix.

        Args:
            other: The netlist to absorb.
            prefix: String prepended to every cell, net and port name.
            unit: Unit label assigned to the copied cells; defaults to the
                cells' existing labels, or ``prefix`` with a trailing ``_``
                stripped when a cell has no label.
        """
        default_unit = unit if unit is not None else prefix.rstrip("_")
        name_map: Dict[str, CellInstance] = {}
        for inst in other.cells.values():
            new_unit = unit if unit is not None else (inst.unit or default_unit)
            new = self.add_cell(prefix + inst.name, inst.master, unit=new_unit)
            if inst.is_placed:
                new.place(inst.x, inst.y, inst.row)
            name_map[inst.name] = new

        for port in other.ports.values():
            self.add_port(prefix + port.name, port.direction)

        for net in other.nets.values():
            new_name = prefix + net.name
            if net.driver_pin is not None:
                self.connect(new_name, name_map[net.driver_pin.cell.name].pin(net.driver_pin.name))
            if net.driver_port is not None:
                self.connect_port(new_name, prefix + net.driver_port.name)
            for pin in net.sink_pins:
                self.connect(new_name, name_map[pin.cell.name].pin(pin.name))
            for port in net.sink_ports:
                self.connect_port(new_name, prefix + port.name)

    def copy(self, name: Optional[str] = None) -> "Netlist":
        """Deep-copy the netlist (cells, nets, ports, placement data).

        The copy shares the (immutable) library and master cells but owns
        fresh cell instances, nets and ports, so transformations applied to
        the copy never disturb the original.  Instance, net and port names
        are preserved, which keeps per-cell annotations (e.g. power reports
        keyed by cell name) valid for the copy.

        The copy also shares its source's compiled connectivity (see
        :meth:`compiled`) by reference: its cell vectors, levels, net loads,
        terminal segments and STA arrays are computed at most once for
        both.  Any structural edit of either netlist (adding or removing a
        cell, connecting or disconnecting a pin, adding a net or port,
        :meth:`invalidate_compiled`) drops that netlist's share and its next
        :meth:`compiled` recompiles from scratch.  A same-named copy also
        inherits its source's structural content digest (see
        :func:`repro.flow.artifacts.netlist_digest`), so it is never
        re-hashed while unedited.
        """
        clone = Netlist(name if name is not None else self.name, self.library)
        # Clone structures directly (the source is valid by construction, so
        # the checked add/connect API would only re-validate it); this runs
        # once per strategy evaluation on the full design.
        clone_cells = clone.cells
        for inst in self.cells.values():
            new = CellInstance(inst.name, inst.master, unit=inst.unit)
            new.x = inst.x
            new.y = inst.y
            new.row = inst.row
            new.fixed = inst.fixed
            clone_cells[inst.name] = new
        clone_ports = clone.ports
        for port in self.ports.values():
            new_port = Port(port.name, port.direction)
            new_port.x = port.x
            new_port.y = port.y
            clone_ports[port.name] = new_port
        clone_nets = clone.nets
        for net in self.nets.values():
            new_net = Net(net.name)
            if net.driver_pin is not None:
                pin = clone_cells[net.driver_pin.cell.name].pins[net.driver_pin.name]
                new_net.driver_pin = pin
                pin.net = new_net
            if net.driver_port is not None:
                port = clone_ports[net.driver_port.name]
                new_net.driver_port = port
                port.net = new_net
            sinks = new_net.sink_pins
            for pin in net.sink_pins:
                new_pin = clone_cells[pin.cell.name].pins[pin.name]
                sinks.append(new_pin)
                new_pin.net = new_net
            for port in net.sink_ports:
                new_port = clone_ports[port.name]
                new_net.sink_ports.append(new_port)
                new_port.net = new_net
            clone_nets[net.name] = new_net
        clone._version += 1
        clone._connectivity = self._shared_connectivity()
        memo = getattr(self, "_content_digest_memo", None)
        if memo is not None and memo[0] == self._version and clone.name == self.name:
            clone._content_digest_memo = (clone._version, memo[1])
        return clone

    # ------------------------------------------------------------------
    # Pickling
    # ------------------------------------------------------------------

    def __reduce__(self):
        """Pickle via flat per-object tables instead of graph traversal.

        The Pin -> Net -> Pin object graph is as deep as the design's
        connectivity, so default recursive pickling overflows the
        interpreter stack on realistic netlists.  The state mirrors
        :meth:`copy`: names, coordinates and name-based connectivity,
        with the (immutable) library shared.  Caches (``_compiled``,
        content-digest memos) are deliberately not part of the state.
        """
        cells = [
            (c.name, c.master.name, c.unit, c.x, c.y, c.row, c.fixed)
            for c in self.cells.values()
        ]
        ports = [(p.name, p.direction, p.x, p.y) for p in self.ports.values()]
        nets = [
            (
                net.name,
                (net.driver_pin.cell.name, net.driver_pin.name)
                if net.driver_pin is not None
                else None,
                net.driver_port.name if net.driver_port is not None else None,
                [(pin.cell.name, pin.name) for pin in net.sink_pins],
                [port.name for port in net.sink_ports],
            )
            for net in self.nets.values()
        ]
        return (_netlist_from_state, (self.name, self.library, cells, ports, nets))

    # ------------------------------------------------------------------
    # Statistics / validation
    # ------------------------------------------------------------------

    def statistics(self) -> Dict[str, float]:
        """Summary statistics used in reports and sanity checks."""
        comb = self.combinational_cells()
        seq = self.sequential_cells()
        return {
            "num_cells": float(self.num_cells),
            "num_logic_cells": float(len(self.logic_cells())),
            "num_combinational": float(len(comb)),
            "num_sequential": float(len(seq)),
            "num_fillers": float(len(self.filler_cells())),
            "num_nets": float(self.num_nets),
            "num_ports": float(len(self.ports)),
            "total_cell_area_um2": self.total_cell_area(),
        }

    def check(self) -> List[str]:
        """Run structural sanity checks.

        Returns:
            A list of human-readable problems; empty when the netlist is
            structurally sound (every non-filler input pin driven, every net
            with a driver, no dangling drivers on multi-driven nets).
        """
        problems: List[str] = []
        for net in self.nets.values():
            if not net.has_driver and net.num_sinks > 0:
                problems.append(f"net {net.name} has sinks but no driver")
        for inst in self.cells.values():
            if inst.is_filler:
                continue
            for pin in inst.input_pins:
                if pin.net is None:
                    problems.append(f"input pin {pin.full_name} is unconnected")
        for port in self.primary_outputs:
            if port.net is None:
                problems.append(f"primary output {port.name} is unconnected")
        return problems

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Netlist({self.name}, cells={self.num_cells}, nets={self.num_nets})"


def _netlist_from_state(name, library, cells, ports, nets) -> Netlist:
    """Rebuild a netlist from the flat state emitted by ``__reduce__``."""
    netlist = Netlist(name, library)
    clone_cells = netlist.cells
    for cell_name, master_name, unit, x, y, row, fixed in cells:
        inst = CellInstance(cell_name, library[master_name], unit=unit)
        inst.x = x
        inst.y = y
        inst.row = row
        inst.fixed = fixed
        clone_cells[cell_name] = inst
    clone_ports = netlist.ports
    for port_name, direction, x, y in ports:
        port = Port(port_name, direction)
        port.x = x
        port.y = y
        clone_ports[port_name] = port
    clone_nets = netlist.nets
    for net_name, driver_pin, driver_port, sink_pins, sink_ports in nets:
        net = Net(net_name)
        if driver_pin is not None:
            pin = clone_cells[driver_pin[0]].pins[driver_pin[1]]
            net.driver_pin = pin
            pin.net = net
        if driver_port is not None:
            port = clone_ports[driver_port]
            net.driver_port = port
            port.net = net
        for cell_name, pin_name in sink_pins:
            pin = clone_cells[cell_name].pins[pin_name]
            net.sink_pins.append(pin)
            pin.net = net
        for port_name in sink_ports:
            port = clone_ports[port_name]
            net.sink_ports.append(port)
            port.net = net
        clone_nets[net_name] = net
    netlist._invalidate()
    return netlist
