"""Static timing analysis.

A block-based STA over the combinational timing graph: arrival times start
at launch points (primary inputs and flip-flop outputs), propagate through
the levelized combinational logic using the
:class:`~repro.timing.delay.DelayModel`, and are checked at capture points
(flip-flop data inputs and primary outputs) against the clock period.

The analysis is used before and after the post-placement transformations to
quantify the timing overhead (the paper reports a maximum of about 2%).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..engine import resolve_engine
from ..netlist import Netlist
from ..placement import as_placement
from .delay import DelayModel

#: Clock period corresponding to the paper's 1 GHz operating frequency.
DEFAULT_CLOCK_PERIOD_PS = 1000.0


@dataclass
class TimingPath:
    """One timing path endpoint report.

    Attributes:
        endpoint: Name of the capture point (``cell/D`` or a primary output).
        arrival_ps: Data arrival time in picoseconds.
        slack_ps: Clock period minus arrival time.
        through_cells: Cell names along the critical path to this endpoint,
            launch to capture.
    """

    endpoint: str
    arrival_ps: float
    slack_ps: float
    through_cells: List[str] = field(default_factory=list)


@dataclass
class TimingReport:
    """Design-level timing results.

    Attributes:
        critical_path_ps: Longest data arrival time (the critical path).
        clock_period_ps: Clock period the design was checked against.
        worst_slack_ps: Worst endpoint slack.
        worst_path: The critical path endpoint report.
        num_endpoints: Number of analysed capture points.
    """

    critical_path_ps: float
    clock_period_ps: float
    worst_slack_ps: float
    worst_path: Optional[TimingPath]
    num_endpoints: int

    @property
    def meets_timing(self) -> bool:
        """``True`` if the worst slack is non-negative."""
        return self.worst_slack_ps >= 0.0

    def overhead_versus(self, baseline: "TimingReport") -> float:
        """Fractional critical-path increase relative to ``baseline``."""
        if baseline.critical_path_ps <= 0.0:
            raise ValueError("baseline critical path must be positive")
        return (self.critical_path_ps - baseline.critical_path_ps) / baseline.critical_path_ps


class StaticTimingAnalyzer:
    """Block-based STA engine.

    Args:
        netlist: The design to analyse (combinational logic must be acyclic).
        delay_model: Delay calculator; a default one at nominal temperature
            is created when omitted.
        clock_period_ps: Clock period for slack computation.
        placement: The placed design over ``netlist`` whose coordinates
            the wire lengths are measured on — a
            :class:`~repro.placement.Placement` or a
            :class:`~repro.placement.PlacementView`; by default the
            netlist's own cell and port positions.  A view's netlist
            carries the *baseline's* coordinates, so analysing a
            transformed view without passing it here would report the
            baseline's timing.
    """

    def __init__(
        self,
        netlist: Netlist,
        delay_model: Optional[DelayModel] = None,
        clock_period_ps: float = DEFAULT_CLOCK_PERIOD_PS,
        placement=None,
    ) -> None:
        if placement is not None and placement.netlist is not netlist:
            raise ValueError("placement must be a view over the analysed netlist")
        self.netlist = netlist
        self.delay_model = delay_model if delay_model is not None else DelayModel()
        self.clock_period_ps = clock_period_ps
        self.placement = placement
        self._order_cache = None

    @property
    def _order(self):
        """Topological order (built on first reference-engine use)."""
        if self._order_cache is None:
            self._order_cache = self.netlist.levelize()
        return self._order_cache

    # ------------------------------------------------------------------

    def analyze(
        self, temperature: Optional[float] = None, engine: Optional[str] = None
    ) -> TimingReport:
        """Run the analysis and return a :class:`TimingReport`.

        Args:
            temperature: Optional uniform operating temperature in Celsius;
                defaults to the delay model's temperature.
            engine: ``"compiled"`` (level-by-level array propagation) or
                ``"reference"`` (pin-by-pin); defaults to the process-wide
                engine (see :mod:`repro.engine`).
        """
        if resolve_engine(engine) == "reference":
            if self.placement is not None:
                # The pin-by-pin engine walks cell objects: analyse the
                # placement's object form.
                return StaticTimingAnalyzer(
                    as_placement(self.placement).netlist,
                    delay_model=self.delay_model,
                    clock_period_ps=self.clock_period_ps,
                ).analyze(temperature, engine)
            arrival, predecessor = self._propagate(temperature)
            endpoints = self._collect_endpoints(arrival)
        else:
            return self._analyze_compiled(temperature)

        if not endpoints:
            return TimingReport(
                critical_path_ps=0.0,
                clock_period_ps=self.clock_period_ps,
                worst_slack_ps=self.clock_period_ps,
                worst_path=None,
                num_endpoints=0,
            )

        worst_endpoint, worst_arrival, worst_net = max(
            endpoints, key=lambda item: item[1]
        )
        worst_path = TimingPath(
            endpoint=worst_endpoint,
            arrival_ps=worst_arrival,
            slack_ps=self.clock_period_ps - worst_arrival,
            through_cells=self._trace_path(worst_net, predecessor),
        )
        return TimingReport(
            critical_path_ps=worst_arrival,
            clock_period_ps=self.clock_period_ps,
            worst_slack_ps=self.clock_period_ps - worst_arrival,
            worst_path=worst_path,
            num_endpoints=len(endpoints),
        )

    # ------------------------------------------------------------------
    # Compiled engine: level-by-level array propagation
    # ------------------------------------------------------------------

    def _analyze_compiled(self, temperature: Optional[float]) -> TimingReport:
        comp = self.netlist.compiled()
        model = self.delay_model
        cell_derate = model.cell_derating(temperature)
        wire_derate = model.wire_derating(temperature)

        # Per-net electrical vectors, extended by the zero/trash slots so
        # fanin/output slot arrays can index them directly.
        lengths = comp.net_length_um(
            model.fallback_wireload_um,
            None if self.placement is None else self.placement.terminal_coordinates(),
        )
        load_ff = comp.sink_pin_cap_ff + model.wire_cap_per_um * lengths
        wire_delay = (
            0.5
            * (model.wire_res_per_um * lengths)
            * (model.wire_cap_per_um * lengths)
            * 1e-3
            * wire_derate
        )
        load_slots = np.zeros(comp.num_slots)
        load_slots[: comp.num_nets] = load_ff
        wire_slots = np.zeros(comp.num_slots)
        wire_slots[: comp.num_nets] = wire_delay

        arrival = np.zeros(comp.num_slots)
        pred = np.full(comp.num_slots, -1, dtype=np.int64)
        known = np.zeros(comp.num_slots, dtype=bool)

        # Launch points: primary-input nets and flip-flop output nets.
        for _, slot in comp.pi_ports:
            if slot >= 0:
                known[slot] = True
        if comp.launch_net.size:
            clk_to_q = comp.intrinsic_delay_ps[comp.launch_cell] * cell_derate
            arrival[comp.launch_net] = clk_to_q + wire_slots[comp.launch_net]
            pred[comp.launch_net] = comp.launch_cell
            known[comp.launch_net] = True

        # Levelized propagation; groups within a level are independent.
        for level in comp.levels:
            for group in level:
                if group.fanin.shape[1]:
                    input_arrival = np.maximum(arrival[group.fanin].max(axis=1), 0.0)
                else:
                    input_arrival = np.zeros(group.cells.shape[0])
                intrinsic = comp.intrinsic_delay_ps[group.cells]
                drive = comp.drive_res_kohm[group.cells]
                for k in range(group.out.shape[1]):
                    slots = group.out[:, k]
                    valid = slots != comp.trash_slot
                    if not valid.any():
                        continue
                    # Associates exactly as the reference does: stage =
                    # cell_delay + wire_delay, then input_arrival + stage.
                    stage = (intrinsic + drive * load_slots[slots]) * cell_derate
                    stage = stage + wire_slots[slots]
                    total = input_arrival + stage
                    targets = slots[valid]
                    arrival[targets] = total[valid]
                    pred[targets] = group.cells[valid]
                    known[targets] = True

        num_endpoints = len(comp.ep_names)
        if num_endpoints == 0:
            return TimingReport(
                critical_path_ps=0.0,
                clock_period_ps=self.clock_period_ps,
                worst_slack_ps=self.clock_period_ps,
                worst_path=None,
                num_endpoints=0,
            )

        endpoint_arrival = arrival[comp.ep_slot] + comp.ep_setup
        worst = int(np.argmax(endpoint_arrival))
        worst_arrival = float(endpoint_arrival[worst])

        worst_path = TimingPath(
            endpoint=comp.ep_names[worst],
            arrival_ps=worst_arrival,
            slack_ps=self.clock_period_ps - worst_arrival,
            through_cells=self._trace_path_compiled(
                comp, int(comp.ep_slot[worst]), pred, known
            ),
        )
        return TimingReport(
            critical_path_ps=worst_arrival,
            clock_period_ps=self.clock_period_ps,
            worst_slack_ps=self.clock_period_ps - worst_arrival,
            worst_path=worst_path,
            num_endpoints=num_endpoints,
        )

    def _trace_path_compiled(
        self,
        comp,
        endpoint_slot: int,
        pred: np.ndarray,
        known: np.ndarray,
    ) -> List[str]:
        """Walk the predecessor array back from an endpoint net.

        Mirrors :meth:`_trace_path` exactly (same pin-selection quirks and
        stop conditions) but reads the per-slot arrays directly, so only the
        single critical path is materialised instead of a full name-keyed
        predecessor dict.
        """
        path: List[str] = []
        net_index = comp.net_index
        current: Optional[int] = endpoint_slot
        visited = set()
        while current is not None and current not in visited:
            visited.add(current)
            if not known[current]:
                break
            cell_pos = int(pred[current])
            if cell_pos < 0:
                break
            cell_name = comp.cell_names[cell_pos]
            path.append(cell_name)
            cell = self.netlist.cells.get(cell_name)
            if cell is None or cell.is_sequential:
                break
            # Move to the slowest input net of this cell (reference
            # semantics: the last driven input with an arrival entry).
            best_slot: Optional[int] = None
            for pin in cell.input_pins:
                if pin.net is None:
                    continue
                slot = net_index.get(pin.net.name)
                if slot is not None and known[slot]:
                    best_slot = slot
            current = best_slot
        path.reverse()
        return path

    # ------------------------------------------------------------------

    def _propagate(
        self, temperature: Optional[float]
    ) -> Tuple[Dict[str, float], Dict[str, Optional[str]]]:
        """Propagate arrival times; returns per-net arrival and predecessor."""
        arrival: Dict[str, float] = {}
        predecessor: Dict[str, Optional[str]] = {}
        model = self.delay_model

        # Launch points: primary-input nets and flip-flop output nets.
        for port in self.netlist.primary_inputs:
            if port.net is not None:
                arrival[port.net.name] = 0.0
                predecessor[port.net.name] = None
        for ff in self.netlist.sequential_cells():
            clk_to_q = ff.master.intrinsic_delay_ps * model.cell_derating(temperature)
            for pin in ff.output_pins:
                if pin.net is not None:
                    wire = model.wire_delay_ps(pin.net, temperature)
                    arrival[pin.net.name] = clk_to_q + wire
                    predecessor[pin.net.name] = ff.name

        for inst in self._order:
            input_arrival = 0.0
            for pin in inst.input_pins:
                if pin.net is not None:
                    input_arrival = max(input_arrival, arrival.get(pin.net.name, 0.0))
            for pin in inst.output_pins:
                net = pin.net
                if net is None:
                    continue
                stage = model.stage_delay_ps(inst, net, temperature)
                arrival[net.name] = input_arrival + stage
                predecessor[net.name] = inst.name

        return arrival, predecessor

    def _collect_endpoints(self, arrival: Dict[str, float]) -> List[Tuple[str, float, Optional[str]]]:
        """Gather capture points: FF D pins, primary outputs."""
        endpoints: List[Tuple[str, float, Optional[str]]] = []
        model = self.delay_model
        for ff in self.netlist.sequential_cells():
            for pin in ff.input_pins:
                if pin.net is None:
                    continue
                setup = 0.3 * ff.master.intrinsic_delay_ps
                endpoints.append(
                    (pin.full_name, arrival.get(pin.net.name, 0.0) + setup, pin.net.name)
                )
        for port in self.netlist.primary_outputs:
            if port.net is not None:
                endpoints.append((port.name, arrival.get(port.net.name, 0.0), port.net.name))
        return endpoints

    def _trace_path(
        self, net_name: Optional[str], predecessor: Dict[str, Optional[str]]
    ) -> List[str]:
        """Walk predecessors from an endpoint net back to its launch point."""
        path: List[str] = []
        current = net_name
        visited = set()
        while current is not None and current not in visited:
            visited.add(current)
            cell_name = predecessor.get(current)
            if cell_name is None:
                break
            path.append(cell_name)
            cell = self.netlist.cells.get(cell_name)
            if cell is None or cell.is_sequential:
                break
            # Move to the slowest input net of this cell.
            best_net = None
            best_arrival = -1.0
            for pin in cell.input_pins:
                if pin.net is None:
                    continue
                # Arrival of predecessors is implied by path order; pick any
                # driven input that has a predecessor entry.
                if pin.net.name in predecessor:
                    best_net = pin.net.name
                    best_arrival = max(best_arrival, 0.0)
            current = best_net
        path.reverse()
        return path


def analyze_timing(
    netlist: Netlist,
    temperature: Optional[float] = None,
    clock_period_ps: float = DEFAULT_CLOCK_PERIOD_PS,
) -> TimingReport:
    """Convenience wrapper: analyse ``netlist`` with the default delay model."""
    model = DelayModel(temperature=temperature if temperature is not None else 25.0)
    analyzer = StaticTimingAnalyzer(netlist, delay_model=model, clock_period_ps=clock_period_ps)
    return analyzer.analyze(temperature)
