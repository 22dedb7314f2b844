"""Cell-by-cell power estimation.

Substitutes for the Synopsys Power Compiler step of the paper's flow: given
a netlist annotated with switching activity, compute each cell's average
power.  The model is the standard cell-level decomposition used by
commercial tools:

* **switching (net) power** — ``0.5 * Vdd^2 * f * C_load * toggles`` for
  every net the cell drives, where the load is the fanout pin capacitance
  plus a fanout-based wire-load estimate (power is estimated *before* the
  post-placement transformations and, as in the paper, is kept unchanged by
  them);
* **internal power** — a per-transition internal energy from the library;
* **leakage power** — the library leakage, optionally scaled exponentially
  with temperature to model the leakage/temperature feedback loop.

The result is a :class:`PowerReport` mapping every cell instance to a
:class:`CellPower` breakdown; filler cells always have exactly zero power.

Two engines implement the estimation (see :mod:`repro.engine`): the default
``"compiled"`` engine evaluates the whole design as array expressions over
the netlist's compiled vectors, producing an array-backed
:class:`PowerReport` whose per-cell dict is materialised only on demand;
the ``"reference"`` engine is the original cell-by-cell loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Union

import numpy as np

from ..engine import resolve_engine
from ..floatsum import ordered_sum
from ..netlist import CellInstance, Netlist, VDD, WIRE_CAP_PER_UM
from .activity import SwitchingActivity

#: Default clock frequency in hertz (the paper clocks the benchmark at 1 GHz).
DEFAULT_FREQUENCY_HZ = 1.0e9

#: Wire-load model: estimated wire length per fanout pin, in micrometres.
WIRELOAD_UM_PER_FANOUT = 4.0

#: Leakage doubles roughly every this many degrees Celsius.
LEAKAGE_DOUBLING_CELSIUS = 25.0


@dataclass(frozen=True)
class CellPower:
    """Power breakdown of a single cell instance, in watts."""

    switching: float
    internal: float
    leakage: float

    @property
    def dynamic(self) -> float:
        """Switching plus internal power."""
        return self.switching + self.internal

    @property
    def total(self) -> float:
        """Total cell power."""
        return self.switching + self.internal + self.leakage


class PowerReport:
    """Per-cell power for a design.

    Array-backed reports (from the compiled engine) keep per-cell power in
    aligned vectors and materialise the :attr:`cell_powers` dict lazily;
    dict-backed reports (from the reference engine, or hand-built) behave
    exactly as before.

    Attributes:
        cell_powers: Mapping cell instance name -> :class:`CellPower`.
        frequency_hz: Clock frequency used.
        temperature: Temperature (Celsius) the leakage was evaluated at.
    """

    def __init__(
        self,
        cell_powers: Dict[str, CellPower],
        frequency_hz: float,
        temperature: float,
    ) -> None:
        self._cell_powers: Optional[Dict[str, CellPower]] = cell_powers
        self.frequency_hz = frequency_hz
        self.temperature = temperature
        self._names: Optional[List[str]] = None
        self._switching: Optional[np.ndarray] = None
        self._internal: Optional[np.ndarray] = None
        self._leakage: Optional[np.ndarray] = None
        self._total: Optional[np.ndarray] = None
        self._index: Optional[Dict[str, int]] = None

    @classmethod
    def from_arrays(
        cls,
        names: List[str],
        switching: np.ndarray,
        internal: np.ndarray,
        leakage: np.ndarray,
        frequency_hz: float,
        temperature: float,
    ) -> "PowerReport":
        """Build an array-backed report (compiled-engine fast path)."""
        report = cls({}, frequency_hz, temperature)
        report._cell_powers = None
        report._names = names
        report._switching = switching
        report._internal = internal
        report._leakage = leakage
        total = switching + internal + leakage
        # Exposed through total_array / total_for_names without copying;
        # read-only so callers cannot silently corrupt the report.
        total.setflags(write=False)
        report._total = total
        return report

    # ------------------------------------------------------------------

    @property
    def cell_powers(self) -> Dict[str, CellPower]:
        """Mapping cell name -> :class:`CellPower` (materialised lazily)."""
        if self._cell_powers is None:
            self._cell_powers = {
                name: CellPower(s, i, k)
                for name, s, i, k in zip(
                    self._names,
                    self._switching.tolist(),
                    self._internal.tolist(),
                    self._leakage.tolist(),
                )
            }
        return self._cell_powers

    @property
    def cell_names(self) -> Optional[List[str]]:
        """Cell-name alignment of the array backing, or ``None``."""
        return self._names

    @property
    def total_array(self) -> Optional[np.ndarray]:
        """Per-cell total power aligned with :attr:`cell_names`, or ``None``."""
        return self._total

    def power_of(self, cell_name: str) -> float:
        """Total power of ``cell_name`` in watts (0.0 if not reported)."""
        if self._total is not None:
            if self._index is None:
                self._index = {n: i for i, n in enumerate(self._names)}
            idx = self._index.get(cell_name)
            return float(self._total[idx]) if idx is not None else 0.0
        breakdown = self._cell_powers.get(cell_name)
        return breakdown.total if breakdown is not None else 0.0

    def total_for_names(self, names: List[str]) -> np.ndarray:
        """Per-cell total power for an arbitrary cell-name list.

        Fast when ``names`` equals the report's own alignment; falls back to
        per-name lookup otherwise.  Unreported cells contribute ``0.0``,
        matching :meth:`power_of`.
        """
        if self._total is not None:
            own = self._names
            if names is own or names == own:
                return self._total
        return np.fromiter(
            (self.power_of(name) for name in names), dtype=float, count=len(names)
        )

    def total(self) -> float:
        """Total design power in watts."""
        if self._total is not None:
            return float(self._total.sum())
        return ordered_sum(p.total for p in self._cell_powers.values())

    def total_dynamic(self) -> float:
        """Total dynamic (switching + internal) power in watts."""
        if self._switching is not None:
            return float(self._switching.sum() + self._internal.sum())
        return ordered_sum(p.dynamic for p in self._cell_powers.values())

    def total_leakage(self) -> float:
        """Total leakage power in watts."""
        if self._leakage is not None:
            return float(self._leakage.sum())
        return ordered_sum(p.leakage for p in self._cell_powers.values())

    def unit_totals(self, netlist: Netlist) -> Dict[str, float]:
        """Total power per logical unit, in watts."""
        totals: Dict[str, float] = {}
        cell_powers = self.cell_powers
        for cell in netlist.cells.values():
            breakdown = cell_powers.get(cell.name)
            if breakdown is None:
                continue
            totals[cell.unit] = totals.get(cell.unit, 0.0) + breakdown.total
        return totals


class PowerModel:
    """Average-power model evaluated from switching activity.

    Args:
        frequency_hz: Clock frequency.
        vdd: Supply voltage in volts.
        wireload_um_per_fanout: Wire-load model coefficient; estimated net
            wire length is this value times the number of fanout pins.
        temperature: Junction temperature in Celsius used for leakage.
        leakage_temperature_scaling: When ``True``, leakage grows
            exponentially with temperature (doubling every
            ``LEAKAGE_DOUBLING_CELSIUS`` degrees above 25 C).
    """

    def __init__(
        self,
        frequency_hz: float = DEFAULT_FREQUENCY_HZ,
        vdd: float = VDD,
        wireload_um_per_fanout: float = WIRELOAD_UM_PER_FANOUT,
        temperature: float = 25.0,
        leakage_temperature_scaling: bool = True,
    ) -> None:
        if frequency_hz <= 0.0:
            raise ValueError(f"frequency must be positive, got {frequency_hz}")
        self.frequency_hz = frequency_hz
        self.vdd = vdd
        self.wireload_um_per_fanout = wireload_um_per_fanout
        self.temperature = temperature
        self.leakage_temperature_scaling = leakage_temperature_scaling

    # ------------------------------------------------------------------

    def net_load_ff(self, netlist: Netlist, net_name: str) -> float:
        """Estimated load capacitance on a net, in femtofarads.

        The load is the sum of the fanout pins' input capacitance plus a
        fanout-proportional wire-load estimate.
        """
        net = netlist.nets.get(net_name)
        if net is None:
            return 0.0
        pin_cap = ordered_sum(pin.cell.master.input_cap_ff for pin in net.sink_pins)
        fanout = max(net.num_sinks, 1)
        wire_cap = WIRE_CAP_PER_UM * self.wireload_um_per_fanout * fanout
        return pin_cap + wire_cap

    def leakage_scale(self, temperature: Optional[float] = None) -> float:
        """Leakage multiplier at ``temperature`` relative to 25 C."""
        if not self.leakage_temperature_scaling:
            return 1.0
        temp = self.temperature if temperature is None else temperature
        return 2.0 ** ((temp - 25.0) / LEAKAGE_DOUBLING_CELSIUS)

    def cell_power(
        self,
        netlist: Netlist,
        cell: CellInstance,
        activity: SwitchingActivity,
        temperature: Optional[float] = None,
    ) -> CellPower:
        """Power breakdown of one cell instance (reference semantics)."""
        if cell.is_filler:
            return CellPower(0.0, 0.0, 0.0)

        switching = 0.0
        internal = 0.0
        for pin in cell.output_pins:
            if pin.net is None:
                continue
            toggles = activity.toggle_rate(pin.net.name)
            load_farad = self.net_load_ff(netlist, pin.net.name) * 1e-15
            switching += 0.5 * self.vdd ** 2 * load_farad * toggles * self.frequency_hz
            internal += cell.master.internal_energy_fj * 1e-15 * toggles * self.frequency_hz

        # Sequential cells are clocked every cycle: add the clock-pin
        # internal energy even when the data does not toggle.
        if cell.is_sequential:
            internal += cell.master.internal_energy_fj * 1e-15 * self.frequency_hz

        leakage = cell.master.leakage_nw * 1e-9 * self.leakage_scale(temperature)
        return CellPower(switching=switching, internal=internal, leakage=leakage)

    # ------------------------------------------------------------------
    # Compiled-engine array evaluation
    # ------------------------------------------------------------------

    def _estimate_arrays(
        self,
        comp,
        activity: SwitchingActivity,
        leak_scale: Union[float, np.ndarray],
        report_temperature: float,
    ) -> PowerReport:
        """Evaluate the power model as array expressions over compiled vectors."""
        toggles = activity.aligned_toggle_rates(comp)
        load_farad = (
            comp.sink_pin_cap_ff
            + WIRE_CAP_PER_UM * self.wireload_um_per_fanout * np.maximum(comp.num_sinks, 1)
        ) * 1e-15

        net_idx = comp.outpin_net
        cell_idx = comp.outpin_cell
        pin_toggles = toggles[net_idx]
        pin_switching = (
            0.5 * self.vdd ** 2 * load_farad[net_idx] * pin_toggles * self.frequency_hz
        )
        pin_internal = (
            comp.internal_energy_fj[cell_idx] * 1e-15 * pin_toggles * self.frequency_hz
        )
        switching = np.bincount(cell_idx, weights=pin_switching, minlength=comp.num_cells)
        internal = np.bincount(cell_idx, weights=pin_internal, minlength=comp.num_cells)
        internal = internal + np.where(
            comp.is_sequential,
            comp.internal_energy_fj * 1e-15 * self.frequency_hz,
            0.0,
        )
        # leakage is always an array: leakage_nw is a vector and leak_scale
        # a scalar or an aligned vector.
        leakage = comp.leakage_nw * 1e-9 * leak_scale
        if comp.is_filler.any():
            # Fillers report exactly zero (reference semantics).  Their
            # switching is already zero — outpin arrays exclude them.
            fillers = comp.is_filler
            internal[fillers] = 0.0
            leakage = np.where(fillers, 0.0, leakage)
        return PowerReport.from_arrays(
            comp.cell_names, switching, internal, leakage,
            self.frequency_hz, report_temperature,
        )

    # ------------------------------------------------------------------

    def estimate(
        self,
        netlist: Netlist,
        activity: SwitchingActivity,
        temperature: Optional[float] = None,
        engine: Optional[str] = None,
    ) -> PowerReport:
        """Estimate power for every cell in the design.

        Args:
            netlist: Annotated design.
            activity: Per-net switching activity.
            temperature: Optional junction temperature (Celsius) for the
                leakage term; defaults to the model's temperature.
            engine: ``"compiled"`` or ``"reference"``; defaults to the
                process-wide engine (see :mod:`repro.engine`).

        Returns:
            A :class:`PowerReport`.
        """
        temp = self.temperature if temperature is None else temperature
        if resolve_engine(engine) == "reference":
            cell_powers = {
                cell.name: self.cell_power(netlist, cell, activity, temperature=temp)
                for cell in netlist.cells.values()
            }
            return PowerReport(cell_powers, self.frequency_hz, temp)
        return self._estimate_arrays(
            netlist.compiled(), activity, self.leakage_scale(temp), temp
        )

    def estimate_with_temperature_map(
        self,
        netlist: Netlist,
        activity: SwitchingActivity,
        cell_temperatures: Union[Mapping[str, float], np.ndarray],
        engine: Optional[str] = None,
    ) -> PowerReport:
        """Estimate power with a per-cell temperature for leakage.

        Used by the optional leakage/temperature feedback iteration: the
        thermal solve provides per-cell temperatures, which raise leakage,
        which feeds back into the next thermal solve.

        Args:
            netlist: Annotated design.
            activity: Per-net switching activity.
            cell_temperatures: Mapping cell name -> temperature in Celsius,
                or (compiled engine only) a per-cell temperature vector
                aligned with the compiled netlist's cell order.

        Returns:
            A :class:`PowerReport` (its ``temperature`` is the mean).
        """
        if resolve_engine(engine) == "reference":
            if isinstance(cell_temperatures, np.ndarray):
                raise TypeError(
                    "the reference engine requires a name -> temperature mapping"
                )
            cell_powers: Dict[str, CellPower] = {}
            temps = []
            for cell in netlist.cells.values():
                temp = cell_temperatures.get(cell.name, self.temperature)
                temps.append(temp)
                cell_powers[cell.name] = self.cell_power(
                    netlist, cell, activity, temperature=temp
                )
            mean_temp = ordered_sum(temps) / len(temps) if temps else self.temperature
            return PowerReport(cell_powers, self.frequency_hz, mean_temp)

        comp = netlist.compiled()
        if isinstance(cell_temperatures, np.ndarray):
            if cell_temperatures.shape != (comp.num_cells,):
                raise ValueError(
                    f"temperature vector has shape {cell_temperatures.shape}, "
                    f"expected ({comp.num_cells},)"
                )
            temps = np.asarray(cell_temperatures, dtype=float)
        else:
            temps = np.fromiter(
                (
                    cell_temperatures.get(name, self.temperature)
                    for name in comp.cell_names
                ),
                dtype=float,
                count=comp.num_cells,
            )
        if self.leakage_temperature_scaling:
            leak_scale: Union[float, np.ndarray] = 2.0 ** (
                (temps - 25.0) / LEAKAGE_DOUBLING_CELSIUS
            )
        else:
            leak_scale = 1.0
        mean_temp = float(temps.sum() / temps.size) if temps.size else self.temperature
        return self._estimate_arrays(comp, activity, leak_scale, mean_temp)
