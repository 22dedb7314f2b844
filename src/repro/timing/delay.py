"""Gate and interconnect delay models.

Used to verify the paper's claim that "the maximum timing overhead caused
by applying the proposed methods is around 2%": after a post-placement
transformation moves cells, net lengths change and so do wire delays.

Delay model:

* cell delay = intrinsic delay + drive resistance x output load
  (the library stores resistance in kilo-ohms and capacitance in
  femtofarads, so the product is directly in picoseconds);
* wire delay = Elmore delay of a lumped RC estimated from the net's
  half-perimeter wirelength;
* temperature derating per the paper's introduction: cell (drive current)
  degradation of about 4% per 10 Celsius and interconnect degradation of
  about 5% per 10 Celsius.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..floatsum import ordered_sum
from ..netlist import (
    CELL_DELAY_TEMP_COEFF,
    NOMINAL_TEMPERATURE,
    WIRE_CAP_PER_UM,
    WIRE_DELAY_TEMP_COEFF,
    WIRE_RES_PER_UM,
    CellInstance,
    Net,
)


@dataclass
class DelayModel:
    """Temperature-aware delay calculator.

    Attributes:
        temperature: Operating temperature in Celsius.
        wire_cap_per_um: Wire capacitance in fF per micrometre.
        wire_res_per_um: Wire resistance in ohms per micrometre.
        fallback_wireload_um: Net length assumed when a net's terminals are
            not placed (pre-placement estimation).
    """

    temperature: float = NOMINAL_TEMPERATURE
    wire_cap_per_um: float = WIRE_CAP_PER_UM
    wire_res_per_um: float = WIRE_RES_PER_UM
    fallback_wireload_um: float = 8.0

    # -- derating -------------------------------------------------------------

    def cell_derating(self, temperature: Optional[float] = None) -> float:
        """Multiplier on cell delay at the given temperature."""
        temp = self.temperature if temperature is None else temperature
        return 1.0 + CELL_DELAY_TEMP_COEFF * (temp - NOMINAL_TEMPERATURE)

    def wire_derating(self, temperature: Optional[float] = None) -> float:
        """Multiplier on wire delay at the given temperature."""
        temp = self.temperature if temperature is None else temperature
        return 1.0 + WIRE_DELAY_TEMP_COEFF * (temp - NOMINAL_TEMPERATURE)

    # -- loads ---------------------------------------------------------------

    def net_length_um(self, net: Net) -> float:
        """Estimated routed length of a net in micrometres (HPWL based)."""
        length = net.hpwl()
        if length <= 0.0:
            length = self.fallback_wireload_um * max(net.num_sinks, 1)
        return length

    def net_load_ff(self, net: Net) -> float:
        """Total load capacitance on a net, in femtofarads."""
        pin_cap = ordered_sum(pin.cell.master.input_cap_ff for pin in net.sink_pins)
        wire_cap = self.wire_cap_per_um * self.net_length_um(net)
        return pin_cap + wire_cap

    # -- delays --------------------------------------------------------------

    def cell_delay_ps(self, cell: CellInstance, net: Optional[Net],
                      temperature: Optional[float] = None) -> float:
        """Delay through ``cell`` driving ``net``, in picoseconds."""
        load_ff = self.net_load_ff(net) if net is not None else 0.0
        raw = cell.master.intrinsic_delay_ps + cell.master.drive_res_kohm * load_ff
        return raw * self.cell_derating(temperature)

    def wire_delay_ps(self, net: Net, temperature: Optional[float] = None) -> float:
        """Elmore delay of the net's lumped wire RC, in picoseconds.

        ``0.5 * R_wire * C_wire`` with both terms proportional to the
        estimated length; ohms x femtofarads gives femtoseconds, hence the
        1e-3 conversion to picoseconds.
        """
        length = self.net_length_um(net)
        resistance_ohm = self.wire_res_per_um * length
        capacitance_ff = self.wire_cap_per_um * length
        raw_ps = 0.5 * resistance_ohm * capacitance_ff * 1e-3
        return raw_ps * self.wire_derating(temperature)

    def stage_delay_ps(self, cell: CellInstance, net: Optional[Net],
                       temperature: Optional[float] = None) -> float:
        """Cell delay plus the driven net's wire delay."""
        total = self.cell_delay_ps(cell, net, temperature)
        if net is not None:
            total += self.wire_delay_ps(net, temperature)
        return total
