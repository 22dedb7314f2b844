"""Nets connecting cell pins and primary ports."""

from __future__ import annotations

from typing import List, Optional

from .cell import Pin
from .library import ROW_HEIGHT

#: Precomputed half row height: every cell centre is at ``y + ROW_HEIGHT/2``.
_HALF_ROW = ROW_HEIGHT / 2.0


class Port:
    """A primary input or output of the design.

    Ports behave like off-die connections: they have a direction (seen from
    the design, so a primary *input* port drives a net) and, once the
    floorplan is known, a position on the die boundary used for wirelength
    estimation.
    """

    __slots__ = ("name", "direction", "net", "x", "y")

    def __init__(self, name: str, direction: str) -> None:
        if direction not in ("input", "output"):
            raise ValueError(f"invalid port direction {direction!r}")
        self.name = name
        self.direction = direction
        self.net: Optional["Net"] = None
        self.x: Optional[float] = None
        self.y: Optional[float] = None

    @property
    def is_input(self) -> bool:
        return self.direction == "input"

    @property
    def is_output(self) -> bool:
        return self.direction == "output"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Port({self.name}, {self.direction})"


class Net:
    """A signal net.

    A net has at most one driver (a cell output pin or a primary input port)
    and any number of sinks (cell input pins and primary output ports).
    """

    __slots__ = ("name", "driver_pin", "driver_port", "sink_pins", "sink_ports")

    def __init__(self, name: str) -> None:
        self.name = name
        self.driver_pin: Optional[Pin] = None
        self.driver_port: Optional[Port] = None
        self.sink_pins: List[Pin] = []
        self.sink_ports: List[Port] = []

    # -- construction --------------------------------------------------------

    def set_driver(self, pin: Pin) -> None:
        """Attach a cell output pin as the net driver.

        Raises:
            ValueError: If the net already has a driver or the pin is not an
                output pin.
        """
        if not pin.is_output:
            raise ValueError(f"net {self.name}: driver pin {pin.full_name} is not an output")
        if self.driver_pin is not None or self.driver_port is not None:
            raise ValueError(f"net {self.name} already has a driver")
        self.driver_pin = pin
        pin.net = self

    def set_driver_port(self, port: Port) -> None:
        """Attach a primary input port as the net driver."""
        if not port.is_input:
            raise ValueError(f"net {self.name}: port {port.name} is not a primary input")
        if self.driver_pin is not None or self.driver_port is not None:
            raise ValueError(f"net {self.name} already has a driver")
        self.driver_port = port
        port.net = self

    def add_sink(self, pin: Pin) -> None:
        """Attach a cell input pin as a net sink."""
        if not pin.is_input:
            raise ValueError(f"net {self.name}: sink pin {pin.full_name} is not an input")
        self.sink_pins.append(pin)
        pin.net = self

    def add_sink_port(self, port: Port) -> None:
        """Attach a primary output port as a net sink."""
        if not port.is_output:
            raise ValueError(f"net {self.name}: port {port.name} is not a primary output")
        self.sink_ports.append(port)
        port.net = self

    # -- queries -------------------------------------------------------------

    @property
    def has_driver(self) -> bool:
        return self.driver_pin is not None or self.driver_port is not None

    @property
    def num_sinks(self) -> int:
        return len(self.sink_pins) + len(self.sink_ports)

    def hpwl(self) -> float:
        """Half-perimeter wirelength of the net over its placed terminals.

        Single-pass over the terminals without building the point list
        (the reference delay model runs it per net).

        Returns:
            The HPWL in micrometres, or 0.0 if fewer than two terminals are
            placed.
        """
        min_x = min_y = float("inf")
        max_x = max_y = float("-inf")
        count = 0

        pin = self.driver_pin
        if pin is not None:
            cell = pin.cell
            if cell.x is not None and cell.y is not None:
                x = cell.x + cell.width / 2.0
                y = cell.y + _HALF_ROW
                min_x = max_x = x
                min_y = max_y = y
                count = 1
        port = self.driver_port
        if port is not None and port.x is not None:
            x, y = port.x, port.y
            min_x = x if x < min_x else min_x
            max_x = x if x > max_x else max_x
            min_y = y if y < min_y else min_y
            max_y = y if y > max_y else max_y
            count += 1
        for pin in self.sink_pins:
            cell = pin.cell
            if cell.x is None or cell.y is None:
                continue
            x = cell.x + cell.width / 2.0
            y = cell.y + _HALF_ROW
            min_x = x if x < min_x else min_x
            max_x = x if x > max_x else max_x
            min_y = y if y < min_y else min_y
            max_y = y if y > max_y else max_y
            count += 1
        for port in self.sink_ports:
            if port.x is None:
                continue
            x, y = port.x, port.y
            min_x = x if x < min_x else min_x
            max_x = x if x > max_x else max_x
            min_y = y if y < min_y else min_y
            max_y = y if y > max_y else max_y
            count += 1

        if count < 2:
            return 0.0
        return (max_x - min_x) + (max_y - min_y)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Net({self.name}, sinks={self.num_sinks})"
