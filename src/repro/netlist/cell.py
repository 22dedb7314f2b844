"""Cell instances and pins for placed gate-level netlists.

A cell's ``x``/``y``/``row`` are plain attributes: nothing derived from
them is cached on the cell or its netlist.  Coordinate caches (content
digests, centre arrays) live only on the immutable
:class:`~repro.placement.PlacementView`, so a raw write is always seen by
the next digest or gather of a mutable placement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, TYPE_CHECKING

from .library import MasterCell, ROW_HEIGHT

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from .net import Net


@dataclass
class Pin:
    """A pin on a cell instance.

    Attributes:
        name: Pin name on the master cell (e.g. ``"A"``, ``"Y"``).
        cell: The owning cell instance.
        direction: Either ``"input"`` or ``"output"``.
        net: The net connected to this pin, or ``None`` if unconnected.
    """

    name: str
    cell: "CellInstance"
    direction: str
    net: Optional["Net"] = None

    @property
    def full_name(self) -> str:
        """Hierarchical pin name ``<cell>/<pin>``."""
        return f"{self.cell.name}/{self.name}"

    @property
    def is_input(self) -> bool:
        return self.direction == "input"

    @property
    def is_output(self) -> bool:
        return self.direction == "output"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        net_name = self.net.name if self.net is not None else None
        return f"Pin({self.full_name}, {self.direction}, net={net_name})"


class CellInstance:
    """An instance of a master cell, optionally placed.

    A cell instance has a unique name, a reference to its master (library)
    cell, one :class:`Pin` per master pin, an optional placement location
    (``x``, ``y`` in micrometres, lower-left corner) and an optional layout
    row index.  The ``unit`` attribute records which logical block of the
    synthetic benchmark the cell belongs to; the hotspot-wrapper technique
    uses it to distinguish "hot" cells from bystander cells.
    """

    __slots__ = ("name", "master", "pins", "x", "y", "row", "unit", "fixed",
                 "width", "area")

    def __init__(self, name: str, master: MasterCell, unit: str = "") -> None:
        self.name = name
        self.master = master
        self.pins: Dict[str, Pin] = {}
        for pin_name in master.inputs:
            self.pins[pin_name] = Pin(pin_name, self, "input")
        for pin_name in master.outputs:
            self.pins[pin_name] = Pin(pin_name, self, "output")
        self.x: Optional[float] = None
        self.y: Optional[float] = None
        self.row: Optional[int] = None
        self.unit = unit
        self.fixed = False
        # Geometry is bound once at construction: width/area are read in the
        # innermost placement loops (row packing, gap search, binning), where
        # the master-cell property chain would dominate the profile.
        self.width: float = master.width_um
        self.area: float = master.area_um2

    # -- geometry -----------------------------------------------------------

    @property
    def height(self) -> float:
        """Cell height in micrometres."""
        return ROW_HEIGHT

    @property
    def is_placed(self) -> bool:
        """``True`` if the cell has x/y coordinates assigned."""
        return self.x is not None and self.y is not None

    @property
    def center(self) -> tuple:
        """Placement centre ``(x, y)`` in micrometres.

        Raises:
            ValueError: If the cell is not placed.
        """
        if not self.is_placed:
            raise ValueError(f"cell {self.name} is not placed")
        return (self.x + self.width / 2.0, self.y + self.height / 2.0)

    def place(self, x: float, y: float, row: Optional[int] = None) -> None:
        """Place the cell with its lower-left corner at ``(x, y)``."""
        self.x = x
        self.y = y
        self.row = row

    # -- connectivity --------------------------------------------------------

    @property
    def input_pins(self) -> list:
        """Input pins in master pin order."""
        return [self.pins[p] for p in self.master.inputs]

    @property
    def output_pins(self) -> list:
        """Output pins in master pin order."""
        return [self.pins[p] for p in self.master.outputs]

    @property
    def is_sequential(self) -> bool:
        return self.master.is_sequential

    @property
    def is_filler(self) -> bool:
        return self.master.is_filler

    def pin(self, name: str) -> Pin:
        """Return the pin called ``name``.

        Raises:
            KeyError: If the master cell has no such pin.
        """
        try:
            return self.pins[name]
        except KeyError:
            raise KeyError(f"cell {self.name} ({self.master.name}) has no pin {name!r}") from None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        pos = f"({self.x:.2f},{self.y:.2f})" if self.is_placed else "unplaced"
        return f"CellInstance({self.name}, {self.master.name}, {pos})"
