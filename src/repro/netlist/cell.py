"""Cell instances and pins for placed gate-level netlists.

Every cell instance carries an ``owner`` back-reference to the
:class:`~repro.netlist.netlist.Netlist` that holds it.  Moving a cell
through :meth:`CellInstance.place` writes a fresh, process-unique value
into the owner's *placement stamp*, so caches derived from one design's
coordinates (content digests, compiled coordinate arrays) are invalidated
by moves in that design only — never by moves in a sibling copy.  The
process-wide :attr:`CellInstance.placement_epoch` survives only as the
hammer for raw ``x``/``y`` writes (:meth:`CellInstance.bump_placement_epoch`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import Dict, Optional, TYPE_CHECKING

from .library import MasterCell, ROW_HEIGHT

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from .net import Net
    from .netlist import Netlist

#: Source of placement stamps and raw-write generations.  ``next()`` on a
#: C-level counter is atomic under the GIL, so concurrent Campaign workers
#: never draw the same value.
_STAMPS = count(1)


def next_stamp() -> int:
    """A fresh, process-unique placement stamp."""
    return next(_STAMPS)


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
                 "width", "area", "owner")

    #: Process-wide raw-write generation, advanced only by
    #: :meth:`bump_placement_epoch`.  It is part of every design's
    #: :meth:`~repro.netlist.netlist.Netlist.placement_state`, so one bump
    #: after direct ``x``/``y`` writes invalidates every coordinate cache.
    placement_epoch: int = 0

    def __init__(
        self, name: str, master: MasterCell, unit: str = "",
        owner: Optional["Netlist"] = None,
    ) -> None:
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
        #: The netlist holding this cell, whose placement stamp :meth:`place`
        #: advances (``None`` for a free-standing cell).
        self.owner = owner

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

    @staticmethod
    def bump_placement_epoch() -> None:
        """Advance the process-wide raw-write generation.

        Call after assigning ``x``/``y`` directly instead of through
        :meth:`place`, so every cached coordinate array and placement
        digest is invalidated.  When the design is known, the cheaper
        :meth:`~repro.netlist.netlist.Netlist.mark_placement_changed`
        invalidates that design only.
        """
        CellInstance.placement_epoch = next_stamp()

    def place(self, x: float, y: float, row: Optional[int] = None) -> None:
        """Place the cell with its lower-left corner at ``(x, y)``.

        Coordinates are written *before* the owner's stamp advances, so a
        gather that races the move is invalidated by the move's own stamp.
        """
        self.x = x
        self.y = y
        self.row = row
        owner = self.owner
        if owner is not None:
            owner._placement_stamp = next(_STAMPS)

    # -- pickling ------------------------------------------------------------

    def __getstate__(self):
        """Slot state without ``owner``: a cell pickled on its own must not
        drag its whole design along (netlists pickle through their own flat
        ``__reduce__``, which re-attaches owners on load)."""
        return {slot: getattr(self, slot) for slot in self.__slots__ if slot != "owner"}

    def __setstate__(self, state) -> None:
        for slot, value in state.items():
            setattr(self, slot, value)
        self.owner = None

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
