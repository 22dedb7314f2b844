"""Detailed placement improvement.

A lightweight detailed-placement pass in the spirit of what commercial
tools run after legalization: adjacent cells within a row are swapped when
the swap reduces total half-perimeter wirelength.  The pass preserves
legality (cells stay in the same row span) and is intentionally local so
that the post-placement thermal techniques remain the dominant effect on
the layout.  It runs on a :class:`~repro.placement.legalize.RowOccupancy`'s
coordinate lists and the netlist's compiled terminals, ports held fixed.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from ..deadlines import check_active
from ..netlist import Netlist
from ..netlist.library import ROW_HEIGHT
from .legalize import RowOccupancy


class _Wirelength:
    """:meth:`~repro.netlist.net.Net.hpwl` of each net over an occupancy's
    coordinates and fixed ports, cached until :meth:`invalidate`.

    Swaps move cells along their rows only, so a net's placed terminals,
    y spread and port x range are taken once; extremes do not depend on
    the order they are taken in, so every value is bitwise the loop's.
    """

    def __init__(self, occupancy: RowOccupancy, netlist: Netlist, port_x, port_y) -> None:
        compiled = netlist.compiled()
        terminals = compiled.connectivity.terminals(netlist)
        self.is_cell = terminals.is_cell.tolist()
        self.ref = terminals.ref.tolist()
        self.offsets = terminals.offsets.tolist()
        self.cell_nets = compiled.connectivity.cell_nets(netlist)
        self.x, self.y = occupancy.x, occupancy.y
        self.half_width = (compiled.cell_width_um / 2.0).tolist()
        self.port_x = np.asarray(port_x, dtype=np.float64).tolist()
        self.port_y = np.asarray(port_y, dtype=np.float64).tolist()
        self.fixed: Dict[int, tuple] = {}
        self.cache: Dict[int, float] = {}

    def _fixed_part(self, net: int):
        """``((cell, half width), ...), port x range, y spread`` of ``net``,
        or ``None`` when fewer than two of its terminals are placed."""
        x, y, port_x, port_y = self.x, self.y, self.port_x, self.port_y
        cells, ports = [], []
        for t in range(self.offsets[net], self.offsets[net + 1]):
            i = self.ref[t]
            if self.is_cell[t]:
                if x[i] == x[i] and y[i] == y[i]:
                    cells.append(i)
            elif port_x[i] == port_x[i]:
                ports.append(i)
        if len(cells) + len(ports) < 2:
            return None
        ys = [y[c] + ROW_HEIGHT / 2.0 for c in cells] + [port_y[p] for p in ports]
        xs = [port_x[p] for p in ports]
        return (
            tuple((c, self.half_width[c]) for c in cells),
            [min(xs), max(xs)] if xs else [],
            max(ys) - min(ys),
        )

    def net(self, net: int) -> float:
        """HPWL of ``net``."""
        fixed = self.fixed.get(net, self)
        if fixed is self:
            fixed = self.fixed[net] = self._fixed_part(net)
        if fixed is None:
            return 0.0
        cells, port_range, y_spread = fixed
        x = self.x
        xs = [x[c] + half for c, half in cells]
        xs += port_range
        return (max(xs) - min(xs)) + y_spread

    def cell(self, cell: int) -> float:
        """Sum of the HPWL of ``cell``'s nets, in pin order."""
        cache = self.cache
        total = 0.0
        for net in self.cell_nets[cell]:
            value = cache.get(net)
            if value is None:
                value = cache[net] = self.net(net)
            total += value
        return total

    def invalidate(self, cell: int) -> None:
        """Drop the cached HPWL of every net of a moved cell."""
        for net in self.cell_nets[cell]:
            self.cache.pop(net, None)


def _improve_row(occupancy: RowOccupancy, row: int, wires: _Wirelength) -> int:
    """One pass of adjacent-pair swaps over ``row``; returns the swaps applied."""
    occupancy.sort(row)
    cells = occupancy.rows[row]
    x, width = occupancy.x, occupancy.width
    site_width = occupancy.floorplan.site_width
    cache = wires.cache
    cache.clear()
    swaps = 0
    for i in range(len(cells) - 1):
        left = cells[i]
        right = cells[i + 1]
        # Only swap abutting or near-abutting neighbours so whitespace
        # created on purpose (wrappers, spread rows) is not disturbed.
        if x[right] - (x[left] + width[left]) > site_width:
            continue
        # A reverted swap of an *exactly* abutting pair restores both x
        # coordinates bitwise, so the pre-swap HPWL cache entries stay
        # valid and can be put back instead of recomputed — most swaps are
        # rejected, and this halves the placer's HPWL evaluations.  A pair
        # with a sub-site gap reverts with the gap migrated, so its nets
        # are invalidated as before.
        abutting = x[right] == x[left] + width[left]
        before = wires.cell(left) + wires.cell(right)
        saved = (
            {net: cache[net] for c in (left, right) for net in wires.cell_nets[c]}
            if abutting else None
        )
        # The right cell takes the left one's x and the left one follows.
        x[right], x[left] = x[left], x[left] + width[right]
        wires.invalidate(left)
        wires.invalidate(right)
        after = wires.cell(left) + wires.cell(right)
        if after >= before - 1e-9:
            # Revert: the pair swapped back the same way.
            x[left], x[right] = x[right], x[right] + width[left]
            if saved is not None:
                cache.update(saved)
            else:
                wires.invalidate(left)
                wires.invalidate(right)
        else:
            cells[i], cells[i + 1] = right, left
            swaps += 1
    return swaps


def improve_rows(
    occupancy: RowOccupancy, netlist: Netlist,
    port_x: Sequence[float], port_y: Sequence[float], max_passes: int = 2,
) -> int:
    """Run adjacent-swap improvement over every row of ``occupancy``.

    Args:
        occupancy: Rows and cell coordinates to improve in place; cells
            keep their rows.
        netlist: The netlist the occupancy's cells index (structure only).
        port_x: Port x positions in ``netlist.ports`` order (``NaN`` where
            unplaced).
        port_y: Port y positions, likewise.
        max_passes: Maximum number of full sweeps over all rows; the loop
            stops early when a sweep applies no swap.

    Returns:
        Total number of swaps applied.
    """
    wires = _Wirelength(occupancy, netlist, port_x, port_y)
    total = 0
    for _ in range(max_passes):
        swaps = 0
        for row in range(len(occupancy.rows)):
            # Cooperative cancellation between rows: a pass over a large
            # design is the placer's long-running unit of work.
            check_active("placement.detailed")
            swaps += _improve_row(occupancy, row, wires)
        total += swaps
        if swaps == 0:
            break
    return total
