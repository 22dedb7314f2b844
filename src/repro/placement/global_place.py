"""Quadratic (analytical) global placement.

The paper's circuits are placed with a commercial tool (Synopsys IC
Compiler).  As a substitute, this module implements the classic quadratic
placement formulation: minimise the weighted sum of squared pin-to-pin
distances, with primary ports fixed on the core boundary and a weak anchor
pulling every cell towards the centre of the region its logical unit was
assigned to by the slicing partition.  The resulting target positions are
then legalised per region (see :mod:`repro.placement.legalize`).

Nets are modelled with the standard clique approximation: a ``p``-pin net
contributes edges of weight ``1 / (p - 1)`` between every pair of its
terminals, which reproduces the net's quadratic star cost.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ..floatsum import ordered_sum
from ..netlist import Netlist
from ..netlist.library import ROW_HEIGHT
from .floorplan import Floorplan, Rect


def port_positions(netlist: Netlist, floorplan: Floorplan) -> Tuple[np.ndarray, np.ndarray]:
    """Primary port positions spread evenly around the core boundary.

    Ports are ordered by name and distributed clockwise along the core
    perimeter starting at the lower-left corner.

    Returns:
        Port ``(x, y)`` arrays in ``netlist.ports`` order.
    """
    names = list(netlist.ports)
    px, py = np.full((2, len(names)), np.nan)
    width, height = floorplan.core_width, floorplan.core_height
    perimeter = 2.0 * (width + height)
    step = perimeter / max(len(names), 1)
    for i, port in enumerate(sorted(range(len(names)), key=names.__getitem__)):
        distance = (i + 0.5) * step
        if distance < width:
            px[port], py[port] = distance, 0.0
        elif distance < width + height:
            px[port], py[port] = width, distance - width
        elif distance < 2.0 * width + height:
            px[port], py[port] = 2.0 * width + height - distance, height
        else:
            px[port], py[port] = 0.0, perimeter - distance
    return px, py


def _expand(counts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """For ``counts[i]`` items per owner ``i``, in owner order: each item's
    owner and its index among its owner's items."""
    owner = np.repeat(np.arange(counts.shape[0]), counts)
    return owner, np.arange(owner.shape[0]) - (np.cumsum(counts) - counts)[owner]


class QuadraticPlacer:
    """Analytical global placer based on a sparse quadratic program.

    Args:
        netlist: The design to place (structure only: its compiled
            terminal arrays).
        floorplan: Core geometry.
        port_x: Port x positions in ``netlist.ports`` order (``NaN`` where
            unplaced; see :func:`port_positions`).
        port_y: Port y positions, likewise.
        regions: Optional mapping unit name -> :class:`Rect`; each cell is
            anchored to its unit's region centre.
        anchor_weight: Weight of the region-centre anchor (relative to a
            two-pin net weight of 1.0).
        max_clique_pins: Nets with more terminals than this are modelled by
            connecting each movable pin to the centroid of the net's fixed
            terminals instead of a full clique, to keep the matrix sparse.
        start: Lower-left ``(x, y)`` of every cell (``NaN`` where
            unplaced): fixed cells are terminals at these centres, and the
            solves warm-start from them when every movable cell is placed.
    """

    def __init__(
        self,
        netlist: Netlist,
        floorplan: Floorplan,
        port_x: np.ndarray,
        port_y: np.ndarray,
        regions: Optional[Dict[str, Rect]] = None,
        anchor_weight: float = 0.25,
        max_clique_pins: int = 16,
        start: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    ) -> None:
        self.floorplan = floorplan
        self.port_x = np.asarray(port_x, dtype=np.float64)
        self.port_y = np.asarray(port_y, dtype=np.float64)
        self.regions = regions or {}
        self.anchor_weight = anchor_weight
        self.max_clique_pins = max_clique_pins

        self._compiled = netlist.compiled()
        fixed = np.array([cell.fixed for cell in netlist.cells.values()], dtype=bool)
        self._movable = np.flatnonzero(~self._compiled.is_filler & ~fixed)
        # Cell centres at the start coordinates (NaN where unplaced).
        x0, y0 = start if start is not None else np.full((2, self._compiled.num_cells), np.nan)
        self._start_cx = x0 + self._compiled.cell_width_um / 2.0
        self._start_cy = y0 + ROW_HEIGHT / 2.0

    # ------------------------------------------------------------------

    def _terminals(self):
        """``(movable, tx, ty, starts, num_movable, num_terms)``: per kept
        terminal its movable index (``-1`` if fixed) and position; per net
        its first kept terminal, movable and kept counts.  A net keeps its
        movable cells' pins, then placed fixed cells', then placed ports,
        each in terminal order."""
        terminals = self._compiled.connectivity.terminals(self._compiled.netlist)
        is_cell, ref = terminals.is_cell, terminals.ref
        num_nets = terminals.offsets.shape[0] - 1
        net = np.repeat(np.arange(num_nets), np.diff(terminals.offsets))
        cells, ports = ref[is_cell], ref[~is_cell]
        movable_index = np.full(self._compiled.num_cells, -1, dtype=np.int64)
        movable_index[self._movable] = np.arange(self._movable.shape[0])
        index = np.full(ref.shape[0], -1, dtype=np.int64)
        index[is_cell] = movable_index[cells]
        tx, ty = np.empty(ref.shape[0]), np.empty(ref.shape[0])
        tx[is_cell], ty[is_cell] = self._start_cx[cells], self._start_cy[cells]
        tx[~is_cell], ty[~is_cell] = self.port_x[ports], self.port_y[ports]
        placed = ~(np.isnan(tx) | np.isnan(ty))
        # 0: movable cell, 1: placed fixed cell, 2: placed port, 3: dropped.
        kind = np.where(index >= 0, 0, np.where(placed, np.where(is_cell, 1, 2), 3))
        order = np.lexsort((kind, net))  # stable: terminal order within a kind
        order = order[kind[order] < 3]
        kept_net = net[order]
        num_terms = np.bincount(kept_net, minlength=num_nets)
        num_movable = np.bincount(kept_net[kind[order] == 0], minlength=num_nets)
        starts = np.cumsum(num_terms) - num_terms
        return index[order], tx[order], ty[order], starts, num_movable, num_terms

    def _build_system(self):
        """Assemble the Laplacian-like system matrices and RHS vectors.

        A clique net (2 to ``max_clique_pins`` terminals) joins each pair
        of movable terminals and each movable to each fixed terminal with
        weight ``1 / (terminals - 1)``; a larger (star) net joins each
        movable terminal to the fixed terminals' centroid (or the core
        centre) with weight ``2 / terminals``.  Entries are laid out net by
        net and movable pin by movable pin, and ``np.add.at`` / COO
        duplicate summation add them in that order.
        """
        movable, tx, ty, starts, num_movable, num_terms = self._terminals()
        n = self._movable.shape[0]
        active = num_terms >= 2
        clique = active & (num_terms <= self.max_clique_pins)
        star = active & ~clique
        num_fixed = num_terms - num_movable
        weight = np.zeros(num_terms.shape[0])
        weight[clique] = 1.0 / (num_terms[clique] - 1)
        weight[star] = 2.0 / num_terms[star]

        # Per kept terminal: its net and its index among the net's terminals.
        net, a = _expand(num_terms)
        in_clique = (movable >= 0) & clique[net]
        # A clique net's movable pin: an edge to each later movable pin ...
        edge_from, later = _expand(np.where(in_clique, num_movable[net] - a - 1, 0))
        ei = movable[edge_from]
        ej = movable[edge_from + 1 + later]
        ew = weight[net[edge_from]]
        # ... and an entry per fixed terminal; a star net's: one entry, the
        # fixed terminals' centroid.
        entries = np.where(in_clique, num_fixed[net], (movable >= 0) & star[net])
        entry_from, k = _expand(entries)
        entry_net = net[entry_from]
        is_star = star[entry_net]
        fixed_at = np.where(is_star, 0, starts[entry_net] + num_movable[entry_net] + k)
        centroid_x = np.zeros(num_terms.shape[0])
        centroid_y = np.zeros(num_terms.shape[0])
        core_cx, core_cy = self.floorplan.core_rect.center
        for star_net in np.flatnonzero(star & (num_movable > 0)).tolist():
            first = int(starts[star_net] + num_movable[star_net])
            count = int(num_fixed[star_net])
            if count:
                # Left to right, as a per-net loop sums (not pairwise).
                centroid_x[star_net] = ordered_sum(tx[first:first + count].tolist()) / count
                centroid_y[star_net] = ordered_sum(ty[first:first + count].tolist()) / count
            else:
                centroid_x[star_net], centroid_y[star_net] = core_cx, core_cy
        fixed_i = movable[entry_from]
        fixed_x = np.where(is_star, centroid_x[entry_net], tx[fixed_at])
        fixed_y = np.where(is_star, centroid_y[entry_net], ty[fixed_at])
        fixed_w = weight[entry_net]

        # Region-centre anchors keep every cell attracted to its unit region
        # and guarantee a non-singular system.
        anchors = [
            self.regions[unit].center if unit in self.regions else (core_cx, core_cy)
            for unit in self._compiled.unit_names
        ]
        anchor_x, anchor_y = (np.array(axis, dtype=np.float64) for axis in zip(*anchors))
        units = self._compiled.unit_codes[self._movable]

        fi = np.concatenate([fixed_i, np.arange(n)])
        fw = np.concatenate([fixed_w, np.full(n, self.anchor_weight)])
        fx = np.concatenate([fixed_x, anchor_x[units]])
        fy = np.concatenate([fixed_y, anchor_y[units]])

        bx = np.zeros(n)
        by = np.zeros(n)
        diag = np.zeros(n)
        np.add.at(diag, ei, ew)
        np.add.at(diag, ej, ew)
        np.add.at(diag, fi, fw)
        np.add.at(bx, fi, fw * fx)
        np.add.at(by, fi, fw * fy)

        laplacian = sp.coo_matrix(
            (
                np.concatenate([-ew, -ew]),
                (np.concatenate([ei, ej]), np.concatenate([ej, ei])),
            ),
            shape=(n, n),
        ).tocsr()
        laplacian = laplacian + sp.diags(diag)
        return laplacian, bx, by

    def run(self) -> Tuple[np.ndarray, np.ndarray]:
        """Solve the quadratic program for the target cell centres.

        Returns:
            Target centre ``(x, y)`` of every cell of ``netlist.cells`` in
            micrometres; ``NaN`` for the cells the placer does not move
            (fillers and fixed cells).
        """
        x_all = np.full(self._compiled.num_cells, np.nan)
        y_all = np.full(self._compiled.num_cells, np.nan)
        if not self._movable.shape[0]:
            return x_all, y_all
        matrix, bx, by = self._build_system()
        # One preconditioned solver serves both coordinate systems: the
        # matrix is identical for x and y, so the Jacobi preconditioner is
        # built once and the LU fallback (if CG ever stalls) factorises
        # once instead of once per axis.
        solver = _SpdSystemSolver(matrix)
        # A re-place (every movable cell placed) warm-starts from the
        # start centres; a first placement solves cold.
        x0, y0 = self._start_cx[self._movable], self._start_cy[self._movable]
        if np.isnan(x0).any() or np.isnan(y0).any():
            x0 = y0 = None
        # Clamped to the core.
        x_all[self._movable] = np.clip(solver.solve(bx, x0=x0), 0.0, self.floorplan.core_width)
        y_all[self._movable] = np.clip(solver.solve(by, x0=y0), 0.0, self.floorplan.core_height)
        return x_all, y_all


class _SpdSystemSolver:
    """Jacobi-preconditioned CG for one SPD matrix, reusable across RHS.

    The placer solves the same Laplacian twice (x then y targets); this
    helper builds the diagonal preconditioner once, accepts a warm start
    per right-hand side, and memoises the sparse LU fallback so a stalled
    CG never factorises the matrix more than once.
    """

    def __init__(self, matrix: sp.csr_matrix, rtol: float = 1e-6, maxiter: int = 2000):
        self.matrix = matrix
        self.rtol = rtol
        self.maxiter = maxiter
        diagonal = matrix.diagonal()
        # The anchor terms keep every diagonal entry strictly positive; the
        # guard only protects degenerate hand-built systems.
        safe = np.where(diagonal > 0.0, diagonal, 1.0)
        inverse = 1.0 / safe
        self._preconditioner = spla.LinearOperator(
            matrix.shape, matvec=lambda v: inverse * v
        )
        self._factorized = None

    def solve(self, rhs: np.ndarray, x0: Optional[np.ndarray] = None) -> np.ndarray:
        solution, info = spla.cg(
            self.matrix, rhs, x0=x0, rtol=self.rtol, maxiter=self.maxiter,
            M=self._preconditioner,
        )
        if info != 0:
            if self._factorized is None:
                self._factorized = spla.splu(self.matrix.tocsc())
            solution = self._factorized.solve(rhs)
        return np.asarray(solution, dtype=float)
