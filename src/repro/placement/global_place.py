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

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ..netlist import Netlist
from .floorplan import Floorplan, Rect


@dataclass
class GlobalPlacementResult:
    """Target (un-legalised) positions produced by the quadratic placer.

    Attributes:
        positions: Mapping cell name -> (x, y) target centre in micrometres.
        objective: Final quadratic wirelength objective value.
    """

    positions: Dict[str, Tuple[float, float]]
    objective: float


def assign_port_positions(netlist: Netlist, floorplan: Floorplan) -> None:
    """Spread primary ports evenly around the core boundary.

    Ports are ordered by name and distributed clockwise along the core
    perimeter starting at the lower-left corner.  Positions are stored on
    the ports themselves (``port.x``, ``port.y``) through
    :meth:`Netlist.place_port`.
    """
    ports = sorted(netlist.ports.values(), key=lambda p: p.name)
    if not ports:
        return
    width = floorplan.core_width
    height = floorplan.core_height
    perimeter = 2.0 * (width + height)
    step = perimeter / len(ports)
    for i, port in enumerate(ports):
        distance = (i + 0.5) * step
        if distance < width:
            netlist.place_port(port, distance, 0.0)
        elif distance < width + height:
            netlist.place_port(port, width, distance - width)
        elif distance < 2.0 * width + height:
            netlist.place_port(port, 2.0 * width + height - distance, height)
        else:
            netlist.place_port(port, 0.0, perimeter - distance)


class QuadraticPlacer:
    """Analytical global placer based on a sparse quadratic program.

    Args:
        netlist: The design to place.
        floorplan: Core geometry; ports must already have boundary positions
            (see :func:`assign_port_positions`).
        regions: Optional mapping unit name -> :class:`Rect`; each cell is
            anchored to its unit's region centre.
        anchor_weight: Weight of the region-centre anchor (relative to a
            two-pin net weight of 1.0).
        max_clique_pins: Nets with more terminals than this are modelled by
            connecting each pin to the net's (fixed-point iterated) centroid
            instead of a full clique, to keep the matrix sparse.
    """

    def __init__(
        self,
        netlist: Netlist,
        floorplan: Floorplan,
        regions: Optional[Dict[str, Rect]] = None,
        anchor_weight: float = 0.25,
        max_clique_pins: int = 16,
    ) -> None:
        self.netlist = netlist
        self.floorplan = floorplan
        self.regions = regions or {}
        self.anchor_weight = anchor_weight
        self.max_clique_pins = max_clique_pins

        self._movable = [c for c in netlist.cells.values() if not c.is_filler and not c.fixed]
        self._index = {cell.name: i for i, cell in enumerate(self._movable)}

    # ------------------------------------------------------------------

    def _net_terminals(self, net) -> Tuple[List[int], List[Tuple[float, float]]]:
        """Split a net's terminals into movable cell indices and fixed points."""
        movable: List[int] = []
        fixed: List[Tuple[float, float]] = []
        pins = []
        if net.driver_pin is not None:
            pins.append(net.driver_pin)
        pins.extend(net.sink_pins)
        for pin in pins:
            idx = self._index.get(pin.cell.name)
            if idx is None:
                if pin.cell.is_placed:
                    fixed.append(pin.cell.center)
            else:
                movable.append(idx)
        ports = []
        if net.driver_port is not None:
            ports.append(net.driver_port)
        ports.extend(net.sink_ports)
        for port in ports:
            if port.x is not None and port.y is not None:
                fixed.append((port.x, port.y))
        return movable, fixed

    def _build_system(self):
        """Assemble the Laplacian-like system matrices and RHS vectors.

        Net terminals are gathered per net in Python (the object graph has
        no other access path) but all numeric accumulation — diagonals,
        off-diagonal clique edges and fixed-terminal anchors — is buffered
        into flat index/value lists and applied with ``np.add.at`` /
        ``coo_matrix`` duplicate summation in one shot.
        """
        n = len(self._movable)
        bx = np.zeros(n)
        by = np.zeros(n)

        edge_i: List[int] = []
        edge_j: List[int] = []
        edge_w: List[float] = []
        fixed_i: List[int] = []
        fixed_x: List[float] = []
        fixed_y: List[float] = []
        fixed_w: List[float] = []

        for net in self.netlist.nets.values():
            movable, fixed = self._net_terminals(net)
            num_terms = len(movable) + len(fixed)
            if num_terms < 2:
                continue
            if num_terms <= self.max_clique_pins:
                weight = 1.0 / (num_terms - 1)
                for a in range(len(movable)):
                    for b in range(a + 1, len(movable)):
                        edge_i.append(movable[a])
                        edge_j.append(movable[b])
                        edge_w.append(weight)
                    for fx, fy in fixed:
                        fixed_i.append(movable[a])
                        fixed_x.append(fx)
                        fixed_y.append(fy)
                        fixed_w.append(weight)
            else:
                # Star model: connect every movable pin to the centroid of
                # the fixed pins (or the core centre when there are none).
                weight = 2.0 / num_terms
                if fixed:
                    cx = sum(p[0] for p in fixed) / len(fixed)
                    cy = sum(p[1] for p in fixed) / len(fixed)
                else:
                    cx, cy = self.floorplan.core_rect.center
                for idx in movable:
                    fixed_i.append(idx)
                    fixed_x.append(cx)
                    fixed_y.append(cy)
                    fixed_w.append(weight)

        # Region-centre anchors keep every cell attracted to its unit region
        # and guarantee a non-singular system.
        core_center = self.floorplan.core_rect.center
        for i, cell in enumerate(self._movable):
            region = self.regions.get(cell.unit)
            cx, cy = region.center if region is not None else core_center
            fixed_i.append(i)
            fixed_x.append(cx)
            fixed_y.append(cy)
            fixed_w.append(self.anchor_weight)

        ei = np.asarray(edge_i, dtype=np.int64)
        ej = np.asarray(edge_j, dtype=np.int64)
        ew = np.asarray(edge_w)
        fi = np.asarray(fixed_i, dtype=np.int64)
        fw = np.asarray(fixed_w)

        diag = np.zeros(n)
        np.add.at(diag, ei, ew)
        np.add.at(diag, ej, ew)
        np.add.at(diag, fi, fw)
        np.add.at(bx, fi, fw * np.asarray(fixed_x))
        np.add.at(by, fi, fw * np.asarray(fixed_y))

        laplacian = sp.coo_matrix(
            (
                np.concatenate([-ew, -ew]),
                (np.concatenate([ei, ej]), np.concatenate([ej, ei])),
            ),
            shape=(n, n),
        ).tocsr()
        laplacian = laplacian + sp.diags(diag)
        return laplacian, bx, by

    def _warm_starts(self) -> Tuple[Optional[np.ndarray], Optional[np.ndarray]]:
        """Current cell centres as CG starting vectors, when all are placed.

        On a re-run (an incremental re-place after the netlist or the
        anchors changed) the previous solution is an excellent starting
        guess; on a first placement the cells have no coordinates and the
        solves start cold.
        """
        n = len(self._movable)
        x0 = np.empty(n)
        y0 = np.empty(n)
        for i, cell in enumerate(self._movable):
            if cell.x is None or cell.y is None:
                return None, None
            cx, cy = cell.center
            x0[i] = cx
            y0[i] = cy
        return x0, y0

    def run(self) -> GlobalPlacementResult:
        """Solve the quadratic program and return target cell positions."""
        if not self._movable:
            return GlobalPlacementResult({}, 0.0)
        matrix, bx, by = self._build_system()
        # One preconditioned solver serves both coordinate systems: the
        # matrix is identical for x and y, so the Jacobi preconditioner is
        # built once and the LU fallback (if CG ever stalls) factorises
        # once instead of once per axis.
        solver = _SpdSystemSolver(matrix)
        x0, y0 = self._warm_starts()
        x = solver.solve(bx, x0=x0)
        y = solver.solve(by, x0=y0)

        # Clamp to the core.
        x = np.clip(x, 0.0, self.floorplan.core_width)
        y = np.clip(y, 0.0, self.floorplan.core_height)

        positions = {
            cell.name: (float(x[i]), float(y[i])) for i, cell in enumerate(self._movable)
        }
        objective = float(x @ (matrix @ x) - 2 * bx @ x + y @ (matrix @ y) - 2 * by @ y)
        return GlobalPlacementResult(positions, objective)

    @staticmethod
    def _solve(matrix: sp.csr_matrix, rhs: np.ndarray) -> np.ndarray:
        """Solve one SPD system (kept as the one-shot convenience path)."""
        return _SpdSystemSolver(matrix).solve(rhs)


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
