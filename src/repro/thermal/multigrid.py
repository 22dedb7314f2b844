"""Geometric multigrid solver for the thermal conductance system.

The steady-state network of :mod:`repro.thermal.network` is, once the
lumped package node has been eliminated by the solver's rank-1 Schur
complement, a symmetric positive-definite 7-point stencil over the
structured ``nz x ny x nx`` mesh: per-layer constant lateral conductances,
per-interface constant vertical conductances, and a spatially varying
diagonal (boundary convection, package coupling).  A sparse direct
factorisation ignores all of that structure and pays O(N^1.5)-ish fill-in;
this module exploits it and solves the system in O(N):

* **Smoothing** is red-black Gauss-Seidel over the x-y checkerboard with
  *z-line* blocks: every grid column of one colour is relaxed exactly by a
  batched Thomas (tridiagonal) solve along z, as whole-array NumPy updates.
  Line relaxation in z is what makes the method robust here — the thermal
  stack is strongly anisotropic (vertical conductances are two to three
  orders of magnitude larger than lateral ones, since layers are microns
  thick while thermal cells are tens of microns wide), and a point-wise
  smoother would stall on error modes that are smooth in z.  Every level
  stores its fields in red-black order (one colour's columns first), so
  each half-sweep reads and writes contiguous slices and the lateral
  neighbour coupling is one C-speed sparse multi-vector product.
* **Coarsening** is 2x semi-coarsening in x and y only (z stays at the
  package's layer count, which is small and strongly coupled).  Coarse
  operators are *rediscretized*: each level assembles the real
  :class:`~repro.thermal.network.ThermalNetwork` of the same die and
  package at the coarser lateral resolution, so boundary and package
  physics are represented exactly on every level.
* **Transfers** are cell-centred bilinear interpolation for prolongation
  and its exact adjoint (full weighting) for restriction; restriction of a
  residual sums the unabsorbed watts of the fine cells into the coarse
  cells, which is what makes the rediscretized coarse problems consistent.
  Non-power-of-two grids are handled by ``ceil(n / 2)`` coarsening with
  boundary lumping.
* **Outer iteration** is conjugate gradients preconditioned by one
  symmetric V-cycle (pre-smoothing red->black, post-smoothing black->red,
  restriction the exact transpose of prolongation, so the preconditioner
  is symmetric positive definite).  CG both guarantees convergence to any
  requested tolerance and converts a warm start — the previous temperature
  field of a leakage-feedback or sweep re-solve — into a handful of
  cycles, something a direct factorisation cannot exploit at all.

All smoother, residual and transfer arrays carry a trailing *lane* axis,
so a stack of power maps sharing one die geometry (a campaign batch) is
solved simultaneously: per-lane step sizes and per-lane tolerances keep
every lane's iterates identical to a one-lane solve, and converged lanes
are frozen in place.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ..deadlines import check_active
from ..floatsum import ordered_dot
from .grid import ThermalGrid
from .network import ThermalNetwork

#: Stop coarsening once a level has at most this many lateral cells; the
#: coarsest level is solved directly (one tiny sparse factorisation).
COARSEST_LATERAL_CELLS = 128

#: Default relative-residual tolerance of the outer PCG iteration.  Chosen
#: so multigrid temperatures agree with the direct LU path to well below
#: 1e-8 relative even on poorly scaled geometries (the observed forward
#: error sits one to two decades below the residual tolerance).
DEFAULT_TOLERANCE = 1e-9

#: Default iteration cap; a V(1,1)-preconditioned CG converges in ~10
#: cycles cold, so hitting this means the problem is pathological.
DEFAULT_MAX_ITERATIONS = 200


class MultigridConvergenceError(RuntimeError):
    """The outer PCG missed its tolerance within the iteration cap.

    Only raised when :meth:`MultigridSolver.solve` is called with
    ``raise_on_stall=True``; the default behaviour stays a
    :class:`RuntimeWarning` with the half-converged answer returned.
    """


@dataclass
class _Color:
    """Precomputed smoother state of one checkerboard colour.

    The level's spatial axis is permuted so this colour's columns occupy
    ``[start, stop)`` — each half-sweep works on contiguous slices.
    """

    start: int
    stop: int
    lateral: sp.csr_matrix  # (nz * nc, nz * n_sp) lateral-neighbour couplings
    w: np.ndarray           # (nz, nc, 1) Thomas elimination multipliers
    dt: np.ndarray          # (nz, nc, 1) Thomas modified diagonals


@dataclass
class _Level:
    """One multigrid level, stored in red-black spatial order."""

    grid: ThermalGrid
    nz: int
    ny: int
    nx: int
    n_sp: int                      # lateral cells per layer (ny * nx)
    gv: np.ndarray                 # (nz - 1,) vertical conductance per interface
    perm: np.ndarray               # natural -> red-black spatial order
    matrix: sp.csr_matrix          # grid conductance matrix, permuted
    colors: Tuple[_Color, _Color] = field(default=None)  # type: ignore[assignment]
    prolong_2d: Optional[sp.csr_matrix] = None   # permuted fine x coarse
    restrict_2d: Optional[sp.csr_matrix] = None  # exact transpose of prolong
    n_sp_coarse: int = 0
    coarse_lu: Optional[spla.SuperLU] = None     # coarsest level only


def _layer_coefficients(grid: ThermalGrid) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-layer lateral and per-interface vertical stencil conductances.

    Mirrors the expressions of :meth:`ThermalNetwork._assemble` exactly, so
    the smoother's couplings reproduce the assembled matrix's off-diagonals.
    """
    nz = grid.nz
    dx, dy = grid.dx_m, grid.dy_m
    area = grid.cell_area_m2
    gx = np.empty(nz)
    gy = np.empty(nz)
    gv = np.empty(max(nz - 1, 0))
    for layer in range(nz):
        k = grid.conductivity(layer)
        dz = grid.dz_m(layer)
        gx[layer] = k * (dy * dz) / dx
        gy[layer] = k * (dx * dz) / dy
        if layer + 1 < nz:
            k_below = grid.conductivity(layer + 1)
            dz_below = grid.dz_m(layer + 1)
            resistance = dz / (2.0 * k * area) + dz_below / (2.0 * k_below * area)
            gv[layer] = 1.0 / resistance
    return gx, gy, gv


def _full_permutation(perm: np.ndarray, nz: int) -> np.ndarray:
    """Expand a spatial permutation to all ``nz`` layers (layer-major)."""
    n_sp = perm.size
    return (np.arange(nz)[:, None] * n_sp + perm[None, :]).ravel()


def _red_black_split(nx: int, ny: int) -> Tuple[np.ndarray, np.ndarray]:
    """Natural spatial indices of the two checkerboard colours (red first).

    The single source of the red-black ordering: levels, transfers and the
    outer solve all permute through ``concatenate(red, black)`` of this
    split, so every layer of the hierarchy agrees on it.
    """
    flat = np.arange(nx * ny)
    iy, ix = np.divmod(flat, nx)
    color_of = (ix + iy) % 2
    return np.nonzero(color_of == 0)[0], np.nonzero(color_of == 1)[0]


def _build_level(grid: ThermalGrid, network: ThermalNetwork) -> _Level:
    """Assemble one level: permuted operator, colours, Thomas factors."""
    gx, gy, gv = _layer_coefficients(grid)
    nx, ny, nz = grid.nx, grid.ny, grid.nz
    n_sp = nx * ny

    iy, ix = np.divmod(np.arange(n_sp), nx)
    red, black = _red_black_split(nx, ny)
    perm = np.concatenate([red, black])
    position = np.empty(n_sp, dtype=np.int64)
    position[perm] = np.arange(n_sp)

    full_perm = _full_permutation(perm, nz)
    full_position = np.empty(full_perm.size, dtype=np.int64)
    full_position[full_perm] = np.arange(full_perm.size)
    coo = network.grid_matrix.tocoo()
    matrix = sp.coo_matrix(
        (coo.data, (full_position[coo.row], full_position[coo.col])),
        shape=coo.shape,
    ).tocsr()
    diag = matrix.diagonal().reshape(nz, n_sp)

    level = _Level(
        grid=grid, nz=nz, ny=ny, nx=nx, n_sp=n_sp, gv=gv,
        perm=perm, matrix=matrix,
    )

    layers = np.arange(nz)
    colors: List[_Color] = []
    start = 0
    for natural_cols in (red, black):
        nc = natural_cols.size
        stop = start + nc
        cx, cy = ix[natural_cols], iy[natural_cols]

        # Lateral couplings of this colour's columns as one sparse matrix
        # (nz * nc rows, one per column and layer) over the permuted field,
        # so the smoother's neighbour gather is a single C-speed
        # multi-vector matvec that amortizes over batched lanes.
        row_parts: List[np.ndarray] = []
        col_parts: List[np.ndarray] = []
        data_parts: List[np.ndarray] = []
        for neighbour, valid, coef in (
            (natural_cols - 1, cx > 0, gx),
            (natural_cols + 1, cx < nx - 1, gx),
            (natural_cols - nx, cy > 0, gy),
            (natural_cols + nx, cy < ny - 1, gy),
        ):
            local = np.nonzero(valid)[0]
            if local.size == 0:
                continue
            targets = position[neighbour[local]]
            row_parts.append((layers[:, None] * nc + local[None, :]).ravel())
            col_parts.append((layers[:, None] * n_sp + targets[None, :]).ravel())
            data_parts.append(np.repeat(coef, local.size))
        lateral = sp.coo_matrix(
            (
                np.concatenate(data_parts),
                (np.concatenate(row_parts), np.concatenate(col_parts)),
            ),
            shape=(nz * nc, nz * n_sp),
        ).tocsr()

        # Thomas factors of the per-column tridiagonal (diag varies per
        # column through the boundary terms; the off-diagonals are the
        # per-interface vertical conductances).  The matrix is an
        # irreducibly diagonally dominant M-matrix, so no pivoting is
        # needed and the factors are computed once per level.
        d = diag[:, start:stop]
        w = np.zeros_like(d)
        dt = np.empty_like(d)
        dt[0] = d[0]
        for layer in range(1, nz):
            w[layer] = -gv[layer - 1] / dt[layer - 1]
            dt[layer] = d[layer] - w[layer] * (-gv[layer - 1])

        colors.append(
            _Color(
                start=start, stop=stop, lateral=lateral,
                w=w[:, :, None], dt=dt[:, :, None],
            )
        )
        start = stop
    level.colors = (colors[0], colors[1])
    return level


def _build_prolongation(nx: int, ny: int, nxc: int, nyc: int) -> sp.csr_matrix:
    """Cell-centred bilinear prolongation ``(ny * nx, nyc * nxc)``.

    Every fine cell interpolates from its containing coarse cell (weight
    3/4 per axis) and the nearest lateral neighbour (weight 1/4 per axis);
    indices are clipped at the boundary, which lumps the outer weight onto
    the edge coarse cell.  Row sums are exactly 1, so the transpose
    (restriction) conserves the total residual power.  Built in natural
    order; the caller permutes both sides into red-black order.
    """
    fi = np.arange(nx)
    fj = np.arange(ny)
    ic0 = np.minimum(fi // 2, nxc - 1)
    jc0 = np.minimum(fj // 2, nyc - 1)
    ic1 = np.clip(ic0 + np.where(fi % 2 == 1, 1, -1), 0, nxc - 1)
    jc1 = np.clip(jc0 + np.where(fj % 2 == 1, 1, -1), 0, nyc - 1)

    jj0, ii0 = np.meshgrid(jc0, ic0, indexing="ij")
    jj1, ii1 = np.meshgrid(jc1, ic1, indexing="ij")
    rows = np.arange(ny * nx)

    row_idx: List[np.ndarray] = []
    col_idx: List[np.ndarray] = []
    data: List[np.ndarray] = []
    for jj, wy in ((jj0, 0.75), (jj1, 0.25)):
        for ii, wx in ((ii0, 0.75), (ii1, 0.25)):
            row_idx.append(rows)
            col_idx.append((jj * nxc + ii).ravel())
            data.append(np.full(ny * nx, wy * wx))
    matrix = sp.coo_matrix(
        (np.concatenate(data), (np.concatenate(row_idx), np.concatenate(col_idx))),
        shape=(ny * nx, nyc * nxc),
    )
    return matrix.tocsr()


class MultigridSolver:
    """V-cycle-preconditioned CG for one die geometry's grid system.

    Solves ``A x = b`` for the grid-only conductance matrix of a
    :class:`~repro.thermal.network.ThermalNetwork` (the package node, when
    present, is eliminated by the caller's rank-1 correction — see
    :class:`~repro.thermal.solver.ThermalSolver`).

    Args:
        grid: The thermal mesh.
        network: Pre-assembled network for ``grid`` (rebuilt when omitted).
        tol: Relative-residual convergence tolerance of the outer CG.
        max_iterations: Outer iteration cap.
    """

    def __init__(
        self,
        grid: ThermalGrid,
        network: Optional[ThermalNetwork] = None,
        tol: float = DEFAULT_TOLERANCE,
        max_iterations: int = DEFAULT_MAX_ITERATIONS,
    ) -> None:
        self.grid = grid
        self.tol = float(tol)
        self.max_iterations = int(max_iterations)
        self.num_nodes = grid.num_nodes
        self.levels: List[_Level] = []

        fine_network = network if network is not None else ThermalNetwork(grid)
        level_grid, level_network = grid, fine_network
        while True:
            level = _build_level(level_grid, level_network)
            self.levels.append(level)
            nx, ny = level.nx, level.ny
            if nx * ny <= COARSEST_LATERAL_CELLS or min(nx, ny) < 4:
                break
            coarse_grid = ThermalGrid(
                width_um=level_grid.width_um,
                height_um=level_grid.height_um,
                nx=(nx + 1) // 2,
                ny=(ny + 1) // 2,
                package=level_grid.package,
            )
            transfer = _build_prolongation(nx, ny, coarse_grid.nx, coarse_grid.ny)
            # Permute both sides into the red-black orders of their levels.
            coarse_perm = self._spatial_permutation(coarse_grid.nx, coarse_grid.ny)
            level.prolong_2d = transfer[level.perm][:, coarse_perm].tocsr()
            level.restrict_2d = level.prolong_2d.T.tocsr()
            level.n_sp_coarse = coarse_grid.nx * coarse_grid.ny
            level_grid, level_network = coarse_grid, ThermalNetwork(coarse_grid)

        # Direct solve on the coarsest level (a few hundred nodes).
        coarsest = self.levels[-1]
        coarsest.coarse_lu = spla.splu(
            coarsest.matrix.tocsc(),
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options=dict(SymmetricMode=True),
        )

    @staticmethod
    def _spatial_permutation(nx: int, ny: int) -> np.ndarray:
        """Red-black (red first) spatial ordering for an ``nx x ny`` plane."""
        return np.concatenate(_red_black_split(nx, ny))

    # -- operator -----------------------------------------------------------

    @staticmethod
    def _apply(level: _Level, u: np.ndarray) -> np.ndarray:
        """Operator matvec ``A @ u`` with ``u`` shaped ``(nz * n_sp, k)``.

        One sparse multi-vector product against the level's (permuted)
        conductance matrix — exactly the system the direct backend
        factorises, and C-speed across batched lanes.
        """
        return level.matrix @ u

    # -- smoother -----------------------------------------------------------

    @staticmethod
    def _smooth(
        level: _Level,
        u: np.ndarray,
        b: np.ndarray,
        order: Tuple[int, int],
        from_zero: bool = False,
    ) -> None:
        """One red-black z-line Gauss-Seidel sweep, in place.

        ``u`` and ``b`` are shaped ``(nz, n_sp, k)`` in the level's
        red-black order, so each colour's columns are contiguous slices.
        For each colour, every column is relaxed exactly: the lateral
        neighbour contributions (all of the opposite colour) are folded
        into the right-hand side with one sparse multi-vector product and
        the remaining vertical tridiagonal is solved by a batched Thomas
        recurrence with precomputed factors — whole-array updates, no
        Python loop over cells.  ``from_zero`` marks ``u`` as all-zero on
        entry, which lets the first colour skip its (identically zero)
        lateral product.
        """
        nz, n_sp, k = u.shape
        gv = level.gv
        for index, c in enumerate(order):
            cd = level.colors[c]
            if from_zero and index == 0:
                rhs = b[:, cd.start: cd.stop, :].copy()
            else:
                lat = (cd.lateral @ u.reshape(nz * n_sp, k)).reshape(nz, -1, k)
                rhs = b[:, cd.start: cd.stop, :] + lat
            # Forward elimination then back substitution along z.
            for layer in range(1, nz):
                rhs[layer] -= cd.w[layer] * rhs[layer - 1]
            rhs[nz - 1] /= cd.dt[nz - 1]
            for layer in range(nz - 2, -1, -1):
                rhs[layer] = (rhs[layer] + gv[layer] * rhs[layer + 1]) / cd.dt[layer]
            u[:, cd.start: cd.stop, :] = rhs

    # -- V-cycle ------------------------------------------------------------

    def _vcycle(self, index: int, b: np.ndarray) -> np.ndarray:
        """One symmetric V(1,1) cycle from a zero initial guess.

        ``b`` is shaped ``(nz, n_sp, k)`` in the level's red-black order.
        """
        level = self.levels[index]
        nz, n_sp, k = b.shape
        if level.coarse_lu is not None:
            solution = level.coarse_lu.solve(
                np.ascontiguousarray(b).reshape(nz * n_sp, k)
            )
            return np.ascontiguousarray(solution).reshape(nz, n_sp, k)
        u = np.zeros(b.shape)
        self._smooth(level, u, b, order=(0, 1), from_zero=True)
        flat_u = u.reshape(nz * n_sp, k)
        residual = (
            np.ascontiguousarray(b).reshape(nz * n_sp, k)
            - self._apply(level, flat_u)
        )
        coarse_rhs = self._transfer(level.restrict_2d, residual, nz, level.n_sp_coarse)
        correction = self._vcycle(index + 1, coarse_rhs)
        flat_u += self._transfer(
            level.prolong_2d,
            np.ascontiguousarray(correction).reshape(nz * level.n_sp_coarse, k),
            nz,
            n_sp,
        ).reshape(nz * n_sp, k)
        self._smooth(level, u, b, order=(1, 0))
        return u

    @staticmethod
    def _transfer(
        matrix: sp.csr_matrix, flat: np.ndarray, nz: int, n_out: int
    ) -> np.ndarray:
        """Apply a 2-D transfer matrix (shape ``(n_out, n_in)``) layer-by-
        layer and lane-by-lane.

        ``flat`` is ``(nz * n_in, k)``; the result is ``(nz, n_out, k)``.
        """
        n_in = matrix.shape[1]
        k = flat.shape[1]
        stacked = (
            flat.reshape(nz, n_in, k).transpose(1, 0, 2).reshape(n_in, nz * k)
        )
        out = matrix @ stacked
        return out.reshape(n_out, nz, k).transpose(1, 0, 2)

    # -- outer PCG ----------------------------------------------------------

    @staticmethod
    def _lane_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        # One dot product per lane over contiguous copies of its columns:
        # a lane's summation order then never depends on how many lanes
        # share the block, so a batched solve reproduces one-lane solves
        # bitwise (a single einsum/BLAS call over the whole block orders
        # the sums differently for one lane than for several), and no BLAS
        # call, so the BLAS thread count does not change it either.
        return np.array([
            ordered_dot(a[:, lane], b[:, lane]) for lane in range(a.shape[1])
        ])

    def solve(
        self,
        rhs: np.ndarray,
        x0: Optional[np.ndarray] = None,
        tol: Optional[Union[float, np.ndarray]] = None,
        max_iterations: Optional[int] = None,
        raise_on_stall: bool = False,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Solve ``A x = rhs`` for one or more right-hand sides.

        Args:
            rhs: Array of shape ``(num_nodes,)`` or ``(num_nodes, k)`` in
                the natural grid-node order.
            x0: Optional warm start of the same shape (a single ``(n,)``
                vector is broadcast across lanes).
            tol: Relative-residual tolerance override — a scalar, or one
                tolerance per lane (lanes freeze independently as each
                reaches its own target).
            max_iterations: Iteration-cap override.
            raise_on_stall: Raise :class:`MultigridConvergenceError` instead
                of warning when any lane misses its tolerance within the
                iteration cap — callers with a fallback path (the
                :class:`~repro.thermal.solver.ThermalSolver` LU chain) use
                this to trade a half-converged answer for an exact one.

        Returns:
            ``(x, iterations)`` where ``x`` matches ``rhs``'s shape and
            ``iterations`` holds the per-lane outer iteration counts.
        """
        tol = self.tol if tol is None else tol
        tol = np.asarray(tol, dtype=float)
        max_iterations = (
            self.max_iterations if max_iterations is None else int(max_iterations)
        )
        single = rhs.ndim == 1
        b = np.asarray(rhs, dtype=float)
        if single:
            b = b[:, None]
        if b.shape[0] != self.num_nodes:
            raise ValueError(
                f"rhs has {b.shape[0]} rows, expected {self.num_nodes}"
            )
        n, k = b.shape
        level = self.levels[0]
        nz, n_sp = level.nz, level.n_sp
        full_perm = _full_permutation(level.perm, nz)
        b = b[full_perm]

        if x0 is not None:
            x0 = np.asarray(x0, dtype=float)
            if x0.ndim == 1:
                x0 = np.repeat(x0[:, None], k, axis=1)
            x = x0[full_perm]
            r = b - self._apply(level, x)
        else:
            x = np.zeros((n, k))
            r = b.copy()

        b_norm = np.sqrt(self._lane_dot(b, b))
        threshold = tol * np.where(b_norm > 0.0, b_norm, 1.0)
        done = b_norm == 0.0
        x[:, done] = 0.0
        r[:, done] = 0.0
        iterations = np.zeros(k, dtype=int)

        rho_prev: Optional[np.ndarray] = None
        p: Optional[np.ndarray] = None
        it = 0
        while True:
            # Cooperative cancellation: one V-cycle is the natural quantum
            # of work here, so a non-converging solve under a deadline
            # scope stops within one cycle instead of spinning to the
            # iteration cap (or, with a pathological cap, forever).
            check_active("solver.multigrid")
            r_norm = np.sqrt(self._lane_dot(r, r))
            newly_done = ~done & (r_norm <= threshold)
            iterations[newly_done] = it
            done |= newly_done
            if done.all() or it >= max_iterations:
                break
            z = self._vcycle(0, r.reshape(nz, n_sp, k)).reshape(n, k)
            rho = self._lane_dot(r, z)
            if p is None:
                p = z
            else:
                safe_prev = np.where(rho_prev != 0.0, rho_prev, 1.0)
                beta = np.where(rho_prev != 0.0, rho / safe_prev, 0.0)
                p = z + beta * p
            q = self._apply(level, p)
            pq = self._lane_dot(p, q)
            safe_pq = np.where(pq != 0.0, pq, 1.0)
            # alpha is zeroed on converged lanes, freezing x and r there so
            # a batched solve reproduces per-lane sequential solves.
            alpha = np.where(~done & (pq != 0.0), rho / safe_pq, 0.0)
            x += alpha * p
            r -= alpha * q
            rho_prev = rho
            it += 1

        if not done.all():
            worst = float(
                (np.sqrt(self._lane_dot(r, r)) / threshold * tol).max()
            )
            message = (
                f"multigrid CG stopped at {max_iterations} iterations with "
                f"relative residual {worst:.2e} (target {float(tol.max()):.2e})"
            )
            if raise_on_stall:
                raise MultigridConvergenceError(message)
            warnings.warn(message, RuntimeWarning, stacklevel=2)
            iterations[~done] = it

        self.last_iterations = int(iterations.max()) if k else 0
        result = np.empty_like(x)
        result[full_perm] = x
        return (result[:, 0] if single else result), iterations

    @property
    def num_levels(self) -> int:
        """Number of levels in the hierarchy (including the coarsest)."""
        return len(self.levels)
