"""Steady-state solver for the thermal network.

The paper solves the RC network with SPICE; at steady state this is a
single sparse linear solve ``G * T = P``.  :class:`ThermalSolver` wraps one
die geometry's solve behind two interchangeable backends — a SuperLU
factorisation (``method="lu"``) and a geometric multigrid engine
(``method="multigrid"``, see :mod:`repro.thermal.multigrid`) — so several
power maps can be solved against the same geometry, as happens during an
area-overhead sweep.  :func:`simulate_placement` is the one-call
convenience path from a placed design plus a power report to a
:class:`~repro.thermal.thermal_map.ThermalMap` — the "Thermal Simulation"
box of the paper's Figure 2.
"""

from __future__ import annotations

import logging
import threading
from typing import TYPE_CHECKING, List, Optional, Sequence, Union

import numpy as np
import scipy.sparse.linalg as spla

from ..deadlines import check_active
from ..faults import InjectedFault, inject
from ..floatsum import ordered_dot
from ..placement import Placement, PlacementView, as_placement
from ..power import PowerReport, build_power_map, iter_cell_bins
from ..power.power_map import PowerMap
from .grid import ThermalGrid
from .multigrid import MultigridConvergenceError, MultigridSolver
from .network import ThermalNetwork
from .package import Package, default_package
from .thermal_map import ThermalMap, map_from_solution

logger = logging.getLogger(__name__)

if TYPE_CHECKING:  # pragma: no cover - import cycle is type-only
    from ..flow.cache import SolverCache

#: Fill-reducing column permutation used by default.  The conductance matrix
#: is a symmetric 7-point stencil, for which SuperLU's ``MMD_AT_PLUS_A``
#: ordering (with symmetric mode) roughly halves both the factorisation time
#: and the fill-in compared to the generic COLAMD default.
DEFAULT_PERMC_SPEC = "MMD_AT_PLUS_A"

#: The solver backends :func:`resolve_thermal_method` accepts.
THERMAL_METHODS = ("auto", "lu", "multigrid")

#: ``method="auto"`` picks multigrid at or above this node count.  Below
#: it, a sparse LU factorises in milliseconds and its triangular re-solves
#: are unbeatable; above it, the factorisation cost grows super-linearly
#: while multigrid stays O(N) (at the paper's 40 x 40 x 9 grid the LU
#: setup is ~40x slower than the full multigrid build-and-solve).
MULTIGRID_AUTO_MIN_NODES = 6000

#: Accuracy of the one-time package-coupling solve (its error enters every
#: subsequent temperature through the rank-1 correction, so it is kept a
#: decade below the default solve tolerance).
_PACKAGE_SOLVE_TOL = 1e-10


def resolve_thermal_method(
    method: Optional[str], grid: Optional[ThermalGrid] = None
) -> str:
    """Resolve a solver-method spec to a concrete backend name.

    Args:
        method: ``"lu"``, ``"multigrid"``, ``"auto"`` or ``None`` (auto).
        grid: The mesh, consulted by the ``auto`` size heuristic.

    Returns:
        ``"lu"`` or ``"multigrid"``.

    Raises:
        ValueError: On an unknown method name.
    """
    if method is None:
        method = "auto"
    method = method.lower()
    if method not in THERMAL_METHODS:
        raise ValueError(
            f"unknown thermal solver method {method!r}; "
            f"expected one of {', '.join(THERMAL_METHODS)}"
        )
    if method != "auto":
        return method
    if grid is None:
        return "lu"
    return "multigrid" if grid.num_nodes >= MULTIGRID_AUTO_MIN_NODES else "lu"


class ThermalSolver:
    """Prepared steady-state solver for one die geometry.

    Args:
        grid: Thermal mesh.
        keep_full_field: Store the full 3-D temperature field on results.
        permc_spec: SuperLU column-permutation strategy (LU backend only).
            The default exploits the matrix symmetry; pass ``"COLAMD"``
            with ``symmetric_mode=False`` for SuperLU's generic behaviour.
        symmetric_mode: Enable SuperLU's symmetric mode (valid for this
            matrix, which is symmetric positive definite).
        method: Solver backend — ``"lu"`` (sparse direct factorisation),
            ``"multigrid"`` (V-cycle-preconditioned CG, O(N) setup, warm
            starts), or ``"auto"`` (pick by grid size; the resolved choice
            is available as :attr:`method`).
        tol: Relative-residual tolerance of the multigrid backend
            (``None`` uses :data:`repro.thermal.multigrid.DEFAULT_TOLERANCE`).
        fallback: When the multigrid backend stalls (or a fault is
            injected at the ``solver.multigrid`` site), silently re-solve
            through a lazily built direct LU factorisation instead of
            surfacing the half-converged answer.  The resulting maps carry
            ``fallback_used=True``; disable to get the raising behaviour.
    """

    def __init__(
        self,
        grid: ThermalGrid,
        keep_full_field: bool = False,
        permc_spec: str = DEFAULT_PERMC_SPEC,
        symmetric_mode: bool = True,
        method: str = "auto",
        tol: Optional[float] = None,
        fallback: bool = True,
    ) -> None:
        self.grid = grid
        self.network = ThermalNetwork(grid)
        self.keep_full_field = keep_full_field
        self.method = resolve_thermal_method(method, grid)
        self.fallback = fallback
        self.fallback_count = 0
        # In symmetric mode the pivot threshold is dropped to keep
        # SuperLU on the diagonal, as the matrix is a diagonally
        # dominant SPD M-matrix; off-diagonal pivoting would only
        # re-introduce fill the symmetric ordering avoids.
        if symmetric_mode:
            self._splu_kwargs = dict(
                permc_spec=permc_spec,
                diag_pivot_thresh=0.0,
                options=dict(SymmetricMode=True),
            )
        else:
            self._splu_kwargs = dict(permc_spec=permc_spec, options=dict())
        # Both backends solve the grid-only matrix (pure 7-point stencil);
        # the lumped package node would add a dense row, so it is eliminated
        # via a Sherman-Morrison rank-1 correction in :meth:`solve`.
        self._factorized = None
        self._lu_lock = threading.Lock()
        self._mg: Optional[MultigridSolver] = None
        if self.method == "multigrid":
            mg_kwargs = {} if tol is None else {"tol": tol}
            self._mg = MultigridSolver(grid, network=self.network, **mg_kwargs)
        else:
            self._ensure_lu()
        # Reused RHS buffer: only the active-layer span is ever written, the
        # rest stays zero, so repeated solves (campaign sweeps, the leakage
        # feedback loop) allocate nothing per point.  Thread-local because a
        # SolverCache hands the same solver instance to every Campaign
        # worker thread that shares a die geometry.
        self._rhs_local = threading.local()
        self._package_solve: np.ndarray | None = None
        if self.network.package_node is not None:
            coupling = self.network.package_coupling
            if self._mg is not None:
                self._package_solve, _ = self._mg.solve(
                    coupling, tol=_PACKAGE_SOLVE_TOL
                )
            else:
                self._package_solve = self._factorized.solve(coupling)
            self._package_denominator = float(
                self.network.package_diagonal
                - ordered_dot(coupling, self._package_solve)
            )

    # -- backend dispatch ----------------------------------------------------

    def _ensure_lu(self):
        """Build (once) and return the direct LU factorisation.

        The LU backend builds it eagerly; the multigrid backend only pays
        for the factorisation the first time its fallback path needs it.
        """
        if self._factorized is None:
            with self._lu_lock:
                if self._factorized is None:
                    self._factorized = spla.splu(
                        self.network.grid_matrix.tocsc(), **self._splu_kwargs
                    )
        return self._factorized

    def _base_from_physical(self, x0: np.ndarray) -> np.ndarray:
        """Convert a physical rise field into a base-system starting guess.

        The grid system is solved *before* the rank-1 package correction,
        so a previous map's (corrected) rises must have the correction
        peeled off to be a useful warm start.  The correction coefficient
        of the solve that produced ``x0`` is exactly its package-node rise
        ``(coupling @ x0) / package_diagonal``, so the base field is
        recovered without any extra solve.

        A ``(num_nodes, k)`` stack is converted lane by lane with exactly
        the 1-D operations, so a lane's starting guess never depends on
        the batch it shares (one dense product across lanes would round
        the dot products differently).
        """
        if self._package_solve is None:
            return x0
        if x0.ndim == 2:
            base = np.empty_like(x0)
            for lane in range(x0.shape[1]):
                base[:, lane] = self._base_from_physical(
                    np.ascontiguousarray(x0[:, lane])
                )
            return base
        coupling = self.network.package_coupling
        gamma = ordered_dot(coupling, x0) / self.network.package_diagonal
        return x0 - gamma * self._package_solve

    def _solve_grid(
        self, rhs: np.ndarray, x0: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Solve the grid-only system for one or more stacked RHS lanes.

        ``x0`` (a previous *physical* temperature-rise field, same leading
        length) is exploited by the multigrid backend and ignored by LU.
        """
        self._rhs_local.fallback = False
        if self._mg is None:
            self._rhs_local.iterations = 0
            return self._factorized.solve(rhs)

        if x0 is not None and x0.shape[0] != self.grid.num_nodes:
            x0 = None  # mismatched geometry: fall back to a cold start
        if x0 is not None:
            x0 = self._base_from_physical(np.asarray(x0, dtype=float))
        try:
            inject(
                "solver.multigrid",
                {
                    "num_nodes": self.grid.num_nodes,
                    "lanes": rhs.shape[1] if rhs.ndim == 2 else 1,
                },
            )
            solution, iterations = self._mg.solve(
                rhs, x0=x0, raise_on_stall=self.fallback
            )
        except (MultigridConvergenceError, InjectedFault) as error:
            if not self.fallback:
                raise
            logger.warning(
                "multigrid backend failed (%s); degrading to direct LU solve",
                error,
            )
            self.fallback_count += 1
            self._rhs_local.iterations = 0
            self._rhs_local.fallback = True
            # Never start an expensive LU factorisation on an already-blown
            # deadline; DeadlineExceeded also bypasses this except clause,
            # so a timed-out multigrid solve can not "degrade" into LU.
            check_active("solver.fallback")
            return self._ensure_lu().solve(rhs)
        self._rhs_local.iterations = int(iterations.max()) if iterations.size else 0
        return solution

    @property
    def last_iterations(self) -> int:
        """Outer iterations of this thread's most recent solve (0 for LU)."""
        return getattr(self._rhs_local, "iterations", 0)

    @property
    def last_fallback_used(self) -> bool:
        """True when this thread's most recent solve took the LU fallback."""
        return getattr(self._rhs_local, "fallback", False)

    # -- solving -------------------------------------------------------------

    def solve(
        self, power_per_cell: np.ndarray, x0: Optional[np.ndarray] = None
    ) -> ThermalMap:
        """Solve for a power map of shape ``(ny, nx)`` watts per thermal cell.

        Args:
            power_per_cell: The binned power map.
            x0: Optional warm start — a previous grid temperature-rise
                vector (e.g. :attr:`ThermalMap.grid_rises` of an earlier
                solve on the same grid resolution).  The multigrid backend
                starts its iteration there; LU ignores it.

        Returns:
            The resulting :class:`ThermalMap`.
        """
        buffer = getattr(self._rhs_local, "rhs", None)
        if buffer is None:
            buffer = self._rhs_local.rhs = np.zeros(self.grid.num_nodes)
        rhs = self.network.fill_grid_rhs(power_per_cell, buffer)
        return self._lane_map(self._solve_grid(rhs, x0=x0))

    def _lane_map(self, base: np.ndarray) -> ThermalMap:
        """One lane's :class:`ThermalMap` from its grid-only solution.

        Applies the package-node rank-1 (Sherman-Morrison) correction with
        1-D operations only, so :meth:`solve` and every lane of
        :meth:`solve_many` round identically.
        """
        if self._package_solve is None:
            solution = base
        else:
            coupling = self.network.package_coupling
            correction = ordered_dot(coupling, base) / self._package_denominator
            grid_temps = base + correction * self._package_solve
            package_temp = (
                ordered_dot(coupling, grid_temps) / self.network.package_diagonal
            )
            solution = np.concatenate([grid_temps, [package_temp]])
        return map_from_solution(
            self.grid,
            solution,
            package_node=self.network.package_node,
            keep_full_field=self.keep_full_field,
            fallback_used=self.last_fallback_used,
        )

    def solve_power_map(
        self, power_map: PowerMap, x0: Optional[np.ndarray] = None
    ) -> ThermalMap:
        """Solve for a :class:`~repro.power.power_map.PowerMap`."""
        return self.solve(power_map.power_w, x0=x0)

    def solve_many(
        self,
        power_maps: Sequence[Union[PowerMap, np.ndarray]],
        x0: Optional[np.ndarray] = None,
    ) -> List[ThermalMap]:
        """Solve a stack of power maps sharing this geometry in one pass.

        All smoother/residual arrays of the multigrid backend carry a
        trailing lane axis, so the whole stack is iterated simultaneously
        (per-lane step sizes, converged lanes frozen); the LU backend
        solves the stacked RHS with one batched triangular solve.  This is
        what :class:`~repro.flow.runner.Campaign` uses to solve all records
        sharing a die geometry as one block.

        Every lane is *bitwise* identical to a sequential :meth:`solve` of
        the same power map and warm start, under either backend and
        whichever lanes share the batch: the multigrid reductions, the
        warm-start conversion and the package-node correction all run lane
        by lane with the 1-D operations of :meth:`solve`, and SuperLU's
        batched triangular solve is per-column exact.  Campaigns and the
        campaign service rely on this: batches regroup points arbitrarily
        without perturbing any record.

        Args:
            power_maps: Power maps (or bare ``(ny, nx)`` arrays) to solve.
            x0: Optional warm start — either one rise vector of length
                ``num_nodes`` broadcast across lanes, or a ``(num_nodes,
                k)`` stack of per-lane rise vectors.

        Returns:
            One :class:`ThermalMap` per input, in order.
        """
        if not power_maps:
            return []
        arrays = [
            pm.power_w if isinstance(pm, PowerMap) else np.asarray(pm, dtype=float)
            for pm in power_maps
        ]
        k = len(arrays)
        rhs = np.zeros((self.grid.num_nodes, k))
        for lane, power in enumerate(arrays):
            self.network.fill_grid_rhs(power, rhs[:, lane])
        base = self._solve_grid(rhs, x0=x0)
        return [
            self._lane_map(np.ascontiguousarray(base[:, lane])) for lane in range(k)
        ]


def grid_for_placement(
    placement: Placement,
    package: Optional[Package] = None,
    nx: int = 40,
    ny: int = 40,
) -> ThermalGrid:
    """Build the thermal grid covering a placement's die outline."""
    pkg = package if package is not None else default_package()
    return ThermalGrid.for_die(
        die_width_um=placement.floorplan.die_width,
        die_height_um=placement.floorplan.die_height,
        package=pkg,
        nx=nx,
        ny=ny,
    )


def _warm_start_rises(
    warm_start: "Optional[Union[ThermalMap, np.ndarray]]",
) -> Optional[np.ndarray]:
    """Extract a grid-rise warm-start vector from a map or bare array."""
    if warm_start is None:
        return None
    if isinstance(warm_start, ThermalMap):
        return warm_start.grid_rises
    return np.asarray(warm_start, dtype=float)


def simulate_placement(
    placement: Placement,
    power: PowerReport,
    package: Optional[Package] = None,
    nx: int = 40,
    ny: int = 40,
    keep_full_field: bool = False,
    solver: Optional[ThermalSolver] = None,
    cache: "Optional[SolverCache]" = None,
    power_map: Optional[PowerMap] = None,
    method: Optional[str] = None,
    warm_start: "Optional[Union[ThermalMap, np.ndarray]]" = None,
) -> ThermalMap:
    """Run the full thermal-simulation step on a placed, power-annotated design.

    This is the "Thermal Simulation" box of the paper's flow (Figure 2):
    the placed netlist provides cell positions, the power report provides
    cell-by-cell power, both are binned onto the thermal grid and the
    steady-state RC network is solved.

    Args:
        placement: The placed design.
        power: Per-cell power report.
        package: Thermal stack; defaults to :func:`default_package`.
        nx: Grid cells in x.
        ny: Grid cells in y.
        keep_full_field: Keep the 3-D temperature field on the result.
        solver: Pre-built :class:`ThermalSolver` for this placement's die
            geometry; skips grid construction and solver setup entirely.
        cache: A :class:`repro.flow.cache.SolverCache`; the prepared solver
            is fetched from (or inserted into) the cache, so repeated calls
            on the same die geometry — as in an area-overhead sweep — pay
            the solver setup only once.  Ignored when ``solver`` is given.
        power_map: Pre-binned power map (must match the grid resolution);
            skips the cell-to-bin accumulation.
        method: Solver backend (``"lu"``, ``"multigrid"`` or ``"auto"``);
            ``None`` uses the cache's configured method, or ``"auto"``.
        warm_start: A previous :class:`ThermalMap` (its
            :attr:`~ThermalMap.grid_rises` field) or bare rise vector to
            start the multigrid iteration from; ignored by the LU backend
            and on mismatched grid sizes.

    Returns:
        The active-layer :class:`ThermalMap`.
    """
    if solver is None:
        if cache is not None:
            solver = cache.solver_for_placement(
                placement, package=package, nx=nx, ny=ny,
                keep_full_field=keep_full_field, method=method,
            )
        else:
            grid = grid_for_placement(placement, package=package, nx=nx, ny=ny)
            solver = ThermalSolver(
                grid, keep_full_field=keep_full_field,
                method="auto" if method is None else method,
            )
    if power_map is None:
        power_map = build_power_map(placement, power, nx=nx, ny=ny, over_die=True)
    return solver.solve_power_map(power_map, x0=_warm_start_rises(warm_start))


def cell_temperature_array(
    placement: Placement,
    thermal_map: ThermalMap,
    nx: int = 40,
    ny: int = 40,
    default: float = 25.0,
) -> np.ndarray:
    """Per-cell temperatures as a vector aligned with the compiled cell order.

    One fancy-indexed lookup into the thermal map using the same binning as
    :func:`~repro.power.power_map.build_power_map`.  Unplaced and filler
    cells (which :func:`cell_temperatures` omits from its dict) carry
    ``default``, matching how
    :meth:`~repro.power.power_model.PowerModel.estimate_with_temperature_map`
    treats missing cells.

    Args:
        placement: The placed design.
        thermal_map: An active-layer thermal map at ``(ny, nx)`` resolution.
        nx: Grid cells in x.
        ny: Grid cells in y.
        default: Temperature assigned to cells without a bin lookup.

    Returns:
        Vector of length ``num_cells`` in Celsius.
    """
    from ..power.power_map import cell_bin_indices

    comp = placement.netlist.compiled()
    iy, ix, placed = cell_bin_indices(placement, nx=nx, ny=ny, over_die=True)
    mask = placed & ~comp.is_filler
    temps = np.full(comp.num_cells, float(default))
    temps[mask] = thermal_map.temperatures[iy[mask], ix[mask]]
    return temps


def cell_temperatures(
    placement: Union[Placement, PlacementView],
    thermal_map: ThermalMap,
    nx: int = 40,
    ny: int = 40,
    engine: Optional[str] = None,
) -> dict:
    """Per-cell temperatures read off a thermal map.

    Each cell is looked up in the grid bin containing its centre, using the
    same binning as :func:`~repro.power.power_map.build_power_map`.

    Args:
        placement: The placed design.
        thermal_map: An active-layer thermal map at ``(ny, nx)`` resolution.
        nx: Grid cells in x.
        ny: Grid cells in y.
        engine: ``"compiled"`` (one fancy-indexed lookup) or ``"reference"``
            (cell-at-a-time); defaults to the process-wide engine.

    Returns:
        Mapping of cell name to its bin temperature in Celsius.
    """
    from ..engine import resolve_engine
    from ..power.power_map import cell_bin_indices

    if resolve_engine(engine) == "reference":
        return {
            cell.name: float(thermal_map.temperatures[iy, ix])
            for cell, iy, ix in iter_cell_bins(
                as_placement(placement), nx=nx, ny=ny, over_die=True
            )
        }
    comp = placement.netlist.compiled()
    iy, ix, placed = cell_bin_indices(placement, nx=nx, ny=ny, over_die=True)
    mask = placed & ~comp.is_filler
    temps = thermal_map.temperatures[iy[mask], ix[mask]]
    names = [name for name, keep in zip(comp.cell_names, mask.tolist()) if keep]
    return dict(zip(names, temps.tolist()))


def simulate_with_leakage_feedback(
    placement: Placement,
    activity,
    power_model,
    package: Optional[Package] = None,
    nx: int = 40,
    ny: int = 40,
    iterations: int = 3,
    cache: "Optional[SolverCache]" = None,
    engine: Optional[str] = None,
    method: Optional[str] = None,
) -> ThermalMap:
    """Thermal simulation with leakage/temperature feedback iterations.

    The positive feedback between leakage power and temperature mentioned
    in the paper's introduction: each iteration re-evaluates leakage at the
    per-cell temperatures of the previous thermal solve.  The die geometry
    never changes across iterations, so one prepared solver is reused for
    the whole loop, and every re-solve warm-starts from the previous
    iteration's temperature field — which the multigrid backend converts
    into one or two cycles, while LU (which cannot exploit a starting
    guess) simply ignores it.

    Args:
        placement: The placed design.
        activity: Per-net :class:`~repro.power.activity.SwitchingActivity`.
        power_model: A :class:`~repro.power.power_model.PowerModel`.
        package: Thermal stack.
        nx: Grid cells in x.
        ny: Grid cells in y.
        iterations: Number of power/thermal iterations (>= 1).
        cache: Optional :class:`repro.flow.cache.SolverCache` to share the
            prepared solver with other simulations of the same geometry.
        method: Solver backend (``"lu"``, ``"multigrid"`` or ``"auto"``).

    Returns:
        The converged :class:`ThermalMap`.
    """
    if iterations < 1:
        raise ValueError("iterations must be at least 1")
    netlist = placement.netlist
    if cache is not None:
        solver = cache.solver_for_placement(
            placement, package=package, nx=nx, ny=ny, method=method
        )
    else:
        solver = ThermalSolver(
            grid_for_placement(placement, package=package, nx=nx, ny=ny),
            method="auto" if method is None else method,
        )
    from ..engine import resolve_engine, use_engine

    resolved = resolve_engine(engine)
    # Pin the whole loop (including the binning inside simulate_placement,
    # which has no engine parameter of its own) to the resolved engine, so
    # engine="reference" really is a pure reference run.
    with use_engine(resolved):
        power = power_model.estimate(netlist, activity)
        thermal_map = simulate_placement(
            placement, power, package=package, nx=nx, ny=ny, solver=solver
        )
        for _ in range(iterations - 1):
            if resolved == "reference":
                cell_temps = cell_temperatures(placement, thermal_map, nx=nx, ny=ny)
            else:
                # Array round-trip: the per-cell temperature vector feeds
                # the power model directly, with no name-keyed dict between.
                cell_temps = cell_temperature_array(
                    placement, thermal_map, nx=nx, ny=ny,
                    default=power_model.temperature,
                )
            power = power_model.estimate_with_temperature_map(
                netlist, activity, cell_temps
            )
            thermal_map = simulate_placement(
                placement, power, package=package, nx=nx, ny=ny, solver=solver,
                warm_start=thermal_map,
            )
    return thermal_map
