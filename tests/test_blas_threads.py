"""Thermal solves do not depend on the BLAS thread count.

A 1-D ``np.dot`` goes to BLAS ``ddot``, which splits long vectors across
its threads, so the rounding of a reduction can change with
``OPENBLAS_NUM_THREADS``.  The multigrid backend's reductions and the
package-node correction run without BLAS; this test solves the same maps
in two interpreters, one on 1 BLAS thread and one on 4, and compares the
bits.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import repro

#: Source tree for the child interpreters' PYTHONPATH.
SRC = str(Path(repro.__file__).resolve().parents[1])

#: One cold multigrid ``solve`` and one warm ``solve_many`` on a grid large
#: enough that ``auto`` picks multigrid; prints a digest of every bit.
CHILD = """
import hashlib
import numpy as np
from repro.thermal import ThermalGrid, ThermalSolver, default_package

grid = ThermalGrid(1200.0, 1000.0, nx=40, ny=40, package=default_package())
solver = ThermalSolver(grid, method="auto")
assert solver.method == "multigrid" and grid.num_nodes >= 6000, solver.method
rng = np.random.default_rng(7)
maps = [rng.random((40, 40)) * 1e-4 for _ in range(4)]
first = solver.solve(maps[0])
batch = solver.solve_many(maps[1:], x0=first.grid_rises)
digest = hashlib.blake2b()
for solved in [first] + batch:
    digest.update(solved.temperatures.tobytes())
    digest.update(solved.grid_rises.tobytes())
    digest.update(np.float64(solved.package_temperature).tobytes())
print(digest.hexdigest())
"""


def _digest(threads: int) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = str(threads)
    done = subprocess.run(
        [sys.executable, "-c", CHILD],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_multigrid_solves_equal_under_1_and_4_blas_threads():
    assert _digest(1) == _digest(4)
