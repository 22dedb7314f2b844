"""Golden filler blocks of the strategies that fill row whitespace.

``default``, ``eri`` and ``gradient`` on both hotspot workloads of the small
design, over a grid of overheads that includes 0 (``eri`` and ``gradient``
then insert no row) and ERI shifts that leave whole rows empty; the object
form :func:`~repro.placement.insert_fillers` on a relaxed placement; a
refill of an already filled view (the names continue after its block);
and one Default point of the full ``synthetic9`` design.  Each case pins
the filler count, the block's first name index and the digests of its
row, x and master arrays in ``tests/data/fill_golden.json``.

Regenerate the file (only when a change of the records is intended) with
``PYTHONPATH=src python tests/test_fill_golden.py``.
"""

from __future__ import annotations

import functools
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.bench import (
    build_synthetic_circuit,
    concentrated_hotspot_workload,
    scattered_hotspots_workload,
    small_synthetic_circuit,
)
from repro.core import apply_default_spread, manage_area
from repro.core.builtin_strategies import default_relaxation
from repro.flow import ExperimentSetup
from repro.placement import PlacementView, insert_fillers, place_design

GOLDEN = Path(__file__).parent / "data" / "fill_golden.json"

WORKLOADS = {
    "scattered": scattered_hotspots_workload,
    "concentrated": concentrated_hotspot_workload,
}
STRATEGIES = ("default", "eri", "gradient")
OVERHEADS = (0.0, 0.05, 0.161, 0.4)


def case_ids():
    strategy_cases = [
        f"{workload}-{strategy}-{overhead}"
        for workload in WORKLOADS
        for strategy in STRATEGIES
        for overhead in OVERHEADS
    ]
    return strategy_cases + ["object-insert-0.161", "refill-default-0.161", "synthetic9-default-0.25"]


@functools.lru_cache(maxsize=None)
def _setup(workload: str) -> ExperimentSetup:
    circuit = small_synthetic_circuit()
    return ExperimentSetup.prepare(
        circuit, WORKLOADS[workload](circuit), grid_nx=16, grid_ny=16,
        num_cycles=6, batch_size=8, seed=7,
    )


def _digest(array: np.ndarray, dtype: str) -> str:
    return hashlib.sha256(np.ascontiguousarray(array, dtype=dtype).tobytes()).hexdigest()


def _record(placement) -> dict:
    block = placement.fillers
    occupied = np.zeros(placement.floorplan.num_rows, dtype=bool)
    rows = np.asarray(placement.row) if isinstance(placement, PlacementView) else np.array(
        [-1 if cell.row is None else cell.row for cell in placement.netlist.cells.values()]
    )
    occupied[rows[rows >= 0]] = True
    return {
        "num_fillers": len(block),
        "first_index": block.first_index,
        "masters": [master.name for master in block.masters],
        "row_sha256": _digest(block.row, "<i8"),
        "x_sha256": _digest(block.x, "<f8"),
        "master_sha256": _digest(block.master, "<i8"),
        "rows_without_cells": int((~occupied).sum()),
    }


def compute_case(case_id: str) -> dict:
    """The golden record of one case, as JSON-ready data."""
    workload, strategy, overhead = case_id.split("-")
    if workload == "object":
        placement = default_relaxation(_setup("scattered").placement, float(overhead)).to_placement()
        block = insert_fillers(placement)
        assert len(block) == len(placement.fillers)
        return _record(placement)
    if workload == "refill":
        setup = _setup("scattered")
        filled = manage_area(
            setup.placement, setup.power, setup.thermal_map, strategy, float(overhead)
        ).placement
        return _record(filled.with_fillers())
    if workload == "synthetic9":
        baseline = PlacementView.of(place_design(build_synthetic_circuit(), utilization=0.85))
        return _record(apply_default_spread(baseline, float(overhead)).placement)
    setup = _setup(workload)
    result = manage_area(
        setup.placement, setup.power, setup.thermal_map, strategy, float(overhead)
    )
    assert result.num_fillers == len(result.placement.fillers)
    return _record(result.placement)


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case_and_empty_rows():
    golden = _golden()
    assert sorted(golden) == sorted(case_ids())
    # ERI shifts leave whole rows to the fillers; overhead 0 inserts none.
    assert any(golden[f"scattered-eri-{o}"]["rows_without_cells"] > 0 for o in OVERHEADS)
    assert golden["scattered-eri-0.0"]["rows_without_cells"] == 0


@pytest.mark.parametrize("case_id", case_ids())
def test_fill_matches_golden(case_id):
    assert compute_case(case_id) == _golden()[case_id]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    records = {case_id: compute_case(case_id) for case_id in case_ids()}
    GOLDEN.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(records)} cases to {GOLDEN}")
