"""Golden records of the hotspot-wrapper strategies on the small design.

``hw`` and ``hybrid`` on both hotspot workloads, over a grid of overheads,
ring widths and source-unit counts: the placement digest, the filler count
and every wrapped hotspot's book-keeping of each case are pinned in
``tests/data/wrapper_golden.json``.  The grid covers the wrapper's
order-sensitive paths: ties in the nearest-row search of bystander
relocation, packing that falls back to the ring rectangle, and bystanders
that only forced insertion can place (``num_unmoved > 0``).

Regenerate the file (only when a change of the records is intended) with
``PYTHONPATH=src python tests/test_wrapper_golden.py``.
"""

from __future__ import annotations

import functools
import json
from dataclasses import astuple
from pathlib import Path

import pytest

from repro.bench import (
    concentrated_hotspot_workload,
    scattered_hotspots_workload,
    small_synthetic_circuit,
)
from repro.core import Hotspot, apply_hotspot_wrapper, manage_area
from repro.core.builtin_strategies import default_relaxation
from repro.flow import ExperimentSetup, placement_digest

GOLDEN = Path(__file__).parent / "data" / "wrapper_golden.json"

WORKLOADS = {
    "scattered": scattered_hotspots_workload,
    "concentrated": concentrated_hotspot_workload,
}
STRATEGIES = ("hw", "hybrid")
OVERHEADS = (0.05, 0.4)
RINGS_UM = (0.0, 6.0, 12.0)
SOURCE_UNITS = (1, 2)


def case_ids():
    strategy_cases = [
        f"{workload}-{strategy}-{overhead}-{ring}-{units}"
        for workload in WORKLOADS
        for strategy in STRATEGIES
        for overhead in OVERHEADS
        for ring in RINGS_UM
        for units in SOURCE_UNITS
    ]
    # Every unit region as a hotspot, wrapped in turn: later wrappers
    # evict cells that earlier ones relocated.
    region_cases = [
        f"regions-wrapper-{overhead}-{ring}-1" for overhead in OVERHEADS for ring in RINGS_UM
    ]
    return strategy_cases + region_cases


def _region_hotspots(placement):
    return [
        Hotspot(index=i, bins=[], rect=rect, peak_celsius=0.0, peak_bin=(0, 0),
                dominant_units=[unit])
        for i, (unit, rect) in enumerate(sorted(placement.regions.items()))
    ]


@functools.lru_cache(maxsize=None)
def _setup(workload: str) -> ExperimentSetup:
    circuit = small_synthetic_circuit()
    return ExperimentSetup.prepare(
        circuit, WORKLOADS[workload](circuit), grid_nx=16, grid_ny=16,
        num_cycles=6, batch_size=8, seed=7,
    )


@functools.lru_cache(maxsize=None)
def _relaxed(workload: str, overhead: float):
    return default_relaxation(_setup(workload).placement, overhead)


def compute_case(case_id: str) -> dict:
    """The golden record of one case, as JSON-ready data."""
    workload, strategy, overhead, ring, units = case_id.split("-")
    if workload == "regions":
        relaxed = _relaxed("scattered", float(overhead))
        wrapper = apply_hotspot_wrapper(
            relaxed, _region_hotspots(relaxed), ring_width_um=float(ring),
            max_source_units=int(units),
        )
        return _record(wrapper.placement, wrapper)
    setup = _setup(workload)
    result = manage_area(
        setup.placement, setup.power, setup.thermal_map,
        f"{strategy}:ring_um={ring},max_source_units={units}", float(overhead),
        relax=lambda: _relaxed(workload, float(overhead)),
    )
    wrapper = result.details if strategy == "hw" else result.details["wrapper"]
    assert result.num_fillers == wrapper.num_fillers
    return _record(result.placement, wrapper)


def _record(placement, wrapper) -> dict:
    return {
        "placement_digest": placement_digest(placement),
        "num_fillers": wrapper.num_fillers,
        "wrapped": [
            {
                "hotspot_index": w.hotspot_index,
                "inner_rect": list(astuple(w.inner_rect)),
                "outer_rect": list(astuple(w.outer_rect)),
                "hot_units": list(w.hot_units),
                "num_hot_cells": w.num_hot_cells,
                "num_evicted": w.num_evicted,
                "num_unmoved": w.num_unmoved,
            }
            for w in wrapper.wrapped
        ],
    }


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case_and_forced_insertion():
    golden = _golden()
    assert sorted(golden) == sorted(case_ids())
    assert any(w["num_unmoved"] > 0 for case in golden.values() for w in case["wrapped"])


@pytest.mark.parametrize("case_id", case_ids())
def test_wrapper_matches_golden(case_id):
    # Round-tripped through JSON so floats compare as stored.
    assert json.loads(json.dumps(compute_case(case_id))) == _golden()[case_id]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    records = {case_id: compute_case(case_id) for case_id in case_ids()}
    GOLDEN.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(records)} cases to {GOLDEN}")
