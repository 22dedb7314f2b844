"""Golden records of the Default relaxation and the placer on fixed designs.

``apply_default_spread`` on the small design's baseline over a grid of
overheads, with and without the quadratic placer and the detailed pass;
``default_relaxation`` (the flow's ``relax`` stage) at each overhead;
``place_design`` on a fresh netlist (cold start) and on an already placed
one (the quadratic solve warm-starts from, and the packer targets, the
cells' own centres); one relaxation of the full ``synthetic9`` design.
Each case pins the placement digest and, for relaxations, the overhead,
utilization and filler count in ``tests/data/relaxation_golden.json``.

Two cases run on an edited design whose nets reach the quadratic
placer's order-sensitive paths, which the generated designs never do:
every fourth cell is fixed (a fixed terminal at its centre, next to the
ports of its nets) and the eight largest nets gain twelve output ports
each (star-model nets whose centroid sums many fixed terminals).  The
system is assembled with ``np.add.at`` and COO duplicate summation and
the centroid is a left-to-right sum, so the digest of the quadratic
targets moves when net terminals are reordered or summed pairwise.

Regenerate the file (only when a change of the records is intended) with
``PYTHONPATH=src python tests/test_relaxation_golden.py``.
"""

from __future__ import annotations

import functools
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.bench import build_synthetic_circuit, small_synthetic_circuit
from repro.core import apply_default_spread
from repro.core.builtin_strategies import default_relaxation
from repro.flow import placement_digest
from repro.placement import (
    Floorplan,
    PlacementView,
    QuadraticPlacer,
    place_design,
    port_positions,
    slicing_partition,
)

GOLDEN = Path(__file__).parent / "data" / "relaxation_golden.json"

OVERHEADS = (0.0, 0.05, 0.161, 0.4)
SWITCHES = (True, False)


def case_ids():
    spread = [
        f"spread-{overhead}-{quadratic}-{detailed}"
        for overhead in OVERHEADS
        for quadratic in SWITCHES
        for detailed in SWITCHES
    ]
    relax = [f"relax-{overhead}" for overhead in OVERHEADS]
    place = [f"place-{start}-{quadratic}" for start in ("cold", "warm") for quadratic in SWITCHES]
    edited = ["edited-targets", "edited-place"]
    return spread + relax + place + edited + ["synthetic9-relax-0.25"]


@functools.lru_cache(maxsize=None)
def _baseline(design: str = "small") -> PlacementView:
    netlist = small_synthetic_circuit() if design == "small" else build_synthetic_circuit()
    return PlacementView.of(place_design(netlist, utilization=0.85))


def _edited_design():
    """The small design, placed, with fixed cells and many-port star nets."""
    netlist = small_synthetic_circuit()
    place_design(netlist, utilization=0.85)
    largest = sorted(netlist.nets.values(), key=lambda net: -len(net.sink_pins))[:8]
    for k, net in enumerate(largest):
        for j in range(12):
            netlist.add_port(f"tap{k}_{j}", "output")
            netlist.connect_port(net.name, f"tap{k}_{j}")
    for i, cell in enumerate(netlist.cells.values()):
        cell.fixed = i % 4 == 0
    return netlist


def _targets_digest(netlist) -> str:
    """Digest of the quadratic placer's targets at utilization 0.7, in cell
    order, warm-started from (and with fixed cells at) the cells' centres."""
    floorplan = Floorplan.from_netlist(netlist, utilization=0.7)
    unit_areas = {}
    for cell in netlist.logic_cells():
        unit_areas[cell.unit] = unit_areas.get(cell.unit, 0.0) + cell.area
    regions = slicing_partition(floorplan.core_rect, unit_areas)
    cells = netlist.cells.values()
    start = (np.array([c.x for c in cells], dtype=float), np.array([c.y for c in cells], dtype=float))
    x, y = QuadraticPlacer(
        netlist, floorplan, *port_positions(netlist, floorplan), regions=regions, start=start,
    ).run()
    moved = ~np.isnan(x)
    targets = np.column_stack([x[moved], y[moved]])
    return hashlib.sha256(targets.astype("<f8").tobytes()).hexdigest()


def _spread_record(result) -> dict:
    return {
        "placement_digest": placement_digest(result.placement),
        "actual_overhead": result.actual_overhead,
        "utilization": result.utilization,
        "num_fillers": result.num_fillers,
    }


def compute_case(case_id: str) -> dict:
    """The golden record of one case, as JSON-ready data."""
    kind, *args = case_id.split("-")
    if kind == "spread":
        overhead, quadratic, detailed = args
        return _spread_record(apply_default_spread(
            _baseline(), float(overhead), use_quadratic=quadratic == "True",
            detailed=detailed == "True",
        ))
    if kind == "relax":
        return {"placement_digest": placement_digest(default_relaxation(_baseline(), float(args[0])))}
    if kind == "place":
        start, quadratic = args
        netlist = small_synthetic_circuit()
        if start == "warm":
            place_design(netlist, utilization=0.85)
        placement = place_design(netlist, utilization=0.7, use_quadratic=quadratic == "True")
        return {
            "placement_digest": placement_digest(placement),
            "utilization": placement.utilization(),
        }
    if kind == "edited":
        netlist = _edited_design()
        if args == ["targets"]:
            return {"targets_digest": _targets_digest(netlist)}
        return {"placement_digest": placement_digest(place_design(netlist, utilization=0.7))}
    assert kind == "synthetic9"
    return _spread_record(apply_default_spread(_baseline("synthetic9"), float(args[-1])))


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case():
    assert sorted(_golden()) == sorted(case_ids())


@pytest.mark.parametrize("case_id", case_ids())
def test_relaxation_matches_golden(case_id):
    # Round-tripped through JSON so floats compare as stored.
    assert json.loads(json.dumps(compute_case(case_id))) == _golden()[case_id]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    records = {case_id: compute_case(case_id) for case_id in case_ids()}
    GOLDEN.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(records)} cases to {GOLDEN}")
