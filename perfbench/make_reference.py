"""Regenerate ``perfbench/reference.json``, the expected outcome of every
grid point the benchmark can request.

Usage, from the repository root::

    python3 perfbench/make_reference.py

Each point is evaluated on the monolithic path (no flow graph, no
batching, one point at a time), so the benchmark's staged, batched and
served results are checked against an independent execution.  Takes a
few minutes; rerun only when a change is meant to alter outcomes.
"""

from __future__ import annotations

import json
import time

import harness

harness.use_repo_source()

from repro.bench import (  # noqa: E402
    build_synthetic_circuit,
    concentrated_hotspot_workload,
    scattered_hotspots_workload,
)
from repro.flow import ExperimentSetup, SolverCache, evaluate_strategy  # noqa: E402


def main() -> int:
    points = {}
    start = time.perf_counter()
    for make_workload in (scattered_hotspots_workload, concentrated_hotspot_workload):
        netlist = build_synthetic_circuit()
        cache = SolverCache()
        setup = ExperimentSetup.prepare(netlist, make_workload(netlist), cache=cache)
        for strategy in harness.STRATEGIES:
            for overhead in harness.ALL_OVERHEADS:
                outcome = evaluate_strategy(
                    setup, strategy, overhead, analyze_timing=True, cache=cache
                )
                key = harness.point_key(setup.workload.name, strategy, overhead)
                points[key] = harness.outcome_fields(outcome)
                print(f"{key}: {points[key]}", flush=True)
    payload = {
        "provenance": harness.provenance("reference", 0, {
            "path": "monolithic evaluate_strategy, analyze_timing=True",
            "elapsed_s": round(time.perf_counter() - start, 1),
        }),
        "points": points,
    }
    harness.REFERENCE_PATH.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(points)} points to {harness.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
