"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload design_flow --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` installs span wrappers around every layer's public entry
points and reports the per-layer metrics instead (see ``LAYERS.md``).
Each metric is printed by name with its unit and sample count, and the
last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

A result file with provenance (and, when traced, the spans) is written
under ``--out`` (default ``.bench_out/``); nothing else is written.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

import harness
import spans
import workloads

#: End-to-end metrics: every workload reports all of them.
END_TO_END = (
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("points_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

#: Per-layer metrics of the traced run, in ``LAYERS.md`` order.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("bench.build.busy_s", "s"),
    ("netlist.copy.calls", "count"),
    ("netlist.copy.busy_s", "s"),
    ("netlist.compile.builds", "count"),
    ("netlist.compile.busy_s", "s"),
    ("placement.place.busy_s", "s"),
    ("placement.fillers.calls", "count"),
    ("placement.fillers.busy_s", "s"),
    ("placement.legalize.busy_s", "s"),
    ("power.activity.busy_s", "s"),
    ("power.model.busy_s", "s"),
    ("power.binning.calls", "count"),
    ("power.binning.busy_s", "s"),
    ("core.hotspots.busy_s", "s"),
) + tuple(
    (f"core.transform.{strategy}.busy_s", "s") for strategy in harness.STRATEGIES
) + (
    ("core.default_spread.calls", "count"),
    ("core.default_spread.useful_ratio", "ratio"),
    ("thermal.setup.calls", "count"),
    ("thermal.setup.busy_s", "s"),
    ("thermal.cache.hit_ratio", "ratio"),
    ("thermal.solve.calls", "count"),
    ("thermal.solve.busy_s", "s"),
    ("thermal.solve_many.calls", "count"),
    ("thermal.solve_many.lanes_mean", "count"),
    ("thermal.solve_many.busy_s", "s"),
    ("thermal.mg_iterations", "count"),
    ("thermal.fallbacks", "count"),
    ("timing.sta.calls", "count"),
    ("timing.sta.busy_s", "s"),
    ("flow.graph.busy_s", "s"),
    ("flow.graph.executed", "count"),
    ("flow.graph.hit_ratio", "ratio"),
    ("flow.campaign.busy_s", "s"),
    ("flow.campaign.parallel_eff", "ratio"),
    ("flow.result_store.get.calls", "count"),
    ("flow.result_store.get.busy_s", "s"),
    ("flow.result_store.put.calls", "count"),
    ("flow.result_store.put.busy_s", "s"),
    ("flow.result_store.hit_ratio", "ratio"),
    ("service.admit.busy_s", "s"),
    ("service.hit.overhead_ms", "ms"),
    ("service.batches", "count"),
    ("service.batch.points_mean", "count"),
    ("service.batch.groups_mean", "count"),
    ("service.batch.busy_s", "s"),
    ("service.miss.wait_ms", "ms"),
    ("service.joins", "count"),
    ("service.shed", "count"),
) + tuple((f"trace.{name}", unit) for name, unit in END_TO_END)


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _median_ms(values: List[float]) -> float:
    return statistics.median(values) * 1e3 if values else 0.0


def end_to_end(measured) -> Tuple[Dict[str, float], Dict[str, int]]:
    """End-to-end metric values (wall clock) and the sample count
    behind each.  ``op_p50_ms`` is the median latency of a design flow, a
    sweep, or a ``serve_mixed`` hit sent while a miss was being computed
    (misses are in ``points_per_s`` and the result file's per-class
    latencies)."""
    latencies = [op.latency_s for op in loaded_ops(measured) if op.kind != "miss"]
    values = {
        "setup_s": statistics.median(measured.setup_s),
        "op_p50_ms": _median_ms(latencies),
        "points_per_s": _ratio(measured.points_computed, measured.wall_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    samples = {
        "setup_s": len(measured.setup_s),
        "op_p50_ms": len(latencies),
        "points_per_s": measured.points_computed,
        "peak_rss_mb": 1,
    }
    return values, samples


def class_latencies(measured) -> Dict[str, Dict[str, float]]:
    """Latency summary (median, tails backed by >= 10 samples) per op class."""
    kinds = sorted({op.kind for op in measured.ops})
    return {
        kind: harness.summarize_timing(
            [op.latency_s * 1e3 for op in measured.ops if op.ok and op.kind == kind]
        )
        for kind in kinds
    }


def _interval(op) -> Tuple[float, float]:
    return op.began_s, op.began_s + op.latency_s


def loaded_ops(measured) -> List:
    """Successful ops, less ``serve_mixed`` hits sent while no miss was in
    flight (a client has one request outstanding, so a miss that overlaps
    a hit is another client's)."""
    misses = [_interval(op) for op in measured.ops if op.kind == "miss"]
    return [
        op for op in measured.ops
        if op.ok and (op.kind != "hit" or harness.overlaps(_interval(op), misses))
    ]


def _service_metrics(tracer, measured) -> Dict[str, float]:
    """Server-side batch figures and per-class latency splits from spans."""
    batches = [
        span for span in tracer.spans
        if span.name == "flow.campaign" and span.attrs.get("kind") == "evaluate_points"
    ]
    groups = {id(batch): 0 for batch in batches}
    for span in tracer.spans:
        if span.name == "thermal.solve_many":
            owner = spans.ancestor(span, "flow.campaign")
            if owner is not None and id(owner) in groups:
                groups[id(owner)] += 1
    batch_of = {}
    for batch in batches:
        for point in batch.attrs["points"]:
            batch_of[tuple(point)] = batch
    store_read = {}
    for span in tracer.spans:
        if span.name == "flow.result_store.get" and span.op is not None:
            store_read[span.op] = store_read.get(span.op, 0.0) + span.duration_s
    hit_overhead, miss_wait = [], []
    for op in measured.ops:
        if not op.ok:
            continue
        if op.kind == "hit":
            hit_overhead.append(op.latency_s - store_read.get(op.op_id, 0.0))
        elif op.kind == "miss":
            served_by = {id(b): b for b in (batch_of.get(p) for p in op.points) if b}
            miss_wait.append(op.latency_s - sum(b.duration_s for b in served_by.values()))
    return {
        "service.hit.overhead_ms": _median_ms(hit_overhead),
        "service.batches": len(batches),
        "service.batch.points_mean": (
            statistics.mean(len(b.attrs["points"]) for b in batches) if batches else 0.0
        ),
        "service.batch.groups_mean": statistics.mean(groups.values()) if batches else 0.0,
        "service.batch.busy_s": sum(b.duration_s for b in batches),
        "service.miss.wait_ms": _median_ms(miss_wait),
    }


def per_layer(tracer, measured, traced_e2e: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric; layers a workload does not exercise read 0."""
    totals = spans.span_totals(tracer.spans)

    def calls(name):
        return totals[name]["calls"] if name in totals else 0

    def busy(name):
        return totals[name]["busy_s"] if name in totals else 0.0

    layer = measured.layer
    solve_many = [s.attrs["lanes"] for s in tracer.spans if s.name == "thermal.solve_many"]
    values = {
        "netlist.compile.builds": tracer.counters["netlist.compile.builds"],
        "core.default_spread.useful_ratio": _ratio(
            tracer.counters["core.default_spread.distinct"], calls("core.default_spread")
        ),
        "thermal.cache.hit_ratio": _ratio(
            layer.get("solver_hits", 0), layer.get("solver_hits", 0) + layer.get("solver_misses", 0)
        ),
        "thermal.solve_many.lanes_mean": statistics.mean(solve_many) if solve_many else 0.0,
        "thermal.mg_iterations": tracer.counters["thermal.mg_iterations"],
        "thermal.fallbacks": layer.get("fallbacks", 0),
        "flow.graph.executed": layer.get("stage_executions", 0),
        "flow.graph.hit_ratio": _ratio(
            layer.get("stage_hits", 0),
            layer.get("stage_hits", 0) + layer.get("stage_executions", 0),
        ),
        "flow.campaign.parallel_eff": layer.get("parallel_eff", 0.0),
        "flow.result_store.hit_ratio": _ratio(
            tracer.counters["flow.result_store.get.hits"], calls("flow.result_store.get")
        ),
        "service.joins": layer.get("service.joins", 0),
        "service.shed": layer.get("service.shed", 0),
    }
    values.update(_service_metrics(tracer, measured))
    values.update({f"trace.{name}": value for name, value in traced_e2e.items()})
    for name, _unit in PER_LAYER:
        if name in values:
            continue
        base, _, kind = name.rpartition(".")
        values[name] = calls(base) if kind == "calls" else busy(base)
    return {name: values[name] for name, _unit in PER_LAYER}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--out", type=Path, default=harness.ROOT / ".bench_out",
        help="directory for the result file and spans (default: .bench_out/)",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    harness.use_repo_source()
    reference = harness.load_reference()
    args.out.mkdir(parents=True, exist_ok=True)
    work_dir = args.out / f"work-{os.getpid()}"
    tracer = spans.Tracer() if args.trace else None
    ctx = workloads.RunContext(
        seed=args.seed, seconds=args.seconds, tracer=tracer,
        reference=reference, work_dir=work_dir,
    )
    run = workloads.WORKLOADS[args.workload]
    started = time.time()
    try:
        if tracer is None:
            measured = run(ctx)
        else:
            with spans.installed(tracer):
                measured = run(ctx)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    e2e, samples = end_to_end(measured)
    if tracer is None:
        metrics = {name: (e2e[name], unit) for name, unit in END_TO_END}
    else:
        layers = per_layer(tracer, measured, e2e)
        metrics = {name: (layers[name], unit) for name, unit in PER_LAYER}

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = {
        "provenance": harness.provenance(args.workload, args.seed, {
            "seconds": args.seconds,
            "trace": args.trace,
            "started_unix": started,
            **measured.facts,
        }),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        "end_to_end": e2e,
        "samples": samples,
        "setup_samples_s": measured.setup_s,
        "class_latency_ms": class_latencies(measured),
        "requests_per_s": _ratio(len(measured.ops), measured.wall_s),
        "attempted": len(measured.ops),
        "failed": measured.failed_ops,
        "ops": [
            {"op": op.op_id, "kind": op.kind, "began_s": op.began_s,
             "latency_s": op.latency_s, "points": op.points, "ok": op.ok}
            for op in measured.ops
        ],
        "failures": measured.failures,
    }
    (args.out / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    if tracer is not None:
        tracer.write(args.out / f"{stem}-spans.jsonl")

    for message in measured.failures:
        print(f"perfbench: check failed: {message}", file=sys.stderr)
    for kind, summary in result["class_latency_ms"].items():
        tails = ", ".join(f"{k} {v:.1f} ms" for k, v in summary.items() if k != "count")
        print(f"{kind} latency: {tails} (n={summary['count']})")
    for name, (value, unit) in metrics.items():
        count = samples.get(name)
        print(f"{name} = {value:.6g} {unit}" + (f" (n={count})" if count else ""))
    print(json.dumps({
        "correct": measured.failed_ops == 0 and bool(measured.ops),
        "attempted": max(1, len(measured.ops)),
        "failed": measured.failed_ops if measured.ops else 1,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
