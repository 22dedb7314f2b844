"""Summarize benchmark result files: medians, quartile spreads and the
tracing overhead per workload.

Usage, from the repository root::

    python3 perfbench/summarize.py [DIR]   # default .bench_out/

For every (workload, metric) it prints the median over runs, the first
and third quartile and their distance as a share of the median (the
spread the benchmark's bounds are judged against).  For every workload
with both traced and untraced runs it prints the tracing overhead: the
median of ``trace.<metric>`` minus the median of ``<metric>``.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

import harness


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    root = Path(argv[0]) if argv else harness.ROOT / ".bench_out"
    runs = defaultdict(list)
    for path in sorted(root.glob("*-trace[01].json")):
        result = json.loads(path.read_text())
        facts = result["provenance"]
        runs[(facts["workload"], facts["trace"])].append(result)
    if not runs:
        print(f"no result files in {root}", file=sys.stderr)
        return 1
    medians = {}
    for (workload, trace), results in sorted(runs.items()):
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        print(f"{workload} trace={trace}: {len(results)} runs, "
              f"{failed}/{attempted} ops failed")
        values = defaultdict(list)
        for result in results:
            for name, metric in result["metrics"].items():
                values[(name, metric["unit"])].append(metric["value"])
            for kind, summary in result["class_latency_ms"].items():
                if "p50" in summary:
                    values[(f"class.{kind}.p50", "ms")].append(summary["p50"])
            values[("requests_per_s", "1/s")].append(result["requests_per_s"])
        for (name, unit), series in values.items():
            q1, median, q3 = _quartiles(series)
            medians[(workload, name)] = median
            spread = (q3 - q1) / median if median else 0.0
            print(f"  {name:36s} median {median:12.6g} {unit:6s} "
                  f"q1 {q1:10.6g} q3 {q3:10.6g} spread {spread:.3f}")
    for workload in sorted({w for w, _ in runs}):
        overhead = {
            name[len("trace."):]: medians[(workload, name)] - medians[(workload, name[6:])]
            for (w, name) in medians
            if w == workload and name.startswith("trace.")
            and (workload, name[6:]) in medians
        }
        if overhead:
            print(f"{workload} tracing overhead (traced - untraced median): "
                  + ", ".join(f"{k} {v:+.6g}" for k, v in sorted(overhead.items())))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
