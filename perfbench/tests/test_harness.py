"""Tests of the benchmark harness: statistics, span self time, request
generation and the metric contract.  Run with::

    python3 -m pytest perfbench/tests
"""

import json
import threading
import time
from types import SimpleNamespace

import pytest

import harness
import run
import spans
import workloads


# -- percentile with sample count ---------------------------------------------


def test_summary_reports_only_tails_with_ten_samples_beyond():
    assert harness.summarize_timing([]) == {"count": 0}
    small = harness.summarize_timing(list(range(99)))
    assert small["count"] == 99 and small["p50"] == 49
    assert "p90" not in small
    hundred = harness.summarize_timing(list(range(100)))
    assert "p90" in hundred and "p99" not in hundred
    thousand = harness.summarize_timing(list(range(1000)))
    assert {"p90", "p99"} <= set(thousand) and "p999" not in thousand


def test_quantile_interpolates_linearly():
    assert harness.quantile([4.0, 1.0, 3.0, 2.0], 0.5) == 2.5
    assert harness.quantile([1.0, 2.0, 3.0, 4.0, 5.0], 0.9) == pytest.approx(4.6)
    assert harness.quantile([7.0], 0.99) == 7.0


# -- self time ----------------------------------------------------------------


def _span(name, start, end, parent=None, thread=1):
    span = spans.Span(name, start, parent, thread, None)
    span.end = end
    return span


def test_self_time_subtracts_nested_children_once():
    outer = _span("outer", 0, 100_000_000)
    middle = _span("middle", 10_000_000, 60_000_000, parent=outer)
    inner = _span("inner", 20_000_000, 30_000_000, parent=middle)
    sibling = _span("middle", 70_000_000, 80_000_000, parent=outer)
    own = spans.self_times([outer, middle, inner, sibling])
    assert own[id(outer)] == pytest.approx(0.04)
    assert own[id(middle)] == pytest.approx(0.04)
    assert own[id(inner)] == pytest.approx(0.01)
    totals = spans.span_totals([outer, middle, inner, sibling])
    assert totals["middle"]["calls"] == 2
    assert totals["middle"]["busy_s"] == pytest.approx(0.05)
    assert totals["outer"]["wall_s"] == pytest.approx(0.1)


def test_recorded_parents_stay_on_their_thread():
    tracer = spans.Tracer()
    barrier = threading.Barrier(3)

    def work(tag):
        outer = tracer.begin(f"outer.{tag}")
        barrier.wait()  # both threads hold an open outer span here
        inner = tracer.begin("inner")
        time.sleep(0.02)
        tracer.end(inner)
        barrier.wait()
        tracer.end(outer)

    threads = [threading.Thread(target=work, args=(tag,)) for tag in "ab"]
    for thread in threads:
        thread.start()
    barrier.wait()
    barrier.wait()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()

    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span)
    assert len(by_name["inner"]) == 2
    for inner in by_name["inner"]:
        assert inner.parent.thread == inner.thread
    own = spans.self_times(tracer.spans)
    for tag in "ab":
        (outer,) = by_name[f"outer.{tag}"]
        (child,) = [s for s in by_name["inner"] if s.parent is outer]
        assert own[id(outer)] == pytest.approx(outer.duration_s - child.duration_s)
        assert own[id(outer)] >= 0.0


def test_ops_follow_thread_then_run():
    tracer = spans.Tracer()
    tracer.global_op = "run-op"
    assert tracer.begin("a").op == "run-op"
    with tracer.op("mine"):
        assert tracer.begin("b").op == "mine"
    assert tracer.begin("c").op == "run-op"


def test_traced_wrapper_records_and_reraises():
    tracer = spans.Tracer()

    def boom(x):
        raise ValueError(x)

    wrapped = spans.traced(tracer, "boom", boom)
    with pytest.raises(ValueError):
        wrapped(1)
    assert [span.name for span in tracer.spans] == ["boom"]
    assert tracer._stack() == []


def test_installed_restores_every_patched_name():
    harness.use_repo_source()
    table = spans._patch_table(spans.Tracer())
    before = [owner.__dict__[attribute] for owner, attribute, *_ in table]
    with spans.installed(spans.Tracer()):
        during = [owner.__dict__[attribute] for owner, attribute, *_ in table]
    after = [owner.__dict__[attribute] for owner, attribute, *_ in table]
    assert after == before
    assert all(a is not b for a, b in zip(before, during))


# -- request generation -------------------------------------------------------


def test_serve_requests_assign_hits_and_misses_in_advance():
    hit_plans, miss_plans = workloads.serve_requests(
        seed=5, hit_clients=3, hits=40, miss_clients=2, blocks=6
    )
    asked = set()
    for plan in hit_plans + miss_plans:
        got = set()
        for request in plan:
            assert 1 <= len(request.points) <= 4
            if request.kind == "miss":
                assert asked.isdisjoint(request.points)
                asked.update(request.points)
                got.update(request.points)
            else:
                assert set(request.points) <= got
    for plan in hit_plans:
        assert [r.kind for r in plan] == ["miss"] + ["hit"] * 40
    for plan in miss_plans:
        assert [r.kind for r in plan] == ["miss"] * 6
    # A pair's two misses make up one whole column of the grid.
    for first, second in zip(*miss_plans):
        assert (first.workload, first.overheads) == (second.workload, second.overheads)
        assert len(first.points) + len(second.points) == len(harness.STRATEGIES)


def test_serve_requests_repeat_per_seed_and_balance_strategies():
    assert workloads.serve_requests(9, 2, 5, 2, 4) == workloads.serve_requests(9, 2, 5, 2, 4)
    assert workloads.serve_requests(9, 2, 5, 2, 4) != workloads.serve_requests(10, 2, 5, 2, 4)
    _hits, miss_plans = workloads.serve_requests(9, 2, 5, 2, 10)
    counts = {}
    for plan in miss_plans:
        for request in plan:
            for strategy in request.strategies:
                counts[strategy] = counts.get(strategy, 0) + 1
    assert counts == {strategy: 10 for strategy in harness.STRATEGIES}


def test_serve_requests_stop_when_the_pool_runs_dry():
    hit_plans, miss_plans = workloads.serve_requests(1, 2, 3, 2, 1000)
    points = [p for plan in hit_plans + miss_plans for r in plan if r.kind == "miss" for p in r.points]
    assert len(points) == len(set(points))
    assert len(points) == 2 * len(harness.STRATEGIES) * len(harness.ALL_OVERHEADS)


def test_overlaps_needs_a_shared_instant_with_a_busy_interval():
    busy = [(1.0, 2.0), (5.0, 6.0)]
    assert harness.overlaps((0.0, 1.5), busy)
    assert harness.overlaps((5.5, 5.6), busy)
    assert not harness.overlaps((2.5, 3.0), busy)
    assert not harness.overlaps((6.0, 7.0), busy)
    assert not harness.overlaps((0.0, 1.0), [])


def test_design_flow_rounds_cover_every_strategy_and_pattern():
    ops = workloads.design_flow_ops(3)
    first, second = [next(ops) for _ in range(5)], [next(ops) for _ in range(5)]
    for round_ in (first, second):
        assert {op.strategy for op in round_} == set(harness.STRATEGIES)
    assert {(op.strategy, op.hotspots) for op in first + second} == {
        (s, h) for s in harness.STRATEGIES for h in ("scattered", "concentrated")
    }
    assert all(op.overhead in harness.PAPER_OVERHEADS for op in first + second)


# -- output check and contract ------------------------------------------------


def test_check_outcome_tolerates_rounding_but_not_layout_changes():
    reference = {harness.point_key("w", "eri", 0.1): {
        "inserted_rows": 3, "num_fillers": 10, "actual_overhead": 0.11,
        "temperature_reduction": 0.2, "peak_rise": 10.0, "timing_overhead": 0.01,
    }}
    good = SimpleNamespace(
        strategy="eri", requested_overhead=0.1, inserted_rows=3, num_fillers=10,
        actual_overhead=0.11, temperature_reduction=0.2 * (1 + 1e-12),
        peak_rise=10.0, timing_overhead=0.01,
    )
    assert harness.check_outcome(reference, "w", good) == []
    moved = SimpleNamespace(**{**vars(good), "num_fillers": 11})
    assert len(harness.check_outcome(reference, "w", moved)) == 1
    drifted = SimpleNamespace(**{**vars(good), "peak_rise": 10.0 * (1 + 1e-6)})
    assert len(harness.check_outcome(reference, "w", drifted)) == 1
    assert harness.check_outcome(reference, "other", good)


def test_benchmark_json_matches_the_emitted_metrics():
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert spec["paths"] == ["perfbench"]


def test_reference_covers_every_requestable_point():
    reference = harness.load_reference()
    for workload in (workloads.SCATTERED, workloads.CONCENTRATED):
        for strategy in harness.STRATEGIES:
            for overhead in harness.ALL_OVERHEADS:
                assert harness.point_key(workload, strategy, overhead) in reference
