"""Span recording for the traced benchmark run.

The program has no instrumentation of its own, so the traced run wraps
the public entry points of each layer from here.  A wrapper must replace
the name where its *caller* looks it up: ``from .default_spread import
apply_default_spread`` binds the function into
``repro.core.builtin_strategies``, so patching only its home module would
miss every call.  :func:`_patch_table` therefore lists each lookup site.

Spans are kept in memory and written out when the run ends.  A layer's
self time is its span's duration minus the duration of its child spans;
parents are tracked per thread, so the subtraction never mixes threads.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
import weakref
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional


class Span:
    """One timed call: name, start/end (ns), parent span, thread, op id."""

    __slots__ = ("name", "start", "end", "parent", "thread", "op", "attrs")

    def __init__(self, name, start, parent, thread, op) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.thread = thread
        self.op = op
        self.attrs: Dict[str, object] = {}

    @property
    def duration_s(self) -> float:
        return (self.end - self.start) / 1e9


class Tracer:
    """In-memory span recorder plus the counters taken at the same sites.

    The op id of a span comes from the calling thread's own op (set with
    :meth:`op`), else from the run-wide op (:attr:`global_op`, for
    workloads that run one op at a time over a worker pool).
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self.global_op: Optional[str] = None
        #: client id -> op id of its outstanding request, so server-side
        #: spans on handler threads join the client's op.
        self.client_ops: Dict[str, str] = {}
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_op(self) -> Optional[str]:
        return getattr(self._local, "op", None) or self.global_op

    def set_thread_op(self, op: Optional[str]) -> None:
        self._local.op = op

    @contextmanager
    def op(self, op_id: str):
        """Attribute the calling thread's spans to ``op_id``."""
        previous = getattr(self._local, "op", None)
        self._local.op = op_id
        try:
            yield
        finally:
            self._local.op = previous

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counters[name] += amount

    def begin(self, name: str) -> Span:
        stack = self._stack()
        span = Span(
            name, time.perf_counter_ns(), stack[-1] if stack else None,
            threading.get_ident(), self.current_op(),
        )
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        self._stack().pop()
        self.spans.append(span)  # list.append is atomic under the GIL

    def write(self, path: Path) -> None:
        """Write every span as one JSON object per line."""
        ids = {id(span): index for index, span in enumerate(self.spans)}
        with open(path, "w") as handle:
            for index, span in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index,
                    "name": span.name,
                    "start_ns": span.start,
                    "end_ns": span.end,
                    "parent": ids.get(id(span.parent)),
                    "thread": span.thread,
                    "op": span.op,
                    "attrs": span.attrs,
                }, default=str) + "\n")


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Self time in seconds of every span, keyed by ``id(span)``.

    A span's children are the spans whose parent it is; parents are taken
    from the recording thread's stack, so a child always ran on its
    parent's thread and lies inside the parent's interval.
    """
    spans = list(spans)
    own = {id(span): span.duration_s for span in spans}
    for span in spans:
        if span.parent is not None and id(span.parent) in own:
            own[id(span.parent)] -= span.duration_s
    return own


def span_totals(spans: Iterable[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls``, ``busy_s`` (summed self time), ``wall_s``."""
    spans = list(spans)
    own = self_times(spans)
    totals: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "busy_s": 0.0, "wall_s": 0.0}
    )
    for span in spans:
        entry = totals[span.name]
        entry["calls"] += 1
        entry["busy_s"] += own[id(span)]
        entry["wall_s"] += span.duration_s
    return totals


def ancestor(span: Span, name: str) -> Optional[Span]:
    """Nearest enclosing span called ``name`` on the same thread."""
    parent = span.parent
    while parent is not None and parent.name != name:
        parent = parent.parent
    return parent


# -- wrappers ----------------------------------------------------------------

def traced(tracer: Tracer, name: str, fn: Callable, on_call=None, on_return=None):
    """``fn`` wrapped in a span called ``name``.

    ``on_call(tracer, span, args, kwargs)`` runs inside the span before the
    call; ``on_return(tracer, span, args, kwargs, result)`` after it
    returns, still inside the span.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.begin(name)
        try:
            if on_call is not None:
                on_call(tracer, span, args, kwargs)
            result = fn(*args, **kwargs)
            if on_return is not None:
                on_return(tracer, span, args, kwargs, result)
            return result
        finally:
            tracer.end(span)

    return wrapper


def _record_lanes(tracer, span, args, kwargs):
    power_maps = args[1] if len(args) > 1 else kwargs["power_maps"]
    span.attrs["lanes"] = len(power_maps)


def _record_iterations(tracer, span, args, kwargs, result):
    tracer.count("thermal.mg_iterations", args[0].last_iterations)


def _record_points(tracer, span, args, kwargs):
    points = args[1] if len(args) > 1 else kwargs["points"]
    span.attrs["kind"] = "evaluate_points"
    span.attrs["points"] = [
        [point.workload, point.strategy, point.overhead] for point in points
    ]


def _record_store_get(tracer, span, args, kwargs, result):
    tracer.count("flow.result_store.get.hits", result is not None)


def _join_client_op(tracer, span, args, kwargs):
    # Runs on the server's handler thread: adopt the requesting client's
    # op so the store reads that follow are attributed to its request.
    client = args[1] if len(args) > 1 else kwargs["client"]
    op = tracer.client_ops.get(client)
    tracer.set_thread_op(op)
    span.op = op


def _hooks(tracer: Tracer):
    """Stateful hooks: distinct compiled netlists and default-spread inputs."""
    compiled = weakref.WeakSet()
    # Weakly keyed, so a new placement reusing a dead one's id() still
    # gets a fresh serial.
    placements = weakref.WeakKeyDictionary()
    serials = itertools.count()
    spread_inputs = set()
    lock = threading.Lock()

    def compiled_return(tracer, span, args, kwargs, result):
        with lock:
            if result not in compiled:
                compiled.add(result)
                tracer.count("netlist.compile.builds")

    def spread_call(tracer, span, args, kwargs):
        baseline = args[0] if args else kwargs["baseline"]
        overhead = args[1] if len(args) > 1 else kwargs["area_overhead"]
        with lock:
            if baseline not in placements:
                placements[baseline] = next(serials)
            spread_inputs.add((placements[baseline], overhead))
            tracer.counters["core.default_spread.distinct"] = len(spread_inputs)

    return compiled_return, spread_call


def _patch_table(tracer: Tracer):
    """``(owner, attribute, span name, on_call, on_return)`` per lookup site."""
    from repro.core import builtin_strategies as strategies
    from repro.flow.graph import STAGES, FlowGraph
    from repro.flow.runner import Campaign
    from repro.flow.store import ResultStore
    from repro.netlist import Netlist
    from repro.placement import Placement
    from repro.power import PowerModel
    from repro.service.admission import AdmissionController
    from repro.thermal import ThermalSolver
    from repro.timing import StaticTimingAnalyzer

    def module(name):
        return importlib.import_module(name)

    compiled_return, spread_call = _hooks(tracer)
    table = [
        (module("repro.bench"), "build_synthetic_circuit", "bench.build", None, None),
        (Netlist, "copy", "netlist.copy", None, None),
        (Netlist, "compiled", "netlist.compile", None, compiled_return),
        (PowerModel, "estimate", "power.model", None, None),
        (ThermalSolver, "solve", "thermal.solve", None, _record_iterations),
        (ThermalSolver, "solve_many", "thermal.solve_many", _record_lanes,
         _record_iterations),
        # The solver build behind SolverCache.solver.
        (module("repro.flow.cache"), "ThermalSolver", "thermal.setup", None, None),
        (StaticTimingAnalyzer, "analyze", "timing.sta", None, None),
        (Campaign, "run", "flow.campaign", None, None),
        (Campaign, "evaluate_points", "flow.campaign", _record_points, None),
        (ResultStore, "get", "flow.result_store.get", None, _record_store_get),
        (ResultStore, "put", "flow.result_store.put", None, None),
        (AdmissionController, "admit", "service.admit", _join_client_op, None),
        (Placement, "relocate_outside", "placement.legalize", None, None),
        (module("repro.core.wrapper"), "pack_into_region", "placement.legalize",
         None, None),
        (strategies, "apply_default_spread", "core.default_spread", spread_call, None),
    ]
    for stage in STAGES:
        table.append((FlowGraph, stage, "flow.graph", None, None))
    for cls in (
        strategies.DefaultSpreadStrategy, strategies.EmptyRowInsertionStrategy,
        strategies.HotspotWrapperStrategy, strategies.HybridStrategy,
        strategies.GradientStrategy,
    ):
        table.append((cls, "apply", f"core.transform.{cls.name}", None, None))
    sites = {
        "place_design": ("placement.place", (
            "repro.flow.graph", "repro.flow.experiment", "repro.core.default_spread")),
        "insert_fillers": ("placement.fillers", (
            "repro.core.default_spread", "repro.core.wrapper", "repro.core.empty_row")),
        "estimate_activity": ("power.activity", (
            "repro.flow.graph", "repro.flow.experiment")),
        "build_power_map": ("power.binning", (
            "repro.flow.graph", "repro.flow.experiment", "repro.thermal.solver")),
        "detect_hotspots": ("core.hotspots", (
            "repro.flow.experiment", "repro.core.area_manager", "repro.core.strategy")),
    }
    for attribute, (span_name, modules) in sites.items():
        for name in modules:
            table.append((module(name), attribute, span_name, None, None))
    return table


@contextmanager
def installed(tracer: Tracer):
    """Install every wrapper for the duration of the block, then restore."""
    originals = []
    try:
        for owner, attribute, name, on_call, on_return in _patch_table(tracer):
            original = owner.__dict__[attribute]
            originals.append((owner, attribute, original))
            setattr(owner, attribute, traced(tracer, name, original, on_call, on_return))
        yield tracer
    finally:
        for owner, attribute, original in reversed(originals):
            setattr(owner, attribute, original)
