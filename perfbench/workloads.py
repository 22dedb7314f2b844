"""The benchmark's three workloads and their seeded input generators.

Each workload drives the program's public entry points the way the CLI
and the daemon do, and returns a :class:`Measured` with raw samples; the
metrics are derived from it in ``run.py``.  Outputs are checked against
``reference.json`` after each op, outside the timed region.

Every run is a closed loop over a fixed, seed-determined op list sized to
take about ``--seconds`` on a 2-CPU machine.  Fixing the work rather than
the time keeps memory and per-layer counts independent of machine speed,
and gives traced and untraced runs of one seed exactly the same work, so
their difference is the tracing overhead.
"""

from __future__ import annotations

import os
import random
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import harness

#: Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 3

#: Op durations (a ``serve_mixed`` op here is a miss block, one miss per
#: miss client) that size a run of ``--seconds`` (20 in ``BENCHMARK.json``): ten
#: flows, two sweeps or four miss blocks, about 30 s of work on a 2-CPU
#: machine.
NOMINAL_OP_S = {"design_flow": 2.0, "fig6_sweep": 13.0, "serve_mixed": 5.0}

#: Ops come in rounds that do comparable work for every seed (five flows
#: cover the strategies, two miss blocks the baselines); a run is whole
#: rounds.
ROUND_OPS = {"design_flow": 5, "fig6_sweep": 1, "serve_mixed": 2}

#: ``serve_mixed`` hit clients send hits at a steady pace while the miss
#: clients keep the server computing, so the hit latency is that of a
#: saturated daemon.  Each hit client sends this many hits per miss block
#: of a miss client, a pause of :data:`HIT_PAUSE_S` before each, which
#: spreads them over most of the miss stream.  Pace and count are chosen,
#: not taken from observed traffic; hits and misses are reported apart.
HITS_PER_BLOCK = 40
HIT_PAUSE_S = 0.03

#: Miss sizes of a pair of ``serve_mixed`` clients in one block.  The pair
#: splits one Figure-6 column (all five strategies at one overhead on one
#: baseline) between its two misses, which the server gathers into one
#: batch, so every batch shares die geometry across requests and every
#: seed computes whole columns.
SERVE_SPLITS = ((1, 4), (2, 3), (3, 2), (4, 1))

#: Workload names of the two prepared baselines, by hotspot pattern.
SCATTERED = "scattered_small_hotspots"
CONCENTRATED = "concentrated_large_hotspot"

Point = Tuple[str, str, float]


@dataclass
class OpRecord:
    """One completed (or failed) op: its id, class, latency and points."""

    op_id: str
    kind: str
    latency_s: float
    points: List[Point]
    ok: bool = True
    #: Start, in seconds from the start of the measured loop.
    began_s: float = 0.0


@dataclass
class Measured:
    """Raw samples of one run, before they become metrics."""

    setup_s: List[float] = field(default_factory=list)
    ops: List[OpRecord] = field(default_factory=list)
    wall_s: float = 0.0
    failures: List[str] = field(default_factory=list)
    #: Layer facts read from the program's own stats APIs.
    layer: Dict[str, float] = field(default_factory=dict)
    facts: Dict[str, object] = field(default_factory=dict)

    @property
    def failed_ops(self) -> int:
        return sum(1 for op in self.ops if not op.ok)

    @property
    def points_computed(self) -> int:
        """Grid points newly evaluated by successful ops (hits compute none)."""
        return sum(len(op.points) for op in self.ops if op.ok and op.kind != "hit")

    def add_layer(self, name: str, value: float) -> None:
        self.layer[name] = self.layer.get(name, 0.0) + value


@dataclass
class RunContext:
    """What a workload needs: seed, run length, tracer, reference, scratch."""

    seed: int
    seconds: float
    tracer: object
    reference: Dict[str, Dict]
    work_dir: Path
    nproc: int = field(default_factory=lambda: os.cpu_count() or 1)

    def op_count(self, workload: str) -> int:
        """Ops in this run: about ``--seconds`` of work at nominal speed."""
        per_round = ROUND_OPS[workload]
        rounds = round(self.seconds / (NOMINAL_OP_S[workload] * per_round))
        return per_round * max(1, rounds)

    def set_global_op(self, op_id: Optional[str]) -> None:
        if self.tracer is not None:
            self.tracer.global_op = op_id


# -- input generators (no program imports) -----------------------------------


@dataclass(frozen=True)
class FlowOp:
    """One ``design_flow`` op: a fresh design evaluated at one point."""

    strategy: str
    overhead: float
    hotspots: str  # "scattered" or "concentrated"


def design_flow_ops(seed: int) -> Iterator[FlowOp]:
    """Endless seeded op stream in rounds of five: every strategy once per
    round, in seeded order, each at an overhead drawn from the paper grid.
    Each strategy's hotspot pattern flips from round to round (a seeded
    3:2 split in the first), so two rounds cover all ten (strategy,
    pattern) pairs.  Strategy and pattern set most of an op's cost, so
    every round does comparable work whatever the seed."""
    rng = random.Random(seed)
    patterns = ("scattered", "concentrated")
    split = {
        strategy: position % 2
        for position, strategy in enumerate(rng.sample(harness.STRATEGIES, 5))
    }
    round_ = 0
    while True:
        for strategy in rng.sample(harness.STRATEGIES, len(harness.STRATEGIES)):
            pattern = patterns[(split[strategy] + round_) % 2]
            yield FlowOp(strategy, rng.choice(harness.PAPER_OVERHEADS), pattern)
        round_ += 1


def sweep_overheads(seed: int) -> Iterator[Tuple[float, ...]]:
    """Endless seeded stream of two-overhead grids for ``fig6_sweep``: one
    overhead from each half of the paper grid, so every sweep spans it."""
    rng = random.Random(seed)
    half = len(harness.PAPER_OVERHEADS) // 2
    low, high = harness.PAPER_OVERHEADS[:half], harness.PAPER_OVERHEADS[half:]
    while True:
        for pair in zip(rng.sample(low, half), rng.sample(high, half)):
            yield pair


@dataclass(frozen=True)
class Request:
    """One ``serve_mixed`` request: a (strategies x overheads) grid."""

    kind: str  # "hit" or "miss"
    workload: str
    strategies: Tuple[str, ...]
    overheads: Tuple[float, ...]

    @property
    def points(self) -> List[Point]:
        return [
            (self.workload, strategy, overhead)
            for strategy in self.strategies
            for overhead in self.overheads
        ]


class _Deck:
    """Deals items in seeded shuffled rounds, so every prefix of the deal
    holds each item about equally often."""

    def __init__(self, rng: random.Random, items: Sequence) -> None:
        self._rng = rng
        self._items = list(items)
        self._cards: List = []

    def take(self, count: int) -> List:
        """``count`` distinct items from the top of the deck."""
        hand: List = []
        skipped: List = []
        while len(hand) < count:
            if not self._cards:
                self._cards = self._rng.sample(self._items, len(self._items))
            card = self._cards.pop()
            (skipped if card in hand else hand).append(card)
        self._cards.extend(reversed(skipped))
        return hand


def _sub_request(rng: random.Random, source: Request) -> Request:
    """A hit: a non-empty sub-grid of an earlier miss of the same client."""
    strategies = rng.sample(source.strategies, rng.randint(1, len(source.strategies)))
    overheads = rng.sample(source.overheads, rng.randint(1, len(source.overheads)))
    return Request(
        "hit", source.workload,
        tuple(s for s in source.strategies if s in strategies),
        tuple(o for o in source.overheads if o in overheads),
    )


def serve_requests(
    seed: int,
    hit_clients: int,
    hits: int,
    miss_clients: int,
    blocks: int,
    workloads: Sequence[str] = (SCATTERED, CONCENTRATED),
) -> Tuple[List[List[Request]], List[List[Request]]]:
    """Per-client request lists of the hit and the miss clients, fixed
    before the run starts.

    Clients come in pairs, and the two clients of a pair split a not yet
    asked (baseline, overhead) column of the grid between two misses (sizes
    from :data:`SERVE_SPLITS`, 1-4 points each), so a miss asks only points
    no request asked before.  A hit client's list is one such miss followed
    by ``hits`` hits, each a sub-grid of that miss; a miss client's list is
    ``blocks`` misses.  The miss lists end early when the grid runs out of
    columns.
    """
    rng = random.Random(seed)
    # Baselines alternate column by column; overheads come in seeded order.
    order = rng.sample(list(workloads), len(workloads))
    columns = [
        (workload, overhead)
        for overheads in zip(*(
            rng.sample(harness.ALL_OVERHEADS, len(harness.ALL_OVERHEADS))
            for _ in order
        ))
        for workload, overhead in zip(order, overheads)
    ]
    columns.reverse()  # popped from the end
    strategies = _Deck(rng, harness.STRATEGIES)
    splits = _Deck(rng, SERVE_SPLITS)

    def deal(plans: List[List[Request]]) -> bool:
        """One miss per client: each pair splits a fresh column."""
        for first in range(0, len(plans), 2):
            if not columns:
                return False
            workload, overhead = columns.pop()
            column = strategies.take(len(harness.STRATEGIES))
            for plan, size in zip(plans[first:first + 2], splits.take(1)[0]):
                hand, column = column[:size], column[size:]
                plan.append(Request("miss", workload, tuple(hand), (overhead,)))
        return True

    hit_plans: List[List[Request]] = [[] for _ in range(hit_clients)]
    miss_plans: List[List[Request]] = [[] for _ in range(miss_clients)]
    deal(hit_plans)
    for plan in hit_plans:
        plan.extend(_sub_request(rng, plan[0]) for _ in range(hits))
    for _block in range(blocks):
        if not deal(miss_plans):
            break
    return hit_plans, miss_plans


# -- program-facing helpers --------------------------------------------------


def _program():
    """Import the program lazily (the generators above must not need it)."""
    import repro.bench as bench
    from repro.bench import concentrated_hotspot_workload, scattered_hotspots_workload
    from repro.faults import RetryPolicy
    from repro.flow import Campaign, ExperimentSetup, FlowGraph, ResultStore, evaluate_strategy
    from repro.service import SweepClient, SweepServer

    return {
        "bench": bench,
        "scattered": scattered_hotspots_workload,
        "concentrated": concentrated_hotspot_workload,
        "RetryPolicy": RetryPolicy,
        "Campaign": Campaign,
        "ExperimentSetup": ExperimentSetup,
        "FlowGraph": FlowGraph,
        "ResultStore": ResultStore,
        "evaluate_strategy": evaluate_strategy,
        "SweepClient": SweepClient,
        "SweepServer": SweepServer,
    }


def _record_flow_stats(measured: Measured, flow) -> None:
    """Fold a flow graph's and its solver cache's counters into the run."""
    stats = flow.stats()
    measured.add_layer("stage_executions", sum(stats["stage_executions"].values()))
    measured.add_layer("stage_hits", sum(stats["stage_hits"].values()))
    cache = flow.solver_cache.stats()
    measured.add_layer("solver_hits", cache.hits)
    measured.add_layer("solver_misses", cache.misses)


def _check(ctx: RunContext, measured: Measured, op: OpRecord, workload: str, outcome) -> None:
    problems = harness.check_outcome(ctx.reference, workload, outcome)
    if outcome.fallback_used:
        measured.add_layer("fallbacks", 1)
    if problems:
        op.ok = False
        measured.failures.extend(f"{op.op_id}: {problem}" for problem in problems)


# -- design_flow -------------------------------------------------------------

#: Imports plus one small flow, timed inside a fresh interpreter: what a
#: ``repro quickstart`` user waits for before the first real op.
_SETUP_PROBE = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, {src!r})
from repro.bench import scattered_hotspots_workload, small_synthetic_circuit
from repro.flow import ExperimentSetup, FlowGraph, evaluate_strategy
netlist = small_synthetic_circuit()
flow = FlowGraph()
setup = ExperimentSetup.prepare(netlist, scattered_hotspots_workload(netlist), flow=flow)
evaluate_strategy(setup, "eri", 0.15, analyze_timing=True, flow=flow)
print(time.perf_counter() - start)
"""


def _warm_up() -> None:
    """The probe's work in this process, so lazy init is done before ops."""
    from repro.bench import scattered_hotspots_workload, small_synthetic_circuit
    from repro.flow import ExperimentSetup, FlowGraph, evaluate_strategy

    netlist = small_synthetic_circuit()
    flow = FlowGraph()
    setup = ExperimentSetup.prepare(netlist, scattered_hotspots_workload(netlist), flow=flow)
    evaluate_strategy(setup, "eri", 0.15, analyze_timing=True, flow=flow)


def run_design_flow(ctx: RunContext) -> Measured:
    """Closed loop of whole-design flows, one op at a time."""
    measured = Measured()
    probe = _SETUP_PROBE.format(src=str(harness.ROOT / "src"))
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True,
            timeout=120, check=True, cwd=harness.ROOT,
        )
        measured.setup_s.append(float(done.stdout.strip().splitlines()[-1]))
    program = _program()
    _warm_up()
    bench, flow_cls = program["bench"], program["FlowGraph"]
    ops = design_flow_ops(ctx.seed)
    start = time.perf_counter()
    for index in range(ctx.op_count("design_flow")):
        op = next(ops)
        op_id = f"op{index}"
        ctx.set_global_op(op_id)
        began = time.perf_counter()
        netlist = bench.build_synthetic_circuit()
        flow = flow_cls()
        setup = program["ExperimentSetup"].prepare(netlist, program[op.hotspots](netlist), flow=flow)
        outcome = program["evaluate_strategy"](
            setup, op.strategy, op.overhead, analyze_timing=True, flow=flow
        )
        latency = time.perf_counter() - began
        ctx.set_global_op(None)
        record = OpRecord(
            op_id, "flow", latency, [(setup.workload.name, op.strategy, op.overhead)],
            began_s=began - start,
        )
        measured.ops.append(record)
        _check(ctx, measured, record, setup.workload.name, outcome)
        _record_flow_stats(measured, flow)
        measured.facts.setdefault("cells", netlist.num_cells)
        measured.facts.setdefault("nets", netlist.num_nets)
    measured.wall_s = time.perf_counter() - start
    return measured


# -- fig6_sweep --------------------------------------------------------------


def _prepare_scattered(program):
    netlist = program["bench"].build_synthetic_circuit()
    workload = program["scattered"](netlist)
    return program["ExperimentSetup"].prepare(netlist, workload, flow=program["FlowGraph"]())


def run_fig6_sweep(ctx: RunContext) -> Measured:
    """Closed loop of Figure-6 sweeps against one prepared baseline."""
    measured = Measured()
    program = _program()
    setup = None
    for _ in range(SETUP_REPEATS):
        setup = None  # let the previous baseline go before building the next
        began = time.perf_counter()
        setup = _prepare_scattered(program)
        measured.setup_s.append(time.perf_counter() - began)
    measured.facts.update(cells=setup.netlist.num_cells, nets=setup.netlist.num_nets)
    grids = sweep_overheads(ctx.seed)
    efficiencies = []
    start = time.perf_counter()
    for index in range(ctx.op_count("fig6_sweep")):
        overheads = next(grids)
        op_id = f"op{index}"
        ctx.set_global_op(op_id)
        began = time.perf_counter()
        flow = program["FlowGraph"]()
        campaign = program["Campaign"](
            setup, strategies=harness.STRATEGIES, overheads=overheads,
            analyze_timing=True, cache=flow.solver_cache, name="figure6-sweep",
            batch_solves=True, flow=flow,
        )
        result = campaign.run(max_workers=ctx.nproc)
        latency = time.perf_counter() - began
        ctx.set_global_op(None)
        record = OpRecord(op_id, "sweep", latency, [
            (r.point.workload, r.point.strategy, r.point.overhead) for r in result.records
        ], began_s=began - start)
        measured.ops.append(record)
        if result.metadata["num_failed"] or len(result.records) != len(campaign):
            record.ok = False
            measured.failures.append(
                f"{op_id}: {len(result.records)}/{len(campaign)} points, "
                f"failed {result.metadata['failed_points']}"
            )
        for campaign_record in result.records:
            _check(ctx, measured, record, campaign_record.point.workload, campaign_record.outcome)
        _record_flow_stats(measured, flow)
        busy = sum(r.elapsed_s for r in result.records)
        efficiencies.append(busy / (result.metadata["elapsed_s"] * ctx.nproc))
    measured.wall_s = time.perf_counter() - start
    measured.layer["parallel_eff"] = statistics.mean(efficiencies) if efficiencies else 0.0
    return measured


# -- serve_mixed -------------------------------------------------------------


def _start_server(program, store_dir: Path, nproc: int):
    """Prepare both baselines through one flow graph and start serving,
    as ``repro serve --workloads scattered concentrated`` does."""
    flow = program["FlowGraph"]()
    setups = {}
    for make_workload in (program["scattered"], program["concentrated"]):
        netlist = program["bench"].build_synthetic_circuit()
        setup = program["ExperimentSetup"].prepare(netlist, make_workload(netlist), flow=flow)
        setups[setup.workload.name] = setup
    server = program["SweepServer"](
        setups,
        result_store=program["ResultStore"](root=store_dir),
        cache=flow.solver_cache,
        port=0,
        max_workers=nproc,
        artifact_store=flow.store,
    )
    server.start()
    return server, flow, setups


def run_serve_mixed(ctx: RunContext) -> Measured:
    """``nproc`` hit and ``nproc`` miss clients, each a closed loop with one
    request outstanding, against an in-process daemon."""
    measured = Measured()
    program = _program()
    server = flow = setups = None
    try:
        for repeat in range(SETUP_REPEATS):
            if server is not None:
                server.shutdown()
                server = flow = setups = None
            began = time.perf_counter()
            server, flow, setups = _start_server(
                program, ctx.work_dir / f"store{repeat}", ctx.nproc
            )
            measured.setup_s.append(time.perf_counter() - began)
        any_setup = next(iter(setups.values()))
        measured.facts.update(
            cells=any_setup.netlist.num_cells, nets=any_setup.netlist.num_nets,
            hit_clients=ctx.nproc, miss_clients=ctx.nproc,
        )
        blocks = ctx.op_count("serve_mixed")
        hit_plans, miss_plans = serve_requests(
            ctx.seed, ctx.nproc, HITS_PER_BLOCK * blocks, ctx.nproc, blocks
        )
        plans = hit_plans + miss_plans
        host, port = server.address
        results: List[List[Tuple[OpRecord, Request, object, object]]] = [
            [] for _ in plans
        ]
        # Hit clients first get their own points; then every client starts
        # at once, and the hits arrive while the misses are computed.
        all_ready = threading.Barrier(len(plans), timeout=120)
        start = time.perf_counter()

        def client_loop(index: int) -> None:
            client_id = f"perfbench-{index}"
            client = program["SweepClient"](
                host, port, timeout=120.0, client_id=client_id,
                retry_policy=program["RetryPolicy"](),
            )

            def send(number: int, request: Request) -> None:
                op_id = f"c{index}r{number}"
                if ctx.tracer is not None:
                    ctx.tracer.client_ops[client_id] = op_id
                began = time.perf_counter()
                try:
                    response = client.sweep(
                        request.workload, request.strategies, request.overheads,
                        analyze_timing=True,
                    )
                    error = None
                except Exception as failure:  # noqa: BLE001 - fails only this op
                    response, error = None, failure
                latency = time.perf_counter() - began
                record = OpRecord(
                    op_id, request.kind, latency, request.points, began_s=began - start
                )
                results[index].append((record, request, response, error))

            plan = plans[index]
            head = 1 if index < len(hit_plans) else 0
            for number, request in enumerate(plan[:head]):
                send(number, request)
            try:
                all_ready.wait()
            except threading.BrokenBarrierError as broken:
                for number, request in enumerate(plan[head:], start=head):
                    record = OpRecord(f"c{index}r{number}", request.kind, 0.0, request.points)
                    results[index].append((record, request, None, broken))
                return
            for number, request in enumerate(plan[head:], start=head):
                if request.kind == "hit":
                    time.sleep(HIT_PAUSE_S)
                send(number, request)

        threads = [
            threading.Thread(target=client_loop, args=(index,), name=f"perfbench-client-{index}")
            for index in range(len(plans))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # Miss throughput runs until the last miss is answered; hits that
        # trail it on an idle server do not stretch it.
        measured.wall_s = max(
            (record.began_s + record.latency_s
             for per_client in results for record, *_ in per_client
             if record.kind == "miss"),
            default=time.perf_counter() - start,
        )
        stats = server.stats()
    finally:
        if server is not None:
            server.shutdown()
    measured.layer["service.joins"] = stats["inflight_joins"]
    measured.layer["service.shed"] = stats["shed_total"]
    _record_flow_stats(measured, flow)
    for per_client in results:
        for record, request, response, error in per_client:
            measured.ops.append(record)
            _check_served(ctx, measured, record, request, response, error)
    return measured


def _check_served(ctx, measured, record, request, response, error) -> None:
    """Records against the reference, and the server's per-request stats
    against the request's pre-assigned class."""
    if error is not None:
        record.ok = False
        measured.failures.append(f"{record.op_id}: {type(error).__name__}: {error}")
        return
    result, stats = response
    count = len(request.points)
    expected = (count, 0) if request.kind == "hit" else (0, count)
    got = (stats["store_hits"], stats["computed"])
    if got != expected or stats["inflight_joins"]:
        record.ok = False
        measured.failures.append(
            f"{record.op_id}: {request.kind} served as store_hits={got[0]} "
            f"computed={got[1]} joins={stats['inflight_joins']}"
        )
    if len(result.records) != count:
        record.ok = False
        measured.failures.append(f"{record.op_id}: {len(result.records)}/{count} records")
    for served in result.records:
        _check(ctx, measured, record, served.point.workload, served.outcome)


WORKLOADS = {
    "design_flow": run_design_flow,
    "fig6_sweep": run_fig6_sweep,
    "serve_mixed": run_serve_mixed,
}
