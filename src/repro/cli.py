"""Command-line interface: ``python -m repro`` (or the ``repro`` script).

Eight subcommands drive the campaign machinery end to end and persist
results to disk:

``quickstart``
    The full Figure-2 flow on one strategy/overhead point — place, estimate
    power, solve thermal, apply a technique, re-simulate, report.

``sweep``
    The Figure-6 grid (strategy x overhead) on the scattered-hotspot test
    set, executed by :class:`~repro.flow.runner.Campaign` with a shared
    solver cache, written as JSON (and optionally CSV).  With
    ``--result-store DIR`` the sweep is incremental and resumable
    (Ctrl-C flushes finished points; a rerun computes only the rest), and
    ``--executor process`` shards points across worker processes.

``table1``
    The Table-I concentrated-hotspot comparison (Default versus ERI at
    matched row counts), written as JSON (and optionally CSV).

``serve``
    Long-running sweep daemon: prepares the baselines once, then answers
    client sweep requests from the result store, deduplicates in-flight
    points across requests, and solves the rest in cross-request
    geometry-grouped batches.

``submit``
    Client for ``serve``: submit one sweep request and write the records
    exactly like a local ``sweep`` run.

``cache``
    Inspect (``stats``) or prune (``prune``, by age and/or size) on-disk
    artifact caches and result stores.

``fsck``
    Audit (and with ``--repair`` fix) a store a crashed or killed process
    left behind: unpublished ``.tmp.*`` files, corrupt or misnamed
    entries.

``strategies``
    List the registered whitespace strategies with their defaults and
    tunable parameters.

Strategy arguments accept any registered spec — a name (``eri``), a
parameterized spec (``hw:ring_um=8,max_source_units=3``), or a comma-
separated list of specs — and are validated against the registry before
any expensive work starts; a typo exits with code 2 and a "did you mean"
suggestion.  Every run prints the corresponding plain-text report and
writes machine-readable records under ``--out`` (default ``results/``).
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from .analysis import figure6_report, table1_report
from .bench import (
    build_synthetic_circuit,
    concentrated_hotspot_workload,
    scattered_hotspots_workload,
    small_synthetic_circuit,
)
from .core import check_area_overhead, describe_strategies, resolve_strategy, split_spec_list
from .faults import RetryPolicy, install_env_plan
from .flow import (
    ArtifactStore,
    Campaign,
    CampaignResult,
    ExperimentSetup,
    FlowGraph,
    ResultStore,
    SolverCache,
    concentrated_hotspot_campaign,
    fsck_store,
    prune_store,
    scan_store,
)

logger = logging.getLogger("repro.cli")

#: Overheads swept by ``repro sweep`` when not overridden; includes the
#: paper's 15% reference point.
SWEEP_OVERHEADS = (0.05, 0.10, 0.15, 0.20, 0.25, 0.30)


def _positive_int(text: str) -> int:
    """Argparse type for counts that must be strictly positive."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return value


def _positive_float(text: str) -> float:
    """Argparse type for durations that must be strictly positive."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive number, got {text}")
    return value


def _nonnegative_int(text: str) -> int:
    """Argparse type for counts where zero is meaningful (e.g. retries)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return value


def _overhead(text: str) -> float:
    """Argparse type for area overheads: finite and non-negative."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    try:
        check_area_overhead(value)
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error)) from None
    return value


def _quota_spec(text: str):
    """Argparse type for ``--quota key=value[,...]`` (validated up front)."""
    from .service import ClientQuota

    try:
        return ClientQuota.parse(text)
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error)) from None


def _strategy_spec(text: str) -> str:
    """Argparse type for a single strategy spec, validated up front.

    Resolution against the registry happens at parse time, so an unknown
    name or bad parameter exits with code 2 (argparse's usage error) and a
    "did you mean" suggestion before any placement or solve starts.
    """
    try:
        return resolve_strategy(text).spec
    except (TypeError, ValueError) as error:
        raise argparse.ArgumentTypeError(str(error)) from None


def _strategy_spec_list(text: str) -> List[str]:
    """Argparse type for a comma-separated list of strategy specs.

    Commas inside a spec's parameter list (``hw:ring_um=8,max_source_units=3``)
    are kept with their spec; every resulting spec is validated as in
    :func:`_strategy_spec`.
    """
    specs = [_strategy_spec(spec) for spec in split_spec_list(text)]
    if not specs:
        raise argparse.ArgumentTypeError(f"no strategy specs in {text!r}")
    return specs


def _flatten_strategies(values: Sequence) -> List[str]:
    """Flatten argparse ``--strategies`` values (lists or bare defaults)."""
    flat: List[str] = []
    for value in values:
        if isinstance(value, str):
            flat.append(value)
        else:
            flat.extend(value)
    return flat


def _add_common_arguments(parser: argparse.ArgumentParser, default_full: bool = False) -> None:
    parser.add_argument(
        "--full", dest="full", action="store_true", default=default_full,
        help="use the full paper-sized (~12k cell) benchmark"
             + (" (default)" if default_full else ""),
    )
    parser.add_argument(
        "--small", dest="full", action="store_false",
        help="use the scaled-down benchmark (fast)"
             + ("" if default_full else " (default)"),
    )
    parser.add_argument(
        "--out", type=Path, default=Path("results"),
        help="directory for result files (default: results/)",
    )
    parser.add_argument(
        "--csv", action="store_true",
        help="also write the records as CSV next to the JSON file",
    )
    parser.add_argument(
        "--utilization", type=float, default=0.85,
        help="baseline utilization factor (default: 0.85)",
    )
    parser.add_argument(
        "--cycles", type=_positive_int, default=24,
        help="logic-simulation cycles for activity estimation (default: 24)",
    )
    parser.add_argument(
        "--seed", type=int, default=2010,
        help="random seed for vector generation (default: 2010)",
    )
    parser.add_argument(
        "--grid", type=_positive_int, default=40, metavar="N",
        help="thermal grid resolution per axis (default: 40, as in the paper)",
    )
    parser.add_argument(
        "--thermal-solver", choices=("auto", "lu", "multigrid"), default="auto",
        help="steady-state solver backend: sparse LU factorisation, "
             "geometric multigrid, or auto (pick by grid size; default)",
    )
    parser.add_argument(
        "--artifact-cache", type=Path, default=None, metavar="DIR",
        help="persist flow artifacts content-addressed under DIR; a repeated "
             "run (same circuit, strategies, knobs) then re-executes only "
             "the stages whose inputs changed",
    )
    parser.add_argument(
        "-v", "--verbose", action="store_true",
        help="log per-point progress while the campaign runs",
    )


def _build_circuit(args: argparse.Namespace):
    return build_synthetic_circuit() if args.full else small_synthetic_circuit()


def _build_flow(args: argparse.Namespace) -> FlowGraph:
    """The staged flow graph every subcommand runs through.

    ``--artifact-cache DIR`` adds the on-disk tier, so artifacts survive
    the process and a re-run starts warm.
    """
    store = ArtifactStore(root=args.artifact_cache)
    return FlowGraph(store=store, solver_cache=SolverCache(method=args.thermal_solver))


def _stage_summary(flow: FlowGraph) -> str:
    """One-line ``stage=executed(+hits)`` summary for run reports."""
    stats = flow.stats()
    executions = stats["stage_executions"]
    hits = stats["stage_hits"]
    parts = []
    for stage in sorted(set(executions) | set(hits)):
        ran = executions.get(stage, 0)
        hit = hits.get(stage, 0)
        parts.append(f"{stage}={ran}" + (f"(+{hit} cached)" if hit else ""))
    return ", ".join(parts) if parts else "none"


def _prepare_setup(
    args: argparse.Namespace, workload_builder, flow: FlowGraph
) -> ExperimentSetup:
    netlist = _build_circuit(args)
    workload = workload_builder(netlist)
    logger.info(
        "benchmark %s: %d cells, workload %s",
        netlist.name, netlist.num_cells, workload.name,
    )
    return ExperimentSetup.prepare(
        netlist,
        workload,
        base_utilization=args.utilization,
        grid_nx=args.grid,
        grid_ny=args.grid,
        num_cycles=args.cycles,
        seed=args.seed,
        flow=flow,
    )


def _write_result(result: CampaignResult, args: argparse.Namespace, stem: str) -> Path:
    json_path = result.to_json(args.out / f"{stem}.json")
    print(f"wrote {json_path}")
    if args.csv:
        csv_path = result.to_csv(args.out / f"{stem}.csv")
        print(f"wrote {csv_path}")
    return json_path


# -- subcommands -------------------------------------------------------------


def _run_campaign(
    campaign: Campaign,
    setup: ExperimentSetup,
    command: str,
    max_workers: Optional[int] = None,
    **metadata,
) -> CampaignResult:
    """Run ``campaign`` and stamp the command's facts into its metadata."""
    result = campaign.run(max_workers=max_workers)
    result.metadata.update({
        "command": command,
        "benchmark": setup.netlist.name,
        "baseline_peak_rise_k": setup.thermal_map.peak_rise,
        **metadata,
    })
    return result


def run_quickstart(args: argparse.Namespace) -> int:
    """One strategy/overhead point end to end, with a human-readable report."""
    flow = _build_flow(args)
    setup = _prepare_setup(args, scattered_hotspots_workload, flow)
    floorplan = setup.placement.floorplan
    print(f"benchmark: {setup.netlist.name}, {setup.netlist.num_cells} cells")
    print(f"baseline:  core {floorplan.core_width:.0f} x {floorplan.core_height:.0f} um, "
          f"total power {setup.power.total() * 1e3:.1f} mW, "
          f"peak rise {setup.thermal_map.peak_rise:.2f} K, "
          f"{len(setup.hotspots)} hotspot(s)")

    campaign = Campaign(
        setup, [args.strategy], [args.overhead], analyze_timing=True,
        name="quickstart", flow=flow, fail_fast=True,
    )
    result = _run_campaign(campaign, setup, "quickstart", max_workers=1)
    outcome = result.records[0].outcome
    print(f"{outcome.strategy}: requested {outcome.requested_overhead * 100:.1f}% -> "
          f"actual {outcome.actual_overhead * 100:.1f}% overhead, "
          f"{outcome.inserted_rows} rows inserted")
    print(f"peak rise {setup.thermal_map.peak_rise:.2f} K -> {outcome.peak_rise:.2f} K "
          f"({outcome.temperature_reduction * 100:.1f}% reduction), "
          f"timing overhead {outcome.timing_overhead * 100:+.2f}%")
    print(f"flow stages: {_stage_summary(flow)}")
    _write_result(result, args, "quickstart")
    return 0


def run_sweep(args: argparse.Namespace) -> int:
    """The Figure-6 (strategy x overhead) grid via the campaign runner."""
    flow = _build_flow(args)
    setup = _prepare_setup(args, scattered_hotspots_workload, flow)
    store = ResultStore(root=args.result_store) if args.result_store else None
    if args.max_point_retries < 0:
        raise ValueError("--max-point-retries must be >= 0")
    retry_policy = RetryPolicy(max_attempts=args.max_point_retries + 1)
    campaign = Campaign(
        setup,
        strategies=_flatten_strategies(args.strategies),
        overheads=tuple(args.overheads),
        analyze_timing=args.timing,
        name="figure6-sweep",
        flow=flow,
        result_store=store,
        executor=args.executor,
        retry_policy=retry_policy,
        fail_fast=args.fail_fast,
        point_timeout_s=args.point_timeout,
    )
    result = _run_campaign(campaign, setup, "sweep", max_workers=args.jobs)
    print(figure6_report(result.outcomes()))
    print(f"{len(result.records)} points in {result.metadata['elapsed_s']:.2f}s "
          f"(solver cache: {result.cache_hits} hits / {result.cache_misses} "
          f"builds, {result.cache_hit_rate * 100:.0f}% hit rate, "
          f"{result.metadata['num_solve_groups']} batched solve groups)")
    if store is not None:
        print(f"result store: {result.metadata['store_hits']} stored point(s) "
              f"reused, {result.metadata['num_evaluated']} evaluated")
    if result.metadata.get("num_failed"):
        failures = result.failed_points
        print(f"{len(failures)} point(s) quarantined after exhausting retries "
              f"({result.metadata.get('retries', 0)} retry attempt(s), "
              f"{result.metadata.get('timeouts', 0)} deadline timeout(s), "
              f"{result.metadata.get('respawns', 0)} worker respawn(s)):")
        for entry in failures:
            print(f"  {entry['workload']}/{entry['strategy']}"
                  f"@{entry['overhead']}: {entry['error']}")
    if result.metadata.get("degraded_points"):
        print(f"{result.metadata['degraded_points']} point(s) solved via the "
              f"LU fallback (degraded=True in the records)")
    if result.metadata.get("interrupted"):
        print("interrupted: rerun with the same --result-store to resume")
    print(f"flow stages: {_stage_summary(flow)}")
    _write_result(result, args, "figure6")
    return 0


def run_table1(args: argparse.Namespace) -> int:
    """The Table-I concentrated-hotspot comparison (Default versus ERI)."""
    flow = _build_flow(args)
    setup = _prepare_setup(args, concentrated_hotspot_workload, flow)
    campaign = concentrated_hotspot_campaign(
        setup, args.rows, analyze_timing=args.timing, flow=flow, fail_fast=True
    )
    result = _run_campaign(campaign, setup, "table1", row_counts=list(args.rows))
    print(table1_report(result.outcomes()))
    print(f"flow stages: {_stage_summary(flow)}")
    _write_result(result, args, "table1")
    return 0


#: Workload builders ``repro serve`` can prepare, by short name.
SERVE_WORKLOADS = {
    "scattered": scattered_hotspots_workload,
    "concentrated": concentrated_hotspot_workload,
}


def run_serve(args: argparse.Namespace) -> int:
    """Start the long-running sweep daemon (see :mod:`repro.service`)."""
    from .service import SweepServer

    auth_token = None
    if args.auth_token_file is not None:
        try:
            auth_token = args.auth_token_file.read_text().strip()
        except OSError as error:
            raise ValueError(f"cannot read --auth-token-file: {error}") from None
        if not auth_token:
            raise ValueError(f"--auth-token-file {args.auth_token_file} is empty")
    flow = _build_flow(args)
    setups = {}
    for short_name in args.workloads:
        # Each workload gets its own circuit instance: preparation places
        # the design, mutating the netlist's coordinates.
        setup = _prepare_setup(args, SERVE_WORKLOADS[short_name], flow)
        setups[setup.workload.name] = setup
    store = ResultStore(root=args.result_store)
    server = SweepServer(
        setups,
        result_store=store,
        cache=flow.solver_cache,
        host=args.host,
        port=args.port,
        batch_window_s=args.batch_window,
        max_workers=args.jobs,
        request_timeout_s=args.request_timeout,
        point_timeout_s=args.point_timeout,
        auth_token=auth_token,
        quota=args.quota,
        max_inflight_points=args.max_inflight_points,
        max_pending_requests=args.max_pending_requests,
        max_request_bytes=args.max_request_bytes,
        max_rss_mb=args.max_rss_mb,
        artifact_store=flow.store,
    )
    host, port = server.address
    guards = []
    if auth_token:
        guards.append("token auth")
    if args.quota is not None:
        guards.append("per-client quotas")
    if args.max_inflight_points is not None:
        guards.append(f"max {args.max_inflight_points} in-flight points")
    if args.max_rss_mb is not None:
        guards.append(f"{args.max_rss_mb:g} MB memory budget")
    print(f"repro serve: listening on {host}:{port}, "
          f"workloads {sorted(setups)}"
          + (f", result store {args.result_store}" if args.result_store else "")
          + (f" [{', '.join(guards)}]" if guards else ""))
    try:
        server.serve_forever()
        # A protocol-op shutdown runs on a background thread; a draining
        # one may still be finishing in-flight batches when the accept
        # loop returns, so hold the process open until it completes.
        server.wait_closed(timeout=60.0)
    except KeyboardInterrupt:
        print("repro serve: shutting down")
        server.shutdown()
    return 0


def run_submit(args: argparse.Namespace) -> int:
    """Submit one sweep request to a running ``repro serve`` daemon."""
    from .faults import RetryPolicy
    from .service import AuthError, ServiceError, SweepClient

    token = args.token
    if token is None and args.token_file is not None:
        try:
            token = args.token_file.read_text().strip()
        except OSError as error:
            raise ValueError(f"cannot read --token-file: {error}") from None
    client = SweepClient(
        args.host, args.port, timeout=args.timeout,
        retry_policy=RetryPolicy(
            max_attempts=args.max_retries + 1, backoff_s=0.05
        ),
        token=token,
        client_id=args.client_id,
    )
    try:
        workload = args.workload
        if workload is None:
            served = client.ping()["workloads"]
            if not served:
                print("repro submit: error: server serves no workloads",
                      file=sys.stderr)
                return 2
            workload = served[0]
        result, stats = client.sweep(
            workload,
            strategies=_flatten_strategies(args.strategies),
            overheads=tuple(args.overheads),
            analyze_timing=args.timing,
        )
    except AuthError:
        print(f"repro submit: error: server {args.host}:{args.port} "
              f"rejected the auth token (pass --token/--token-file matching "
              f"the server's --auth-token-file)", file=sys.stderr)
        return 2
    except ServiceError as error:
        print(f"repro submit: error: {error}", file=sys.stderr)
        return 2
    except OSError as error:
        # Covers ConnectionError and socket timeouts: the daemon is down,
        # unreachable, or not answering at this address.
        print(f"repro submit: error: cannot reach server at "
              f"{args.host}:{args.port} ({error})", file=sys.stderr)
        return 2
    print(figure6_report(result.outcomes()))
    server_stats = stats.get("server", {})
    print(f"{stats['num_points']} points: {stats['store_hits']} from store, "
          f"{stats['inflight_joins']} joined in-flight, "
          f"{stats['computed']} computed "
          f"(server lifetime: {server_stats.get('points_solved', '?')} solved "
          f"in {server_stats.get('num_solve_groups', '?')} solve groups)")
    _write_result(result, args, f"submit-{workload}")
    return 0


def run_cache(args: argparse.Namespace) -> int:
    """Inspect or prune on-disk artifact caches and result stores."""
    status = 0
    for root in args.roots:
        if not root.exists():
            print(f"{root}: no store (directory does not exist)")
            status = 1
            continue
        if args.action == "stats":
            usage = scan_store(root)
            budget = ""
            if args.budget_mb is not None:
                # Byte usage against the operator's configured budget —
                # the capacity-planning view of `repro cache prune
                # --max-size-mb` and the serve-side memory governor.
                used_mb = usage.total_bytes / 1e6
                percent = 100.0 * used_mb / args.budget_mb
                budget = (f" — {percent:.0f}% of {args.budget_mb:g} MB "
                          f"budget")
                if used_mb > args.budget_mb:
                    budget += " (OVER)"
                    status = max(status, 1)
            print(f"{root}: {usage.entries} entries, "
                  f"{usage.total_bytes / 1e6:.2f} MB"
                  + (f", {usage.stray_files} stray file(s)"
                     if usage.stray_files else "")
                  + budget)
            for group in sorted(usage.by_group):
                count, size = usage.by_group[group]
                print(f"  {group:<12} {count:6d} entries  {size / 1e6:9.2f} MB")
        else:  # prune
            report = prune_store(
                root,
                max_age_days=args.max_age_days,
                max_size_mb=args.max_size_mb,
                dry_run=args.dry_run,
            )
            verb = "would remove" if args.dry_run else "removed"
            print(f"{root}: {verb} {report.removed} entries "
                  f"({report.freed_bytes / 1e6:.2f} MB), kept {report.kept}"
                  + (f", cleaned {report.strays_removed} stray file(s)"
                     if report.strays_removed else ""))
    return status


def run_fsck(args: argparse.Namespace) -> int:
    """Audit (and optionally repair) on-disk stores after a crash.

    Exit status: 0 when every root is clean (or everything found was
    repaired), 1 when problems remain — found without ``--repair``, or a
    repair itself failed.
    """
    status = 0
    for root in args.roots:
        if not root.exists():
            print(f"{root}: no store (directory does not exist)")
            status = 1
            continue
        report = fsck_store(
            root, repair=args.repair, verify_blobs=not args.no_verify
        )
        print(report.summary())
        unrepaired = report.num_problems - report.num_repaired
        if report.repair_errors or (report.num_problems and not args.repair):
            status = 1
        elif unrepaired > 0:
            status = 1
    return status


def run_strategies(args: argparse.Namespace) -> int:
    """List the registered whitespace strategies and their parameters."""
    rows = describe_strategies()
    name_width = max(len(str(row["name"])) for row in rows)
    print("registered whitespace strategies:")
    for row in rows:
        params = row["params"] or {}
        rendered = (
            ", ".join(f"{key}={value}" for key, value in sorted(params.items()))
            or "-"
        )
        print(f"  {row['name']:<{name_width}}  "
              f"threshold {row['default_hotspot_threshold']:.2f}  "
              f"params: {rendered}")
        if row["summary"]:
            print(f"  {'':<{name_width}}  {row['summary']}")
    print("\nspec grammar: NAME or NAME:key=value[,key=value...] "
          "(e.g. hw:ring_um=8,max_source_units=3); every strategy also "
          "accepts hotspot_threshold=FRACTION")
    return 0


# -- entry point -------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    """The ``repro`` argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Post-placement temperature reduction (DATE 2010) "
                    "experiment campaigns.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    quickstart = subparsers.add_parser(
        "quickstart", help="run one strategy/overhead point end to end",
    )
    _add_common_arguments(quickstart)
    quickstart.add_argument(
        "--strategy", default="eri", type=_strategy_spec, metavar="SPEC",
        help="whitespace-allocation strategy spec, e.g. eri or "
             "hw:ring_um=8 (default: eri; see 'repro strategies')",
    )
    quickstart.add_argument(
        "--overhead", type=_overhead, default=0.15,
        help="requested area overhead fraction (default: 0.15)",
    )
    quickstart.set_defaults(handler=run_quickstart)

    sweep = subparsers.add_parser(
        "sweep", help="run the Figure-6 strategy x overhead campaign",
    )
    # Figure 6 is defined on the paper-sized benchmark; --small gives a
    # fast approximation whose per-point differences sit in snapping noise.
    _add_common_arguments(sweep, default_full=True)
    sweep.add_argument(
        "--strategies", nargs="+", default=["default", "eri", "hw"],
        type=_strategy_spec_list, metavar="SPEC",
        help="strategy specs to sweep, space- or comma-separated; any "
             "registered spec works, e.g. hybrid gradient:exponent=2 "
             "(default: default eri hw; see 'repro strategies')",
    )
    sweep.add_argument(
        "--overheads", nargs="+", type=_overhead, default=list(SWEEP_OVERHEADS),
        help="area-overhead sweep points (default: 5%% to 30%%)",
    )
    sweep.add_argument(
        "--timing", action="store_true",
        help="also run static timing analysis per point (slower)",
    )
    sweep.add_argument(
        "--jobs", type=_positive_int, default=None, metavar="N",
        help="worker threads or processes (default: one per CPU)",
    )
    sweep.add_argument(
        "--max-point-retries", type=int, default=0, metavar="N",
        help="retry each failing grid point up to N times with backoff "
             "before quarantining it (default: 0, no retries)",
    )
    sweep.add_argument(
        "--fail-fast", action="store_true",
        help="abort the whole sweep on the first point failure instead of "
             "quarantining the point and completing the rest",
    )
    sweep.add_argument(
        "--result-store", type=Path, default=None, metavar="DIR",
        help="persist one record per completed grid point under DIR; a "
             "repeated or interrupted-and-rerun sweep then recomputes only "
             "the missing points",
    )
    sweep.add_argument(
        "--executor", choices=("thread", "process"), default="thread",
        help="fan points out over threads (default) or shard them across "
             "worker processes",
    )
    sweep.add_argument(
        "--point-timeout", type=_positive_float, default=None,
        metavar="SECONDS",
        help="deadline per grid-point attempt; a point that exceeds it is "
             "cancelled (process workers: killed and respawned), retried "
             "per --max-point-retries, then quarantined (default: none)",
    )
    sweep.set_defaults(handler=run_sweep)

    table1 = subparsers.add_parser(
        "table1", help="run the Table-I concentrated-hotspot comparison",
    )
    _add_common_arguments(table1, default_full=True)
    table1.add_argument(
        "--rows", nargs="+", type=int, default=[20, 40],
        help="empty-row counts to insert (default: 20 40, as in the paper)",
    )
    table1.add_argument(
        "--timing", action="store_true",
        help="also run static timing analysis per point (slower)",
    )
    table1.set_defaults(handler=run_table1)

    serve = subparsers.add_parser(
        "serve", help="run the long-lived batching sweep daemon",
    )
    _add_common_arguments(serve)
    serve.add_argument(
        "--host", default="127.0.0.1",
        help="bind address (default: 127.0.0.1)",
    )
    serve.add_argument(
        "--port", type=int, default=7410,
        help="bind port; 0 picks a free one (default: 7410)",
    )
    serve.add_argument(
        "--workloads", nargs="+", choices=sorted(SERVE_WORKLOADS),
        default=["scattered"],
        help="workload baselines to prepare and serve (default: scattered)",
    )
    serve.add_argument(
        "--result-store", type=Path, default=None, metavar="DIR",
        help="persist served records under DIR (shared with offline "
             "'repro sweep --result-store' runs and across restarts)",
    )
    serve.add_argument(
        "--batch-window", type=float, default=0.05, metavar="SECONDS",
        help="how long to gather points across requests before solving a "
             "cross-request batch (default: 0.05)",
    )
    serve.add_argument(
        "--jobs", type=_positive_int, default=None, metavar="N",
        help="worker threads per batch evaluation (default: one per CPU)",
    )
    serve.add_argument(
        "--request-timeout", type=_positive_float, default=600.0,
        metavar="SECONDS",
        help="deadline per sweep request and per evaluation batch; a "
             "client's own timeout_s tightens it further (default: 600)",
    )
    serve.add_argument(
        "--point-timeout", type=_positive_float, default=None,
        metavar="SECONDS",
        help="deadline per grid-point attempt inside served batches; "
             "timed-out points are quarantined, not hung (default: none)",
    )
    serve.add_argument(
        "--auth-token-file", type=Path, default=None, metavar="FILE",
        help="require clients to present the shared secret stored in FILE "
             "(submit --token/--token-file); default: no auth",
    )
    serve.add_argument(
        "--quota", type=_quota_spec, default=None, metavar="SPEC",
        help="per-client limits as key=value[,key=value...]: "
             "requests_per_s, burst, max_points_per_request, "
             "max_inflight_points (e.g. "
             "'requests_per_s=5,max_inflight_points=64')",
    )
    serve.add_argument(
        "--max-inflight-points", type=_positive_int, default=None,
        metavar="N",
        help="hard cap on in-flight point futures across all clients; "
             "when full, queued points closest to their deadline are "
             "shed first (default: unbounded)",
    )
    serve.add_argument(
        "--max-pending-requests", type=_positive_int, default=None,
        metavar="N",
        help="cap on sweep requests served concurrently (default: "
             "unbounded)",
    )
    serve.add_argument(
        "--max-request-bytes", type=_positive_int, default=1_048_576,
        metavar="BYTES",
        help="largest accepted request line; longer frames get a "
             "structured payload_too_large error (default: 1 MiB)",
    )
    serve.add_argument(
        "--max-rss-mb", type=_positive_float, default=None, metavar="MB",
        help="process memory budget: above 80%% the in-memory caches "
             "shrink, at 100%% the server sheds work until pressure "
             "clears (default: no budget)",
    )
    serve.set_defaults(handler=run_serve)

    submit = subparsers.add_parser(
        "submit", help="submit one sweep request to a running serve daemon",
    )
    submit.add_argument(
        "--host", default="127.0.0.1",
        help="server address (default: 127.0.0.1)",
    )
    submit.add_argument(
        "--port", type=int, default=7410,
        help="server port (default: 7410)",
    )
    submit.add_argument(
        "--workload", default=None, metavar="NAME",
        help="served workload to sweep (default: the server's first)",
    )
    submit.add_argument(
        "--strategies", nargs="+", default=["default", "eri", "hw"],
        type=_strategy_spec_list, metavar="SPEC",
        help="strategy specs to sweep (default: default eri hw)",
    )
    submit.add_argument(
        "--overheads", nargs="+", type=_overhead, default=list(SWEEP_OVERHEADS),
        help="area-overhead sweep points (default: 5%% to 30%%)",
    )
    submit.add_argument(
        "--timing", action="store_true",
        help="also request static timing analysis per point",
    )
    submit.add_argument(
        "--timeout", type=_positive_float, default=600.0, metavar="SECONDS",
        help="end-to-end request deadline; bounds the socket wait and is "
             "forwarded to the server as timeout_s (default: 600)",
    )
    submit.add_argument(
        "--token", default=None, metavar="SECRET",
        help="shared-secret auth token for a server started with "
             "--auth-token-file",
    )
    submit.add_argument(
        "--token-file", type=Path, default=None, metavar="FILE",
        help="read the auth token from FILE (first line, stripped); "
             "--token wins when both are given",
    )
    submit.add_argument(
        "--client-id", default=None, metavar="NAME",
        help="identity for per-client quotas and fair scheduling "
             "(default: hostname:pid)",
    )
    submit.add_argument(
        "--max-retries", type=_nonnegative_int, default=4, metavar="N",
        help="retries after throttled/shed rejections or connection "
             "failures, honoring the server's retry_after_s hint "
             "(default: 4)",
    )
    submit.add_argument(
        "--out", type=Path, default=Path("results"),
        help="directory for result files (default: results/)",
    )
    submit.add_argument(
        "--csv", action="store_true",
        help="also write the records as CSV next to the JSON file",
    )
    submit.add_argument(
        "-v", "--verbose", action="store_true",
        help="log request progress",
    )
    submit.set_defaults(handler=run_submit)

    cache = subparsers.add_parser(
        "cache", help="inspect or prune on-disk artifact/result stores",
    )
    cache.add_argument(
        "action", choices=("stats", "prune"),
        help="stats: show entry counts and sizes; prune: delete entries "
             "by age/size and clean stray temp/lock files",
    )
    cache.add_argument(
        "roots", nargs="+", type=Path, metavar="DIR",
        help="store directories (an --artifact-cache or --result-store DIR)",
    )
    cache.add_argument(
        "--max-age-days", type=float, default=None, metavar="DAYS",
        help="prune: remove entries older than DAYS",
    )
    cache.add_argument(
        "--max-size-mb", type=float, default=None, metavar="MB",
        help="prune: then remove oldest entries until the store fits MB",
    )
    cache.add_argument(
        "--budget-mb", type=_positive_float, default=None, metavar="MB",
        help="stats: report byte usage against a configured budget "
             "(exit 1 when a store exceeds it)",
    )
    cache.add_argument(
        "--dry-run", action="store_true",
        help="prune: report what would be removed without deleting",
    )
    cache.add_argument(
        "-v", "--verbose", action="store_true",
        help="log while scanning",
    )
    cache.set_defaults(handler=run_cache)

    fsck = subparsers.add_parser(
        "fsck", help="audit/repair stores after a crash or kill -9",
    )
    fsck.add_argument(
        "roots", nargs="+", type=Path, metavar="DIR",
        help="store directories (an --artifact-cache or --result-store DIR)",
    )
    fsck.add_argument(
        "--repair", action="store_true",
        help="delete temp debris and quarantine damaged entries "
             "under DIR/.quarantine/ (default: report only, exit 1)",
    )
    fsck.add_argument(
        "--no-verify", action="store_true",
        help="skip reading and checksumming entry payloads (faster on "
             "very large stores; corrupt blobs then go undetected)",
    )
    fsck.add_argument(
        "-v", "--verbose", action="store_true",
        help="log while scanning",
    )
    fsck.set_defaults(handler=run_fsck)

    strategies = subparsers.add_parser(
        "strategies", help="list the registered whitespace strategies",
    )
    strategies.add_argument(
        "-v", "--verbose", action="store_true",
        help="log while listing (accepted for symmetry; listing is instant)",
    )
    strategies.set_defaults(handler=run_strategies)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for ``python -m repro`` and the ``repro`` console script."""
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        # Honor a REPRO_FAULTS fault-injection plan (chaos testing) for
        # every subcommand; a no-op when the variable is unset.
        install_env_plan()
        return args.handler(args)
    except ValueError as error:
        # Domain validation (negative overheads, bad worker counts, ...)
        # surfaces as a clean CLI error instead of a traceback.
        print(f"repro {args.command}: error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
