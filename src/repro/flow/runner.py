"""Experiment campaign runner: (workload x strategy x overhead) grids.

One figure of the paper is a grid of experiment points — Figure 6 sweeps
three strategies over eight overheads, Table I pairs Default and ERI rows
(:func:`concentrated_hotspot_campaign`).
:class:`Campaign` executes such a grid as a unit, and ``Campaign._execute``
is the one code path that turns points into records, in three phases:
every point's transform (:func:`~repro.flow.experiment.prepare_evaluation`)
runs on a thread pool — the sparse kernels release the GIL inside SciPy,
so campaigns scale with cores — then the points are grouped by transformed
die geometry and each group is solved through the batched ``thermal``
stage (:meth:`~repro.flow.graph.FlowGraph.thermal_many`: cached lanes are
served from the artifact store, the misses solved as one warm-started
multi-RHS block), and finally each point's outcome is extracted
(:func:`~repro.flow.experiment.finish_evaluation`).  Every phase runs on
the campaign's :class:`~repro.flow.graph.FlowGraph` (a hash-free
pass-through when none is given) under the same retry loop and per-phase
deadline.  The thread executor runs that core once over the pending
points; the process executor (:mod:`repro.flow.shard`) runs it in each
worker process, one point per task.

Results are deterministic: records are returned in grid order (workload,
then strategy, then overhead) regardless of worker scheduling, and every
batched lane is bitwise identical to a one-point solve, so a record never
depends on which points shared its batch — it equals
:func:`~repro.flow.experiment.evaluate_strategy` of the same point.  Every
record carries the full :class:`~repro.flow.experiment.StrategyOutcome`
plus its wall-clock cost.  :class:`CampaignResult` persists to JSON or CSV
and round-trips back, which is what the ``repro`` command line uses to
write figure/table data to disk.
"""

from __future__ import annotations

import csv
import functools
import json
import logging
import os
import signal
import threading
import time
import warnings
from collections import Counter, OrderedDict
from contextlib import nullcontext
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..core import StrategySpec, check_area_overhead, parse_strategy_spec, resolve_strategy
from ..deadlines import Deadline, DeadlineExceeded, deadline_scope
from ..engine import get_engine
from ..faults import RetryPolicy, inject
from ..thermal.solver import grid_for_placement, resolve_thermal_method
from .cache import SolverCache
from .graph import FlowGraph
from .experiment import (
    DEFAULT_OVERHEADS,
    DEFAULT_STRATEGIES,
    ExperimentSetup,
    PreparedEvaluation,
    StrategyOutcome,
    finish_evaluation,
    prepare_evaluation,
)
from .recover import recover_at_startup
from .store import ResultStore, result_key, setup_digest

#: Executors :class:`Campaign` accepts.
EXECUTORS = ("thread", "process")

logger = logging.getLogger(__name__)


def _map_indexed(fn, items: Sequence, max_workers: int) -> List:
    """Apply ``fn(index, item)`` to every item, results in item order.

    Serial when ``max_workers`` is 1 (or there is at most one item),
    thread-pooled otherwise; a worker exception propagates out of
    ``future.result()`` either way.
    """
    results: List = [None] * len(items)
    if max_workers == 1 or len(items) <= 1:
        for index, item in enumerate(items):
            results[index] = fn(index, item)
    else:
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            futures = {
                pool.submit(fn, index, item): index
                for index, item in enumerate(items)
            }
            for future, index in futures.items():
                results[index] = future.result()
    return results


@dataclass(frozen=True)
class CampaignPoint:
    """One cell of the campaign grid.

    Attributes:
        workload: Name of the workload/setup the point runs against.
        strategy: Whitespace-allocation strategy spec in canonical string
            form (``"eri"``, ``"hw:ring_um=8.0"``, ...).
        overhead: Requested area overhead fraction.
    """

    workload: str
    strategy: str
    overhead: float


def _spec_params(spec: str) -> Dict[str, object]:
    """The parameter overrides encoded in a canonical spec string."""
    try:
        return parse_strategy_spec(spec)[1]
    except (TypeError, ValueError):
        return {}


@dataclass
class FailedPoint:
    """A grid point quarantined after exhausting its retry budget.

    The sweep completes around it: the point's slot carries no record, and
    this entry lands in the result metadata's ``failed_points`` list so the
    failure is inspectable (and the point retried by a later run against
    the same result store — failures are never published).
    """

    point: CampaignPoint
    error: str
    attempts: int

    def to_dict(self) -> Dict[str, object]:
        return {
            "workload": self.point.workload,
            "strategy": self.point.strategy,
            "overhead": self.point.overhead,
            "error": self.error,
            "attempts": self.attempts,
        }


@dataclass
class CampaignRecord:
    """One executed campaign point.

    Attributes:
        point: The grid cell that was run.
        outcome: The measured :class:`StrategyOutcome`.
        elapsed_s: Wall-clock seconds spent evaluating the point.
        strategy_params: Parameter overrides of the point's strategy spec
            (empty for bare names), so persisted records are self-
            describing when a sweep varies strategy parameters.
    """

    point: CampaignPoint
    outcome: StrategyOutcome
    elapsed_s: float
    strategy_params: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.strategy_params:
            self.strategy_params = _spec_params(self.point.strategy)

    @property
    def degraded(self) -> bool:
        """True when the point's solve went through the LU fallback chain.

        Degraded records are exact (LU is the reference backend) but not
        bitwise-comparable to a healthy multigrid run of the same point.
        """
        return bool(getattr(self.outcome, "fallback_used", False))

    def to_dict(self) -> Dict[str, object]:
        """Flat dict form (used for both JSON and CSV rows)."""
        row: Dict[str, object] = {"workload": self.point.workload}
        row.update(asdict(self.outcome))
        row["strategy_params"] = dict(self.strategy_params)
        row["elapsed_s"] = self.elapsed_s
        return row

    @classmethod
    def from_dict(cls, row: Mapping[str, object]) -> "CampaignRecord":
        """Inverse of :meth:`to_dict`."""
        outcome_fields = {f.name for f in fields(StrategyOutcome)}
        outcome = StrategyOutcome(
            **{k: v for k, v in row.items() if k in outcome_fields}
        )
        point = CampaignPoint(
            workload=str(row["workload"]),
            strategy=outcome.strategy,
            overhead=outcome.requested_overhead,
        )
        params = row.get("strategy_params", {})
        if isinstance(params, str):
            params = json.loads(params) if params else {}
        return cls(
            point=point,
            outcome=outcome,
            elapsed_s=float(row.get("elapsed_s", 0.0)),
            strategy_params=dict(params),
        )


@dataclass
class CampaignResult:
    """Ordered records of one campaign run plus run-level metadata.

    Attributes:
        records: One record per grid point, in grid order.
        metadata: Run-level facts (grid shape, elapsed time, cache stats).
    """

    records: List[CampaignRecord]
    metadata: Dict[str, object] = field(default_factory=dict)

    def outcomes(self, workload: Optional[str] = None) -> List[StrategyOutcome]:
        """The outcomes, optionally restricted to one workload."""
        return [
            record.outcome
            for record in self.records
            if workload is None or record.point.workload == workload
        ]

    # -- solver-cache counters ------------------------------------------------

    @property
    def cache_hits(self) -> int:
        """Shared solver cache's hit count when the run finished.

        Lifetime totals of the cache instance (when the same cache also
        served the baseline preparation, as the CLI does, those lookups
        are included), plus the lookups process workers made in their own
        caches during the run.
        """
        return int(self.metadata.get("solver_cache", {}).get("hits", 0))

    @property
    def cache_misses(self) -> int:
        """Shared solver cache's build count (lifetime, as :attr:`cache_hits`)."""
        return int(self.metadata.get("solver_cache", {}).get("misses", 0))

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of solver lookups served from the cache (0 when unused)."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    @property
    def failed_points(self) -> List[Dict[str, object]]:
        """Quarantined points of the run (``[]`` on a clean sweep)."""
        return list(self.metadata.get("failed_points", []))

    def degraded_records(self) -> List[CampaignRecord]:
        """Records whose solve went through the LU fallback chain."""
        return [record for record in self.records if record.degraded]

    def find(
        self, strategy: str, overhead: float, workload: Optional[str] = None
    ) -> Optional[CampaignRecord]:
        """The record of one grid cell, or ``None`` when absent.

        ``strategy`` matches the point's full spec string (canonicalised
        first, so ``"hw:ring_um=8"`` finds the stored ``"hw:ring_um=8.0"``);
        a bare name also matches a parameterized point of that strategy,
        but only when no exact-spec record exists at that cell.
        """
        try:
            strategy = resolve_strategy(strategy).spec
        except (TypeError, ValueError):
            pass  # unregistered name: match the raw string as-is

        def _match(exact: bool) -> Optional[CampaignRecord]:
            for record in self.records:
                point = record.point
                matches = (
                    point.strategy == strategy
                    if exact
                    else point.strategy.partition(":")[0] == strategy
                )
                if (
                    matches
                    and abs(point.overhead - overhead) < 1e-12
                    and (workload is None or point.workload == workload)
                ):
                    return record
            return None

        return _match(exact=True) or _match(exact=False)

    def workloads(self) -> List[str]:
        """Workload names present, in first-seen order."""
        seen: List[str] = []
        for record in self.records:
            if record.point.workload not in seen:
                seen.append(record.point.workload)
        return seen

    # -- persistence ---------------------------------------------------------

    def to_json(self, path: Union[str, Path]) -> Path:
        """Write the result (metadata + flat records) as JSON.

        Returns:
            The written path.
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "metadata": self.metadata,
            "records": [record.to_dict() for record in self.records],
        }
        path.write_text(json.dumps(payload, indent=2, sort_keys=False) + "\n")
        return path

    @classmethod
    def from_json(cls, path: Union[str, Path]) -> "CampaignResult":
        """Load a result previously written by :meth:`to_json`."""
        payload = json.loads(Path(path).read_text())
        return cls(
            records=[CampaignRecord.from_dict(row) for row in payload["records"]],
            metadata=dict(payload.get("metadata", {})),
        )

    def to_csv(self, path: Union[str, Path]) -> Path:
        """Write the records as a flat CSV table.

        Returns:
            The written path.
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [record.to_dict() for record in self.records]
        # CSV cells must be scalars; structured values (strategy_params)
        # are embedded as JSON so they round-trip through from_dict.
        for row in rows:
            for key, value in row.items():
                if isinstance(value, (dict, list)):
                    row[key] = json.dumps(value, sort_keys=True)
        columns = list(rows[0].keys()) if rows else ["workload"]
        with path.open("w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=columns)
            writer.writeheader()
            writer.writerows(rows)
        return path


class Campaign:
    """A deterministic (workload x strategy x overhead) experiment grid.

    Args:
        setups: Prepared baselines, keyed by workload name — or a single
            :class:`ExperimentSetup`, keyed by its workload's name.
        strategies: Strategy specs to evaluate at every overhead; each may
            be a registered name, a parameterized spec string or mapping,
            or a resolved strategy.  Specs are validated (and canonicalised
            to strings) here, so a typo fails at construction rather than
            deep inside the run.
        overheads: Requested area-overhead sweep points; each must be finite
            and non-negative, checked here like the specs.
        analyze_timing: Also run STA per point (slower).
        cache: Solver cache shared by all points; a fresh unbounded
            :class:`SolverCache` is created when omitted.  Ignored in favour
            of the graph's own solver cache when ``flow`` is given.
        name: Campaign name recorded in the result metadata.
        batch_solves: Deprecated and ignored: every thread-executed run
            groups its points by die geometry and solves each group as one
            multi-RHS block, whose lanes are bitwise identical to one-point
            solves.  Passing it emits a :class:`DeprecationWarning`.
        flow: Optional :class:`~repro.flow.graph.FlowGraph` every point's
            stages run through, the grouped solves included (each lane is a
            ``thermal`` artifact).  With a caching graph, points (or whole
            re-runs) whose stage inputs are unchanged re-execute nothing,
            and the graph's solver cache is the campaign's.  When omitted,
            a hash-free pass-through graph over ``cache`` is used.
        result_store: Optional :class:`~repro.flow.store.ResultStore`.
            Every completed point is published to it exactly once, as soon
            as the point finishes, on either executor; every run starts by
            sweeping the grid against it — so repeated sweeps are
            incremental (only new points compute) and an interrupted sweep
            resumes for free on rerun.  A store
            with an on-disk root is shared safely by concurrent campaigns,
            sharded worker processes and the ``repro serve`` daemon.
        executor: ``"thread"`` (default) fans points out over a GIL-sharing
            thread pool; ``"process"`` shards them across worker processes
            (:mod:`repro.flow.shard`), each unpickling its own copy of the
            baselines at startup.  Both run the same prepare -> grouped
            solve -> finish core and produce records bitwise-identical to
            a serial run.  Each process worker runs its points through a
            graph over the on-disk tier of ``flow``'s store (a
            pass-through when that store is memory-only), so a
            disk-rooted artifact cache is shared by all workers and later
            runs.
        retry_policy: Per-point :class:`~repro.faults.RetryPolicy`.  The
            default never retries; a policy with ``max_attempts > 1``
            re-runs a point that raised a retryable exception, with
            deterministic exponential backoff.  Evaluation is pure, so a
            retried point that succeeds produces exactly the record a
            fault-free run would have.
        fail_fast: Abort the whole run on the first point that exhausts
            its retries (pre-quarantine behaviour).  The default records
            the failure as a ``failed_points`` metadata entry and lets the
            rest of the sweep complete.
        point_timeout_s: Wall-clock budget per phase attempt of a point
            (prepare, grouped solve, finish), on either executor.  Every
            attempt runs under a :func:`~repro.deadlines.deadline_scope`
            checked cooperatively inside the hot loops (multigrid V-cycles,
            placer passes, logic-sim cycles); an attempt that blows its
            budget raises :class:`~repro.deadlines.DeadlineExceeded`, which
            the retry policy classifies as retryable — so a hung point is
            retried and, on exhaustion, quarantined like any other failure
            instead of stalling the sweep.  With ``executor="process"`` the
            timeout additionally arms a parent-side watchdog that SIGKILLs
            a worker whose heartbeat (stamped whenever an attempt's
            deadline opens) goes stale — a non-cooperative hang.  ``None``
            (default) disables per-point deadlines.
    """

    def __init__(
        self,
        setups: Union[ExperimentSetup, Mapping[str, ExperimentSetup]],
        strategies: Sequence[StrategySpec] = DEFAULT_STRATEGIES,
        overheads: Sequence[float] = DEFAULT_OVERHEADS,
        analyze_timing: bool = False,
        cache: Optional[SolverCache] = None,
        name: str = "campaign",
        batch_solves: Optional[bool] = None,
        flow: Optional[FlowGraph] = None,
        result_store: Optional[ResultStore] = None,
        executor: str = "thread",
        retry_policy: Optional[RetryPolicy] = None,
        fail_fast: bool = False,
        point_timeout_s: Optional[float] = None,
    ) -> None:
        if isinstance(setups, ExperimentSetup):
            setups = {setups.workload.name: setups}
        if not setups:
            raise ValueError("campaign requires at least one setup")
        if executor not in EXECUTORS:
            raise ValueError(
                f"executor must be one of {EXECUTORS}, got {executor!r}"
            )
        if batch_solves is not None:
            warnings.warn(
                "Campaign(batch_solves=...) is deprecated and ignored: "
                "points sharing a die geometry are always solved as one batch",
                DeprecationWarning,
                stacklevel=2,
            )
        self.setups: Dict[str, ExperimentSetup] = dict(setups)
        self.strategies = tuple(resolve_strategy(spec).spec for spec in strategies)
        self.overheads = tuple(overheads)
        for overhead in self.overheads:
            check_area_overhead(overhead)
        self.analyze_timing = analyze_timing
        if flow is None:
            flow = FlowGraph.pass_through(cache)
        self.flow = flow
        self.cache = flow.solver_cache
        self.name = name
        self.result_store = result_store
        self.executor = executor
        self.retry_policy = retry_policy if retry_policy is not None else RetryPolicy()
        self.fail_fast = fail_fast
        if point_timeout_s is not None and point_timeout_s <= 0:
            raise ValueError(
                f"point_timeout_s must be > 0, got {point_timeout_s}"
            )
        self.point_timeout_s = point_timeout_s
        self._stop_event = threading.Event()
        self._workload_fingerprints: Dict[str, Tuple[str, str]] = {}
        self._counter_lock = threading.Lock()
        # This run's retries/timeouts/respawns, plus the solver-cache
        # lookups process workers made in caches of their own.
        self._faults: Counter = Counter()

    @property
    def points(self) -> List[CampaignPoint]:
        """The grid cells in canonical (workload, strategy, overhead) order."""
        return [
            CampaignPoint(workload=workload, strategy=strategy, overhead=overhead)
            for workload in self.setups
            for strategy in self.strategies
            for overhead in self.overheads
        ]

    def __len__(self) -> int:
        return len(self.setups) * len(self.strategies) * len(self.overheads)

    # -- result-store keys ---------------------------------------------------

    def _workload_fingerprint(self, workload: str) -> Tuple[str, str]:
        """``(setup digest, resolved solver method)`` of one workload.

        Computed once per workload: the method is resolved on the baseline
        grid, and every transformed grid of the same setup shares its node
        count (same ``nx * ny * nz``), so the ``"auto"`` heuristic resolves
        identically for all of the workload's points.
        """
        cached = self._workload_fingerprints.get(workload)
        if cached is not None:
            return cached
        setup = self.setups[workload]
        grid = grid_for_placement(
            setup.placement, package=setup.package,
            nx=setup.grid_nx, ny=setup.grid_ny,
        )
        fingerprint = (
            setup_digest(setup),
            resolve_thermal_method(self.cache.method, grid),
        )
        self._workload_fingerprints[workload] = fingerprint
        return fingerprint

    def result_key_for(self, point: CampaignPoint) -> str:
        """The :class:`~repro.flow.store.ResultStore` key of one grid point.

        Covers the point's baseline content, canonical strategy spec,
        overhead, *resolved* solver backend, active engine and the timing
        flag — everything that shapes its :class:`CampaignRecord`.
        """
        fingerprint, method = self._workload_fingerprint(point.workload)
        return result_key(
            fingerprint, point.strategy, point.overhead,
            method=method, engine=get_engine(),
            analyze_timing=self.analyze_timing,
        )

    def stop(self) -> None:
        """Ask a running campaign to stop at the next point or group boundary.

        Finished points keep their records (and are already published to
        the result store when one is attached); unfinished points are
        skipped and the result's metadata gets ``interrupted: True``.
        This is what the SIGINT handler installed by :meth:`run` calls.
        """
        self._stop_event.set()

    def _point_scope(self):
        """Deadline scope for one phase attempt (no-op without a timeout).

        A fresh deadline per attempt: a retry of a timed-out point gets
        the full budget again, so ``point_timeout_s x max_attempts`` bounds
        each phase of a pathological point.  Process workers override this
        to stamp their watchdog heartbeat.
        """
        if self.point_timeout_s is None:
            return nullcontext()
        return deadline_scope(Deadline.after(self.point_timeout_s))

    # -- retry / quarantine --------------------------------------------------

    def _count(self, **deltas: int) -> None:
        """Add to the run's counters (``retries``/``timeouts``/``respawns``,
        process workers' ``solver_hits``/``solver_misses``)."""
        with self._counter_lock:
            self._faults.update(deltas)

    def _retry_loop(self, token: str, attempt_fn):
        """Run ``attempt_fn(attempt)`` under the campaign's retry policy.

        Returns ``(value, error, attempts)``: on success ``error`` is
        ``None``; on exhaustion ``value`` is ``None`` and ``error`` is the
        final exception.  Backoff is deterministic (seeded on ``token``).
        """
        policy = self.retry_policy
        attempt = 0
        while True:
            try:
                return attempt_fn(attempt), None, attempt + 1
            except Exception as error:  # noqa: BLE001 - quarantine boundary
                attempts = attempt + 1
                if isinstance(error, DeadlineExceeded):
                    self._count(timeouts=1)
                if (
                    policy.classify(error)
                    and attempts < policy.max_attempts
                    and not self._stop_event.is_set()
                ):
                    self._count(retries=1)
                    delay = policy.delay_s(attempts, token=token)
                    logger.warning(
                        "%s failed on attempt %d/%d (%r); retrying in %.3fs",
                        token, attempts, policy.max_attempts, error, delay,
                    )
                    if delay > 0.0:
                        self._backoff(delay)
                    attempt += 1
                    continue
                return None, error, attempts

    def _backoff(self, delay: float) -> None:
        """Sleep before a retry; process workers override this to tell
        their watchdog that the pause is planned, not a hang."""
        time.sleep(delay)

    def _guarded_point(self, point: CampaignPoint, attempt_fn):
        """Retry ``attempt_fn(attempt)``; quarantine the point on exhaustion.

        Returns the attempt function's value, or a :class:`FailedPoint`
        (with ``fail_fast`` the final exception is re-raised instead).
        """
        token = f"{point.workload}:{point.strategy}:{point.overhead}"
        value, error, attempts = self._retry_loop(token, attempt_fn)
        if error is None:
            return value
        return self._quarantine(point, error, attempts)

    def _quarantine(self, point: CampaignPoint, error: Exception, attempts: int):
        """The :class:`FailedPoint` of an exhausted point (with ``fail_fast``
        the error is re-raised instead)."""
        if self.fail_fast:
            raise error
        logger.warning(
            "quarantining point %s after %d attempt(s): %r",
            point, attempts, error,
        )
        return FailedPoint(point=point, error=repr(error), attempts=attempts)

    # -- execution -----------------------------------------------------------

    def _prepare(
        self, point: CampaignPoint, attempt: int = 0
    ) -> Tuple[PreparedEvaluation, float]:
        with self._point_scope():
            inject(
                "point.evaluate",
                {
                    "workload": point.workload,
                    "strategy": point.strategy,
                    "overhead": point.overhead,
                    "attempt": attempt,
                },
            )
            start = time.perf_counter()
            prepared = prepare_evaluation(
                self.setups[point.workload], point.strategy, point.overhead,
                flow=self.flow,
            )
            return prepared, time.perf_counter() - start

    def _solve_groups(
        self, points: List[CampaignPoint], prepared: "List[PreparedEvaluation]"
    ) -> Tuple[List, List[float], Dict[int, "FailedPoint"], int]:
        """Solve every point's power map, batching points that share a solver.

        Points are grouped by the cache key of their transformed die
        geometry (the same key the :class:`SolverCache` uses, so a group is
        exactly the set of points that share one prepared solver) and each
        group runs through the graph's batched ``thermal`` stage, every
        lane warm-started from its workload's baseline temperature field.

        A group whose solve raises is retried under the campaign's policy;
        on exhaustion every point of the group is quarantined (returned in
        the third element, keyed by point position).  The fourth element
        is the number of solve groups.
        """
        groups: "OrderedDict[tuple, List[int]]" = OrderedDict()
        for index, prep in enumerate(prepared):
            groups.setdefault(self.cache.key_for(prep.grid), []).append(index)

        maps: List = [None] * len(points)
        solve_time = [0.0] * len(points)
        failed: Dict[int, FailedPoint] = {}
        for group_key, indices in groups.items():
            if self._stop_event.is_set():
                break
            start = time.perf_counter()

            def _solve_attempt(_attempt, indices=indices):
                # One per-point budget bounds the whole group solve: the
                # batched block does no more work per lane than a single
                # point's solve, so the group inherits the point deadline.
                with self._point_scope():
                    return self.flow.thermal_many(
                        [prepared[index].power_map for index in indices],
                        [prepared[index].grid for index in indices],
                        [prepared[index].setup.thermal_map for index in indices],
                    )

            solved, error, attempts = self._retry_loop(
                f"solve-group:{group_key}", _solve_attempt
            )
            if error is not None:
                for index in indices:
                    failed[index] = self._quarantine(points[index], error, attempts)
                continue
            elapsed = time.perf_counter() - start
            for lane, index in enumerate(indices):
                maps[index] = solved[lane].thermal_map
                solve_time[index] = elapsed / len(indices)
        return maps, solve_time, failed, len(groups)

    def _finish(
        self,
        index: int,
        total: int,
        point: CampaignPoint,
        prepared: PreparedEvaluation,
        new_map,
        elapsed_so_far: float,
    ) -> CampaignRecord:
        start = time.perf_counter()
        with self._point_scope():
            outcome = finish_evaluation(
                prepared, new_map, analyze_timing=self.analyze_timing, flow=self.flow
            )
        elapsed = elapsed_so_far + (time.perf_counter() - start)
        logger.info(
            "[%d/%d] %s %s @ %.1f%%: reduction %.2f%% in %.2fs",
            index + 1,
            total,
            point.workload,
            point.strategy,
            point.overhead * 100.0,
            outcome.temperature_reduction * 100.0,
            elapsed,
        )
        return CampaignRecord(point=point, outcome=outcome, elapsed_s=elapsed)

    def _execute(
        self,
        points: List[CampaignPoint],
        max_workers: int,
        keys: Optional[Sequence[str]] = None,
    ) -> Tuple[List, int]:
        """Three-phase execution: transform all points, solve by geometry
        group, then extract outcomes.  Both executors run points through
        here, and it is the only code that builds a record from a fresh
        outcome.

        With ``keys`` (aligned with ``points``) every record is published
        to the result store the moment its point finishes, so a crash
        loses only the points still in flight.

        Returns ``(entries, num_solve_groups)``: one entry per point (see
        below) and the number of grouped solves it took.

        Interruption-aware: a stop request skips the points not yet
        prepared, breaks out between solve groups, and leaves ``None`` in
        the slots of unfinished points (the caller drops them).  A point
        that exhausts its retries in any phase occupies its slot as a
        :class:`FailedPoint` instead of aborting the batch.
        """
        total = len(points)
        transformed = _map_indexed(
            lambda index, point: (
                None
                if self._stop_event.is_set()
                else self._guarded_point(
                    point,
                    lambda attempt, point=point: self._prepare(
                        point, attempt=attempt
                    ),
                )
            ),
            points,
            max_workers,
        )
        records: List = [None] * total
        live: List[int] = []
        for index, entry in enumerate(transformed):
            if isinstance(entry, FailedPoint):
                records[index] = entry
            elif entry is not None:
                live.append(index)
        live_points = [points[index] for index in live]
        prepared = [transformed[index][0] for index in live]
        prep_time = [transformed[index][1] for index in live]
        # ``prepared`` now owns the only references we need; dropping the
        # transform results lets each point's placement/solver state be
        # reclaimed as soon as its slot below is released.
        transformed = None

        maps, solve_time, solve_failed, num_groups = self._solve_groups(
            live_points, prepared
        )

        def _finish_and_release(pos: int, point: CampaignPoint):
            if pos in solve_failed:
                return solve_failed[pos]
            if maps[pos] is None or self._stop_event.is_set():
                return None
            record = self._guarded_point(
                point,
                lambda attempt: self._finish(
                    live[pos], total, point, prepared[pos], maps[pos],
                    prep_time[pos] + solve_time[pos],
                ),
            )
            if keys is not None and isinstance(record, CampaignRecord):
                self.result_store.put(keys[live[pos]], record)
            # Backpressure for huge served batches: a finished point's
            # prepared evaluation and thermal map are released immediately
            # instead of pinning the whole batch's peak until it returns.
            prepared[pos] = None
            maps[pos] = None
            return record

        finished = _map_indexed(_finish_and_release, live_points, max_workers)
        for pos, index in enumerate(live):
            records[index] = finished[pos]
        return records, num_groups

    def evaluate_points(
        self, points: Sequence[CampaignPoint], max_workers: Optional[int] = None
    ) -> Tuple[List, int]:
        """Evaluate an explicit point list (not the campaign's own grid).

        This is the batching entry the ``repro serve`` daemon uses: it
        collects points from *different client requests*, and this method
        groups them by transformed die geometry and solves each group as
        one warm-started multi-RHS block, regardless of which request each
        point came from.  Points must reference workloads present in
        ``setups``.  Nothing is published to the result store.

        Returns:
            ``(entries, num_solve_groups)``: one entry per point, in the
            given order — a :class:`CampaignRecord`, or a
            :class:`FailedPoint` for points that exhausted their retries
            (unless ``fail_fast``) — and the number of grouped solves.
        """
        points = list(points)
        for point in points:
            if point.workload not in self.setups:
                raise ValueError(f"unknown workload {point.workload!r}")
        if max_workers is None:
            max_workers = max(1, min(len(points) or 1, os.cpu_count() or 1))
        return self._execute(points, max_workers)

    def run(self, max_workers: Optional[int] = None) -> CampaignResult:
        """Execute every grid point and collect the records in grid order.

        With a ``result_store`` the grid is swept against the store first:
        stored points are reused verbatim and only the remainder executes,
        publishing each new record as it completes — which is what makes
        repeated sweeps incremental and interrupted sweeps resumable.

        When called from the main thread, a SIGINT handler is installed
        for the duration of the run: the first Ctrl-C stops at the next
        point or solve-group boundary, keeps every finished point (each
        already published to the store), and returns a partial result
        whose metadata carries ``interrupted: True`` (no exception is
        raised).  A rerun with the same store recomputes none of the
        finished points.

        Args:
            max_workers: Worker threads (or processes, with
                ``executor="process"``); ``1`` forces serial execution and
                ``None`` sizes the pool to the machine (one worker per CPU,
                at most one per point).  Records are returned in grid order
                either way, and — because the shared solver cache is keyed
                on exact geometry — parallel runs produce bitwise-identical
                outcomes to serial ones.

        Returns:
            The :class:`CampaignResult`.
        """
        if max_workers is not None and max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        points = self.points
        total = len(points)
        if max_workers is None:
            max_workers = max(1, min(total, os.cpu_count() or 1))
        start = time.perf_counter()
        logger.info(
            "campaign %r: %d points (%d workload(s) x %d strategies x %d overheads)",
            self.name, total, len(self.setups), len(self.strategies), len(self.overheads),
        )

        self._stop_event.clear()
        with self._counter_lock:
            self._faults.clear()

        # Fast crash-recovery pass: clear the tmp debris a hard-killed
        # predecessor left behind, so this run's resume logic starts from a
        # clean store.
        if self.result_store is not None and self.result_store.root is not None:
            recover_at_startup(self.result_store.root, f"campaign {self.name!r}")

        # Resume sweep: reuse every point the result store already holds.
        stored: Dict[int, CampaignRecord] = {}
        keys: Optional[List[str]] = None
        if self.result_store is not None:
            keys = [self.result_key_for(point) for point in points]
            for index, key in enumerate(keys):
                record = self.result_store.get(key)
                if record is not None:
                    stored[index] = record
        pending = [index for index in range(total) if index not in stored]
        pending_points = [points[index] for index in pending]
        if stored:
            logger.info(
                "campaign %r: %d/%d points already in result store",
                self.name, len(stored), total,
            )

        # SIGTERM (container/orchestrator shutdown) gets the same graceful
        # treatment as Ctrl-C: finish in-flight points, flush to the store,
        # return a partial result marked ``interrupted``.
        previous_handlers: List[Tuple[int, object]] = []
        if threading.current_thread() is threading.main_thread():

            def _on_signal(signum, frame):
                logger.warning(
                    "campaign %r: %s received - flushing finished "
                    "points and stopping",
                    self.name, signal.Signals(signum).name,
                )
                self.stop()

            for signum in (signal.SIGINT, signal.SIGTERM):
                previous_handlers.append(
                    (signum, signal.signal(signum, _on_signal))
                )

        execute = self._execute
        if self.executor == "process":
            from .shard import run_sharded

            execute = functools.partial(run_sharded, self)
        try:
            computed, num_groups = execute(
                pending_points,
                max_workers,
                keys=[keys[i] for i in pending] if keys is not None else None,
            )
        finally:
            for signum, handler in previous_handlers:
                signal.signal(signum, handler)

        interrupted = self._stop_event.is_set()

        records: List[Optional[CampaignRecord]] = [None] * total
        for index, record in stored.items():
            records[index] = record
        num_evaluated = 0
        failed: List[FailedPoint] = []
        failed_indices: set = set()
        for pos, entry in enumerate(computed):
            if entry is None:
                continue
            index = pending[pos]
            if isinstance(entry, FailedPoint):
                # Quarantined: the slot stays empty and nothing is
                # published, so a rerun against the store retries it.
                failed.append(entry)
                failed_indices.add(index)
                continue
            records[index] = entry
            num_evaluated += 1

        elapsed = time.perf_counter() - start
        logger.info("campaign %r: finished in %.2fs", self.name, elapsed)
        missing = [
            points[i]
            for i, r in enumerate(records)
            if r is None and i not in failed_indices
        ]
        if missing and not interrupted:
            # A worker failure either re-raises (fail_fast) or occupies
            # its slot as a FailedPoint, so every slot must be accounted
            # for by now; a hole would mean a scheduling bug.
            raise RuntimeError(
                f"campaign left {len(missing)} points unevaluated: {missing}"
            )
        if interrupted:
            logger.warning(
                "campaign %r: interrupted - %d/%d points finished "
                "(rerun with the same result store to resume)",
                self.name, total - len(missing) - len(failed), total,
            )
        if failed:
            logger.warning(
                "campaign %r: %d point(s) quarantined after exhausting "
                "retries (see result metadata 'failed_points')",
                self.name, len(failed),
            )
        final = [record for record in records if record is not None]
        with self._counter_lock:
            counts = self._faults.copy()
        solver = self.cache.stats()
        solver = replace(
            solver,
            hits=solver.hits + counts["solver_hits"],
            misses=solver.misses + counts["solver_misses"],
        )
        metadata: Dict[str, object] = {
            "name": self.name,
            "workloads": list(self.setups),
            "strategies": list(self.strategies),
            "overheads": list(self.overheads),
            "analyze_timing": self.analyze_timing,
            "num_points": total,
            "elapsed_s": elapsed,
            "solver_cache": solver.as_dict(),
            "thermal_solver": self.cache.method,
            "num_solve_groups": num_groups,
            "executor": self.executor,
            "interrupted": interrupted,
            "retries": counts["retries"],
            "respawns": counts["respawns"],
            "timeouts": counts["timeouts"],
            "point_timeout_s": self.point_timeout_s,
            "failed_points": [entry.to_dict() for entry in failed],
            "num_failed": len(failed),
            "degraded_points": sum(1 for record in final if record.degraded),
        }
        if self.result_store is not None:
            metadata["result_store"] = self.result_store.stats().as_dict()
            metadata["store_hits"] = len(stored)
            metadata["num_evaluated"] = num_evaluated
        metadata["flow_stages"] = self.flow.stats()
        return CampaignResult(records=final, metadata=metadata)


def concentrated_hotspot_campaign(
    setup: ExperimentSetup,
    row_counts: Sequence[int] = (20, 40),
    **campaign_kwargs,
) -> Campaign:
    """The Table I grid: Default versus ERI at matched row counts.

    Every row count becomes the overhead ``count / num_rows`` of the
    baseline core, at which ERI inserts exactly ``count`` rows — the
    paper's pairing of rows 1/3 and 2/4 — and Default relaxes the
    utilization by the same fraction.  ``campaign_kwargs`` go to
    :class:`Campaign` (``analyze_timing``, ``flow``, ``executor``, ...).
    """
    base_rows = setup.placement.floorplan.num_rows
    campaign_kwargs.setdefault("name", "table1")
    return Campaign(
        setup, ("default", "eri"), [count / base_rows for count in row_counts],
        **campaign_kwargs,
    )


def concentrated_hotspot_table(
    setup: ExperimentSetup,
    row_counts: Sequence[int] = (20, 40),
    analyze_timing: bool = False,
    cache: Optional[SolverCache] = None,
) -> List[StrategyOutcome]:
    """Reproduce Table I: Default versus ERI on a concentrated hotspot.

    Args:
        setup: Baseline prepared with the concentrated-hotspot workload.
        row_counts: Numbers of rows to insert (paper: 20 and 40).
        analyze_timing: Also compute timing overheads.
        cache: Solver cache to share; a fresh one is created when omitted.

    Returns:
        Outcomes ordered as in the paper's table: all Default rows first,
        then the ERI rows.
    """
    return concentrated_hotspot_campaign(
        setup, row_counts, analyze_timing=analyze_timing, cache=cache
    ).run().outcomes()
