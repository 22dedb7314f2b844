"""Process-sharded campaign execution.

The thread executor scales until the Python-level work between the
GIL-releasing SciPy kernels saturates one interpreter; past that point the
campaign needs real processes.  The parent pickles the prepared baselines
once per run and every worker unpickles its own copy at startup (a worker
is never handed the parent's live objects: a forked child would inherit
locks held by the parent's threads).  A task is then ``(slot, point,
result key, attempt)``.

Each worker runs its tasks through a worker-local
:class:`~repro.flow.runner.Campaign` and its executor core
(``Campaign._execute``: prepare, grouped solve, finish, with the same
retry loop, quarantine and per-phase deadlines as the thread executor), so
a process-run record is built by the code that builds a thread-run one and
is bitwise-identical to it.  The worker's graph has its own
:class:`SolverCache` (SuperLU handles cannot cross processes) and an
:class:`~repro.flow.store.ArtifactStore` over the on-disk tier of the
campaign's artifact store, if any — a disk-rooted artifact cache, thermal
lanes included, is shared by all workers and later runs; a memory-only one
makes the worker graph a pass-through.  Every record is published once:
by the worker when the result store has an on-disk root (so progress
survives a hard kill of the parent), by the parent when it is memory-only.

Fault tolerance: each worker advertises its in-flight slot through a
lock-free shared array, written before it starts evaluating so it
survives even an ``os._exit``, and stamps a heartbeat whenever a
point-attempt deadline opens.  The parent requeues a dead worker's point
and spawns a replacement, up to a respawn budget, and its watchdog
SIGKILLs a worker whose heartbeat outran the deadline.  Workers ignore
SIGINT: a Ctrl-C is handled by the parent campaign (stop dispatching,
drain in-flight points, return partial).
"""

from __future__ import annotations

import logging
import multiprocessing as mp
import os
import pickle
import queue as queue_module
import signal
import time
import traceback
from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple

from .. import faults
from ..engine import get_engine, use_engine
from .cache import SolverCache
from .graph import FlowGraph
from .runner import Campaign, CampaignRecord, FailedPoint
from .store import ArtifactStore

logger = logging.getLogger(__name__)

#: A worker's ``current slot`` value when it is idle.
_IDLE = -1

#: Extra slack the parent-side watchdog grants past ``point_timeout_s``
#: before SIGKILLing a worker with a stale heartbeat: the cooperative
#: deadline inside the worker should win whenever the hang is pollable;
#: the watchdog is the backstop for truly stuck (non-cooperative) code.
_WATCHDOG_GRACE_S = 2.0

#: How many times a point whose worker *died* is requeued before it is
#: quarantined (a deterministically crashing point would otherwise chew
#: through the whole respawn budget).
_MAX_CRASHES_PER_POINT = 3

class _WorkerCampaign(Campaign):
    """A worker-local campaign that stamps the watchdog heartbeat whenever
    a point-attempt deadline opens, so per-phase retries never look stale,
    and dates it past a retry's backoff, so the pause is not a hang."""

    def __init__(self, heartbeat, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._heartbeat = heartbeat
        self._solver_taken: Counter = Counter()

    def _point_scope(self):
        self._heartbeat()
        return super()._point_scope()

    def _backoff(self, delay: float) -> None:
        self._heartbeat(ahead_s=delay)
        super()._backoff(delay)


def _take_counts(campaign: _WorkerCampaign) -> Tuple[Counter, Counter, Counter]:
    """The worker campaign's run counters and its graph's stage counts since
    the last call, reset for the next task.  The run counters include the
    lookups of the worker's own solver cache (``solver_hits`` /
    ``solver_misses``), which the parent adds to its ``solver_cache``."""
    stats = campaign.cache.stats()
    solver = Counter(solver_hits=stats.hits, solver_misses=stats.misses)
    campaign._count(**(solver - campaign._solver_taken))
    campaign._solver_taken = solver
    counters = (campaign._faults, campaign.flow.stage_executions, campaign.flow.stage_hits)
    taken = tuple(counter.copy() for counter in counters)
    for counter in counters:
        counter.clear()
    return taken


def _worker_main(
    pickled_setups, config, task_queue, result_queue, current, heartbeats,
    worker_index,
) -> None:
    """One shard worker: unpickle the baselines, run tasks until the sentinel.

    ``current[worker_index]`` mirrors the slot being evaluated (``_IDLE``
    between tasks) and ``heartbeats[worker_index]`` the monotonic instant
    the task started or its latest attempt deadline opened (or the end of a
    retry backoff in progress).  Both live in shared memory written
    directly — not through a queue's feeder thread — so the parent can
    recover a dead worker's in-flight point even after an abrupt
    ``os._exit``, and its watchdog can SIGKILL a worker that stops making
    progress.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    plan = config.get("fault_plan")
    if plan is not None:
        faults.activate(plan)
    try:
        setups = pickle.loads(pickled_setups)
    except Exception:
        result_queue.put(("fatal", None, traceback.format_exc()))
        return

    def beat(ahead_s: float = 0.0) -> None:
        heartbeats[worker_index] = time.monotonic() + ahead_s

    campaign = _WorkerCampaign(
        beat, setups, strategies=(), overheads=(),
        flow=FlowGraph(
            store=ArtifactStore(root=config["artifact_root"], maxsize=0),
            solver_cache=SolverCache(method=config["method"]),
        ),
        **config["campaign"],
    )
    with use_engine(config["engine"]):
        while True:
            task = task_queue.get()
            if task is None:
                break
            slot, point, key, attempt = task
            beat()
            current[worker_index] = slot
            try:
                faults.inject(
                    "shard.worker",
                    {
                        "workload": point.workload,
                        "strategy": point.strategy,
                        "overhead": point.overhead,
                        "attempt": attempt,
                    },
                )
                entries, groups = campaign._execute(
                    [point], 1, keys=[key] if key is not None else None
                )
                result_queue.put(
                    ("done", slot, (entries[0], groups, _take_counts(campaign)))
                )
            except Exception:
                _take_counts(campaign)  # the failed task's counts go with it
                result_queue.put(("error", slot, traceback.format_exc()))
            finally:
                current[worker_index] = _IDLE


def run_sharded(
    campaign: Campaign,
    points: Sequence,
    max_workers: Optional[int] = None,
    keys: Optional[Sequence[str]] = None,
    max_respawns: Optional[int] = None,
) -> Tuple[List, int]:
    """The process-executor counterpart of ``Campaign._execute``.

    The parent dispatches one-point tasks over a bounded window (so a stop
    request takes effect within one window, not after the whole grid has
    been queued) and collects each point's entry as workers finish it.
    Retries, quarantine and per-phase deadlines happen inside each
    worker's campaign; the parent handles only what a worker cannot.  A
    worker that *dies* gets its in-flight point requeued and — budget
    permitting (``max_respawns``, default ``max_workers``) — a replacement
    spawned; a point that keeps killing its worker is quarantined (or, with
    the campaign's ``fail_fast``, aborts the run).  With ``keys`` (aligned
    with ``points``) every record is published to the campaign's result
    store once.  Worker counts (retries, timeouts, stage executions/hits)
    and the parent's respawns and watchdog kills are added to
    ``campaign``'s counters.

    Returns:
        ``(entries, num_solve_groups)`` as ``Campaign._execute`` does:
        per point a ``CampaignRecord``, a
        :class:`~repro.flow.runner.FailedPoint`, or ``None`` when skipped
        after a stop request; and the workers' summed solve-group count.

    Raises:
        RuntimeError: With the campaign's ``fail_fast``, the first point
            failure; always when workers fail to start or every worker
            dies with the respawn budget exhausted and ``fail_fast`` set.
    """
    total = len(points)
    records: List = [None] * total
    num_groups = 0
    if total == 0:
        return records, num_groups
    stop_event = campaign._stop_event
    if max_workers is None:
        max_workers = os.cpu_count() or 1
    max_workers = max(1, min(max_workers, total))
    if max_respawns is None:
        max_respawns = max_workers
    fail_fast = campaign.fail_fast
    point_timeout_s = campaign.point_timeout_s
    store = campaign.result_store if keys is not None else None
    # Workers can reach only a store's disk tier; a memory-only store gets
    # its records from the parent.
    workers_publish = store is not None and store.root is not None

    context = mp.get_context()
    pickled_setups = pickle.dumps(campaign.setups, protocol=pickle.HIGHEST_PROTOCOL)
    task_queue = context.Queue()
    result_queue = context.Queue()
    config = {
        "engine": get_engine(),
        "method": campaign.cache.method,
        "artifact_root": campaign.flow.store.root,
        # Keyword arguments of the worker-local campaign.
        "campaign": dict(
            analyze_timing=campaign.analyze_timing,
            result_store=store if workers_publish else None,
            retry_policy=campaign.retry_policy,
            fail_fast=fail_fast,
            point_timeout_s=point_timeout_s,
        ),
        # Each worker gets a copy of the active plan, so `times=` counters
        # are per-process; cross-process-deterministic plans match on the
        # task context (attempt number) instead.
        "fault_plan": faults.get_active(),
    }
    # One shared slot per worker ever spawned (originals + respawns); a
    # worker writes its in-flight slot there directly, surviving os._exit.
    # The parallel heartbeat array holds the monotonic instant the worker
    # last started a task or opened an attempt deadline (or the end of its
    # retry backoff), which is what the watchdog judges staleness against
    # (CLOCK_MONOTONIC is system-wide, so parent and workers compare).
    current = context.Array("i", max_workers + max_respawns, lock=False)
    heartbeats = context.Array("d", max_workers + max_respawns, lock=False)
    for index in range(len(current)):
        current[index] = _IDLE
        heartbeats[index] = 0.0

    def spawn(index: int):
        worker = context.Process(
            target=_worker_main,
            args=(
                pickled_setups, config, task_queue, result_queue,
                current, heartbeats, index,
            ),
            daemon=True,
            name=f"repro-shard-{index}",
        )
        worker.start()
        return worker

    attempts: Dict[int, int] = {}
    workers: Dict[int, mp.process.BaseProcess] = {}
    error: Optional[RuntimeError] = None

    def dispatch(slot: int) -> None:
        task_queue.put(
            (
                slot,
                points[slot],
                keys[slot] if workers_publish else None,
                attempts.setdefault(slot, 0),
            )
        )

    def quarantine(slot: int, message: str, tried: int) -> None:
        nonlocal error
        if fail_fast:
            if error is None:
                error = RuntimeError(
                    f"shard worker failed on point {points[slot]}:\n{message}"
                )
            return
        logger.warning(
            "quarantining point %s after %d attempt(s): %s",
            points[slot], tried, message.strip().splitlines()[-1] if message.strip() else message,
        )
        records[slot] = FailedPoint(
            point=points[slot], error=message, attempts=tried
        )

    def kill_stale_workers() -> None:
        """Watchdog: SIGKILL workers whose heartbeat outran the deadline.

        This is the enforcement path the dead-worker reaper cannot cover —
        a worker stuck in non-cooperative native code never raises and
        never dies on its own.  The kill turns it into an ordinary dead
        worker, so the existing requeue/respawn/quarantine machinery
        absorbs the point.
        """
        if point_timeout_s is None:
            return
        stale_after = point_timeout_s + _WATCHDOG_GRACE_S
        now = time.monotonic()
        for index, worker in list(workers.items()):
            slot = current[index]
            beat = heartbeats[index]
            if slot == _IDLE or beat <= 0.0 or not worker.is_alive():
                continue
            if now - beat > stale_after:
                campaign._count(timeouts=1)
                logger.warning(
                    "watchdog: %s stuck on point %s for %.1fs "
                    "(deadline %.1fs); sending SIGKILL",
                    worker.name, points[slot], now - beat, point_timeout_s,
                )
                worker.kill()
                worker.join(timeout=5.0)

    try:
        for index in range(max_workers):
            workers[index] = spawn(index)
        next_worker_index = max_workers
        respawns_left = max_respawns

        next_slot = 0
        in_flight = 0
        window = 2 * max_workers
        last_watchdog = time.monotonic()
        while True:
            # Run the watchdog even when results are flowing steadily (the
            # queue.Empty branch below would otherwise be starved by busy
            # healthy workers while one worker sits stuck).
            if (
                point_timeout_s is not None
                and time.monotonic() - last_watchdog > 1.0
            ):
                kill_stale_workers()
                last_watchdog = time.monotonic()
            while (
                next_slot < total
                and in_flight < window
                and error is None
                and not stop_event.is_set()
            ):
                dispatch(next_slot)
                next_slot += 1
                in_flight += 1
            if in_flight == 0:
                break
            try:
                kind, slot, payload = result_queue.get(timeout=1.0)
            except queue_module.Empty:
                # Watchdog first: a stuck worker becomes a dead worker,
                # then the reaper below recovers its point.
                kill_stale_workers()
                # Reap dead workers: requeue their in-flight points and
                # spawn replacements while the budget lasts.
                dead = [
                    index
                    for index, worker in workers.items()
                    if not worker.is_alive()
                ]
                for index in dead:
                    worker = workers.pop(index)
                    lost = current[index]
                    logger.warning(
                        "shard worker %s died (exit code %s)",
                        worker.name, worker.exitcode,
                    )
                    if lost != _IDLE and records[lost] is None:
                        attempts[lost] = attempts.get(lost, 0) + 1
                        if attempts[lost] < _MAX_CRASHES_PER_POINT:
                            logger.warning(
                                "requeueing point %s lost to the dead worker",
                                points[lost],
                            )
                            dispatch(lost)
                        else:
                            quarantine(
                                lost,
                                f"shard worker died evaluating the point "
                                f"{attempts[lost]} times",
                                attempts[lost],
                            )
                            in_flight -= 1
                    if respawns_left > 0 and error is None and not stop_event.is_set():
                        respawns_left -= 1
                        campaign._count(respawns=1)
                        workers[next_worker_index] = spawn(next_worker_index)
                        next_worker_index += 1
                if not workers:
                    # No live workers and nothing to replace them with:
                    # everything still outstanding is undeliverable.
                    message = "all shard workers died and the respawn budget is exhausted"
                    if error is None and fail_fast:
                        error = RuntimeError(
                            f"{message} with {in_flight} points in flight"
                        )
                    if error is not None:
                        raise error
                    for slot in range(next_slot):
                        if records[slot] is None:
                            quarantine(slot, message, attempts.get(slot, 0) + 1)
                    stop_event.set()  # undispatched slots count as skipped
                    break
                continue
            if kind == "done":
                entry, groups, (fault_counts, executions, hits) = payload
                records[slot] = entry
                num_groups += groups
                campaign._count(**fault_counts)
                campaign.flow.stage_executions.update(executions)
                campaign.flow.stage_hits.update(hits)
                if store is not None and not workers_publish and isinstance(
                    entry, CampaignRecord
                ):
                    store.put(keys[slot], entry)
                in_flight -= 1
            elif kind == "error":
                quarantine(slot, payload, attempts.get(slot, 0) + 1)
                in_flight -= 1
            else:  # fatal: a worker died before taking any task
                if error is None:
                    error = RuntimeError(f"shard worker failed to start:\n{payload}")
        if error is not None:
            raise error
    finally:
        for _worker in workers.values():
            try:
                task_queue.put(None)
            except (OSError, ValueError):
                break
        for worker in workers.values():
            worker.join(timeout=10.0)
        for worker in workers.values():
            if worker.is_alive():
                worker.terminate()
                worker.join(timeout=5.0)
        task_queue.close()
        result_queue.close()
    return records, num_groups


__all__ = ["run_sharded"]
