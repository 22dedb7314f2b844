"""Process-sharded campaign execution over shared-memory baselines.

The thread executor scales until the Python-level work between the
GIL-releasing SciPy kernels saturates one interpreter; past that point the
campaign needs real processes.  The naive way — pickling each point's
:class:`~repro.flow.experiment.ExperimentSetup` into every worker — ships
the full baseline (netlist, placement, power report, temperature fields)
per task.  This module ships it once, and the bulky parts not at all:

* The baseline's numeric payloads — the binned power map, the solved
  temperature field, the warm-start rise vector, the per-cell power
  vectors — are copied into ``multiprocessing.shared_memory`` segments.
  Every worker maps the same physical pages read-only; nothing is pickled
  per task and memory stays O(1) in the worker count.
* The structural skeleton (netlist graph, placement rows, package stack)
  is pickled exactly once per worker at startup, with the array slots
  stripped; workers re-attach the shared segments into the empty slots.
* A task is then six scalars: ``(slot, workload, strategy spec,
  overhead, result key, attempt)``.

Workers evaluate whole points through a private
:class:`~repro.flow.graph.FlowGraph`: its :class:`SolverCache` is the
worker's own (factorised solvers hold SuperLU handles and cannot cross
processes) and its :class:`~repro.flow.store.ArtifactStore` keeps nothing
in memory but attaches to the on-disk tier of the campaign's artifact
store, if it has one — so a disk-rooted artifact cache is shared by all
workers (and by later runs), while a memory-only one makes the worker
graph a hash-free pass-through.  Workers stream records back over a result
queue; with a disk-rooted
:class:`~repro.flow.store.ResultStore` attached each worker also publishes
every record as it completes, so progress survives even a hard kill of
the parent.  Evaluation is deterministic — identical inputs, identical
NumPy/SciPy operations — so sharded records are bitwise-identical to the
serial and threaded paths, which ``tests/test_shard.py`` asserts.

Fault tolerance: each worker advertises its in-flight slot through a
lock-free shared array (written *before* it starts evaluating, so the
information survives even an ``os._exit`` mid-solve).  When the parent
notices a dead worker it requeues that worker's in-flight point and
spawns a replacement, up to a respawn budget; a point whose evaluation
*raises* is retried under the campaign's
:class:`~repro.faults.RetryPolicy` and quarantined as a
:class:`~repro.flow.runner.FailedPoint` on exhaustion (or re-raised with
``fail_fast``).  Requeued and retried points re-run the same pure
evaluation, so surviving records stay bitwise-identical to a fault-free
run.

Workers ignore SIGINT: a Ctrl-C is handled by the parent campaign's
handler (stop dispatching, drain in-flight points, flush, return partial),
never by tearing workers down mid-solve.
"""

from __future__ import annotations

import logging
import multiprocessing as mp
import os
import pickle
import queue as queue_module
import signal
import threading
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from multiprocessing import shared_memory
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import faults
from ..deadlines import Deadline, DeadlineExceeded, deadline_scope
from ..engine import get_engine, use_engine
from .cache import SolverCache
from .graph import FlowGraph
from .store import ArtifactStore, ResultStore

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

#: ``(owner attribute, array attribute)`` slots of an ``ExperimentSetup``
#: whose ndarray payloads travel via shared memory instead of the pickled
#: skeleton.  Missing or non-array values (e.g. a dict-backed power report,
#: a ``None`` warm-start vector) simply stay in the skeleton.
_SHARED_SLOTS: Tuple[Tuple[str, str], ...] = (
    ("power_map", "power_w"),
    ("thermal_map", "temperatures"),
    ("thermal_map", "grid_rises"),
    ("thermal_map", "full_field"),
    ("power", "_switching"),
    ("power", "_internal"),
    ("power", "_leakage"),
    ("power", "_total"),
)

#: One stripped array slot: (owner attr, array attr, segment name, shape,
#: dtype string).
_SlotSpec = Tuple[str, str, str, Tuple[int, ...], str]


def pack_setups(setups: Dict[str, object]):
    """Strip the baselines' arrays into shared memory and pickle the rest.

    Returns:
        ``(segments, skeleton, specs)`` — the owned
        :class:`~multiprocessing.shared_memory.SharedMemory` segments (the
        caller must close and unlink them when the run ends), the pickled
        array-free setups dict, and the per-workload slot specs workers
        use to re-attach.  The live setups are restored before returning.
    """
    segments: List[shared_memory.SharedMemory] = []
    specs: Dict[str, List[_SlotSpec]] = {}
    saved: List[Tuple[object, str, object]] = []
    try:
        for workload, setup in setups.items():
            entries: List[_SlotSpec] = []
            for owner_attr, array_attr in _SHARED_SLOTS:
                owner = getattr(setup, owner_attr)
                value = getattr(owner, array_attr, None)
                if not isinstance(value, np.ndarray) or value.size == 0:
                    continue
                array = np.ascontiguousarray(value)
                segment = shared_memory.SharedMemory(create=True, size=array.nbytes)
                segments.append(segment)
                view = np.ndarray(array.shape, dtype=array.dtype, buffer=segment.buf)
                view[...] = array
                entries.append(
                    (owner_attr, array_attr, segment.name, array.shape, array.dtype.str)
                )
                saved.append((owner, array_attr, value))
                setattr(owner, array_attr, None)
            specs[workload] = entries
        skeleton = pickle.dumps(setups, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception:
        for segment in segments:
            try:
                segment.close()
                segment.unlink()
            except OSError:
                pass
        raise
    finally:
        for owner, array_attr, value in saved:
            setattr(owner, array_attr, value)
    return segments, skeleton, specs


def attach_setups(skeleton: bytes, specs: Dict[str, List[_SlotSpec]]):
    """Worker-side inverse of :func:`pack_setups`.

    Returns:
        ``(setups, segments)`` — the reconstructed setups dict, whose array
        slots are read-only views over the parent's shared segments, and
        the attached segments (closed by the worker when it exits).
    """
    setups = pickle.loads(skeleton)
    segments: List[shared_memory.SharedMemory] = []
    for workload, entries in specs.items():
        setup = setups[workload]
        for owner_attr, array_attr, name, shape, dtype in entries:
            # Attaching re-registers the name with the (fork- or spawn-
            # inherited, shared) resource tracker; that is idempotent, and
            # the parent's unlink() removes it exactly once — so no
            # explicit unregister here, which would double-remove.
            segment = shared_memory.SharedMemory(name=name)
            segments.append(segment)
            view = np.ndarray(shape, dtype=np.dtype(dtype), buffer=segment.buf)
            view.flags.writeable = False
            setattr(getattr(setup, owner_attr), array_attr, view)
    return setups, segments


def _worker_main(
    skeleton, specs, config, task_queue, result_queue, current, heartbeats,
    worker_index,
) -> None:
    """One shard worker: attach baselines, evaluate tasks until sentinel.

    ``current[worker_index]`` mirrors the slot being evaluated (``_IDLE``
    between tasks) and ``heartbeats[worker_index]`` the monotonic instant
    the task started.  Both live in shared memory written directly — not
    through a queue's feeder thread — so the parent can recover a dead
    worker's in-flight point even after an abrupt ``os._exit``, and its
    watchdog can SIGKILL a worker that stops making progress.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    plan = config.get("fault_plan")
    if plan is not None:
        faults.activate(plan)
    try:
        setups, segments = attach_setups(skeleton, specs)
    except Exception:
        result_queue.put(("fatal", None, traceback.format_exc()))
        return
    # Deferred so the module (and its workers) never import the runner at
    # the top level — runner imports shard, not the other way round.
    from .runner import CampaignPoint, CampaignRecord
    from .experiment import evaluate_strategy

    store: Optional[ResultStore] = config["store"]
    policy = config["retry_policy"]
    timeout = config.get("point_timeout_s")
    flow = FlowGraph(
        store=ArtifactStore(root=config["artifact_root"], maxsize=0),
        solver_cache=SolverCache(method=config["method"]),
    )
    try:
        with use_engine(config["engine"]):
            while True:
                task = task_queue.get()
                if task is None:
                    break
                slot, workload, strategy, overhead, key, attempt = task
                heartbeats[worker_index] = time.monotonic()
                current[worker_index] = slot
                try:
                    # Cooperative per-attempt deadline: a pollable hang
                    # raises DeadlineExceeded here; only a truly stuck
                    # worker needs the parent's SIGKILL watchdog.
                    scope = (
                        deadline_scope(Deadline.after(timeout))
                        if timeout is not None
                        else nullcontext()
                    )
                    with scope:
                        context = {
                            "workload": workload,
                            "strategy": strategy,
                            "overhead": overhead,
                            "attempt": attempt,
                        }
                        faults.inject("shard.worker", context)
                        faults.inject("point.evaluate", context)
                        start = time.perf_counter()
                        outcome = evaluate_strategy(
                            setups[workload],
                            strategy,
                            overhead,
                            analyze_timing=config["analyze_timing"],
                            flow=flow,
                        )
                    record = CampaignRecord(
                        point=CampaignPoint(
                            workload=workload, strategy=strategy, overhead=overhead
                        ),
                        outcome=outcome,
                        elapsed_s=time.perf_counter() - start,
                    )
                    if store is not None and store.root is not None and key is not None:
                        # Publish from the worker too: completed points are
                        # durable even if the parent is killed outright.
                        store.put(key, record)
                    result_queue.put(("ok", slot, record))
                except Exception as error:
                    # The parent owns retry/quarantine decisions; report
                    # the failure with its retryability classification
                    # (and whether it was a blown deadline, for counters).
                    result_queue.put(
                        (
                            "error",
                            slot,
                            (
                                traceback.format_exc(),
                                policy.classify(error),
                                isinstance(error, DeadlineExceeded),
                            ),
                        )
                    )
                finally:
                    current[worker_index] = _IDLE
    finally:
        for segment in segments:
            try:
                segment.close()
            except OSError:
                pass


@dataclass
class ShardRun:
    """What :func:`run_sharded` hands back to the campaign.

    Attributes:
        records: Aligned with the input points: a ``CampaignRecord``, a
            :class:`~repro.flow.runner.FailedPoint` for quarantined
            points, or ``None`` for slots skipped after a stop request.
        retries: Evaluation errors that were requeued under the policy.
        respawns: Replacement workers spawned for dead ones.
        timeouts: Attempts lost to a blown point deadline — cooperative
            (the worker raised ``DeadlineExceeded``) or enforced (the
            watchdog SIGKILLed a stale-heartbeat worker).
    """

    records: List = field(default_factory=list)
    retries: int = 0
    respawns: int = 0
    timeouts: int = 0


def run_sharded(
    campaign,
    points: Sequence,
    keys: Optional[Sequence[Optional[str]]] = None,
    max_workers: Optional[int] = None,
    stop_event: Optional[threading.Event] = None,
    max_respawns: Optional[int] = None,
) -> ShardRun:
    """Evaluate campaign points across worker processes.

    The parent dispatches point tasks over a bounded window (so a stop
    request takes effect within one window, not after the whole grid has
    been queued) and collects records as workers finish them; slots whose
    points were skipped after a stop request stay ``None``.

    A worker that raises gets its point retried under the campaign's
    :class:`~repro.faults.RetryPolicy`; a worker that *dies* gets its
    in-flight point requeued and — budget permitting — a replacement
    worker spawned.  Points that exhaust either budget are quarantined as
    :class:`~repro.flow.runner.FailedPoint` entries (or, with the
    campaign's ``fail_fast``, abort the run).

    Args:
        campaign: The owning :class:`~repro.flow.runner.Campaign` (supplies
            setups, solver method, artifact-store root, timing flag, result
            store, retry policy and fail-fast flag).
        points: The grid points to evaluate (typically the not-yet-stored
            remainder of the grid).
        keys: Optional per-point result-store keys, aligned with
            ``points``; workers publish under these as they finish.
        max_workers: Worker process count (default: one per CPU, at most
            one per point).
        stop_event: Graceful-stop flag shared with the campaign's SIGINT
            handler.
        max_respawns: Replacement-worker budget (default: ``max_workers``).

    Returns:
        A :class:`ShardRun` with per-point results and fault counters.

    Raises:
        RuntimeError: With the campaign's ``fail_fast``, the first point
            failure; always when workers fail to start or every worker
            dies with the respawn budget exhausted and ``fail_fast`` set.
    """
    total = len(points)
    run = ShardRun(records=[None] * total)
    if total == 0:
        return run
    if stop_event is None:
        stop_event = threading.Event()
    if max_workers is None:
        max_workers = os.cpu_count() or 1
    max_workers = max(1, min(max_workers, total))
    if max_respawns is None:
        max_respawns = max_workers
    fail_fast = bool(getattr(campaign, "fail_fast", False))
    policy = campaign.retry_policy

    context = mp.get_context()
    segments, skeleton, specs = pack_setups(campaign.setups)
    task_queue = context.Queue()
    result_queue = context.Queue()
    config = {
        "engine": get_engine(),
        "method": campaign.cache.method,
        "artifact_root": campaign.flow.store.root,
        "analyze_timing": campaign.analyze_timing,
        "store": campaign.result_store,
        "retry_policy": policy,
        "point_timeout_s": getattr(campaign, "point_timeout_s", None),
        # Each worker gets a copy of the active plan, so `times=` counters
        # are per-process; cross-process-deterministic plans match on the
        # task context (attempt number) instead.
        "fault_plan": faults.get_active(),
    }
    point_timeout_s = config["point_timeout_s"]
    # One shared slot per worker ever spawned (originals + respawns); a
    # worker writes its in-flight slot there directly, surviving os._exit.
    # The parallel heartbeat array holds the monotonic instant each task
    # started, which is what the watchdog judges staleness against
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
                skeleton, specs, config, task_queue, result_queue,
                current, heartbeats, index,
            ),
            daemon=True,
            name=f"repro-shard-{index}",
        )
        worker.start()
        return worker

    attempts: Dict[int, int] = {}
    crashes: Dict[int, int] = {}
    workers: Dict[int, mp.process.BaseProcess] = {}
    error: Optional[RuntimeError] = None

    def dispatch(slot: int) -> None:
        point = points[slot]
        task_queue.put(
            (
                slot,
                point.workload,
                point.strategy,
                point.overhead,
                keys[slot] if keys is not None else None,
                attempts.setdefault(slot, 0),
            )
        )

    def quarantine(slot: int, message: str, tried: int) -> None:
        from .runner import FailedPoint

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
        run.records[slot] = FailedPoint(
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
                run.timeouts += 1
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
                    if lost != _IDLE and run.records[lost] is None:
                        crashes[lost] = crashes.get(lost, 0) + 1
                        attempts[lost] = attempts.get(lost, 0) + 1
                        if crashes[lost] < _MAX_CRASHES_PER_POINT:
                            logger.warning(
                                "requeueing point %s lost to the dead worker",
                                points[lost],
                            )
                            dispatch(lost)
                        else:
                            quarantine(
                                lost,
                                f"shard worker died evaluating the point "
                                f"{crashes[lost]} times",
                                attempts[lost],
                            )
                            in_flight -= 1
                    if respawns_left > 0 and error is None and not stop_event.is_set():
                        respawns_left -= 1
                        run.respawns += 1
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
                        if run.records[slot] is None:
                            quarantine(slot, message, attempts.get(slot, 0) + 1)
                    stop_event.set()  # undispatched slots count as skipped
                    break
                continue
            if kind == "ok":
                run.records[slot] = payload
                in_flight -= 1
            elif kind == "error":
                message, retryable, timed_out = payload
                if timed_out:
                    run.timeouts += 1
                tried = attempts.get(slot, 0) + 1
                if (
                    retryable
                    and tried < policy.max_attempts
                    and error is None
                    and not stop_event.is_set()
                ):
                    attempts[slot] = tried
                    run.retries += 1
                    logger.warning(
                        "point %s failed on attempt %d/%d; requeueing",
                        points[slot], tried, policy.max_attempts,
                    )
                    dispatch(slot)
                else:
                    quarantine(slot, message, tried)
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
        for segment in segments:
            try:
                segment.close()
                segment.unlink()
            except OSError:
                pass
    return run


__all__ = ["run_sharded", "ShardRun", "pack_setups", "attach_setups"]
