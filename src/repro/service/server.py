"""The ``repro serve`` daemon: a batching, deduplicating sweep service.

One :class:`SweepServer` owns the expensive state — prepared experiment
baselines, the factorised-solver cache, the persistent result store — and
serves sweep requests from many concurrent clients over TCP.  Each request
names a workload and a (strategies x overheads) grid; the daemon resolves
every point against three tiers, cheapest first:

1. **Result store** — points evaluated by any earlier request, campaign or
   server lifetime are answered immediately from the store.
2. **In-flight dedupe** — a point another request is already computing is
   joined, not recomputed: both requests receive the one record.
3. **Cross-request batching** — remaining misses from *all* concurrent
   requests are gathered for a short window, grouped by transformed die
   geometry, and solved as warm-started multi-RHS blocks
   (:meth:`~repro.thermal.solver.ThermalSolver.solve_many`).  The
   "millions of users" story: many small requests amortized into a few
   big batched solves, with ``num_solve_groups`` < total points.

Records are computed by the same :class:`~repro.flow.runner.Campaign`
machinery clients would run locally, and a batched lane is bitwise
identical to a one-point solve under either solver backend, so server-side
results are bitwise-identical to an in-process sweep whatever requests
shared their batch.

The wire protocol is newline-delimited JSON over a plain socket — one
request object per line, one response object per line, stdlib only.
"""

from __future__ import annotations

import json
import logging
import socket
import socketserver
import threading
import time
from collections import OrderedDict
from concurrent.futures import Future, TimeoutError as FuturesTimeoutError
from typing import Dict, List, Mapping, Optional, Set, Tuple

from ..core import check_area_overhead, resolve_strategy
from ..deadlines import Deadline, deadline_scope
from ..faults import InjectedFault, inject
from ..flow.cache import SolverCache
from ..flow.experiment import ExperimentSetup
from ..flow.recover import recover_at_startup
from ..flow.runner import Campaign, CampaignPoint, CampaignRecord, FailedPoint
from ..flow.store import ResultStore
from .admission import (
    AdmissionController,
    AdmissionError,
    ClientQuota,
    FairTaskQueue,
)
from .governor import ResourceGovernor

logger = logging.getLogger(__name__)

#: Protocol identifier echoed by ``ping`` so clients can verify what they
#: reached before submitting work.
PROTOCOL = "repro-sweep/1"


class _Task:
    """One point a request is waiting on, with its fan-out future.

    ``client`` and ``deadline`` drive the fair queue: batches are
    gathered round-robin across clients, and when the in-flight bound is
    hit the queued tasks closest to missing their deadline are shed first.
    """

    __slots__ = (
        "key", "point", "analyze_timing", "future", "created_at",
        "client", "deadline",
    )

    def __init__(
        self,
        key: str,
        point: CampaignPoint,
        analyze_timing: bool,
        client: str = "anonymous",
        deadline: Optional[float] = None,
    ) -> None:
        self.key = key
        self.point = point
        self.analyze_timing = analyze_timing
        self.future: "Future[CampaignRecord]" = Future()
        self.created_at = time.monotonic()
        self.client = client
        self.deadline = deadline if deadline is not None else float("inf")


def _stop_reading(conn: socket.socket) -> None:
    """End a connection's input: a handler blocked reading it sees EOF,
    while a response it is about to write still goes out."""
    try:
        conn.shutdown(socket.SHUT_RD)
    except OSError:
        pass  # already closed by the peer or the handler


class SweepServer:
    """Long-running sweep daemon over prepared experiment baselines.

    Args:
        setups: Prepared baselines, keyed by workload name — the workloads
            clients may sweep.  Preparing them is the server operator's
            startup cost; requests only ever pay for strategy evaluation.
        result_store: Persistent record store; a memory-only
            :class:`ResultStore` when omitted.  Give it an on-disk root to
            share results with offline campaigns and across restarts.
        cache: Factorised-solver cache shared by every request; fresh
            when omitted.
        host: Bind address (default loopback).
        port: Bind port; ``0`` (default) picks a free one — read
            :attr:`address` after construction.
        batch_window_s: How long the scheduler gathers points across
            requests before solving a batch.  Larger windows find more
            cross-request geometry sharing; smaller windows cut latency.
        max_batch: Upper bound on points per gathered batch.
        max_workers: Worker threads per batch evaluation (default: CPUs).
        request_timeout_s: How long a request handler waits for its
            points before failing the request.  Each gathered batch also
            runs its solves under a deadline of the same length, so a hung
            solve fails its batch instead of wedging the scheduler.
        point_timeout_s: Per-point attempt budget forwarded to the
            server's internal campaigns (see
            :class:`~repro.flow.runner.Campaign`); ``None`` disables
            per-point deadlines.
        auth_token: Shared secret; when set, sweep and shutdown requests
            must carry a matching ``token`` field (``submit --token``).
        quota: Per-client limits (rate, points/request, in-flight
            points); ``None`` admits everything.
        max_inflight_points: Hard cap on in-flight point futures across
            *all* clients.  When full, queued points closest to missing
            their deadline are shed in favour of longer-lived work; if
            nothing sheddable remains the new request is rejected with a
            ``retry_after_s`` hint.
        max_pending_requests: Cap on sweep requests being served
            concurrently (each holds a handler thread).
        max_request_bytes: Largest accepted request line; longer frames
            get a structured ``payload_too_large`` error.
        max_rss_mb: Process memory budget for the resource governor;
            ``None`` disables graceful degradation.
        artifact_store: Optional artifact cache whose in-memory LRU the
            governor shrinks under memory pressure.  Miss batches run on
            a pass-through graph (their campaigns get no ``flow``), so the
            server adds nothing to this cache: under ``repro serve
            --artifact-cache DIR`` it holds only what preparing the
            baselines stored there.
        shed_retry_after_s: Retry hint attached to shed/overload
            rejections (rate-limit rejections compute the exact
            token-bucket refill time instead).
    """

    def __init__(
        self,
        setups: Mapping[str, ExperimentSetup],
        result_store: Optional[ResultStore] = None,
        cache: Optional[SolverCache] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        batch_window_s: float = 0.05,
        max_batch: int = 256,
        max_workers: Optional[int] = None,
        request_timeout_s: float = 600.0,
        point_timeout_s: Optional[float] = None,
        auth_token: Optional[str] = None,
        quota: Optional[ClientQuota] = None,
        max_inflight_points: Optional[int] = None,
        max_pending_requests: Optional[int] = None,
        max_request_bytes: int = 1_048_576,
        max_rss_mb: Optional[float] = None,
        artifact_store=None,
        shed_retry_after_s: float = 0.25,
    ) -> None:
        if not setups:
            raise ValueError("server requires at least one prepared setup")
        if batch_window_s < 0:
            raise ValueError("batch_window_s must be >= 0")
        if request_timeout_s <= 0:
            raise ValueError("request_timeout_s must be > 0")
        if point_timeout_s is not None and point_timeout_s <= 0:
            raise ValueError("point_timeout_s must be > 0")
        if max_inflight_points is not None and max_inflight_points <= 0:
            raise ValueError("max_inflight_points must be > 0")
        if max_pending_requests is not None and max_pending_requests <= 0:
            raise ValueError("max_pending_requests must be > 0")
        if max_request_bytes <= 0:
            raise ValueError("max_request_bytes must be > 0")
        self.setups: Dict[str, ExperimentSetup] = dict(setups)
        self.store = result_store if result_store is not None else ResultStore()
        self.cache = cache if cache is not None else SolverCache()
        self.batch_window_s = batch_window_s
        self.max_batch = max_batch
        self.max_workers = max_workers
        self.request_timeout_s = request_timeout_s
        self.point_timeout_s = point_timeout_s
        self.max_inflight_points = max_inflight_points
        self.max_pending_requests = max_pending_requests
        self.max_request_bytes = max_request_bytes
        self.shed_retry_after_s = shed_retry_after_s
        self.admission = AdmissionController(
            quota=quota, auth_token=auth_token, retry_after_s=shed_retry_after_s
        )
        self.governor = ResourceGovernor(
            max_rss_mb=max_rss_mb,
            result_store=self.store,
            artifact_store=artifact_store,
        )

        # A hard-killed predecessor may have left staging debris in the
        # shared store; clear what is provably abandoned before accepting
        # requests.
        if self.store.root is not None:
            recover_at_startup(self.store.root, "sweep server")

        # One batching campaign per analyze_timing flavour; both share the
        # server's setups and solver cache, so geometry reuse spans them.
        self._campaigns: Dict[bool, Campaign] = {}
        self._pending: Dict[str, _Task] = {}
        self._queue = FairTaskQueue()
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._draining = threading.Event()
        self._closed = threading.Event()
        self._active_requests = 0
        # Accepted connections, closed for reading at shutdown so handler
        # threads idle between a client's requests wake on EOF and exit.
        self._connections: Set[socket.socket] = set()
        self._connections_closed = False
        self._counters = {
            "requests": 0,
            "points_requested": 0,
            "store_hits": 0,
            "inflight_joins": 0,
            "points_solved": 0,
            "num_solve_groups": 0,
            "batches": 0,
            "failed_points": 0,
            "bad_requests": 0,
        }

        server = self

        class _Handler(socketserver.StreamRequestHandler):
            def setup(self) -> None:
                super().setup()
                server._track_connection(self.connection)

            def finish(self) -> None:
                server._untrack_connection(self.connection)
                super().finish()

            def handle(self) -> None:  # one JSON line per request
                limit = server.max_request_bytes
                while True:
                    try:
                        line = self.rfile.readline(limit + 1)
                    except OSError:
                        return
                    if not line:
                        return
                    if len(line) > limit:
                        # Oversized frame: refuse it with a structured
                        # error, then discard bytes up to the next
                        # newline so the connection can keep framing.
                        if not line.endswith(b"\n") and not self._drain_oversized():
                            return
                        server._note_bad_request()
                        response: Dict[str, object] = {
                            "ok": False,
                            "code": "payload_too_large",
                            "error": (
                                f"request line exceeds "
                                f"{limit} bytes"
                            ),
                            "retryable": False,
                        }
                    elif not line.endswith(b"\n"):
                        # Truncated frame: the peer closed mid-line;
                        # nothing well-formed to answer.
                        return
                    else:
                        try:
                            response = server._dispatch(line)
                        except Exception as error:  # pragma: no cover
                            # _dispatch has its own guard; this is the
                            # belt for anything that escapes it, so one
                            # poisoned line can never kill the
                            # connection loop.
                            logger.exception("dispatch failed")
                            response = {
                                "ok": False,
                                "code": "internal",
                                "error": f"{type(error).__name__}: {error}",
                            }
                    try:
                        self.wfile.write(
                            json.dumps(response, sort_keys=False).encode()
                            + b"\n"
                        )
                        self.wfile.flush()
                    except OSError:
                        return
                    if response.get("closing"):
                        return

            def _drain_oversized(self) -> bool:
                """Discard the rest of an oversized line; False at EOF."""
                while True:
                    try:
                        chunk = self.rfile.readline(server.max_request_bytes)
                    except OSError:
                        return False
                    if not chunk:
                        return False
                    if chunk.endswith(b"\n"):
                        return True

        class _TCPServer(socketserver.ThreadingTCPServer):
            allow_reuse_address = True
            daemon_threads = True

        self._tcp = _TCPServer((host, port), _Handler)
        self._scheduler = threading.Thread(
            target=self._scheduler_loop, name="repro-serve-batcher", daemon=True
        )
        self._serve_thread: Optional[threading.Thread] = None
        self._accept_loop_started = False

    # -- lifecycle -----------------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        """``(host, port)`` the server is bound to."""
        return self._tcp.server_address[:2]

    def start(self) -> None:
        """Serve in background threads (for tests and embedding)."""
        self._accept_loop_started = True
        self._scheduler.start()
        self._serve_thread = threading.Thread(
            target=self._tcp.serve_forever, name="repro-serve-accept", daemon=True
        )
        self._serve_thread.start()
        logger.info("repro serve listening on %s:%d", *self.address)

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`shutdown` (CLI mode)."""
        self._accept_loop_started = True
        self._scheduler.start()
        logger.info("repro serve listening on %s:%d", *self.address)
        self._tcp.serve_forever()

    def shutdown(self, drain: bool = False, drain_timeout_s: float = 30.0) -> None:
        """Stop the server and release the socket.

        With ``drain=True`` the accept loop stops first (new connections are
        refused and new sweeps rejected), then in-flight batches are given up
        to ``drain_timeout_s`` to finish before the scheduler is stopped.
        Without draining, outstanding points fail immediately with
        ``RuntimeError("server shut down")``.  Either way the accepted
        connections are then closed for reading, so no handler thread
        outlives the shutdown waiting for a client's next request.
        """
        self._draining.set()
        # Refuse new connections before anything else; handler threads
        # already inside a request keep running until their response is sent.
        # BaseServer.shutdown() waits on an event only serve_forever() sets,
        # so it must be skipped when the accept loop never ran.
        if self._accept_loop_started:
            self._tcp.shutdown()
        if drain:
            deadline = time.monotonic() + drain_timeout_s
            while time.monotonic() < deadline:
                with self._lock:
                    if not self._pending:
                        break
                time.sleep(0.02)
        self._stop.set()
        self._tcp.server_close()
        if self._serve_thread is not None:
            self._serve_thread.join(timeout=5.0)
        if self._scheduler.is_alive():
            self._scheduler.join(timeout=5.0)
        with self._lock:
            pending = list(self._pending.values())
            self._pending.clear()
        for task in pending:
            if not task.future.done():
                task.future.set_exception(RuntimeError("server shut down"))
        with self._lock:
            self._connections_closed = True
            connections = list(self._connections)
        for conn in connections:
            _stop_reading(conn)
        self._closed.set()

    def wait_closed(self, timeout: Optional[float] = None) -> bool:
        """Block until a (possibly draining) shutdown has fully finished.

        The ``shutdown`` protocol op runs :meth:`shutdown` on a background
        thread; CLI mode waits on this after the accept loop returns so a
        drain is not cut short by process exit.
        """
        return self._closed.wait(timeout)

    def __enter__(self) -> "SweepServer":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def _track_connection(self, conn: socket.socket) -> None:
        with self._lock:
            if not self._connections_closed:
                self._connections.add(conn)
                return
        _stop_reading(conn)  # accepted while shutting down

    def _untrack_connection(self, conn: socket.socket) -> None:
        with self._lock:
            self._connections.discard(conn)

    # -- request dispatch ----------------------------------------------------

    def _note_bad_request(self) -> None:
        with self._lock:
            self._counters["bad_requests"] += 1

    def _dispatch(self, line: bytes) -> Dict[str, object]:
        try:
            payload = json.loads(line)
            if not isinstance(payload, dict):
                raise ValueError("request must be a JSON object")
        except Exception as error:
            # Broad on purpose: json.loads can raise beyond ValueError
            # (RecursionError on deeply nested garbage, for one), and a
            # malformed line must come back as a structured error, not a
            # dead connection.
            self._note_bad_request()
            return {
                "ok": False,
                "code": "bad_request",
                "error": f"bad request: {type(error).__name__}: {error}",
                "retryable": False,
            }
        op = payload.get("op")
        client = str(payload.get("client") or "anonymous")
        try:
            if op == "ping":
                return {"ok": True, "protocol": PROTOCOL,
                        "workloads": sorted(self.setups)}
            if op == "health":
                return self._handle_health()
            if op == "stats":
                return {"ok": True, "stats": self.stats()}
            if op == "sweep":
                return self._handle_sweep(payload, client)
            if op == "shutdown":
                try:
                    self.admission.authenticate(dict(payload), client)
                except AdmissionError as rejection:
                    return rejection.to_response()
                # Deferred: respond first, then stop the accept loop from a
                # thread that is not inside it.  ``drain: true`` finishes
                # in-flight batches before the scheduler stops.
                drain = bool(payload.get("drain", False))
                self._draining.set()
                threading.Thread(
                    target=self.shutdown, kwargs={"drain": drain}, daemon=True
                ).start()
                return {"ok": True, "closing": True, "draining": drain}
            self._note_bad_request()
            return {
                "ok": False,
                "code": "bad_request",
                "error": f"unknown op {op!r}",
                "retryable": False,
            }
        except Exception as error:  # a request must never kill the daemon
            logger.exception("request %r failed", op)
            return {"ok": False, "error": f"{type(error).__name__}: {error}"}

    def _handle_health(self) -> Dict[str, object]:
        now = time.monotonic()
        with self._lock:
            pending = len(self._pending)
            oldest = min(
                (now - task.created_at for task in self._pending.values()),
                default=0.0,
            )
        admission = self.admission.counters()
        return {
            "ok": True,
            "protocol": PROTOCOL,
            "status": "draining" if self._draining.is_set() else "serving",
            "pending": pending,
            # Age of the longest-waiting in-flight point: the
            # operator's wedge detector (compare against
            # request_timeout_s when alerting).
            "oldest_inflight_s": oldest,
            "request_timeout_s": self.request_timeout_s,
            "point_timeout_s": self.point_timeout_s,
            "workloads": sorted(self.setups),
            # Overload observability: queue/backpressure state, the
            # admission counters, memory pressure, per-client usage.
            "queue_depth": len(self._queue),
            "inflight_points": pending,
            "max_inflight_points": self.max_inflight_points,
            "shed_total": admission["shed_total"],
            "rejected_total": admission["rejected_total"],
            "throttled_total": admission["throttled_total"],
            "rss_mb": round(self.governor.rss_mb(), 1),
            "max_rss_mb": self.governor.max_rss_mb,
            "pressure": self.governor.level,
            "clients": self.admission.client_stats(),
        }

    def _campaign(self, analyze_timing: bool) -> Campaign:
        with self._lock:
            campaign = self._campaigns.get(analyze_timing)
            if campaign is None:
                campaign = Campaign(
                    self.setups,
                    analyze_timing=analyze_timing,
                    cache=self.cache,
                    name=f"serve-batch{'-timing' if analyze_timing else ''}",
                    point_timeout_s=self.point_timeout_s,
                )
                self._campaigns[analyze_timing] = campaign
            return campaign

    def _handle_sweep(
        self, payload: Mapping[str, object], client: str = "anonymous"
    ) -> Dict[str, object]:
        if self._draining.is_set():
            return {
                "ok": False,
                "code": "draining",
                "error": "server is draining; not accepting sweeps",
                "retryable": False,
            }
        try:
            self.admission.authenticate(dict(payload), client)
        except AdmissionError as rejection:
            return rejection.to_response()
        workload = payload.get("workload")
        inject("service.sweep", {"workload": workload})
        if workload not in self.setups:
            return {
                "ok": False,
                "error": f"unknown workload {workload!r}; "
                         f"serving {sorted(self.setups)}",
            }
        try:
            strategies = [
                resolve_strategy(spec).spec for spec in payload["strategies"]
            ]
            overheads = [float(value) for value in payload["overheads"]]
            for overhead in overheads:
                check_area_overhead(overhead)
        except (KeyError, TypeError, ValueError) as error:
            return {"ok": False, "error": f"bad sweep spec: {error}"}
        if not strategies or not overheads:
            return {"ok": False, "error": "sweep needs strategies and overheads"}
        analyze_timing = bool(payload.get("analyze_timing", False))
        # A client may ship its own end-to-end deadline; the server then
        # waits no longer than the tighter of the two, so work for a
        # caller that has already given up is failed promptly server-side.
        timeout_s = self.request_timeout_s
        client_timeout = payload.get("timeout_s")
        if client_timeout is not None:
            try:
                client_timeout = float(client_timeout)
            except (TypeError, ValueError):
                return {"ok": False, "error": f"bad timeout_s: {client_timeout!r}"}
            if client_timeout <= 0:
                return {"ok": False, "error": "timeout_s must be > 0"}
            timeout_s = min(timeout_s, client_timeout)

        campaign = self._campaign(analyze_timing)
        points = [
            CampaignPoint(workload=workload, strategy=strategy, overhead=overhead)
            for strategy in strategies
            for overhead in overheads
        ]
        # Front door, in order: concurrency cap, memory pressure, then
        # the per-client quota checks (which charge in-flight credit on
        # success — balanced by the release in the finally below).
        with self._lock:
            if (
                self.max_pending_requests is not None
                and self._active_requests >= self.max_pending_requests
            ):
                self.admission.note_shed(client)
                return AdmissionError(
                    "overloaded",
                    f"server is at its {self.max_pending_requests} "
                    f"concurrent-request cap",
                    retry_after_s=self.shed_retry_after_s,
                ).to_response()
            self._active_requests += 1
        try:
            if self.governor.check() == "critical":
                self.admission.note_shed(client)
                return AdmissionError(
                    "pressure",
                    f"server is under memory pressure "
                    f"(rss {self.governor.stats()['rss_mb']} MB, "
                    f"budget {self.governor.max_rss_mb} MB)",
                    retry_after_s=self.shed_retry_after_s,
                ).to_response()
            try:
                self.admission.admit(client, len(points))
            except AdmissionError as rejection:
                return rejection.to_response()
            try:
                return self._resolve_points(
                    payload, client, campaign, points, analyze_timing,
                    timeout_s,
                )
            finally:
                self.admission.release(client, len(points))
        finally:
            with self._lock:
                self._active_requests -= 1

    def _resolve_points(
        self,
        payload: Mapping[str, object],
        client: str,
        campaign: Campaign,
        points: List[CampaignPoint],
        analyze_timing: bool,
        timeout_s: float,
    ) -> Dict[str, object]:
        """Resolve admitted points through the three tiers and wait."""
        deadline = time.monotonic() + timeout_s
        try:
            # Chaos seam: a seeded plan sheds this request at enqueue
            # time, exactly as a full queue would.
            inject("service.queue", {
                "client": client,
                "num_points": len(points),
                "queue_depth": len(self._queue),
            })
        except InjectedFault as fault:
            self.admission.note_shed(client)
            return AdmissionError(
                "shed",
                f"request shed at enqueue (fault injection: {fault})",
                retry_after_s=self.shed_retry_after_s,
            ).to_response()
        store_hits = 0
        joins = 0
        slots: List[Tuple[Optional[CampaignRecord], Optional[_Task]]] = []
        for point in points:
            key = campaign.result_key_for(point)
            record = self.store.get(key)
            if record is not None:
                store_hits += 1
                slots.append((record, None))
                continue
            with self._lock:
                task = self._pending.get(key)
                if task is not None and task.analyze_timing == analyze_timing:
                    joins += 1
                    slots.append((None, task))
                    continue
                if (
                    self.max_inflight_points is not None
                    and len(self._pending) >= self.max_inflight_points
                ):
                    # The in-flight bound is hit.  Shed queued work that
                    # would give up before this request does (oldest
                    # deadline first); if nothing qualifies, this request
                    # is the one that yields.
                    victims = self._queue.shed_before(deadline, count=1)
                    for victim in victims:
                        self._pending.pop(victim.key, None)
                    if not victims:
                        self.admission.note_shed(client)
                        return AdmissionError(
                            "overloaded",
                            f"server has {len(self._pending)} point(s) in "
                            f"flight (cap {self.max_inflight_points})",
                            retry_after_s=self.shed_retry_after_s,
                        ).to_response()
                    self._shed_tasks(victims)
                task = _Task(
                    key, point, analyze_timing,
                    client=client, deadline=deadline,
                )
                self._pending[key] = task
            self._queue.put(task)
            slots.append((None, task))

        records: List[CampaignRecord] = []
        for record, task in slots:
            if record is None:
                remaining = max(0.0, deadline - time.monotonic())
                try:
                    record = task.future.result(timeout=remaining)
                except FuturesTimeoutError:
                    # The request deadline elapsed while the point was
                    # still in flight.  The task stays pending — a later
                    # request (or the running batch) may still finish it;
                    # only this waiter gives up.
                    return {
                        "ok": False,
                        "error": (
                            f"request deadline exceeded after {timeout_s:.1f}s "
                            f"waiting for point {task.point}"
                        ),
                    }
                except AdmissionError as rejection:
                    # One of this request's queued points was shed to
                    # make room for longer-lived work.  Points already
                    # computed are in the store, so the client's retry
                    # only pays for what was lost.
                    return rejection.to_response()
            records.append(record)

        with self._lock:
            self._counters["requests"] += 1
            self._counters["points_requested"] += len(points)
            self._counters["store_hits"] += store_hits
            self._counters["inflight_joins"] += joins
        return {
            "ok": True,
            "records": [record.to_dict() for record in records],
            "stats": {
                "num_points": len(points),
                "store_hits": store_hits,
                "inflight_joins": joins,
                "computed": len(points) - store_hits - joins,
                "server": self.stats(),
            },
        }

    def _shed_tasks(self, victims: List[_Task]) -> None:
        """Fail shed tasks' waiters with a structured, retryable rejection."""
        for victim in victims:
            self.admission.note_shed(victim.client)
            if not victim.future.done():
                victim.future.set_exception(
                    AdmissionError(
                        "shed",
                        f"point {victim.point} was shed under load "
                        f"(deadline-ordered eviction)",
                        retry_after_s=self.shed_retry_after_s,
                    )
                )
            logger.info(
                "shed queued point %s for client %r", victim.point, victim.client
            )

    # -- batching scheduler --------------------------------------------------

    def _scheduler_loop(self) -> None:
        while not self._stop.is_set():
            first = self._queue.get(timeout=0.1)
            if first is None:
                continue
            # The gather window drains the fair queue round-robin across
            # clients, so a small sweep's points land in the next batch
            # even when one client has thousands queued.
            batch = [first]
            deadline = time.monotonic() + self.batch_window_s
            while len(batch) < self.max_batch:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                task = self._queue.get(timeout=remaining)
                if task is None:
                    break
                batch.append(task)
            try:
                self._run_batch(batch)
            except Exception as error:
                # The scheduler thread must survive anything a poisoned
                # batch throws — a dead scheduler wedges every current
                # and future waiter.  Fail this batch's futures and on.
                logger.exception("batch execution failed")
                with self._lock:
                    for task in batch:
                        self._pending.pop(task.key, None)
                for task in batch:
                    if not task.future.done():
                        task.future.set_exception(error)

    def _run_batch(self, batch: List[_Task]) -> None:
        """Solve one gathered batch, grouped by timing flavour then geometry."""
        by_flag: Dict[bool, "OrderedDict[str, _Task]"] = {}
        for task in batch:
            by_flag.setdefault(task.analyze_timing, OrderedDict())[task.key] = task
        for analyze_timing, tasks in by_flag.items():
            campaign = self._campaign(analyze_timing)
            points = [task.point for task in tasks.values()]
            try:
                # Crash seam for the kill-9 harness, then the per-batch
                # deadline: the scheduler thread runs the grouped solves
                # itself, so the scope bounds them directly — a hung batch
                # fails its waiters instead of wedging the scheduler loop.
                with deadline_scope(Deadline.after(self.request_timeout_s)):
                    inject("service.batch", {"num_points": len(points)})
                    records, groups = campaign.evaluate_points(
                        points, max_workers=self.max_workers
                    )
            except Exception as error:
                logger.exception("batch of %d points failed", len(points))
                with self._lock:
                    for key in tasks:
                        self._pending.pop(key, None)
                for task in tasks.values():
                    if not task.future.done():
                        task.future.set_exception(error)
                continue
            solved = sum(1 for record in records if isinstance(record, CampaignRecord))
            failed = len(records) - solved
            with self._lock:
                self._counters["points_solved"] += solved
                self._counters["failed_points"] += failed
                self._counters["num_solve_groups"] += groups
                self._counters["batches"] += 1
            logger.info(
                "batch: %d point(s) -> %d solve group(s)", len(points), groups
            )
            for (key, task), record in zip(tasks.items(), records):
                with self._lock:
                    self._pending.pop(key, None)
                if isinstance(record, FailedPoint):
                    # Quarantined point: fail only its waiters; never publish.
                    if not task.future.done():
                        task.future.set_exception(
                            RuntimeError(
                                f"point failed after {record.attempts} "
                                f"attempt(s): {record.error}"
                            )
                        )
                    continue
                if record is None:
                    if not task.future.done():
                        task.future.set_exception(
                            RuntimeError("point skipped (server interrupted)")
                        )
                    continue
                self.store.put(key, record)
                if not task.future.done():
                    task.future.set_result(record)
        # Post-batch pressure check: shrink caches while the process is
        # between solves, not in the middle of one.
        self.governor.check()

    # -- observability -------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """Lifetime service counters plus store and solver-cache stats."""
        with self._lock:
            counters = dict(self._counters)
        counters["result_store"] = self.store.stats().as_dict()
        counters["solver_cache"] = self.cache.stats().as_dict()
        counters.update(self.admission.counters())
        counters["queue_depth"] = len(self._queue)
        counters["governor"] = self.governor.stats()
        return counters


__all__ = ["SweepServer", "PROTOCOL"]
