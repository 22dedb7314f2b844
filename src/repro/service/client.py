"""Client for the ``repro serve`` daemon (stdlib socket + JSON).

:class:`SweepClient` speaks the newline-delimited JSON protocol of
:class:`~repro.service.server.SweepServer`: one request object per line,
one response per line.  Sweep responses come back as
:class:`~repro.flow.runner.CampaignResult` objects, so downstream analysis
code cannot tell a served sweep from a local one.  JSON is lossless here —
Python serialises floats with shortest-round-trip ``repr`` — so records
fetched over the wire are bitwise equal to the server's.
"""

from __future__ import annotations

import json
import logging
import os
import socket
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..faults import InjectedFault, RetryPolicy, inject
from ..flow.runner import CampaignRecord, CampaignResult

logger = logging.getLogger(__name__)


class ServiceError(RuntimeError):
    """The server answered a request with an error."""


class AuthError(ServiceError):
    """The server rejected this client's auth token (not retryable)."""


class ThrottledError(ServiceError):
    """A 429-style rejection survived every retry the policy allowed.

    Attributes:
        code: The server's rejection code (``throttled``, ``quota``,
            ``overloaded``, ``shed``, or ``pressure``).
        retry_after_s: The server's last retry hint, for callers that
            implement their own scheduling on top of the client.
    """

    def __init__(
        self, message: str, code: str = "throttled",
        retry_after_s: Optional[float] = None,
    ) -> None:
        super().__init__(message)
        self.code = code
        self.retry_after_s = retry_after_s


class _NoResponse(ConnectionError):
    """The connection failed before a single response byte arrived."""


def _exchange(conn: socket.socket, payload: Dict[str, object]) -> Dict[str, object]:
    """Send one request line on ``conn`` and read one response line.

    Raises :class:`_NoResponse` when the peer closed or reset the
    connection before answering anything (a timeout is not that: the
    server may still answer late), and ``ConnectionError`` when it closed
    mid-response.
    """
    received = bytearray()
    try:
        conn.sendall(json.dumps(payload).encode() + b"\n")
        while not received.endswith(b"\n"):
            chunk = conn.recv(65536)
            if not chunk:
                break
            received += chunk
    except socket.timeout:
        raise
    except OSError as error:
        if not received:
            raise _NoResponse(str(error)) from error
        raise
    if not received:
        raise _NoResponse("server closed the connection without a response")
    if not received.endswith(b"\n"):
        raise ConnectionError("server closed the connection mid-response")
    return json.loads(received)


def _with_retries(
    host: str, port: int, op: object, policy: RetryPolicy,
    attempt_once: Callable[[], Dict[str, object]],
) -> Dict[str, object]:
    """Run ``attempt_once()`` until it returns, retrying connect/read
    failures (``OSError``, which covers ``ConnectionError`` and
    ``socket.timeout``) with the policy's deterministic backoff.  Each
    attempt passes the ``client.request`` fault seam."""
    attempt = 0
    while True:
        try:
            inject("client.request", {"op": op, "attempt": attempt})
            return attempt_once()
        except (OSError, InjectedFault) as error:
            attempt += 1
            if not policy.classify(error) or attempt >= policy.max_attempts:
                raise
            delay = policy.delay_s(attempt, token=f"client:{op}")
            logger.warning(
                "request %r to %s:%d failed (%s); retry %d/%d in %.2fs",
                op, host, port, error, attempt, policy.max_attempts - 1, delay,
            )
            time.sleep(delay)


def request_once(
    host: str,
    port: int,
    payload: Dict[str, object],
    timeout: float = 600.0,
    retry_policy: Optional[RetryPolicy] = None,
) -> Dict[str, object]:
    """Send one request object on a fresh connection and return the parsed
    response.

    :class:`SweepClient` sends over reused connections and adds response
    checking and record decoding.  When ``retry_policy`` allows more than
    one attempt, connect/read failures are retried with deterministic
    backoff before giving up.

    Raises:
        ConnectionError: The server closed without responding (after any
            retries the policy allows).
        OSError: Connect or socket failure after exhausting retries.
    """

    def attempt_once() -> Dict[str, object]:
        with socket.create_connection((host, port), timeout=timeout) as conn:
            return _exchange(conn, payload)

    policy = retry_policy if retry_policy is not None else RetryPolicy()
    return _with_retries(host, port, payload.get("op"), policy, attempt_once)


class SweepClient:
    """Submit sweep requests to a running :class:`SweepServer`.

    Connections are opened lazily and reused: a request takes an idle
    connection (or opens one) and hands it back once it has read the whole
    response line, so sequential calls share one connection and concurrent
    callers each hold their own.  A connection that times out or fails is
    closed, never reused.  When a reused connection turns out to have been
    closed by the server (idle close, restart) before any response byte
    arrived, the request is resent once on a fresh connection at once;
    fresh connects that fail follow ``retry_policy``.  :meth:`close` (or
    ``with SweepClient(...) as client:``) closes the idle connections.

    Args:
        host: Server host.
        port: Server port.
        timeout: End-to-end deadline per request.  It bounds the socket
            wait locally *and* travels with sweep requests as
            ``timeout_s``, so the server stops waiting on points this
            client will no longer collect.
        retry_policy: Connection retry behaviour; defaults to three
            attempts with short deterministic backoff.  Pass
            ``RetryPolicy()`` (one attempt) to fail fast.  The same
            attempt budget covers 429-style rejections (throttled, shed,
            overloaded): each retry waits the *larger* of the policy's
            backoff and the server's ``retry_after_s`` hint.
        token: Shared-secret auth token, required when the server was
            started with ``--auth-token-file``.
        client_id: Identity quotas and fairness are keyed by; defaults
            to ``<hostname>:<pid>``, stable for this process.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 7410,
        timeout: float = 600.0,
        retry_policy: Optional[RetryPolicy] = None,
        token: Optional[str] = None,
        client_id: Optional[str] = None,
    ) -> None:
        if timeout <= 0:
            raise ValueError(f"timeout must be > 0, got {timeout}")
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retry_policy = (
            retry_policy
            if retry_policy is not None
            else RetryPolicy(max_attempts=3, backoff_s=0.05)
        )
        self.token = token
        self.client_id = (
            client_id
            if client_id is not None
            else f"{socket.gethostname()}:{os.getpid()}"
        )
        self._idle: List[socket.socket] = []
        self._idle_lock = threading.Lock()

    def close(self) -> None:
        """Close the idle connections; a later request opens a new one."""
        with self._idle_lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()

    def __enter__(self) -> "SweepClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _connect(self) -> socket.socket:
        return socket.create_connection((self.host, self.port), timeout=self.timeout)

    def _send(self, payload: Dict[str, object]) -> Dict[str, object]:
        """One attempt: on an idle connection if there is one, else a new one."""
        with self._idle_lock:
            conn = self._idle.pop() if self._idle else None
        if conn is not None:
            conn.settimeout(self.timeout)
            try:
                return self._exchange_on(conn, payload)
            except _NoResponse:
                pass  # closed while idle: reconnect once, without backoff
        return self._exchange_on(self._connect(), payload)

    def _exchange_on(
        self, conn: socket.socket, payload: Dict[str, object]
    ) -> Dict[str, object]:
        """Exchange on ``conn``; pool it only after a complete response."""
        try:
            response = _exchange(conn, payload)
        except BaseException:
            conn.close()  # a late answer must never reach the next request
            raise
        if response.get("closing"):
            conn.close()
        else:
            with self._idle_lock:
                self._idle.append(conn)
        return response

    def _request(self, payload: Dict[str, object]) -> Dict[str, object]:
        payload = dict(payload)
        payload["client"] = self.client_id
        if self.token is not None:
            payload["token"] = self.token
        op = payload.get("op")
        attempt = 0
        while True:
            response = _with_retries(
                self.host, self.port, op, self.retry_policy,
                lambda: self._send(payload),
            )
            if response.get("ok"):
                return response
            error = str(response.get("error", "unknown server error"))
            code = response.get("code")
            if code == "auth":
                raise AuthError(error)
            retry_after = response.get("retry_after_s")
            if not response.get("retryable"):
                raise ServiceError(error)
            # A retryable 429-style rejection: honor the server's
            # retry_after floor (its token-bucket refill estimate) on
            # top of the policy's own deterministic backoff.
            attempt += 1
            if attempt >= self.retry_policy.max_attempts:
                raise ThrottledError(
                    error,
                    code=str(code or "throttled"),
                    retry_after_s=(
                        float(retry_after) if retry_after is not None else None
                    ),
                )
            delay = self.retry_policy.delay_for(
                attempt,
                token=f"client:{op}:{self.client_id}",
                retry_after_s=(
                    float(retry_after) if retry_after is not None else None
                ),
            )
            logger.info(
                "request %r rejected (%s); retry %d/%d in %.2fs",
                op, code, attempt, self.retry_policy.max_attempts - 1, delay,
            )
            time.sleep(delay)

    def ping(self) -> Dict[str, object]:
        """Protocol identifier and served workloads of the daemon."""
        return self._request({"op": "ping"})

    def health(self) -> Dict[str, object]:
        """Liveness probe: ``status`` (serving/draining) and pending count."""
        return self._request({"op": "health"})

    def stats(self) -> Dict[str, object]:
        """Lifetime server counters (store, batching, solver cache)."""
        return self._request({"op": "stats"})["stats"]

    def shutdown_server(self, drain: bool = False) -> None:
        """Ask the daemon to stop (it acknowledges, then exits).

        With ``drain=True`` the server refuses new work but lets in-flight
        batches finish before exiting.
        """
        self._request({"op": "shutdown", "drain": drain})

    def sweep(
        self,
        workload: str,
        strategies: Sequence[str],
        overheads: Sequence[float],
        analyze_timing: bool = False,
    ) -> Tuple[CampaignResult, Dict[str, object]]:
        """Sweep a (strategies x overheads) grid on one served workload.

        Returns:
            ``(result, stats)`` — the records in grid order wrapped as a
            :class:`CampaignResult`, and the request's service stats
            (``store_hits``, ``inflight_joins``, ``computed``, plus the
            server's lifetime counters under ``"server"``).

        Raises:
            ServiceError: Unknown workload, bad spec, or a server-side
                evaluation failure.
        """
        response = self._request(
            {
                "op": "sweep",
                "workload": workload,
                "strategies": list(strategies),
                "overheads": [float(value) for value in overheads],
                "analyze_timing": analyze_timing,
                "timeout_s": self.timeout,
            }
        )
        records = [CampaignRecord.from_dict(row) for row in response["records"]]
        stats: Dict[str, object] = dict(response.get("stats", {}))
        metadata = {
            "name": "served-sweep",
            "workloads": [workload],
            "strategies": list(strategies),
            "overheads": [float(value) for value in overheads],
            "analyze_timing": analyze_timing,
            "num_points": len(records),
            "service": stats,
        }
        return CampaignResult(records=records, metadata=metadata), stats


__all__ = [
    "AuthError",
    "ServiceError",
    "SweepClient",
    "ThrottledError",
    "request_once",
]
