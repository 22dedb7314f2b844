"""Process-wide memory governor for the sweep daemon.

A long-lived ``repro serve`` accumulates memory in three places: the
in-memory tiers of the :class:`~repro.flow.store.ResultStore` and
:class:`~repro.flow.store.ArtifactStore` (unbounded by default), the
factorised-solver cache, and transient batch state.  Left alone, the
kernel OOM-killer is the backstop — which takes every in-flight request
down with it.  :class:`ResourceGovernor` degrades *gracefully* instead,
down a three-step ladder keyed to RSS against a configured budget:

``ok``
    Below ``elevated_fraction`` (default 80%) of the budget: caches run
    at their configured sizes.
``elevated``
    Above it: the in-memory LRU tiers of the artifact and result stores
    are halved (disk tiers keep everything, so this trades latency for
    headroom, never correctness).
``critical``
    At/above the budget: memory tiers are disabled outright (store-only
    reads) and :meth:`should_shed` turns on, telling the server to shed
    queued work and refuse new sweeps with a ``retry_after_s`` hint until
    pressure clears.  Caps are restored once RSS drops back to ``ok``.

RSS comes from ``/proc/self/statm`` (Linux), falling back to
``resource.getrusage`` peak RSS — stdlib only, a few microseconds per
sample, so the server checks on every admission and after every batch.
Without a budget a check samples nothing (there is no ladder to walk);
``health()`` samples on its own.

Fault seam: ``governor.pressure`` fires on every check; a seeded plan
can force a ``critical`` episode deterministically (an injected fault is
interpreted as "the budget is exhausted"), which is how the overload
chaos harness exercises the ladder without actually allocating gigabytes.
"""

from __future__ import annotations

import os
import resource
import threading
from typing import Callable, Dict, Optional

from ..faults import InjectedFault, inject

_PAGE_SIZE = os.sysconf("SC_PAGE_SIZE") if hasattr(os, "sysconf") else 4096


def process_rss_mb() -> float:
    """Resident set size of this process in MiB (stdlib only).

    Prefers ``/proc/self/statm`` (current RSS, Linux); falls back to
    ``ru_maxrss`` (peak RSS, portable) when procfs is unavailable.
    """
    try:
        with open("/proc/self/statm", "rb") as handle:
            fields = handle.read().split()
        return int(fields[1]) * _PAGE_SIZE / (1024 * 1024)
    except (OSError, IndexError, ValueError):
        # ru_maxrss is KiB on Linux (and bytes on macOS, where this
        # branch is the fallback of a fallback; close enough for a cap).
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class ResourceGovernor:
    """Budget-driven degradation for the daemon's in-memory caches.

    Thread-safe; :meth:`check` may be called from request handlers and
    the batch scheduler concurrently.  With no budget configured
    :meth:`check` never samples RSS and never degrades anything (only the
    fault seam can force a critical level); :meth:`rss_mb` still samples
    for ``health()``.

    Args:
        max_rss_mb: Memory budget; ``None`` disables the ladder.
        result_store: Store whose memory tier is shrunk under pressure.
        artifact_store: Artifact cache whose LRU is shrunk under pressure.
        elevated_fraction: Budget fraction where shrinking starts.
        rss_fn: RSS sampler (injectable for deterministic tests).
    """

    def __init__(
        self,
        max_rss_mb: Optional[float] = None,
        result_store=None,
        artifact_store=None,
        elevated_fraction: float = 0.8,
        rss_fn: Callable[[], float] = process_rss_mb,
    ) -> None:
        if max_rss_mb is not None and max_rss_mb <= 0:
            raise ValueError(f"max_rss_mb must be > 0, got {max_rss_mb}")
        if not 0.0 < elevated_fraction < 1.0:
            raise ValueError(
                f"elevated_fraction must be in (0, 1), got {elevated_fraction}"
            )
        self.max_rss_mb = max_rss_mb
        self.elevated_fraction = elevated_fraction
        self._rss_fn = rss_fn
        self._result_store = result_store
        self._artifact_store = artifact_store
        self._lock = threading.Lock()
        self._level = "ok"
        self._saved_caps: Dict[str, Optional[int]] = {}
        self._last_rss_mb = 0.0
        self.pressure_events = 0
        self.lru_shrinks = 0

    # -- sampling ------------------------------------------------------------

    def rss_mb(self) -> float:
        """Current RSS sample (also refreshes the cached reading)."""
        value = float(self._rss_fn())
        with self._lock:
            self._last_rss_mb = value
        return value

    @property
    def level(self) -> str:
        """The ladder step decided by the most recent :meth:`check`."""
        with self._lock:
            return self._level

    def should_shed(self) -> bool:
        """True while the last check saw critical pressure."""
        return self.level == "critical"

    # -- the ladder ----------------------------------------------------------

    def check(self) -> str:
        """Sample RSS under a budget, walk the ladder, return the current level."""
        rss = None
        level = "ok"
        if self.max_rss_mb is not None:
            rss = self.rss_mb()
            if rss >= self.max_rss_mb:
                level = "critical"
            elif rss >= self.elevated_fraction * self.max_rss_mb:
                level = "elevated"
        try:
            inject("governor.pressure", {
                "rss_mb": None if rss is None else round(rss, 1), "level": level,
            })
        except InjectedFault:
            # The chaos plan says the budget is exhausted: take the
            # critical path exactly as a real OOM-adjacent sample would.
            level = "critical"
        with self._lock:
            previous = self._level
            self._level = level
            if level != "ok" and previous == "ok":
                self.pressure_events += 1
        if level == "elevated" and previous != "elevated":
            self._halve_memory_tiers()
        elif level == "critical" and previous != "critical":
            self._disable_memory_tiers()
        elif level == "ok" and previous != "ok":
            self._restore_memory_tiers()
        return level

    def _stores(self):
        for name, store in (
            ("result", self._result_store),
            ("artifact", self._artifact_store),
        ):
            if store is not None:
                yield name, store

    def _halve_memory_tiers(self) -> None:
        for _, store in self._stores():
            target = len(store) // 2
            evicted = store.shrink(target)
            if evicted:
                with self._lock:
                    self.lru_shrinks += 1

    def _disable_memory_tiers(self) -> None:
        with self._lock:
            for name, store in self._stores():
                if name not in self._saved_caps:
                    self._saved_caps[name] = store.maxsize
        for _, store in self._stores():
            store.maxsize = 0
            store.shrink(0)
        with self._lock:
            self.lru_shrinks += 1

    def _restore_memory_tiers(self) -> None:
        with self._lock:
            saved = dict(self._saved_caps)
            self._saved_caps.clear()
        for name, store in self._stores():
            if name in saved:
                store.maxsize = saved[name]

    # -- observability -------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        with self._lock:
            return {
                "rss_mb": round(self._last_rss_mb, 1),
                "max_rss_mb": self.max_rss_mb,
                "pressure": self._level,
                "pressure_events": self.pressure_events,
                "lru_shrinks": self.lru_shrinks,
            }


__all__ = ["ResourceGovernor", "process_rss_mb"]
