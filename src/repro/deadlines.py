"""Deadlines, budgets, and cooperative cancellation.

The fault-tolerance layer introduced by :mod:`repro.faults` lets the
campaign tiers survive components that *fail*; this module bounds
components that *hang*.  A :class:`Deadline` is an absolute instant on the
monotonic clock; a :class:`Budget` is an unstarted duration that can be
split between sub-steps before any clock starts ticking.  Work that may
run long periodically calls :func:`check_active` (or ``deadline.check()``
directly), which raises :class:`DeadlineExceeded` once the deadline has
passed.

Cooperative cancellation is threaded through the hot loops the same way
fault injection is: a thread-local scope stack installed with
:func:`deadline_scope` makes the *current* deadline visible to any code
running under it, and :func:`check_active` is a near-free no-op when no
scope is installed — one thread-local attribute load — so instrumented
inner loops (multigrid V-cycles, detailed-placement passes, logic-sim
cycles) cost nothing in normal operation.

``DeadlineExceeded`` subclasses :class:`TimeoutError`, which
:meth:`repro.faults.RetryPolicy.classify` already treats as retryable:
a timed-out campaign point flows into the existing retry/quarantine
machinery with no special-casing.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Optional

__all__ = [
    "Budget",
    "Deadline",
    "DeadlineExceeded",
    "check_active",
    "current_deadline",
    "deadline_scope",
]


class DeadlineExceeded(TimeoutError):
    """A deadline passed while work was still in flight.

    ``site`` names the checkpoint that noticed (e.g. ``solver.multigrid``);
    ``overrun_s`` is how far past the deadline the check ran.
    """

    def __init__(self, site: str = "", overrun_s: float = 0.0):
        self.site = site
        self.overrun_s = overrun_s
        where = f" at {site}" if site else ""
        super().__init__(
            f"deadline exceeded{where} (overran by {overrun_s:.3f}s)"
        )


@dataclass(frozen=True)
class Deadline:
    """An absolute instant on the monotonic clock.

    ``Deadline.never()`` (``instant=None``) never expires; it exists so
    callers can thread one object through unconditionally instead of
    branching on ``Optional[Deadline]`` everywhere.
    """

    instant: Optional[float] = None

    @classmethod
    def after(cls, seconds: float) -> "Deadline":
        """A deadline ``seconds`` from now."""
        if seconds < 0:
            raise ValueError(f"deadline duration must be >= 0, got {seconds}")
        return cls(time.monotonic() + seconds)

    @classmethod
    def never(cls) -> "Deadline":
        return cls(None)

    def remaining(self) -> float:
        """Seconds until expiry; ``inf`` for a never-deadline.

        May be negative once the deadline has passed — useful for
        reporting overrun without clamping.
        """
        if self.instant is None:
            return float("inf")
        return self.instant - time.monotonic()

    def expired(self) -> bool:
        return self.instant is not None and time.monotonic() >= self.instant

    def check(self, site: str = "") -> None:
        """Raise :class:`DeadlineExceeded` if the deadline has passed."""
        if self.instant is None:
            return
        now = time.monotonic()
        if now >= self.instant:
            raise DeadlineExceeded(site, now - self.instant)

    def sub(self, seconds: float) -> "Deadline":
        """A child deadline: ``seconds`` from now, capped by the parent.

        A child split can only tighten — a sub-step is never allowed to
        outlive the deadline it was split from.
        """
        child = time.monotonic() + max(0.0, seconds)
        if self.instant is None:
            return Deadline(child)
        return Deadline(min(self.instant, child))

    def min(self, other: "Deadline") -> "Deadline":
        """The tighter of two deadlines."""
        if self.instant is None:
            return other
        if other.instant is None:
            return self
        return self if self.instant <= other.instant else other


@dataclass
class Budget:
    """An unstarted wall-clock allowance, splittable before the clock runs.

    Unlike a :class:`Deadline`, a budget has no start instant: it can be
    divided between phases (``budget.split(0.25)`` carves off a quarter)
    while planning, and each piece starts ticking only when
    :meth:`deadline` is called.  ``seconds=None`` is an unlimited budget.
    """

    seconds: Optional[float] = None

    def __post_init__(self) -> None:
        if self.seconds is not None and self.seconds < 0:
            raise ValueError(f"budget must be >= 0, got {self.seconds}")

    def split(self, fraction: float) -> "Budget":
        """Carve ``fraction`` of this budget off into a child budget.

        The parent keeps the remainder; the child gets the slice.  On an
        unlimited budget both sides stay unlimited.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1], got {fraction}")
        if self.seconds is None:
            return Budget(None)
        piece = self.seconds * fraction
        self.seconds -= piece
        return Budget(piece)

    def deadline(self) -> Deadline:
        """Start the clock: the budget as a deadline from this instant."""
        if self.seconds is None:
            return Deadline.never()
        return Deadline.after(self.seconds)


class _Scope(threading.local):
    """Per-thread stack of active deadlines (innermost last)."""

    def __init__(self) -> None:
        self.stack: list[Deadline] = []


_SCOPE = _Scope()


class deadline_scope:
    """Install ``deadline`` as the thread's active deadline.

    Nested scopes combine: the effective deadline inside a nested scope is
    the tighter of the enclosing deadline and the new one, so an outer
    request deadline always caps an inner per-step deadline.
    """

    def __init__(self, deadline: Deadline):
        self._deadline = deadline

    def __enter__(self) -> Deadline:
        stack = _SCOPE.stack
        effective = self._deadline
        if stack:
            effective = stack[-1].min(effective)
        stack.append(effective)
        return effective

    def __exit__(self, *exc_info: object) -> None:
        _SCOPE.stack.pop()


def current_deadline() -> Optional[Deadline]:
    """The innermost active deadline on this thread, or ``None``."""
    stack = _SCOPE.stack
    return stack[-1] if stack else None


def check_active(site: str = "") -> None:
    """Check the thread's active deadline, if any.

    This is the hook hot loops call: when no :func:`deadline_scope` is
    installed it is a single thread-local attribute load and a truth
    test, so instrumenting an inner loop is effectively free.
    """
    stack = _SCOPE.stack
    if stack:
        stack[-1].check(site)
