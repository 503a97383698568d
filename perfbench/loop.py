"""Open- and closed-loop load generators with an injectable clock.

The open loop sends each request when it is due, whatever the system is
doing, and sleeps (never spins) until the next arrival or the next batch
window expiry, whichever comes first: ``MicroBatcher`` has no timer, so a
window that expires between arrivals is flushed by the loop. Latency
counts from the due time, so a stall also charges the requests queued
behind it; how late the generator itself ran is reported separately.

The closed loop is one client that sends its next request when the last
one has completed.
"""

from __future__ import annotations

from typing import Callable, Protocol

import numpy as np


class RequestLog:
    """Per-request timestamps (seconds on the load generator's clock).

    ``done`` stays NaN until the request's answer or acknowledgement is
    in hand; ``traced`` marks requests issued while tracing was on.
    """

    def __init__(self, n: int) -> None:
        self.due = np.full(n, np.nan)
        self.sent = np.full(n, np.nan)
        self.done = np.full(n, np.nan)
        self.traced = np.zeros(n, dtype=bool)

    def issued(self) -> np.ndarray:
        return ~np.isnan(self.sent)

    def latency(self) -> np.ndarray:
        """Due-to-done seconds per request (NaN when never issued)."""
        return self.done - self.due

    def lateness(self) -> np.ndarray:
        """How late the generator sent each issued request."""
        mask = self.issued()
        return self.sent[mask] - self.due[mask]


class OpenLoopTarget(Protocol):
    """What the open loop drives: a front end with batch windows."""

    def issue(self, index: int) -> None:
        """Submit request ``index`` (the loop has stamped its send time)."""

    def next_deadline(self) -> float | None:
        """Earliest expiry of an open batch window, on the loop's clock."""

    def expire(self, now: float) -> None:
        """Flush every window whose deadline is at or before ``now``."""

    def drain(self) -> None:
        """Flush everything still queued (end of the run)."""


class ClosedLoopTarget(Protocol):
    def issue(self, index: int) -> None:
        """Serve request ``index`` to completion."""


def run_open_loop(
    due_offsets: np.ndarray,
    target: OpenLoopTarget,
    log: RequestLog,
    clock: Callable[[], float],
    sleep: Callable[[float], None],
    on_tick: Callable[[float], None] | None = None,
) -> float:
    """Send every request at its due time; returns the start time.

    ``on_tick(now)`` runs between requests (the tracer toggles there).
    """
    start = clock()
    log.due[:] = start + np.asarray(due_offsets, dtype=np.float64)
    due = log.due
    index, n = 0, len(due)
    while index < n:
        now = clock()
        if on_tick is not None:
            on_tick(now)
        deadline = target.next_deadline()
        next_due = due[index]
        if deadline is not None and deadline <= now and deadline <= next_due:
            target.expire(now)
            continue
        if next_due <= now:
            log.sent[index] = now
            target.issue(index)
            index += 1
            continue
        wake = next_due if deadline is None else min(next_due, deadline)
        sleep(wake - now)
    target.drain()
    return start


def run_closed_loop(
    n: int,
    target: ClosedLoopTarget,
    log: RequestLog,
    clock: Callable[[], float],
    seconds: float,
    on_tick: Callable[[float], None] | None = None,
) -> int:
    """One client, no think time, for ``seconds`` or until the schedule
    runs out; returns how many requests were sent."""
    end = clock() + seconds
    index = 0
    while index < n:
        now = clock()
        if now >= end:
            break
        if on_tick is not None:
            on_tick(now)
        log.due[index] = log.sent[index] = now
        target.issue(index)
        index += 1
    return index
