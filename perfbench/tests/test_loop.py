import numpy as np
import pytest

from perfbench.loop import RequestLog, run_closed_loop, run_open_loop


class FakeClock:
    def __init__(self):
        self.now = 100.0
        self.sleeps = []

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        assert seconds > 0, "the loop must never sleep for nothing"
        self.sleeps.append(seconds)
        self.now += seconds


class Target:
    """Each request costs ``service`` seconds; a window closes after
    ``delay`` seconds unless another request flushes it first."""

    def __init__(self, clock, log, service, delay=None):
        self.clock, self.log, self.service, self.delay = clock, log, service, delay
        self.opened = None
        self.queued = []
        self.expired_at = []

    def issue(self, index):
        self.clock.now += self.service
        if self.delay is None:
            self.log.done[index] = self.clock()
            return
        self.queued.append(index)
        self.opened = self.opened if self.opened is not None else self.log.sent[index]

    def next_deadline(self):
        return None if self.opened is None else self.opened + self.delay

    def expire(self, now):
        self.expired_at.append(now)
        self.drain()

    def drain(self):
        for index in self.queued:
            self.log.done[index] = self.clock()
        self.queued, self.opened = [], None


def test_idle_system_sends_on_time_and_sleeps_until_due():
    clock = FakeClock()
    due = np.array([0.0, 0.5, 1.0])
    log = RequestLog(3)
    run_open_loop(due, Target(clock, log, service=0.0), log, clock, clock.sleep)
    assert log.lateness().tolist() == [0.0, 0.0, 0.0]
    assert clock.sleeps == pytest.approx([0.5, 0.5])


def test_lateness_accumulates_behind_a_slow_request():
    clock = FakeClock()
    due = np.array([0.0, 0.1, 0.2, 1.0])
    log = RequestLog(4)
    run_open_loop(due, Target(clock, log, service=0.25), log, clock, clock.sleep)
    # Sent at 0, 0.25, 0.5 (each waits for the last), then on time at 1.0.
    assert log.lateness().tolist() == pytest.approx([0.0, 0.15, 0.3, 0.0])
    assert log.latency().tolist() == pytest.approx([0.25, 0.4, 0.55, 0.25])


def test_window_expiring_between_arrivals_is_flushed():
    clock = FakeClock()
    due = np.array([0.0, 0.01, 1.0])
    log = RequestLog(3)
    target = Target(clock, log, service=0.0, delay=0.002)
    run_open_loop(due, target, log, clock, clock.sleep)
    assert target.expired_at == pytest.approx([100.002, 100.012])
    assert log.latency().tolist() == pytest.approx([0.002, 0.002, 0.0])


def test_closed_loop_stops_after_its_seconds():
    clock = FakeClock()
    log = RequestLog(100)
    sent = run_closed_loop(100, Target(clock, log, service=0.3), log, clock, seconds=1.0)
    assert sent == 4
    assert log.latency()[:4].tolist() == pytest.approx([0.3] * 4)
