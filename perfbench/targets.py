"""Glue between a schedule and a deployment's front end.

A target turns request ``i`` of the schedule into public serving calls,
stamps each request's completion time, keeps the served labels and
audit entries for the checks, and tracks the batch windows it opened
(``MicroBatcher`` has no timer, so the loop flushes expired windows).
After every call, requests whose answer or acknowledgement is in hand
are stamped with the time the call returned.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from perfbench.checks import request_ids
from perfbench.deploy import SHARDED, Data, Deployment
from perfbench.loop import RequestLog
from perfbench.schedule import DELETE, PREDICT, Schedule


class _Target:
    def __init__(
        self,
        deployment: Deployment,
        schedule: Schedule,
        data: Data,
        log: RequestLog,
        clock: Callable[[], float],
        max_delay_s: float,
        mark: Callable[[int], None],
    ) -> None:
        self.deployment = deployment
        self.batcher = deployment.batcher
        self.schedule = schedule
        self.data = data
        self.log = log
        self.clock = clock
        self.max_delay_s = max_delay_s
        #: Called with the request id before each call (-1: a flush).
        self.mark = mark
        n = len(schedule)
        self.labels = np.full(n, -1, dtype=np.int8)
        self.entries: list[list | None] = [None] * n
        #: Start of the call that resolved each prediction (queue wait).
        self.resolve_start = np.full(n, np.nan)
        self._predictions: list[tuple[int, object]] = []
        self._window_opened: float | None = None
        self._call_start = 0.0

    # predictions ------------------------------------------------------ #

    def _submit_predict(self, index: int) -> None:
        row = self.data.test_matrix[self.schedule.row[index]]
        handle = self.batcher.submit_predict(row)
        self._predictions.append((index, handle))
        if self.batcher.n_queued == 1:
            self._window_opened = self.log.sent[index]

    def _collect_predictions(self, now: float) -> None:
        if self._predictions and self.batcher.n_queued == 0:
            for index, handle in self._predictions:
                self.labels[index] = handle.result()
                self.log.done[index] = now
                self.resolve_start[index] = self._call_start
            self._predictions.clear()
        if self.batcher.n_queued == 0:
            self._window_opened = None

    def _begin(self, request: int) -> None:
        self.mark(request)
        self._call_start = self.clock()

    def acknowledged(self) -> np.ndarray:
        """Writes that were acknowledged as applied."""
        return np.array(
            [entries is not None and all(entry.succeeded for entry in entries)
             for entries in self.entries]
        )

    def n_failed(self) -> int:
        return sum(
            1 for entries in self.entries
            if entries is not None and not all(entry.succeeded for entry in entries)
        )


class SingleEngineTarget(_Target):
    """``MicroBatcher`` over an unsharded engine (shm fleet or in-process).

    Queued predictions are flushed before a write so that they are
    stamped before the write runs; ``MicroBatcher.unlearn`` would flush
    them first anyway, so the order of work is unchanged.
    """

    def issue(self, index: int) -> None:
        self._begin(index)
        kind = self.schedule.kind[index]
        if kind == PREDICT:
            self._submit_predict(index)
            self._collect_predictions(self.clock())
            return
        self.batcher.flush()
        self._collect_predictions(self.clock())
        self._call_start = self.clock()
        if kind == DELETE:
            (row,) = self.schedule.deleted_rows(index)
            entry = self.batcher.unlearn(f"r{index}", self.data.train.record(int(row)))
        else:
            record = self.data.heldout.record(int(self.schedule.row[index]))
            entry = self.deployment.engine.learn_one(f"r{index}", record)
        self.log.done[index] = self.clock()
        self.entries[index] = [entry]

    def next_deadline(self) -> float | None:
        if self._window_opened is None:
            return None
        return self._window_opened + self.max_delay_s

    def expire(self, now: float) -> None:
        self.drain()

    def drain(self) -> None:
        self._begin(-1)
        self.batcher.flush()
        self._collect_predictions(self.clock())


class ClosedLoopPredictFlush(SingleEngineTarget):
    """Closed-loop client: a prediction is submitted then flushed, so
    every dispatch carries exactly one row."""

    def issue(self, index: int) -> None:
        super().issue(index)
        if self.schedule.kind[index] == PREDICT:
            self._call_start = self.clock()
            self.batcher.flush()
            self._collect_predictions(self.clock())


class ShardedTarget(_Target):
    """``ShardedMicroBatcher``: one user's deletion is one request whose
    records group-commit per owning shard; it is acknowledged when every
    record's shard window has committed.

    A request with more records than one batch window holds goes to
    ``ShardedServingEngine.unlearn_batch`` as one batch (one WAL frame
    and one kernel pass per shard), after the batcher is drained so that
    earlier requests keep their order.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._users: list[tuple[int, list]] = []
        self._shard_opened: list[float | None] = [None] * self.batcher.engine.n_shards

    def issue(self, index: int) -> None:
        self._begin(index)
        if self.schedule.kind[index] == PREDICT:
            self._submit_predict(index)
        elif len(self.schedule.deleted_rows(index)) > self.batcher.config.max_batch:
            self._bulk(index)
            return
        else:
            rows = self.schedule.deleted_rows(index)
            ids = request_ids(index, len(rows), SHARDED)
            handles = []
            for request_id, row in zip(ids, rows):
                handle = self.batcher.submit_unlearn(
                    request_id, self.data.train.record(int(row))
                )
                handles.append(handle)
                if self.batcher.n_queued_unlearns(handle.shard_id) == 1:
                    self._shard_opened[handle.shard_id] = self._call_start
            self._users.append((index, handles))
        self._collect(self.clock())

    def _bulk(self, index: int) -> None:
        self.batcher.flush_unlearns()
        self.batcher.flush()
        self._collect(self.clock())
        rows = self.schedule.deleted_rows(index)
        self.entries[index] = self.deployment.engine.unlearn_batch(
            f"r{index}",
            [self.data.train.record(int(row)) for row in rows],
            record_request_ids=request_ids(index, len(rows), SHARDED),
        )
        self.log.done[index] = self.clock()

    def _collect(self, now: float) -> None:
        self._collect_predictions(now)
        still_open = []
        for index, handles in self._users:
            if all(handle.done for handle in handles):
                self.log.done[index] = now
                self.entries[index] = list(
                    {id(handle.result()): handle.result() for handle in handles}.values()
                )
            else:
                still_open.append((index, handles))
        self._users = still_open
        for shard in range(len(self._shard_opened)):
            if self.batcher.n_queued_unlearns(shard) == 0:
                self._shard_opened[shard] = None

    def next_deadline(self) -> float | None:
        opened = [start for start in (self._window_opened, *self._shard_opened) if start is not None]
        return min(opened) + self.max_delay_s if opened else None

    def expire(self, now: float) -> None:
        self._begin(-1)
        for shard, opened in enumerate(self._shard_opened):
            if opened is not None and opened + self.max_delay_s <= now:
                self.batcher.flush_unlearns(shard)
        if self._window_opened is not None and self._window_opened + self.max_delay_s <= now:
            self.batcher.flush()
        self._collect(self.clock())

    def drain(self) -> None:
        self._begin(-1)
        self.batcher.flush_unlearns()
        self.batcher.flush()
        self._collect(self.clock())
