"""One serving loop: replays a workload against a model or an engine.

:class:`ServingSimulator` replays a :mod:`repro.serving.workload` event
list -- the uniform Table 2 mix or a stormy GDPR schedule -- against
anything that answers predictions: a bare fitted model (Table 2, the
examples) or a serving engine (the CLI ``serve`` command). The caller says
how one record is deleted and how much deletion budget is left for it, so
the loop never branches on what it drives.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.dataprep.dataset import Dataset, Record
from repro.serving.workload import Workload


@dataclass
class ThroughputReport:
    """Measurements of one serving-simulator run.

    When the simulator runs with a batch window (``batch_size`` set),
    predictions are dispatched in micro-batches through the packed kernel:
    ``n_batches`` counts the dispatches, ``batch_latencies_us`` holds one
    latency sample per dispatch, and ``rows_per_second`` reports the
    prediction throughput over the time actually spent inside dispatches.
    ``n_budget_skipped`` counts deletions not issued because the deletion
    budget they would draw on was used up.
    """

    n_predictions: int = 0
    n_unlearnings: int = 0
    total_seconds: float = 0.0
    prediction_latencies_us: list[float] = field(default_factory=list)
    unlearning_latencies_us: list[float] = field(default_factory=list)
    n_batches: int = 0
    batch_latencies_us: list[float] = field(default_factory=list)
    batch_seconds: float = 0.0
    n_budget_skipped: int = 0

    @property
    def requests_per_second(self) -> float:
        total = self.n_predictions + self.n_unlearnings
        return total / self.total_seconds if self.total_seconds > 0 else 0.0

    @property
    def predictions_per_second(self) -> float:
        if self.total_seconds <= 0:
            return 0.0
        return self.n_predictions / self.total_seconds

    @property
    def rows_per_second(self) -> float:
        """Batched prediction throughput (rows over in-dispatch seconds)."""
        if self.batch_seconds <= 0:
            return 0.0
        return self.n_predictions / self.batch_seconds

    def latency_percentile(self, percentile: float, kind: str = "prediction") -> float:
        """Latency percentile in microseconds for one request kind.

        ``kind`` is ``"prediction"``, ``"unlearning"`` or ``"batch"`` (one
        sample per micro-batch dispatch of a batched run).
        """
        samples_by_kind = {
            "prediction": self.prediction_latencies_us,
            "unlearning": self.unlearning_latencies_us,
            "batch": self.batch_latencies_us,
        }
        if kind not in samples_by_kind:
            raise ValueError(
                f"kind must be one of {tuple(samples_by_kind)}, got {kind!r}"
            )
        samples = samples_by_kind[kind]
        if not samples:
            raise ValueError(f"no {kind} latencies were recorded")
        return float(np.percentile(np.asarray(samples), percentile))


class ServingSimulator:
    """Drives a deployed model or engine with a replayed workload.

    Args:
        target: answers predictions through ``predict(values)`` (one
            request) and ``predict_rows(matrix)`` (one micro-batch): a
            fitted model, a sharded model or a serving engine.
        prediction_pool: records prediction events index into (the test
            set).
        unlearn_pool: training records deletion events consume, in order;
            each is deleted at most once per run.
        unlearn: deletes one record; defaults to ``target.unlearn`` (a bare
            model). An engine's caller passes a callable that adds the
            request id.
        remaining_budget: the deletion budget left for one record's
            deletion; defaults to ``target.remaining_deletion_budget``. A
            sharded deployment passes the owning shard's budget. Deletions
            are never issued past it: the simulator skips and counts them
            instead of overrunning the budget.
        record_latencies: collect per-request latencies (adds measurement
            overhead; throughput experiments disable it).
        batch_size: when set, predictions are collected into micro-batches
            of up to this many requests and dispatched through
            ``predict_rows``; a deletion event (or the end of the run)
            flushes the open batch first, preserving request ordering.
    """

    def __init__(
        self,
        target,
        prediction_pool: Dataset,
        unlearn_pool: list[Record] | None = None,
        unlearn: Callable[[Record], Any] | None = None,
        remaining_budget: Callable[[Record], int] | None = None,
        record_latencies: bool = False,
        batch_size: int | None = None,
    ) -> None:
        if prediction_pool.n_rows == 0:
            raise ValueError("prediction pool must not be empty")
        if batch_size is not None and batch_size < 1:
            raise ValueError("batch_size must be positive when set")
        self.target = target
        self.unlearn = unlearn if unlearn is not None else target.unlearn
        self.remaining_budget = remaining_budget or (
            lambda _record: target.remaining_deletion_budget
        )
        self.prediction_values = [
            prediction_pool.record(row).values for row in range(prediction_pool.n_rows)
        ]
        self._pool_matrix = prediction_pool.feature_matrix()
        self.unlearn_pool = list(unlearn_pool or [])
        self.record_latencies = record_latencies
        self.batch_size = batch_size

    def run(self, workload: Workload) -> ThroughputReport:
        """Replay one schedule and measure throughput (and latencies).

        Each deletion event consumes the next ``size`` records of the
        unlearn pool; a record whose deletion budget is used up is skipped
        and counted in ``n_budget_skipped``.
        """
        report = ThroughputReport(n_predictions=workload.n_predictions)
        clock = time.perf_counter
        timed = self.record_latencies
        batch_size = self.batch_size
        predict = self.target.predict
        prediction_values = self.prediction_values
        unlearn_queue = iter(self.unlearn_pool)
        pending: list[int] = []

        def dispatch() -> None:
            if not pending:
                return
            rows = self._pool_matrix[np.asarray(pending, dtype=np.intp)]
            batch_start = clock()
            self.target.predict_rows(rows)
            elapsed = clock() - batch_start
            report.n_batches += 1
            report.batch_seconds += elapsed
            if timed:
                report.batch_latencies_us.append(elapsed * 1e6)
            pending.clear()

        start = clock()
        for event in workload.events:
            if event.kind == "predict":
                if batch_size is not None:
                    pending.append(event.row)
                    if len(pending) >= batch_size:
                        dispatch()
                elif timed:
                    request_start = clock()
                    predict(prediction_values[event.row])
                    report.prediction_latencies_us.append(
                        (clock() - request_start) * 1e6
                    )
                else:
                    predict(prediction_values[event.row])
                continue
            dispatch()  # the open batch predates this deletion
            for record in itertools.islice(unlearn_queue, event.size):
                if self.remaining_budget(record) < 1:
                    report.n_budget_skipped += 1
                    continue
                request_start = clock()
                self.unlearn(record)
                if timed:
                    report.unlearning_latencies_us.append(
                        (clock() - request_start) * 1e6
                    )
                report.n_unlearnings += 1
        dispatch()
        report.total_seconds = clock() - start
        return report
