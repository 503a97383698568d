"""Tests for the serving simulator and the uniform Table 2 workload."""

import itertools

import numpy as np
import pytest

from repro.persistence.store import ModelStore
from repro.serving.engine import ReplicatedServingEngine
from repro.serving.simulator import ServingSimulator, ThroughputReport
from repro.serving.workload import RequestMix, uniform_workload


def _uniform(test, n_requests, unlearn_fraction=0.0, n_deletable=0, seed=0):
    return uniform_workload(
        RequestMix(n_requests=n_requests, unlearn_fraction=unlearn_fraction),
        n_prediction_rows=test.n_rows,
        n_deletable=n_deletable,
        seed=seed,
    )


class TestRequestMix:
    def test_rejects_zero_requests(self):
        with pytest.raises(ValueError):
            RequestMix(n_requests=0)

    def test_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            RequestMix(n_requests=10, unlearn_fraction=1.0)
        with pytest.raises(ValueError):
            RequestMix(n_requests=10, unlearn_fraction=-0.1)


class TestThroughputReport:
    def test_rates(self):
        report = ThroughputReport(n_predictions=90, n_unlearnings=10, total_seconds=2.0)
        assert report.requests_per_second == pytest.approx(50.0)
        assert report.predictions_per_second == pytest.approx(45.0)

    def test_zero_time_guard(self):
        report = ThroughputReport(n_predictions=0, n_unlearnings=0, total_seconds=0.0)
        assert report.requests_per_second == 0.0

    def test_percentile_requires_samples(self):
        report = ThroughputReport(1, 0, 1.0)
        with pytest.raises(ValueError):
            report.latency_percentile(99)

    def test_unknown_latency_kind_rejected(self):
        report = ThroughputReport(1, 1, 1.0, unlearning_latencies_us=[5.0])
        with pytest.raises(ValueError, match="kind must be one of"):
            report.latency_percentile(50, kind="predictions")


class TestSimulation:
    def test_pure_prediction_workload(self, fitted_model, income_split):
        _, test = income_split
        simulator = ServingSimulator(fitted_model, test)
        report = simulator.run(_uniform(test, 200))
        assert report.n_predictions == 200
        assert report.n_unlearnings == 0
        assert report.requests_per_second > 0

    def test_mixed_workload_consumes_unlearn_pool(self, fitted_model, income_split):
        train, test = income_split
        budget = fitted_model.deletion_budget
        pool = [train.record(row) for row in range(budget)]
        simulator = ServingSimulator(fitted_model, test, unlearn_pool=pool)
        report = simulator.run(_uniform(test, 400, 0.01, len(pool)))
        expected = min(4, budget)
        assert report.n_unlearnings == expected
        assert fitted_model.n_unlearned == expected

    def test_unlearnings_capped_by_budget(self, fitted_model, income_split):
        train, test = income_split
        budget = fitted_model.deletion_budget
        pool = [train.record(row) for row in range(budget + 5)]
        simulator = ServingSimulator(fitted_model, test, unlearn_pool=pool)
        report = simulator.run(_uniform(test, 2000, 0.5, len(pool), seed=1))
        # Deletions past the budget are skipped and counted, never overrun.
        assert report.n_unlearnings == budget
        assert report.n_budget_skipped == 5
        assert fitted_model.n_unlearned == budget
        assert fitted_model.remaining_deletion_budget == 0

    def test_engine_deletions_never_overrun_the_budget(
        self, tmp_path, fitted_model, income_split
    ):
        train, test = income_split
        budget = fitted_model.deletion_budget
        pool = [train.record(row) for row in range(budget + 3)]
        engine = ReplicatedServingEngine(fitted_model, ModelStore(tmp_path / "store"))
        request_ids = itertools.count()
        simulator = ServingSimulator(
            engine,
            test,
            unlearn_pool=pool,
            unlearn=lambda record: engine.unlearn(f"req-{next(request_ids)}", record),
            remaining_budget=lambda _record: engine.primary.remaining_deletion_budget,
            batch_size=16,
        )
        report = simulator.run(_uniform(test, 400, 0.5, len(pool), seed=4))
        engine.close()
        assert report.n_unlearnings == budget
        assert report.n_budget_skipped == 3
        # Only issued deletions reach the WAL, and every one succeeded.
        assert engine.durable_seq == budget
        assert all(entry.succeeded for entry in engine.audit_entries)

    def test_latency_recording(self, fitted_model, income_split):
        _, test = income_split
        simulator = ServingSimulator(fitted_model, test, record_latencies=True)
        report = simulator.run(_uniform(test, 50, seed=2))
        assert len(report.prediction_latencies_us) == 50
        p50 = report.latency_percentile(50)
        p99 = report.latency_percentile(99)
        assert 0 < p50 <= p99

    def test_tiny_workload_still_issues_an_unlearning_request(
        self, fitted_model, income_split
    ):
        """unlearn_fraction > 0 must never round down to zero deletions."""
        train, test = income_split
        pool = [train.record(0)]
        simulator = ServingSimulator(fitted_model, test, unlearn_pool=pool)
        # 2 * 0.2 rounds to 0; the documented floor guarantees one request.
        report = simulator.run(_uniform(test, 2, 0.2, len(pool), seed=3))
        assert report.n_unlearnings == 1
        assert fitted_model.n_unlearned == 1

    def test_zero_fraction_issues_no_unlearning_request(
        self, fitted_model, income_split
    ):
        train, test = income_split
        pool = [train.record(0)]
        simulator = ServingSimulator(fitted_model, test, unlearn_pool=pool)
        report = simulator.run(_uniform(test, 2, 0.0, len(pool), seed=3))
        assert report.n_unlearnings == 0
        assert fitted_model.n_unlearned == 0

    def test_unlearning_floor_respects_empty_pool(self, fitted_model, income_split):
        _, test = income_split
        simulator = ServingSimulator(fitted_model, test, unlearn_pool=[])
        report = simulator.run(_uniform(test, 2, 0.4, 0, seed=3))
        assert report.n_unlearnings == 0

    def test_empty_prediction_pool_rejected(self, fitted_model, income_split):
        _, test = income_split
        empty = test.take(np.asarray([], dtype=np.int64))
        with pytest.raises(ValueError):
            ServingSimulator(fitted_model, empty)


class TestBatchedSimulation:
    """The batch-window path routes predictions through the packed kernel."""

    def test_rejects_bad_batch_size(self, fitted_model, income_split):
        _, test = income_split
        with pytest.raises(ValueError):
            ServingSimulator(fitted_model, test, batch_size=0)

    def test_pure_prediction_workload_batches(self, fitted_model, income_split):
        _, test = income_split
        simulator = ServingSimulator(fitted_model, test, batch_size=32)
        report = simulator.run(_uniform(test, 100))
        assert report.n_predictions == 100
        assert report.n_batches == 4  # 32 + 32 + 32 + 4
        assert report.rows_per_second > 0
        assert report.requests_per_second > 0

    def test_unlearning_flushes_open_batch(self, fitted_model, income_split):
        train, test = income_split
        pool = [train.record(row) for row in range(3)]
        simulator = ServingSimulator(
            fitted_model, test, unlearn_pool=pool, batch_size=1000
        )
        report = simulator.run(_uniform(test, 200, 0.01, len(pool)))
        assert report.n_unlearnings >= 1
        assert report.n_predictions + report.n_unlearnings == 200
        # Every deletion cuts the open batch, plus the final flush.
        assert report.n_batches >= report.n_unlearnings
        assert fitted_model.n_unlearned == report.n_unlearnings

    def test_batch_latencies_recorded(self, fitted_model, income_split):
        _, test = income_split
        simulator = ServingSimulator(
            fitted_model, test, record_latencies=True, batch_size=16
        )
        report = simulator.run(_uniform(test, 64))
        assert len(report.batch_latencies_us) == report.n_batches == 4
        assert report.latency_percentile(50, kind="batch") > 0
