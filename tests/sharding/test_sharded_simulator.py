"""The serving simulator over a sharded model: storms and per-shard budgets."""

from __future__ import annotations

import pytest

from repro.serving.simulator import ServingSimulator
from repro.serving.workload import WorkloadProfile, generate_workload


def _sharded_simulator(model, test, pool):
    """Deletions draw on the owning shard's budget, not the summed one."""
    return ServingSimulator(
        model,
        test,
        unlearn_pool=pool,
        remaining_budget=lambda record: model.shards[
            model.owning_shard(record)
        ].remaining_deletion_budget,
        record_latencies=True,
        batch_size=16,
    )


@pytest.fixture()
def simulator(sharded_model, income_split):
    train, test = income_split
    pool = [train.record(row) for row in range(60)]
    return _sharded_simulator(sharded_model, test, pool)


def test_replays_a_stormy_workload(simulator, income_split):
    _, test = income_split
    profile = WorkloadProfile(
        n_requests=120,
        base_unlearn_fraction=0.02,
        n_storms=1,
        storm_length=15,
        storm_unlearn_fraction=0.6,
        max_user_size=4,
    )
    workload = generate_workload(
        profile, n_prediction_rows=test.n_rows, n_deletable=20, seed=9
    )
    report = simulator.run(workload)
    assert report.n_predictions == workload.n_predictions
    assert report.n_unlearnings + report.n_budget_skipped == workload.n_deletions
    assert report.n_unlearnings == simulator.target.n_unlearned
    assert len(report.unlearning_latencies_us) == report.n_unlearnings
    assert report.n_batches >= 1
    assert report.total_seconds > 0
    assert report.rows_per_second > 0


def test_budget_exhaustion_is_skipped_not_fatal(sharded_model, income_split):
    train, test = income_split
    budget = sharded_model.remaining_deletion_budget
    pool = [train.record(row) for row in range(min(budget * 3, train.n_rows))]
    simulator = _sharded_simulator(sharded_model, test, pool)
    profile = WorkloadProfile(
        n_requests=60, base_unlearn_fraction=0.9, max_user_size=32
    )
    workload = generate_workload(
        profile, n_prediction_rows=test.n_rows, n_deletable=len(pool), seed=11
    )
    report = simulator.run(workload)  # must not raise
    assert report.n_unlearnings <= budget
    assert report.n_budget_skipped > 0
    assert report.n_unlearnings + report.n_budget_skipped == workload.n_deletions
