import numpy as np
import pytest

from perfbench.schedule import (
    DELETE,
    INSERT,
    PREDICT,
    ScheduleError,
    check_pools,
    gdpr_storm,
    online_mixed,
    read_steady,
)
from perfbench.workloads import STORM_PROFILE, STORM_SLOT_RATE

N_TRAIN, N_TEST, N_HELDOUT = 32_000, 8_000, 8_000


def _make(kind: str, seed: int):
    if kind == "storm":
        return gdpr_storm(seed, 20, STORM_SLOT_RATE, STORM_PROFILE, N_TRAIN, N_TEST)
    if kind == "read":
        return read_steady(seed, 2, 1000.0, 50, N_TRAIN, N_TEST)
    return online_mixed(seed, 5000, (0.7, 0.2, 0.1), N_TRAIN, N_TEST, N_HELDOUT)


def _same(left, right) -> bool:
    return all(
        (a is None and b is None) or np.array_equal(a, b)
        for a, b in (
            (left.kind, right.kind),
            (left.row, right.row),
            (left.due, right.due),
            (left.delete_offsets, right.delete_offsets),
            (left.delete_rows, right.delete_rows),
        )
    )


@pytest.mark.parametrize("kind", ["storm", "read", "mixed"])
def test_schedules_are_deterministic_per_seed(kind):
    assert _same(_make(kind, 7), _make(kind, 7))
    assert not _same(_make(kind, 7), _make(kind, 8))


def test_storm_schedule_shape():
    schedule = _make("storm", 3)
    sizes = np.diff(schedule.delete_offsets)
    assert np.all(sizes[schedule.kind == PREDICT] == 0)
    assert np.all((sizes[schedule.kind == DELETE] >= 1) & (sizes[schedule.kind == DELETE] <= 96))
    assert np.all(np.diff(schedule.due) >= 0) and schedule.due[-1] < 20
    # Enough user requests for a delete p99 on any seed.
    assert min(_make("storm", seed).count(DELETE) for seed in range(40)) >= 1000


def test_read_schedule_spreads_deletions_evenly():
    schedule = _make("read", 1)
    positions = np.flatnonzero(schedule.kind == DELETE)
    assert np.all(np.diff(positions) == 50)
    assert schedule.delete_rows.size == positions.size


def test_mixed_schedule_uses_each_pool_once():
    schedule = _make("mixed", 1)
    assert np.unique(schedule.delete_rows).size == schedule.count(DELETE)
    assert np.unique(schedule.inserted_rows()).size == schedule.count(INSERT)


def _guard(schedule, budgets=(20_000, 20_000), n_heldout=N_HELDOUT, minimum=None):
    owners = np.arange(N_TRAIN) % 2
    check_pools(schedule, N_TRAIN, n_heldout, owners, list(budgets), minimum or {})


def test_guards_accept_a_valid_schedule():
    _guard(_make("storm", 1), minimum={DELETE: 1000, PREDICT: 1000})
    _guard(_make("mixed", 1))


def test_guard_refuses_a_record_deleted_twice():
    schedule = _make("read", 1)
    schedule.delete_rows[1] = schedule.delete_rows[0]
    with pytest.raises(ScheduleError, match="twice"):
        _guard(schedule)


def test_guard_refuses_rows_outside_the_training_set():
    schedule = _make("read", 1)
    schedule.delete_rows[0] = N_TRAIN
    with pytest.raises(ScheduleError, match="training"):
        _guard(schedule)


def test_guard_refuses_a_shard_over_its_budget():
    with pytest.raises(ScheduleError, match="budget"):
        _guard(_make("storm", 1), budgets=(100, 20_000))


def test_guard_refuses_insertions_outside_the_heldout_pool():
    with pytest.raises(ScheduleError, match="held-out"):
        _guard(_make("mixed", 1), n_heldout=10)


def test_guard_refuses_too_few_samples_for_a_p99():
    with pytest.raises(ScheduleError, match="percentiles"):
        _guard(_make("read", 1), minimum={DELETE: 1000})
