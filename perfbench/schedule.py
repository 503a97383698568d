"""Seeded request schedules for the three workloads, and the pool guards.

A schedule is plain arrays: one entry per request with its kind, its
prediction or insertion row, its due time (open loops) and, for a
deletion, the training rows it erases. The same seed always yields the
same schedule; the serving stack only ever sees the generated requests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.serving.workload import WorkloadProfile, generate_workload

PREDICT, DELETE, INSERT = 0, 1, 2
KIND_NAMES = {PREDICT: "predict", DELETE: "delete", INSERT: "insert"}


class ScheduleError(ValueError):
    """A schedule breaks a pool or budget guard; nothing was timed."""


@dataclass
class Schedule:
    """One workload's requests, in issue order.

    Attributes:
        kind: request kind per request (:data:`PREDICT`, ...).
        row: test row to predict, or held-out row to insert (-1 for
            deletions).
        due: seconds after the start at which each request is due (open
            loops) or ``None`` (closed loop: sent when the last completed).
        delete_offsets: request ``i`` erases
            ``delete_rows[delete_offsets[i]:delete_offsets[i + 1]]``.
        delete_rows: training rows erased, in schedule order.
    """

    kind: np.ndarray
    row: np.ndarray
    due: np.ndarray | None
    delete_offsets: np.ndarray
    delete_rows: np.ndarray

    def __len__(self) -> int:
        return int(self.kind.shape[0])

    def deleted_rows(self, index: int) -> np.ndarray:
        return self.delete_rows[self.delete_offsets[index]:self.delete_offsets[index + 1]]

    def count(self, kind: int) -> int:
        return int(np.count_nonzero(self.kind == kind))

    def inserted_rows(self) -> np.ndarray:
        return self.row[self.kind == INSERT]


def _assemble(kinds, rows, sizes, due, train_order) -> Schedule:
    kinds = np.asarray(kinds, dtype=np.int8)
    sizes = np.asarray(sizes, dtype=np.int64)
    offsets = np.zeros(kinds.shape[0] + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    if offsets[-1] > train_order.shape[0]:
        raise ScheduleError(
            f"schedule erases {offsets[-1]} records, the training pool "
            f"holds {train_order.shape[0]}"
        )
    return Schedule(
        kind=kinds,
        row=np.asarray(rows, dtype=np.int64),
        due=due,
        delete_offsets=offsets,
        delete_rows=train_order[: offsets[-1]].astype(np.int64),
    )


def _poisson_due(rng: np.random.Generator, n: int, seconds: float) -> np.ndarray:
    # A Poisson process conditioned on n arrivals in [0, seconds) places
    # them as sorted uniforms: the run length is fixed, the gaps random.
    return np.sort(rng.uniform(0.0, seconds, size=n))


def gdpr_storm(
    seed: int,
    seconds: float,
    slot_rate: float,
    profile: WorkloadProfile,
    n_train: int,
    n_test: int,
    bulk_users: int = 0,
    bulk_size: int = 0,
) -> Schedule:
    """Open-loop storm schedule from :func:`generate_workload`.

    ``profile.n_requests`` is overridden by ``slot_rate * seconds``; each
    deletion slot is one user erasing ``size`` records drawn without
    replacement from a seeded permutation of the training rows. The
    deletion events at ``bulk_users`` evenly spaced positions erase
    ``bulk_size`` records instead (bulk erasures large enough for the
    batch kernel), so every run carries the same number of them.
    """
    n_slots = int(round(slot_rate * seconds))
    profile = WorkloadProfile(
        n_requests=n_slots,
        base_unlearn_fraction=profile.base_unlearn_fraction,
        n_storms=profile.n_storms,
        storm_length=profile.storm_length,
        storm_unlearn_fraction=profile.storm_unlearn_fraction,
        user_size_shape=profile.user_size_shape,
        max_user_size=profile.max_user_size,
    )
    workload = generate_workload(
        profile, n_prediction_rows=n_test, n_deletable=n_train, seed=seed
    )
    rng = np.random.default_rng([seed, 1])
    due = _poisson_due(rng, n_slots, seconds)
    train_order = rng.permutation(n_train)
    kinds = [DELETE if event.kind == "unlearn" else PREDICT for event in workload.events]
    rows = [-1 if event.kind == "unlearn" else event.row for event in workload.events]
    sizes = np.array([event.size if event.kind == "unlearn" else 0 for event in workload.events])
    users = np.flatnonzero(sizes)
    if bulk_users and users.size:
        sizes[users[(2 * np.arange(bulk_users) + 1) * users.size // (2 * bulk_users)]] = bulk_size
    return _assemble(kinds, rows, sizes, due, train_order)


def read_steady(
    seed: int,
    seconds: float,
    rate: float,
    delete_every: int,
    n_train: int,
    n_test: int,
) -> Schedule:
    """Open-loop Poisson predictions with every ``delete_every``-th request
    a single-record deletion (evenly spread through the run)."""
    n = int(round(rate * seconds))
    rng = np.random.default_rng([seed, 2])
    due = _poisson_due(rng, n, seconds)
    is_delete = (np.arange(n) % delete_every) == delete_every // 2
    kinds = np.where(is_delete, DELETE, PREDICT)
    rows = np.where(is_delete, -1, rng.integers(0, n_test, size=n))
    train_order = rng.permutation(n_train)
    return _assemble(kinds, rows, is_delete.astype(np.int64), due, train_order)


def online_mixed(
    seed: int,
    n_ops: int,
    mix: tuple[float, float, float],
    n_train: int,
    n_test: int,
    n_heldout: int,
) -> Schedule:
    """Closed-loop interleaving of predictions, deletions and insertions
    drawn i.i.d. with probabilities ``mix`` (predict, delete, insert)."""
    rng = np.random.default_rng([seed, 3])
    kinds = rng.choice(3, size=n_ops, p=np.asarray(mix) / sum(mix))
    n_inserts = int(np.count_nonzero(kinds == INSERT))
    if n_inserts > n_heldout:
        raise ScheduleError(
            f"{n_inserts} insertions but only {n_heldout} held-out rows"
        )
    rows = rng.integers(0, n_test, size=n_ops)
    rows[kinds == INSERT] = rng.permutation(n_heldout)[:n_inserts]
    rows[kinds == DELETE] = -1
    train_order = rng.permutation(n_train)
    return _assemble(kinds, rows, (kinds == DELETE).astype(np.int64), None, train_order)


def check_pools(
    schedule: Schedule,
    n_train: int,
    n_heldout: int,
    shard_of_train_row: np.ndarray,
    shard_budgets: list[int],
    min_requests: dict[int, int],
) -> None:
    """Refuse a schedule before anything is timed.

    * every deletion is a training row, and no row is erased twice;
    * every insertion is a held-out row (a pool disjoint from the test
      set), inserted at most once;
    * each shard's scheduled deletions fit within its deletion budget, so
      a refused deletion is a failure, never a planned overrun;
    * each request kind carries at least ``min_requests[kind]`` requests
      (the sample count its reported percentiles need).
    """
    rows = schedule.delete_rows
    if rows.size:
        if rows.min() < 0 or rows.max() >= n_train:
            raise ScheduleError("a deletion names a row outside the training set")
        if np.unique(rows).size != rows.size:
            raise ScheduleError("a training record is scheduled for deletion twice")
        per_shard = np.bincount(shard_of_train_row[rows], minlength=len(shard_budgets))
        for shard, (planned, budget) in enumerate(zip(per_shard, shard_budgets)):
            if planned > budget:
                raise ScheduleError(
                    f"shard {shard} is scheduled {planned} deletions, its "
                    f"budget is {budget}"
                )
    inserted = schedule.inserted_rows()
    if inserted.size:
        if inserted.min() < 0 or inserted.max() >= n_heldout:
            raise ScheduleError("an insertion names a row outside the held-out pool")
        if np.unique(inserted).size != inserted.size:
            raise ScheduleError("a held-out record is scheduled for insertion twice")
    for kind, needed in min_requests.items():
        if schedule.count(kind) < needed:
            raise ScheduleError(
                f"{schedule.count(kind)} {KIND_NAMES[kind]} requests scheduled, "
                f"the reported percentiles need {needed}"
            )
