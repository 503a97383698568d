"""The three workloads: deployment, schedule, latency limits, rationale."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.serving import MicroBatchConfig
from repro.serving.workload import WorkloadProfile

from perfbench import schedule as schedules
from perfbench.deploy import INPROCESS, SHARDED, SHM, Data, ModelConfig
from perfbench.latency import min_samples_for
from perfbench.schedule import DELETE, INSERT, PREDICT, Schedule

#: Every p99 needs ten samples beyond it.
P99_SAMPLES = min_samples_for(99)


@dataclass(frozen=True)
class WorkloadSpec:
    """One workload.

    Attributes:
        deployment: :data:`~perfbench.deploy.SHARDED`, ``SHM`` or
            ``INPROCESS``.
        n_readers: reader processes per shard (shm) or replicas.
        batch: the front end's batch windows.
        open_loop: requests sent on a schedule (True) or by one client
            that waits for each reply (False).
        slo_us: latency limit per request kind for ``slo_met_share``,
            set above the p99 measured on a 2-core box (1.5-4x on the
            open loops; far above it on the closed loop, so that only
            stalls count).
        make_schedule: ``(seed, seconds, data, config) -> Schedule``.
        min_requests: requests per kind the schedule must carry; its keys
            are the kinds the workload serves.
    """

    name: str
    deployment: str
    n_readers: int
    batch: MicroBatchConfig
    open_loop: bool
    slo_us: dict[int, float]
    make_schedule: Callable[[int, float, Data, ModelConfig], Schedule]
    min_requests: dict[int, int]
    why: str


# gdpr-storm: storms of user deletions (capped-Pareto sizes) over a low
# base rate, single-row predictions throughout, at one slot rate. The tail
# is light enough that the p99 is not set by a handful of huge users; a
# fixed number of bulk erasures per run, each larger than a batch window,
# exercises the engine's batch path and the batch kernel.
STORM_SLOT_RATE = 200.0
STORM_BULK_USERS = 4
STORM_BULK_SIZE = 80
STORM_PROFILE = WorkloadProfile(
    n_requests=1,
    base_unlearn_fraction=0.15,
    n_storms=7,
    storm_length=375,
    storm_unlearn_fraction=0.6,
    user_size_shape=2.5,
    max_user_size=32,
)

# read-steady: Poisson single-row predictions; every 40th request is a
# single-record deletion (2.5%: 1,000 deletions in a 20 s run, enough
# for a p99) at a rate that leaves the load generator mostly waiting.
READ_RATE = 2_000.0
READ_DELETE_EVERY = 40

# online-mixed: one closed-loop client. The schedule is capped at 90% of
# the deletion budget (144k requests); at the measured 2.5-6k requests/s
# a 20 s run uses at most 85% of it, so the cap only guards a faster machine.
MIXED_SHARES = (0.7, 0.2, 0.1)


def _storm(seed: int, seconds: float, data: Data, config: ModelConfig) -> Schedule:
    return schedules.gdpr_storm(
        seed, seconds, STORM_SLOT_RATE, STORM_PROFILE,
        n_train=data.train.n_rows, n_test=data.test.n_rows,
        bulk_users=STORM_BULK_USERS, bulk_size=STORM_BULK_SIZE,
    )


def _read(seed: int, seconds: float, data: Data, config: ModelConfig) -> Schedule:
    return schedules.read_steady(
        seed, seconds, READ_RATE, READ_DELETE_EVERY,
        n_train=data.train.n_rows, n_test=data.test.n_rows,
    )


def _mixed(seed: int, seconds: float, data: Data, config: ModelConfig) -> Schedule:
    budget = int(config.epsilon * data.train.n_rows)
    n_ops = int(0.9 * budget / MIXED_SHARES[1])
    return schedules.online_mixed(
        seed, n_ops, MIXED_SHARES,
        n_train=data.train.n_rows, n_test=data.test.n_rows,
        n_heldout=data.heldout.n_rows,
    )


WORKLOADS: dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            name="gdpr-storm",
            deployment=SHARDED,
            n_readers=1,
            batch=MicroBatchConfig(max_batch=32, max_delay_ms=1.0),
            open_loop=True,
            slo_us={PREDICT: 20_000.0, DELETE: 40_000.0},
            make_schedule=_storm,
            min_requests={PREDICT: P99_SAMPLES, DELETE: P99_SAMPLES},
            why=(
                "Deletion storms group-commit per shard on K=2 shm shards: WAL "
                "fsync, core write paths and sharding dominate, and reads queue "
                "behind storms."
            ),
        ),
        WorkloadSpec(
            name="read-steady",
            deployment=SHM,
            n_readers=2,
            batch=MicroBatchConfig(max_batch=64, max_delay_ms=8.0),
            open_loop=True,
            slo_us={PREDICT: 20_000.0, DELETE: 20_000.0},
            make_schedule=_read,
            min_requests={PREDICT: P99_SAMPLES, DELETE: P99_SAMPLES},
            why=(
                "Batched reads on a K=1 two-reader shm fleet with a 2.5% trickle "
                "of single deletions: the fleet read path dominates and group "
                "commit is bypassed."
            ),
        ),
        WorkloadSpec(
            name="online-mixed",
            deployment=INPROCESS,
            n_readers=1,
            batch=MicroBatchConfig(max_batch=256, max_delay_ms=2.0),
            open_loop=False,
            slo_us={PREDICT: 5_000.0, DELETE: 10_000.0, INSERT: 10_000.0},
            make_schedule=_mixed,
            min_requests={PREDICT: P99_SAMPLES, DELETE: P99_SAMPLES, INSERT: P99_SAMPLES},
            why=(
                "One closed-loop client mixing 1-row predictions, deletions and "
                "insertions in one process: single-row pack walks and the write "
                "paths set capacity."
            ),
        ),
    )
}
