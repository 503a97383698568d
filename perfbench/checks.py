"""Output checks, run after the timed region and outside it.

(a) every reader or replica answers bit-identically to its primary;
(b) ``recover()`` from the run's store lands bit-identical to the live
    primary, so every acknowledged deletion was durable;
(c) every served label equals a replay of the acknowledged operations,
    in submission order, with the object walk (``path="object"``);
(d) the WAL ``last_seq`` and the audit entries reconcile with the
    acknowledged records.

Each check returns a list of human-readable failures (empty = passed).
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.core.exceptions import HedgeCutError
from repro.persistence.snapshot import load_snapshot
from repro.persistence.wal import BatchDeletionRecord, InsertionRecord
from repro.serving import ReplicatedServingEngine, ShmReplicatedServingEngine
from repro.sharding import ShardedServingEngine

from perfbench.deploy import INPROCESS, SHARDED, Data, Deployment
from perfbench.schedule import DELETE, INSERT, PREDICT, Schedule


def _bit_identical(left: np.ndarray, right: np.ndarray) -> bool:
    left = np.ascontiguousarray(left, dtype=np.float64)
    right = np.ascontiguousarray(right, dtype=np.float64)
    return left.shape == right.shape and np.array_equal(
        left.view(np.uint64), right.view(np.uint64)
    )


def readers_match_primary(deployment: Deployment, matrix: np.ndarray) -> list[str]:
    """(a): one full test-matrix read per reader or replica, round-robin."""
    failures = []
    for shard, engine in enumerate(deployment.shard_engines):
        reference = engine.primary.predict_proba_rows(matrix)
        copies = engine.n_replicas if deployment.kind == INPROCESS else engine.n_readers
        for copy in range(copies):
            if not _bit_identical(engine.predict_proba_rows(matrix), reference):
                failures.append(f"shard {shard} reader/replica {copy} differs from its primary")
    return failures


def recovery_matches_live(deployment: Deployment, matrix: np.ndarray) -> list[str]:
    """(b): recover with the engine class in use and compare every shard."""
    store = deployment.store
    name = deployment.segment_name + "r"
    if deployment.kind == SHARDED:
        recovered = ShardedServingEngine.recover(
            store, n_replicas=1, consistency="strong", serving="shm", segment_name=name
        )
        recovered_models = [engine.primary for engine in recovered.engines]
    elif deployment.kind == INPROCESS:
        recovered = ReplicatedServingEngine.recover(store, n_replicas=1, consistency="strong")
        recovered_models = [recovered.primary]
    else:
        recovered = ShmReplicatedServingEngine.recover(
            store, n_readers=1, consistency="strong", segment_name=name
        )
        recovered_models = [recovered.primary]
    try:
        failures = []
        for shard, (live, again) in enumerate(zip(deployment.shard_models, recovered_models)):
            if not _bit_identical(
                again.predict_proba_rows(matrix), live.predict_proba_rows(matrix)
            ):
                failures.append(f"shard {shard}: recovered model differs from the live primary")
            if again.n_unlearned != live.n_unlearned:
                failures.append(
                    f"shard {shard}: recovered {again.n_unlearned} deletions, "
                    f"live primary has {live.n_unlearned}"
                )
        return failures
    finally:
        # Stops the recovered fleet and unlinks its segments; the shared
        # store closes too, which is idempotent for the live engine.
        recovered.close()


def replay_labels(
    deployment: Deployment,
    schedule: Schedule,
    n_issued: int,
    labels: np.ndarray,
    acknowledged: np.ndarray,
    data: Data,
) -> list[str]:
    """(c): object-walk replay from the initial snapshots.

    A label must equal the majority vote, over every tree of every shard,
    of the replayed state holding exactly the acknowledged writes
    submitted before it -- the ordering every front end promises.
    """
    models = [load_snapshot(path)[0] for path in deployment.initial_snapshots]
    n_trees = sum(len(model.trees) for model in models)
    owner = deployment.model.owning_shard if deployment.kind == SHARDED else None
    pending: list[int] = []
    failures: list[str] = []

    def settle() -> None:
        trees = [tree for model in models for tree in model.trees]
        for index in pending:
            values = tuple(int(code) for code in data.test_matrix[schedule.row[index]])
            votes = sum(tree.predict_value(values) for tree in trees)
            expected = 1 if 2 * votes > n_trees else 0
            if labels[index] != expected and len(failures) < 10:
                failures.append(
                    f"request {index}: served label {labels[index]}, replay says {expected}"
                )
        pending.clear()

    for index in range(n_issued):
        kind = schedule.kind[index]
        if kind == PREDICT:
            pending.append(index)
            continue
        settle()
        if not acknowledged[index]:
            continue
        if kind == DELETE:
            for row in schedule.deleted_rows(index):
                record = data.train.record(int(row))
                model = models[owner(record) if owner else 0]
                try:
                    model.unlearn(record, path="object")
                except HedgeCutError as error:
                    failures.append(f"request {index}: replay refused a deletion: {error}")
        elif kind == INSERT:
            models[0].learn_one(data.heldout.record(int(schedule.row[index])))
    settle()
    return failures


def expected_records(
    deployment: Deployment,
    schedule: Schedule,
    n_issued: int,
    acknowledged: np.ndarray,
    data: Data,
) -> list[Counter]:
    """Per shard: a multiset of (request id, values, label, is_insert)."""
    per_shard = [Counter() for _ in deployment.shard_engines]
    owner = deployment.model.owning_shard if deployment.kind == SHARDED else None
    for index in range(n_issued):
        if not acknowledged[index]:
            continue
        kind = schedule.kind[index]
        if kind == DELETE:
            rows = schedule.deleted_rows(index)
            for position, row in enumerate(rows):
                record = data.train.record(int(row))
                request_id = request_ids(index, len(rows), deployment.kind)[position]
                shard = owner(record) if owner else 0
                per_shard[shard][(request_id, record.values, record.label, False)] += 1
        elif kind == INSERT:
            record = data.heldout.record(int(schedule.row[index]))
            per_shard[0][(f"r{index}", record.values, record.label, True)] += 1
    return per_shard


def request_ids(index: int, n_records: int, kind: str) -> list[str]:
    """The request id each record of request ``index`` is logged under."""
    if kind == SHARDED:
        return [f"r{index}.{position}" for position in range(n_records)]
    return [f"r{index}"]


def wal_and_audit_reconcile(deployment: Deployment, expected: list[Counter]) -> list[str]:
    """(d): log sequence, audit trail and acknowledged records agree."""
    failures = []
    for shard, (engine, wanted) in enumerate(zip(deployment.shard_engines, expected)):
        logged: Counter = Counter()
        seqs: list[int] = []
        for frame in engine.store.wal.frames():
            members = frame.records if isinstance(frame, BatchDeletionRecord) else (frame,)
            for member in members:
                seqs.append(member.seq)
                logged[(member.request_id, member.values, member.label,
                        isinstance(member, InsertionRecord))] += 1
        n_records = sum(wanted.values())
        last_seq = engine.store.wal.last_seq
        if last_seq != n_records or seqs != list(range(1, n_records + 1)):
            failures.append(
                f"shard {shard}: WAL last_seq {last_seq} over {len(seqs)} frames "
                f"for {n_records} acknowledged records"
            )
        if logged != wanted:
            failures.append(f"shard {shard}: WAL records differ from the acknowledged ones")
        entries = engine.audit_entries
        covered = sorted(
            seq
            for entry in entries
            for seq in range(entry.log_offset, entry.log_offset + entry.n_records)
        )
        if not all(entry.succeeded for entry in entries) or covered != seqs:
            failures.append(f"shard {shard}: audit entries do not cover the WAL exactly")
    return failures
