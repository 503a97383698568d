"""Durable sharded serving: one serving engine per shard.

:class:`ShardedServingEngine` composes one serving engine per shard -- an
in-process :class:`~repro.serving.engine.ReplicatedServingEngine` or a
shared-memory :class:`~repro.serving.shm.ShmReplicatedServingEngine`, each
with its own consistency mode, WAL namespace and snapshot lineage --
behind the aggregated prediction interface of
:class:`~repro.sharding.model.ShardedHedgeCut`:

* prediction micro-batches fan out to every shard engine and the
  per-shard vote counts / probability means are aggregated exactly as in
  the sharded model;
* deletion requests route to **exactly one** shard engine, which sequences
  them through *its* WAL before touching *its* model -- shard WALs need
  no cross-shard coordination because a record's owning shard is a pure
  content hash;
* audit entries and WAL frames are tagged with the owning shard id, so a
  deletion is traceable end-to-end (request id -> shard -> WAL offset);
* :meth:`snapshot` persists every shard, and :meth:`recover` rebuilds the
  full service from the per-shard snapshots + WAL tails via
  :class:`~repro.sharding.store.ShardedModelStore`.
"""

from __future__ import annotations

import os
import secrets
from typing import Sequence

import numpy as np

from repro.core.exceptions import HedgeCutError
from repro.dataprep.dataset import Dataset, Record
from repro.serving.audit import AuditEntry
from repro.serving.engine import ReplicatedServingEngine
from repro.serving.shm import ShmReplicatedServingEngine
from repro.sharding.model import ShardedHedgeCut
from repro.sharding.store import ShardedModelStore


class ShardedServingEngine:
    """Durable multi-shard serving.

    Args:
        model: the fitted sharded model; its sub-ensembles become the
            primary models of the per-shard engines.
        store: sharded store providing one WAL + snapshot namespace per
            shard; its manifest must agree with the model's partitioner.
        n_replicas: under ``serving="shm"``, the shard's reader-process
            count; ``serving="inprocess"`` serves each shard from its one
            model and accepts only 1.
        consistency: read-consistency mode of every shard engine, see
            :data:`~repro.serving.engine.CONSISTENCY_MODES`.
        applied_seqs: per-shard WAL sequence numbers already reflected in
            the model (non-zero when resuming from recovery).
        serving: ``"inprocess"`` (each shard's model answers in this
            process, the default) or ``"shm"`` (one
            :class:`~repro.serving.shm.ShmReplicatedServingEngine` per
            shard: the shard's pack lives in its own shared-memory
            segment family ``{base}-s{shard_id}``, served by
            ``n_replicas`` reader processes).
        segment_name: base shared-memory name under ``serving="shm"``;
            defaults to a unique per-deployment name.
    """

    SERVING_MODES = ("inprocess", "shm")

    def __init__(
        self,
        model: ShardedHedgeCut,
        store: ShardedModelStore,
        n_replicas: int = 1,
        consistency: str = "strong",
        applied_seqs: list[int] | None = None,
        serving: str = "inprocess",
        segment_name: str | None = None,
    ) -> None:
        if model.n_shards != store.n_shards:
            raise HedgeCutError(
                f"model has {model.n_shards} shards, store has {store.n_shards}"
            )
        if model.partitioner != store.partitioner():
            raise HedgeCutError(
                "model and store disagree on the record->shard routing "
                "(partitioner salt mismatch)"
            )
        if serving not in self.SERVING_MODES:
            raise ValueError(
                f"serving must be one of {self.SERVING_MODES}, got {serving!r}"
            )
        if serving == "inprocess" and n_replicas != 1:
            raise ValueError(
                f'serving="inprocess" serves one model per shard, got '
                f'n_replicas={n_replicas}; use serving="shm" for several readers'
            )
        self.model = model
        self.store = store
        self.serving = serving
        if serving == "shm":
            base = segment_name or f"hcs-{os.getpid():x}-{secrets.token_hex(4)}"
            self.engines = [
                ShmReplicatedServingEngine(
                    model=shard_model,
                    store=shard_store,
                    n_readers=n_replicas,
                    consistency=consistency,
                    applied_seq=applied_seqs[shard_id] if applied_seqs else None,
                    shard_id=shard_id,
                    segment_name=f"{base}-s{shard_id}",
                )
                for shard_id, (shard_model, shard_store) in enumerate(
                    zip(model.shards, store.shard_stores)
                )
            ]
        else:
            self.engines = [
                ReplicatedServingEngine(
                    model=shard_model,
                    store=shard_store,
                    consistency=consistency,
                    applied_seq=applied_seqs[shard_id] if applied_seqs else None,
                    shard_id=shard_id,
                )
                for shard_id, (shard_model, shard_store) in enumerate(
                    zip(model.shards, store.shard_stores)
                )
            ]

    @classmethod
    def recover(
        cls,
        store: ShardedModelStore,
        n_replicas: int = 1,
        consistency: str = "strong",
        serving: str = "inprocess",
        segment_name: str | None = None,
    ) -> "ShardedServingEngine":
        """Restart the whole service after a crash.

        Every shard replays its own snapshot + WAL tail; the reassembled
        model serves again with routing identical to before the crash
        (under ``serving="shm"`` the shared segments are re-materialised
        from the replayed state, reclaiming any orphans).
        """
        recovered = store.recover()
        return cls(
            model=recovered.model,
            store=store,
            n_replicas=n_replicas,
            consistency=consistency,
            applied_seqs=recovered.wal_seqs,
            serving=serving,
            segment_name=segment_name,
        )

    # ------------------------------------------------------------------ #
    # structure
    # ------------------------------------------------------------------ #

    @property
    def n_shards(self) -> int:
        return len(self.engines)

    def owning_shard(self, record: Record) -> int:
        return self.model.owning_shard(record)

    # ------------------------------------------------------------------ #
    # aggregated serving
    # ------------------------------------------------------------------ #

    def predict_votes_rows(self, values: np.ndarray) -> np.ndarray:
        """Summed positive hard-vote counts across all shard engines."""
        matrix = np.asarray(values, dtype=np.int64)
        total = self.engines[0].predict_votes_rows(matrix)
        for engine in self.engines[1:]:
            total = total + engine.predict_votes_rows(matrix)
        return total

    def predict_rows(self, values: np.ndarray) -> np.ndarray:
        """Majority labels over the global tree count (one call per shard)."""
        votes = self.predict_votes_rows(values)
        return (2 * votes > self.model.n_trees).astype(np.uint8)

    def predict_proba_rows(self, values: np.ndarray) -> np.ndarray:
        """Soft-vote probabilities: mean of the per-shard engine answers."""
        matrix = np.asarray(values, dtype=np.int64)
        total = np.zeros(matrix.shape[0], dtype=np.float64)
        for engine in self.engines:
            total += engine.predict_proba_rows(matrix)
        return total / self.n_shards

    def predict(self, record: Record | Sequence[int] | np.ndarray) -> int:
        values = record.values if isinstance(record, Record) else record
        matrix = np.asarray(values, dtype=np.int64).reshape(1, -1)
        return int(self.predict_rows(matrix)[0])

    def predict_proba(self, record: Record | Sequence[int] | np.ndarray) -> float:
        values = record.values if isinstance(record, Record) else record
        matrix = np.asarray(values, dtype=np.int64).reshape(1, -1)
        return float(self.predict_proba_rows(matrix)[0])

    def predict_batch(self, dataset: Dataset) -> np.ndarray:
        return self.predict_rows(dataset.feature_matrix())

    # ------------------------------------------------------------------ #
    # routed deletions
    # ------------------------------------------------------------------ #

    def unlearn(
        self, request_id: str, record: Record, allow_budget_overrun: bool = False
    ) -> AuditEntry:
        """Serve one deletion durably through its owning shard only.

        The owning shard's engine appends to *its* WAL, applies to *its*
        model per the consistency mode, and returns an audit entry
        tagged with the shard id. All other shards do no work at all.
        """
        shard = self.owning_shard(record)
        return self.engines[shard].unlearn(
            request_id, record, allow_budget_overrun=allow_budget_overrun
        )

    def unlearn_batch(
        self,
        request_id: str,
        records: list[Record],
        allow_budget_overrun: bool = False,
        record_request_ids: list[str] | None = None,
    ) -> list[AuditEntry]:
        """Serve a deletion batch, group-committed per owning shard.

        The batch splits by content hash into per-shard sub-batches; each
        becomes **one** WAL frame and one batch-kernel pass on its shard
        (ascending shard id, submission order kept within a shard). Returns
        one shard-tagged audit entry per touched shard.
        """
        if not records:
            raise ValueError("cannot serve an empty deletion batch")
        entries = []
        for shard_id, positions in sorted(
            self.model.group_by_shard(records).items()
        ):
            sub_records = [records[position] for position in positions]
            sub_ids = (
                [record_request_ids[position] for position in positions]
                if record_request_ids is not None
                else None
            )
            suffix = f"/shard-{shard_id}" if len(records) > len(sub_records) else ""
            entries.append(
                self.engines[shard_id].unlearn_batch(
                    f"{request_id}{suffix}",
                    sub_records,
                    allow_budget_overrun=allow_budget_overrun,
                    record_request_ids=sub_ids,
                )
            )
        return entries

    # ------------------------------------------------------------------ #
    # audit and durability
    # ------------------------------------------------------------------ #

    @property
    def audit_entries(self) -> list[AuditEntry]:
        """All shards' audit trails, merged in timestamp order."""
        merged = [
            entry for engine in self.engines for entry in engine.audit_entries
        ]
        return sorted(merged, key=lambda entry: entry.timestamp)

    def evidence_for(self, request_id: str) -> AuditEntry:
        """Accountability lookup across every shard's audit trail."""
        for engine in self.engines:
            try:
                return engine.evidence_for(request_id)
            except KeyError:
                continue
        raise KeyError(f"no audit entry for request {request_id!r} in any shard")

    def snapshot(self) -> list:
        """Snapshot every shard (each compacting its own WAL)."""
        return [engine.snapshot() for engine in self.engines]

    def close(self) -> None:
        for engine in self.engines:
            engine.close()

    def __enter__(self) -> "ShardedServingEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
