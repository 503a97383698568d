"""Crash-recoverable in-process serving engine for HedgeCut models.

:class:`ReplicatedServingEngine` serves predictions and deletions from one
in-memory model, the deployment of the paper's Figure 1, and layers the
:mod:`repro.persistence` subsystem under it: every write is sequenced
through the write-ahead log *before* the model is touched, so a process
crash never loses an acknowledged deletion -- on restart,
:meth:`ReplicatedServingEngine.recover` rebuilds the exact pre-crash state
from the latest snapshot plus the WAL tail.

The consistency modes of :data:`CONSISTENCY_MODES` decide how quickly a
write becomes visible to reads on engines with several readers
(:class:`~repro.serving.shm.ShmReplicatedServingEngine`). With one model
every mode holds trivially: a write is applied before it is acknowledged.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.ensemble import HedgeCutClassifier
from repro.dataprep.dataset import Dataset, Record
from repro.persistence.store import ModelStore
from repro.serving.audit import AuditedUnlearner, AuditEntry

#: Supported read-consistency modes.
CONSISTENCY_MODES = ("strong", "read_your_deletes", "eventual")


class ReplicatedServingEngine:
    """Durable in-process serving from one model on top of a :class:`ModelStore`.

    Predictions and deletions are answered by the one model passed in (the
    *primary*). Multi-reader serving is
    :class:`~repro.serving.shm.ShmReplicatedServingEngine`'s job: its
    reader processes share one packed ensemble instead of copying it.

    Args:
        model: the fitted model to serve; it is mutated by deletions.
        store: durable store providing the WAL and the snapshot directory.
        n_replicas: must be 1, the one model; any other count raises
            :class:`ValueError`.
        consistency: one of :data:`CONSISTENCY_MODES`. Every mode holds
            trivially here: a write reaches the one model before it is
            acknowledged, so every later read observes it.
        applied_seq: the WAL sequence number already reflected in ``model``
            (non-zero when resuming from recovery).
        shard_id: owning shard when this engine serves one shard of a
            sharded deployment; stamped onto every audit entry and WAL
            frame it writes (``None`` = unsharded).
    """

    def __init__(
        self,
        model: HedgeCutClassifier,
        store: ModelStore,
        n_replicas: int = 1,
        consistency: str = "strong",
        applied_seq: int | None = None,
        shard_id: int | None = None,
    ) -> None:
        if n_replicas != 1:
            raise ValueError(
                f"n_replicas must be 1, got {n_replicas}; serve several readers "
                "with ShmReplicatedServingEngine(n_readers=...)"
            )
        if consistency not in CONSISTENCY_MODES:
            raise ValueError(
                f"consistency must be one of {CONSISTENCY_MODES}, got {consistency!r}"
            )
        if applied_seq is None:
            applied_seq = store.wal.last_seq
        self.store = store
        self.consistency = consistency
        if model.is_fitted:
            # Warm the packed read kernel and the write-side unlearn pack:
            # single deletions then take the scalar fast path of
            # :mod:`repro.core.unlearn_fast` from the first request instead
            # of paying a pack build (or the object walk) on the serving
            # hot path.
            model.packed.unlearn_pack()
        self._model = model
        self._applied_seq = applied_seq
        self.shard_id = shard_id
        self._audited = AuditedUnlearner(model=model, wal=store.wal, shard_id=shard_id)

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def recover(
        cls,
        store: ModelStore,
        n_replicas: int = 1,
        consistency: str = "strong",
        shard_id: int | None = None,
    ) -> "ReplicatedServingEngine":
        """Restart after a crash: snapshot + WAL replay, then serve again."""
        recovered = store.recover()
        return cls(
            model=recovered.model,
            store=store,
            n_replicas=n_replicas,
            consistency=consistency,
            applied_seq=recovered.wal_seq,
            shard_id=shard_id,
        )

    @property
    def n_replicas(self) -> int:
        return 1

    @property
    def primary(self) -> HedgeCutClassifier:
        return self._model

    @property
    def durable_seq(self) -> int:
        """Sequence number of the last durably logged deletion."""
        return self.store.wal.last_seq

    # ------------------------------------------------------------------ #
    # serving API
    # ------------------------------------------------------------------ #

    def predict(self, record: Record | Sequence[int] | np.ndarray) -> int:
        """Answer one prediction request."""
        return self._model.predict(record)

    def predict_proba(self, record: Record | Sequence[int] | np.ndarray) -> float:
        return self._model.predict_proba(record)

    def predict_batch(self, dataset: Dataset) -> np.ndarray:
        return self._model.predict_batch(dataset)

    def predict_rows(self, values: np.ndarray) -> np.ndarray:
        """Answer one micro-batch of raw code rows with a single packed call.

        This is the dispatch target of
        :class:`~repro.serving.microbatch.MicroBatcher`: the whole
        ``(n_rows, n_features)`` matrix is traversed by the packed
        ensemble kernel in one call.
        """
        return self._model.predict_rows(values)

    def predict_proba_rows(self, values: np.ndarray) -> np.ndarray:
        """Soft-vote probabilities for one micro-batch of raw code rows.

        Used by the sharded aggregation path: each shard engine answers
        with its sub-ensemble's mean positive-class probability and the
        shard layer averages the contributions.
        """
        return self._model.predict_proba_rows(values)

    def predict_votes_rows(self, values: np.ndarray) -> np.ndarray:
        """Positive hard-vote counts for one micro-batch of raw code rows.

        Vote counts from independent shards add; the shard layer applies
        the global majority threshold once over the summed counts.
        """
        return self._model.predict_votes_rows(values)

    def unlearn(
        self, request_id: str, record: Record, allow_budget_overrun: bool = False
    ) -> AuditEntry:
        """Serve one GDPR deletion request durably.

        Protocol: (1) append to the WAL (the durability point -- once this
        returns, a crash cannot lose the request), (2) apply to the model
        and record the audit entry with the durable log offset.
        """
        entry = self._audited.unlearn(
            request_id, record, allow_budget_overrun=allow_budget_overrun
        )
        if entry.log_offset is not None:
            self._applied_seq = entry.log_offset
        return entry

    def learn_one(self, request_id: str, record: Record) -> AuditEntry:
        """Serve one incremental-learning (insertion) request durably.

        Same protocol as :meth:`unlearn`: the insertion is appended to
        the shared WAL (preserving the insert/delete interleaving for
        replay) before the model is touched.
        """
        entry = self._audited.learn_one(request_id, record)
        if entry.log_offset is not None:
            self._applied_seq = entry.log_offset
        return entry

    def unlearn_batch(
        self,
        request_id: str,
        records: list[Record],
        allow_budget_overrun: bool = False,
        record_request_ids: list[str] | None = None,
    ) -> AuditEntry:
        """Serve one batch of deletion requests as a single durable op.

        The whole batch becomes **one** group-committed WAL frame (one
        flush/fsync instead of one per record -- the durability half of
        the batched delete path) and one all-or-nothing pass of the
        vectorised batch-unlearning kernel.
        """
        entry = self._audited.unlearn_batch(
            request_id,
            records,
            allow_budget_overrun=allow_budget_overrun,
            record_request_ids=record_request_ids,
        )
        if entry.log_offset is not None:
            self._applied_seq = entry.log_offset + len(records) - 1
        return entry

    # ------------------------------------------------------------------ #
    # audit and durability
    # ------------------------------------------------------------------ #

    @property
    def audit_entries(self) -> list[AuditEntry]:
        """The audit trail (every deletion request, with its log offset)."""
        return self._audited.entries

    def evidence_for(self, request_id: str) -> AuditEntry:
        return self._audited.evidence_for(request_id)

    def write_audit_log(self, path) -> None:
        self._audited.write_log(path)

    def snapshot(self):
        """Persist the current state and compact the WAL.

        The snapshot is taken from the model at its applied sequence
        number. Returns the
        :class:`~repro.persistence.snapshot.SnapshotInfo`.
        """
        return self.store.save_snapshot(self._model, wal_seq=self._applied_seq)

    def close(self) -> None:
        self.store.close()

    def __enter__(self) -> "ReplicatedServingEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
