"""Per-shard durability: manifest, shard tagging, crash recovery."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.exceptions import HedgeCutError
from repro.persistence.wal import WriteAheadLog
from repro.sharding.model import ShardedHedgeCut
from repro.sharding.service import ShardedServingEngine
from repro.sharding.store import ShardedModelStore


@pytest.fixture()
def service(sharded_model, tmp_path):
    store = ShardedModelStore(tmp_path / "store", n_shards=4)
    engine = ShardedServingEngine(sharded_model, store)
    yield engine
    engine.close()


class TestShardedModelStore:
    def test_creates_manifest_and_shard_namespaces(self, tmp_path):
        store = ShardedModelStore(tmp_path / "s", n_shards=3, partitioner_salt=9)
        try:
            assert ShardedModelStore.exists(tmp_path / "s")
            assert len(store.shard_stores) == 3
            for shard in range(3):
                assert store.shard_directory(shard).is_dir()
            assert store.partitioner().salt == 9
        finally:
            store.close()

    def test_reopen_validates_shard_count(self, tmp_path):
        ShardedModelStore(tmp_path / "s", n_shards=4).close()
        with pytest.raises(HedgeCutError, match="partitioned 4 ways"):
            ShardedModelStore(tmp_path / "s", n_shards=8)

    def test_reopen_validates_salt(self, tmp_path):
        ShardedModelStore(tmp_path / "s", n_shards=2, partitioner_salt=1).close()
        with pytest.raises(HedgeCutError, match="salt"):
            ShardedModelStore(tmp_path / "s", partitioner_salt=2)

    def test_open_without_manifest_requires_shard_count(self, tmp_path):
        with pytest.raises(HedgeCutError, match="n_shards"):
            ShardedModelStore(tmp_path / "nothing-here")

    def test_snapshot_roundtrip(self, sharded_model, income_split, tmp_path):
        _, test = income_split
        matrix = test.feature_matrix()
        expected = sharded_model.predict_proba_rows(matrix)
        with ShardedModelStore(tmp_path / "s", n_shards=4) as store:
            store.save_snapshots(sharded_model)
        with ShardedModelStore(tmp_path / "s") as store:
            recovered = store.recover()
        assert recovered.model.n_shards == 4
        assert np.array_equal(recovered.model.predict_proba_rows(matrix), expected)

    def test_snapshot_rejects_mismatched_model(self, income_split, tmp_path):
        train, _ = income_split
        model = ShardedHedgeCut(n_shards=2, n_trees=4, seed=1).fit(train)
        with ShardedModelStore(tmp_path / "s", n_shards=4) as store:
            with pytest.raises(HedgeCutError, match="shards"):
                store.save_snapshots(model)


class TestShardedServingEngine:
    def test_rejects_routing_mismatch(self, sharded_model, tmp_path):
        store = ShardedModelStore(tmp_path / "s", n_shards=4, partitioner_salt=77)
        try:
            with pytest.raises(HedgeCutError, match="routing"):
                ShardedServingEngine(sharded_model, store)
        finally:
            store.close()

    def test_inprocess_serving_rejects_several_replicas(self, sharded_model, tmp_path):
        store = ShardedModelStore(tmp_path / "s", n_shards=4)
        try:
            with pytest.raises(ValueError, match='serving="shm"'):
                ShardedServingEngine(sharded_model, store, n_replicas=2)
        finally:
            store.close()

    def test_unlearn_routes_and_tags_audit_entry(self, service, income_split):
        train, _ = income_split
        record = train.record(3)
        owner = service.owning_shard(record)
        entry = service.unlearn("req-1", record)
        assert entry.shard_id == owner
        assert service.evidence_for("req-1").shard_id == owner

    def test_batch_splits_into_per_shard_frames(self, service, income_split):
        train, _ = income_split
        records = [train.record(row) for row in range(10)]
        entries = service.unlearn_batch("req-batch", records)
        touched = {entry.shard_id for entry in entries}
        expected = set(service.model.group_by_shard(records))
        assert touched == expected
        assert sum(entry.n_records for entry in entries) == len(records)
        for entry in entries:
            if len(entries) > 1:
                assert entry.request_id.endswith(f"/shard-{entry.shard_id}")

    def test_wal_frames_carry_shard_ids(self, service, income_split):
        train, _ = income_split
        record = train.record(5)
        owner = service.owning_shard(record)
        service.unlearn("req-wal", record)
        wal_dir = service.store.shard_directory(owner) / "wal"
        with WriteAheadLog(wal_dir) as wal:
            records = list(wal.records())
        assert records
        assert records[-1].shard_id == owner

    def test_predictions_aggregate_like_the_model(self, service, income_split):
        _, test = income_split
        matrix = test.feature_matrix()
        assert np.array_equal(
            service.predict_rows(matrix), service.model.predict_rows(matrix)
        )
        assert np.array_equal(
            service.predict_proba_rows(matrix),
            service.model.predict_proba_rows(matrix),
        )


class TestCrashRecoveryMidCampaign:
    def test_recovery_replays_unsnapshotted_deletions(
        self, sharded_model, income_split, tmp_path
    ):
        """Crash in the middle of a deletion campaign: snapshot + WAL tail."""
        train, test = income_split
        matrix = test.feature_matrix()
        directory = tmp_path / "store"

        store = ShardedModelStore(directory, n_shards=4)
        engine = ShardedServingEngine(sharded_model, store)
        engine.snapshot()
        # The campaign: some deletions after the snapshot, spread over
        # shards, the last few via the batched path.
        campaign = [train.record(row) for row in range(20, 32)]
        for position, record in enumerate(campaign[:6]):
            engine.unlearn(f"campaign-{position}", record)
        engine.unlearn_batch("campaign-batch", campaign[6:])
        expected_proba = engine.predict_proba_rows(matrix)
        expected_unlearned = engine.model.n_unlearned
        # Simulated crash: the store is reopened without a new snapshot.
        engine.close()

        with ShardedModelStore(directory) as reopened:
            recovered = ShardedServingEngine.recover(reopened)
            try:
                assert recovered.model.n_unlearned == expected_unlearned
                assert np.array_equal(
                    recovered.predict_proba_rows(matrix), expected_proba
                )
                # The replay actually did work on every shard the campaign hit.
                touched = set(
                    sharded_model.group_by_shard(campaign)
                )
                replayed_shards = {
                    shard_id
                    for shard_id, shard in enumerate(recovered.model.shards)
                    if shard.n_unlearned > 0
                }
                assert replayed_shards == touched
            finally:
                recovered.close()

    def test_recovered_service_keeps_serving_deletions(
        self, sharded_model, income_split, tmp_path
    ):
        train, _ = income_split
        directory = tmp_path / "store"
        store = ShardedModelStore(directory, n_shards=4)
        engine = ShardedServingEngine(sharded_model, store)
        engine.snapshot()
        engine.unlearn("before-crash", train.record(40))
        engine.close()

        with ShardedModelStore(directory) as reopened:
            recovered = ShardedServingEngine.recover(reopened)
            try:
                entry = recovered.unlearn("after-crash", train.record(41))
                assert entry.shard_id == recovered.owning_shard(train.record(41))
                assert recovered.model.n_unlearned == 2
            finally:
                recovered.close()
