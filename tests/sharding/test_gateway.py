"""Asyncio gateway: correctness, admission control, fairness accounting.

No pytest-asyncio in the environment, so every test drives its own event
loop with ``asyncio.run``.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.core.exceptions import HedgeCutError
from repro.serving.microbatch import MicroBatchConfig
from repro.sharding.gateway import (
    AsyncShardedGateway,
    GatewayConfig,
    GatewayOverloaded,
)
from repro.sharding.microbatch import ShardedMicroBatcher
from repro.sharding.service import ShardedServingEngine
from repro.sharding.store import ShardedModelStore


@pytest.fixture()
def engine(sharded_model, tmp_path):
    store = ShardedModelStore(tmp_path / "store", n_shards=4)
    service = ShardedServingEngine(sharded_model, store)
    yield service
    service.close()


@pytest.fixture()
def batcher(engine):
    return ShardedMicroBatcher(
        engine, MicroBatchConfig(max_batch=64, max_delay_ms=10_000.0)
    )


class TestGatewayConfig:
    def test_rejects_bad_admission_mode(self):
        with pytest.raises(ValueError, match="admission"):
            GatewayConfig(admission="drop")

    def test_rejects_non_positive_depth(self):
        with pytest.raises(ValueError, match="max_queue_depth"):
            GatewayConfig(max_queue_depth=0)


class TestServing:
    def test_concurrent_predictions_match_direct_answers(
        self, batcher, engine, income_split
    ):
        _, test = income_split
        probes = [test.record(row) for row in range(10)]
        expected = [engine.predict(probe.values) for probe in probes]

        async def drive():
            async with AsyncShardedGateway(batcher) as gateway:
                return await asyncio.gather(
                    *[gateway.predict("tenant", probe) for probe in probes]
                )

        assert asyncio.run(drive()) == expected

    def test_proba_and_unlearn_roundtrip(self, batcher, engine, income_split):
        train, test = income_split
        probe = test.record(0)
        victim = train.record(12)
        expected_proba = engine.predict_proba(probe.values)

        async def drive():
            async with AsyncShardedGateway(batcher) as gateway:
                proba = await gateway.predict_proba("tenant-a", probe)
                entry = await gateway.unlearn("tenant-b", "gdpr-1", victim)
                return proba, entry

        proba, entry = asyncio.run(drive())
        assert proba == pytest.approx(expected_proba)
        assert entry.shard_id == engine.owning_shard(victim)
        assert engine.evidence_for("gdpr-1").shard_id == entry.shard_id

    def test_deletion_then_prediction_observes_the_deletion(
        self, batcher, engine, income_split
    ):
        train, test = income_split
        probe = test.record(3)

        async def drive():
            async with AsyncShardedGateway(batcher) as gateway:
                await gateway.unlearn("tenant", "gdpr-2", train.record(33))
                return await gateway.predict_proba("tenant", probe)

        assert asyncio.run(drive()) == pytest.approx(
            engine.predict_proba(probe.values)
        )

    def test_failed_dispatch_surfaces_on_every_caller(
        self, batcher, engine, income_split, monkeypatch
    ):
        _, test = income_split
        probes = [test.record(row) for row in range(3)]

        def broken(*_args, **_kwargs):
            raise OSError("shard went away")

        async def drive():
            async with AsyncShardedGateway(batcher) as gateway:
                monkeypatch.setattr(engine.engines[0], "predict_votes_rows", broken)
                failed = await asyncio.gather(
                    *[gateway.predict("tenant", probe) for probe in probes],
                    return_exceptions=True,
                )
                monkeypatch.undo()
                answered = await gateway.predict("tenant", probes[0])
                return failed, answered

        failed, answered = asyncio.run(drive())
        assert all(isinstance(outcome, OSError) for outcome in failed)
        assert answered == engine.predict(probes[0].values)

    def test_submission_outside_lifecycle_fails(self, batcher, income_split):
        _, test = income_split
        gateway = AsyncShardedGateway(batcher)

        async def drive():
            with pytest.raises(HedgeCutError, match="not running"):
                await gateway.predict("tenant", test.record(0))

        asyncio.run(drive())

    def test_budget_exhaustion_surfaces_in_audit_entries(
        self, batcher, engine, income_split
    ):
        """The audit layer answers (not raises): callers see failed entries."""
        train, _ = income_split
        shard = 0
        budget = engine.model.shards[shard].remaining_deletion_budget
        victims = []
        for row in range(train.n_rows):
            record = train.record(row)
            if engine.owning_shard(record) == shard:
                victims.append(record)
                if len(victims) > budget:
                    break

        async def drive():
            async with AsyncShardedGateway(batcher) as gateway:
                entries = []
                for position, record in enumerate(victims):
                    entries.append(
                        await gateway.unlearn("tenant", f"gdpr-{position}", record)
                    )
                return entries

        entries = asyncio.run(drive())
        assert all(entry.succeeded for entry in entries[:budget])
        assert not entries[-1].succeeded
        assert "budget" in entries[-1].error


class TestAdmissionControl:
    def test_reject_mode_sheds_load_when_queue_fills(
        self, batcher, income_split
    ):
        _, test = income_split
        config = GatewayConfig(max_queue_depth=2, admission="reject")
        gateway = AsyncShardedGateway(batcher, config)

        async def drive():
            # Dispatcher not started: the queue can only fill up.
            gateway._running = True
            submitted = [
                asyncio.ensure_future(gateway.predict("tenant", test.record(0)))
                for _ in range(2)
            ]
            await asyncio.sleep(0)
            with pytest.raises(GatewayOverloaded):
                await gateway.predict("tenant", test.record(0))
            for future in submitted:
                future.cancel()

        asyncio.run(drive())
        assert gateway.stats.n_rejected == 1
        assert gateway.stats.n_accepted == 2

    def test_block_mode_applies_backpressure_until_drained(
        self, batcher, engine, income_split
    ):
        _, test = income_split
        config = GatewayConfig(max_queue_depth=1, admission="block")
        probes = [test.record(row) for row in range(6)]
        expected = [engine.predict(probe.values) for probe in probes]

        async def drive():
            async with AsyncShardedGateway(batcher, config) as gateway:
                labels = await asyncio.gather(
                    *[gateway.predict("tenant", probe) for probe in probes]
                )
                return labels, gateway.stats

        labels, stats = asyncio.run(drive())
        assert labels == expected
        assert stats.n_rejected == 0
        assert stats.queue_high_water["tenant"] == 1

    def test_per_tenant_queues_and_accounting(self, batcher, income_split):
        _, test = income_split

        async def drive():
            async with AsyncShardedGateway(batcher) as gateway:
                await asyncio.gather(
                    *[
                        gateway.predict(f"tenant-{row % 3}", test.record(row))
                        for row in range(9)
                    ]
                )
                return gateway.stats

        stats = asyncio.run(drive())
        assert stats.accepted_per_tenant() == {
            "tenant-0": 3,
            "tenant-1": 3,
            "tenant-2": 3,
        }
        assert stats.n_dispatched == 9
