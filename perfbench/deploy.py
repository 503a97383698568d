"""Standing up one durable deployment: data, fit, pack, store, engine.

Every deployment writes to a fresh on-disk store with ``fsync=True``
passed explicitly and takes an initial snapshot (recovery and the replay
oracle start from it). :func:`setup` is what ``setup_s`` times.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core import HedgeCutClassifier
from repro.core.params import HedgeCutParams
from repro.dataprep.dataset import Dataset
from repro.datasets.registry import load_dataset_with_preprocessor, load_raw
from repro.evaluation.splits import train_test_split
from repro.persistence.store import ModelStore
from repro.serving import (
    MicroBatchConfig,
    MicroBatcher,
    ReplicatedServingEngine,
    ShmReplicatedServingEngine,
)
from repro.sharding import (
    HashPartitioner,
    ShardedHedgeCut,
    ShardedMicroBatcher,
    ShardedModelStore,
    ShardedServingEngine,
)

SHARDED, SHM, INPROCESS = "sharded-shm", "shm", "inprocess"


@dataclass(frozen=True)
class ModelConfig:
    """The model every workload serves (credit, 32k train / 8k test rows).

    ``epsilon`` is sized so that no run leaves the deletion budget
    ``epsilon * |D|``: the closed loop deletes 10-23k records in a
    20-second run on a 2-core box, and its schedule is capped below the
    budget. On this data every epsilon from 0.1 up grows bit-identical
    trees, so epsilon only sizes the budget here. ``trainer="frontier"``
    keeps set-up short enough to repeat it three times per run.
    """

    dataset: str = "credit"
    n_rows: int = 40_000
    data_seed: int = 3
    test_fraction: float = 0.2
    n_trees: int = 8
    epsilon: float = 1.0
    model_seed: int = 5
    trainer: str = "frontier"
    #: Insertions come from a separately generated pool, encoded with the
    #: training preprocessor: disjoint from the test set by construction.
    heldout_rows: int = 16_000
    heldout_seed: int = 1_003


@dataclass
class Data:
    train: Dataset
    test: Dataset
    heldout: Dataset
    test_matrix: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.test_matrix = self.test.feature_matrix()


def load_data(config: ModelConfig) -> Data:
    dataset, preprocessor = load_dataset_with_preprocessor(
        config.dataset, n_rows=config.n_rows, seed=config.data_seed
    )
    train, test = train_test_split(
        dataset, test_fraction=config.test_fraction, seed=config.data_seed
    )
    heldout = preprocessor.transform(
        load_raw(config.dataset, n_rows=config.heldout_rows, seed=config.heldout_seed)
    )
    return Data(train=train, test=test, heldout=heldout)


def shard_plan(config: ModelConfig, data: Data, n_shards: int) -> tuple[np.ndarray, list[int]]:
    """Owning shard of every training row and each shard's deletion budget.

    Computed before fitting, from the same partitioner and budget rule the
    model uses, so the pool guards run before anything is timed.
    """
    partitioner = HashPartitioner(n_shards)
    owners = partitioner.shards_of_matrix(data.train.feature_matrix(), data.train.labels)
    sizes = np.bincount(owners, minlength=n_shards)
    params = HedgeCutParams(n_trees=config.n_trees, epsilon=config.epsilon)
    return owners, [params.deletion_budget(int(size)) for size in sizes]


@dataclass
class Deployment:
    """One running deployment and the handles the load generator needs."""

    kind: str
    engine: object
    batcher: object
    store: object
    model: object
    segment_name: str
    fit_seconds: float
    initial_snapshots: list[Path]

    @property
    def shard_engines(self) -> list:
        """Per-shard engines (the engine itself when unsharded)."""
        return list(self.engine.engines) if self.kind == SHARDED else [self.engine]

    @property
    def shard_models(self) -> list[HedgeCutClassifier]:
        return [engine.primary for engine in self.shard_engines]

    def close(self) -> None:
        """Stop readers, unlink segments, close the store (idempotent)."""
        self.engine.close()


def deploy(
    kind: str,
    config: ModelConfig,
    data: Data,
    batch: MicroBatchConfig,
    store_dir: Path,
    segment_name: str,
    n_readers: int,
) -> Deployment:
    started = time.perf_counter()
    if kind == SHARDED:
        model = ShardedHedgeCut(
            n_shards=2,
            n_trees=config.n_trees,
            epsilon=config.epsilon,
            trainer=config.trainer,
            seed=config.model_seed,
        ).fit(data.train)
    else:
        model = HedgeCutClassifier(
            n_trees=config.n_trees,
            epsilon=config.epsilon,
            trainer=config.trainer,
            seed=config.model_seed,
        ).fit(data.train)
    fit_seconds = time.perf_counter() - started

    if kind == SHARDED:
        store = ShardedModelStore(store_dir, n_shards=2, fsync=True)
    else:
        store = ModelStore(store_dir, fsync=True)
    try:
        if kind == SHARDED:
            engine = ShardedServingEngine(
                model, store, n_replicas=n_readers, consistency="strong",
                serving="shm", segment_name=segment_name,
            )
            batcher = ShardedMicroBatcher(engine, batch)
        elif kind == SHM:
            engine = ShmReplicatedServingEngine(
                model, store, n_readers=n_readers, consistency="strong",
                segment_name=segment_name,
            )
            batcher = MicroBatcher(engine, batch)
        else:
            engine = ReplicatedServingEngine(
                model, store, n_replicas=n_readers, consistency="strong"
            )
            batcher = MicroBatcher(engine, batch)
    except BaseException:
        store.close()
        raise
    deployment = Deployment(
        kind=kind, engine=engine, batcher=batcher, store=store, model=model,
        segment_name=segment_name, fit_seconds=fit_seconds, initial_snapshots=[],
    )
    try:
        engine.snapshot()
        deployment.initial_snapshots = [
            engine.store.snapshot_paths()[-1] for engine in deployment.shard_engines
        ]
    except BaseException:
        deployment.close()
        raise
    return deployment
