"""Model-serving layer (the deployment context of Figure 1).

The paper's motivation is that unlearning must happen *inside* the serving
system, at latencies comparable to prediction requests, instead of through
heavyweight retraining pipelines. This package provides that serving
system:

* :class:`ServingSimulator` -- the one request loop: replays a
  :mod:`repro.serving.workload` schedule (the uniform Table 2 mix of
  :func:`uniform_workload`, or deletion storms) against a bare model or a
  serving engine, measuring throughput and latency percentiles.
* :class:`ReplicatedServingEngine` -- the durable in-process engine: one
  model answers predictions while deletions are sequenced through a
  write-ahead log (:mod:`repro.persistence`) before being applied, with
  crash recovery from snapshot + log replay.
* :class:`MicroBatcher` -- the micro-batching front end of an engine:
  collects prediction requests up to a size/delay bound and answers each
  batch with a single packed-kernel call, and group-commits deletions.
* :class:`ShmReplicatedServingEngine` -- the multi-reader engine
  (:mod:`repro.serving.shm`): one packed ensemble in shared memory, ``N``
  reader processes attached zero-copy, deletions published under a
  seqlock so readers never block the writer.
* :class:`RetrainingPipeline` -- the heavyweight retrain-and-redeploy
  contrast of Section 1, with staged deployment, canary evaluation and
  rollback over a :class:`ModelRegistry`.
"""

from repro.serving.audit import AuditedUnlearner, AuditEntry
from repro.serving.engine import CONSISTENCY_MODES, ReplicatedServingEngine
from repro.serving.microbatch import (
    MicroBatchConfig,
    MicroBatcher,
    MicroBatchStats,
    PendingPrediction,
)
from repro.serving.pipeline import (
    DeploymentReport,
    ModelRegistry,
    PipelineCosts,
    RetrainingPipeline,
)
from repro.serving.shm import (
    ReaderStats,
    SharedEnsembleReader,
    SharedPackedEnsemble,
    ShmReplicatedServingEngine,
    TornReadError,
)
from repro.serving.simulator import ServingSimulator, ThroughputReport
from repro.serving.workload import RequestMix, uniform_workload

__all__ = [
    "AuditedUnlearner",
    "AuditEntry",
    "CONSISTENCY_MODES",
    "ReplicatedServingEngine",
    "MicroBatcher",
    "MicroBatchConfig",
    "MicroBatchStats",
    "PendingPrediction",
    "RequestMix",
    "ServingSimulator",
    "SharedEnsembleReader",
    "SharedPackedEnsemble",
    "ShmReplicatedServingEngine",
    "ReaderStats",
    "TornReadError",
    "ThroughputReport",
    "uniform_workload",
    "RetrainingPipeline",
    "ModelRegistry",
    "PipelineCosts",
    "DeploymentReport",
]
