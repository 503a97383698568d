"""The traced layers and the per-layer metrics computed from their spans.

Layer names follow the modules: ``microbatch`` (serving.microbatch),
``sharding`` (the sharded front end), ``engine`` (serving.engine plus
serving.audit, and the shm engine's write entry points), ``wal``
(persistence.wal, fsync included), ``core`` (the model's write paths),
``packed`` (core.packed) and ``shm`` (the fleet read round trip and the
writer's publish).
"""

from __future__ import annotations

import os

import numpy as np

import repro.core.ensemble as ensemble_module
from repro.core import HedgeCutClassifier
from repro.core.packed import PackedEnsemble
from repro.persistence.wal import WriteAheadLog
from repro.serving import (
    AuditedUnlearner,
    MicroBatcher,
    ReplicatedServingEngine,
    SharedPackedEnsemble,
    ShmReplicatedServingEngine,
)
from repro.sharding import ShardedMicroBatcher

from perfbench.deploy import INPROCESS
from perfbench.latency import supported_percentile
from perfbench.schedule import DELETE, INSERT, PREDICT
from perfbench.tracing import END, LAYER, NAME, NOTE, PARENT, START, Timeline, path_breakdown, within_blocks

#: Layers a request's time is split over, in path order.
PATH_LAYERS = ["microbatch", "sharding", "engine", "wal", "core", "packed", "shm"]
PATHS = ("delete", "predict", "insert")

_LOWER_US = ("us", "lower")
_COUNT = ("count", "lower")

#: Every per-layer metric: name -> (unit, which direction is better).
#: A traced run reports all of them on every workload; a layer the
#: workload does not exercise reports 0.
LAYER_METRICS: dict[str, tuple[str, str]] = {
    "training.fit_s": ("s", "lower"),
    "training.maintenance_nodes": _COUNT,
    "sharding.deletions_max_over_mean": ("ratio", "lower"),
    "sharding.predict_fanout_us": _LOWER_US,
    "microbatch.queue_wait_p50_us": _LOWER_US,
    "microbatch.queue_wait_p99_us": _LOWER_US,
    "microbatch.dispatches": _COUNT,
    "microbatch.rows_per_dispatch": ("rows", "higher"),
    "microbatch.flush_full": _COUNT,
    "microbatch.flush_window": _COUNT,
    "microbatch.flush_forced": _COUNT,
    "microbatch.flush_shard": _COUNT,
    "engine.unlearn_self_us": _LOWER_US,
    "engine.predict_self_us": _LOWER_US,
    "wal.append_p50_us": _LOWER_US,
    "wal.append_p99_us": _LOWER_US,
    "wal.fsyncs": _COUNT,
    "wal.fsyncs_per_record": ("ratio", "lower"),
    "wal.bytes_per_record": ("bytes", "lower"),
    "core.unlearn_us": _LOWER_US,
    "core.unlearn_batch_us": _LOWER_US,
    "core.unlearn_batch_records": ("records", "higher"),
    "core.learn_one_us": _LOWER_US,
    "core.small_batch_loops": _COUNT,
    "core.batch_kernels": _COUNT,
    "core.variant_switches": _COUNT,
    "core.leaves_updated_per_record": ("ratio", "lower"),
    "core.budget_used_share": ("share", "lower"),
    "packed.predict_rows_p50_us": _LOWER_US,
    "packed.predict_rows_p99_us": _LOWER_US,
    "packed.rows_per_call": ("rows", "higher"),
    "packed.splice_us": _LOWER_US,
    "packed.splices": _COUNT,
    "shm.publish_p50_us": _LOWER_US,
    "shm.publish_p99_us": _LOWER_US,
    "shm.publishes_leaves": _COUNT,
    "shm.publishes_spans": _COUNT,
    "shm.publishes_structure": _COUNT,
    "shm.bytes_published": ("bytes", "lower"),
    "shm.read_us": _LOWER_US,
    "shm.seqlock_retries": _COUNT,
    "shm.reader_respawns": _COUNT,
    "driver.lateness_p99_us": _LOWER_US,
    "trace.overhead_share": ("share", "lower"),
    **{
        f"path.{path}.{part}_us": _LOWER_US
        for path in PATHS
        for part in ("e2e_p50", *PATH_LAYERS, "unaccounted")
    },
}


def _report_note(args, report) -> tuple[int, int, int]:
    """(records, leaves updated, variant switches) of one core write."""
    records = len(args[1]) if isinstance(args[1], list) else 1
    return records, report.leaves_updated, report.variant_switches


def _publish_note(args, kind: str) -> tuple[str, int]:
    shared, packed = args[0], args[1]
    leaves = packed.leaf_n.nbytes + packed.leaf_n_plus.nbytes
    if kind == "spans":
        return kind, leaves + shared.last_structural_bytes
    if kind == "structure":
        return kind, leaves + shared.generation_structural_bytes
    return kind, leaves


def _append_note(args, _result) -> int:
    return len(args[1]) if isinstance(args[1], (list, tuple)) else 1


def register_layers(tracer) -> None:
    add = tracer.add
    for method in ("submit_predict", "flush", "unlearn"):
        add(MicroBatcher, method, f"MicroBatcher.{method}", "microbatch")
    for method in ("submit_predict", "flush", "submit_unlearn", "flush_unlearns"):
        add(ShardedMicroBatcher, method, f"ShardedMicroBatcher.{method}", "sharding")
    for method in ("predict_rows", "unlearn", "unlearn_batch", "learn_one"):
        add(ReplicatedServingEngine, method, f"ReplicatedServingEngine.{method}", "engine")
    for method in ("unlearn", "unlearn_batch"):
        add(ShmReplicatedServingEngine, method, f"ShmReplicatedServingEngine.{method}", "engine")
    for method in ("unlearn", "unlearn_batch", "learn_one"):
        add(AuditedUnlearner, method, f"AuditedUnlearner.{method}", "engine")
    for method in ("append", "append_batch", "append_insertion"):
        add(WriteAheadLog, method, f"WriteAheadLog.{method}", "wal", _append_note)
    add(os, "fsync", "os.fsync", "wal")
    for method in ("unlearn", "unlearn_batch", "learn_one"):
        add(HedgeCutClassifier, method, f"HedgeCutClassifier.{method}", "core", _report_note)
    add(HedgeCutClassifier, "predict_rows", "HedgeCutClassifier.predict_rows", "core")
    add(ensemble_module, "unlearn_small_batch", "core.unlearn_small_batch", "core")
    add(ensemble_module, "unlearn_batch_packed", "core.unlearn_batch_packed", "core")
    add(PackedEnsemble, "predict_rows", "PackedEnsemble.predict_rows", "packed",
        lambda args, _result: len(args[1]))
    for method in ("splice_subtree", "repack_tree"):
        add(PackedEnsemble, method, f"PackedEnsemble.{method}", "packed")
    for method in ("predict_rows", "predict_votes_rows"):
        add(ShmReplicatedServingEngine, method, f"ShmReplicatedServingEngine.{method}", "shm")
    add(SharedPackedEnsemble, "publish", "SharedPackedEnsemble.publish", "shm", _publish_note)


def _durations_us(spans, names) -> np.ndarray:
    return np.array(
        [(span[END] - span[START]) * 1e6 for span in spans if span[NAME] in names]
    )


def _p(samples: np.ndarray, q: float) -> float:
    return supported_percentile(samples, q)[0]


def layer_metrics(tracer, spec, schedule, log, target, deployment, n_issued) -> dict:
    spans = tracer.spans
    timeline = Timeline.from_spans(spans)
    metrics: dict[str, tuple[float, str]] = {}

    def put(name: str, value: float, unit: str) -> None:
        assert LAYER_METRICS[name][0] == unit, name
        metrics[name] = (float(value), unit)

    # sharding ----------------------------------------------------------
    deleted = [model.n_unlearned for model in deployment.shard_models]
    put("sharding.deletions_max_over_mean",
        max(deleted) / max(1e-9, float(np.mean(deleted))), "ratio")
    reads_by_parent: dict[int, list] = {}
    for span in spans:
        if span[NAME] == "ShmReplicatedServingEngine.predict_votes_rows" and span[PARENT] >= 0:
            reads_by_parent.setdefault(span[PARENT], []).append(span)
    fanout = np.array([
        (children[-1][END] - children[0][START]) * 1e6
        for children in reads_by_parent.values() if len(children) >= 2
    ])
    put("sharding.predict_fanout_us", _p(fanout, 50), "us")

    # microbatch --------------------------------------------------------
    kinds = schedule.kind[:n_issued]
    predicted = (kinds == PREDICT) & ~np.isnan(target.resolve_start[:n_issued])
    wait_us = (target.resolve_start[:n_issued] - log.sent[:n_issued])[predicted] * 1e6
    put("microbatch.queue_wait_p50_us", _p(wait_us, 50), "us")
    put("microbatch.queue_wait_p99_us", _p(wait_us, 99), "us")
    stats = deployment.batcher.stats
    put("microbatch.dispatches", stats.n_batches, "count")
    put("microbatch.rows_per_dispatch", stats.mean_batch_size, "rows")
    for reason in ("full", "window", "forced", "shard"):
        put(f"microbatch.flush_{reason}", stats.flush_reasons.get(reason, 0), "count")

    # engine self time per call (engine + audit layers) -----------------
    def self_in_engine(names) -> np.ndarray:
        chosen = [span for span in spans if span[NAME] in names]
        if not chosen:
            return np.zeros(0)
        a = np.array([span[START] for span in chosen])
        b = np.array([span[END] for span in chosen])
        return timeline.time_in("engine", a, b) * 1e6

    unlearn_calls = {
        f"{cls}.{method}"
        for cls in ("ReplicatedServingEngine", "ShmReplicatedServingEngine")
        for method in ("unlearn", "unlearn_batch")
    }
    put("engine.unlearn_self_us", _p(self_in_engine(unlearn_calls), 50), "us")
    put("engine.predict_self_us",
        _p(self_in_engine({"ReplicatedServingEngine.predict_rows"}), 50), "us")

    # wal ---------------------------------------------------------------
    appends = {"WriteAheadLog.append", "WriteAheadLog.append_batch",
               "WriteAheadLog.append_insertion"}
    append_us = _durations_us(spans, appends)
    put("wal.append_p50_us", _p(append_us, 50), "us")
    put("wal.append_p99_us", _p(append_us, 99), "us")
    logged = sum(span[NOTE] or 0 for span in spans if span[NAME] in appends)
    fsyncs = sum(1 for span in spans if span[NAME] == "os.fsync")
    put("wal.fsyncs", fsyncs, "count")
    put("wal.fsyncs_per_record", fsyncs / max(1, logged), "ratio")
    wal_bytes, wal_records = 0, 0
    for engine in deployment.shard_engines:
        wal = engine.store.wal
        wal_bytes += sum(path.stat().st_size for path in wal.segment_paths())
        wal_records += wal.last_seq
    put("wal.bytes_per_record", wal_bytes / max(1, wal_records), "bytes")

    # core write paths --------------------------------------------------
    put("core.unlearn_us", _p(_durations_us(spans, {"HedgeCutClassifier.unlearn"}), 50), "us")
    batch_spans = [s for s in spans if s[NAME] == "HedgeCutClassifier.unlearn_batch"]
    put("core.unlearn_batch_us",
        _p(_durations_us(spans, {"HedgeCutClassifier.unlearn_batch"}), 50), "us")
    put("core.unlearn_batch_records",
        float(np.mean([s[NOTE][0] for s in batch_spans if s[NOTE]])) if batch_spans else 0.0,
        "records")
    put("core.learn_one_us",
        _p(_durations_us(spans, {"HedgeCutClassifier.learn_one"}), 50), "us")
    put("core.small_batch_loops",
        sum(1 for s in spans if s[NAME] == "core.unlearn_small_batch"), "count")
    put("core.batch_kernels",
        sum(1 for s in spans if s[NAME] == "core.unlearn_batch_packed"), "count")
    # Top-level core writes only (unlearn_batch of one record nests an unlearn).
    writes = [
        s for s in spans
        if s[LAYER] == "core" and s[NOTE] is not None
        and not (s[PARENT] >= 0 and spans[s[PARENT]][LAYER] == "core")
    ]
    records = sum(s[NOTE][0] for s in writes)
    put("core.variant_switches", sum(s[NOTE][2] for s in writes), "count")
    put("core.leaves_updated_per_record",
        sum(s[NOTE][1] for s in writes) / max(1, records), "ratio")
    put("core.budget_used_share",
        max(m.n_unlearned / m.deletion_budget for m in deployment.shard_models), "share")

    # packed ------------------------------------------------------------
    predict_spans = [s for s in spans if s[NAME] == "PackedEnsemble.predict_rows"]
    predict_us = _durations_us(spans, {"PackedEnsemble.predict_rows"})
    put("packed.predict_rows_p50_us", _p(predict_us, 50), "us")
    put("packed.predict_rows_p99_us", _p(predict_us, 99), "us")
    put("packed.rows_per_call",
        float(np.mean([s[NOTE] for s in predict_spans])) if predict_spans else 0.0, "rows")
    splice_us = _durations_us(spans, {"PackedEnsemble.splice_subtree"})
    put("packed.splice_us", _p(splice_us, 50), "us")
    put("packed.splices", splice_us.size, "count")

    # shm ---------------------------------------------------------------
    publishes = [s for s in spans if s[NAME] == "SharedPackedEnsemble.publish"]
    publish_us = _durations_us(spans, {"SharedPackedEnsemble.publish"})
    put("shm.publish_p50_us", _p(publish_us, 50), "us")
    put("shm.publish_p99_us", _p(publish_us, 99), "us")
    for kind in ("leaves", "spans", "structure"):
        put(f"shm.publishes_{kind}",
            sum(1 for s in publishes if s[NOTE] and s[NOTE][0] == kind), "count")
    put("shm.bytes_published", sum(s[NOTE][1] for s in publishes if s[NOTE]), "bytes")
    read_us = _durations_us(
        spans,
        {"ShmReplicatedServingEngine.predict_rows", "ShmReplicatedServingEngine.predict_votes_rows"},
    )
    put("shm.read_us", _p(read_us, 50), "us")
    retries = respawns = 0
    if spec.deployment != INPROCESS:
        for engine in deployment.shard_engines:
            retries += sum(stats["seqlock_retries"] for stats in engine.reader_stats())
            respawns += engine.reader_respawns
    put("shm.seqlock_retries", retries, "count")
    put("shm.reader_respawns", respawns, "count")

    # load generator and tracing ----------------------------------------
    lateness_us = log.lateness()[:n_issued] * 1e6 if spec.open_loop else np.zeros(0)
    put("driver.lateness_p99_us", _p(lateness_us, 99), "us")
    latency = log.latency()[:n_issued]
    traced = log.traced[:n_issued]
    overheads = []
    for kind in (DELETE, PREDICT):
        chosen = (kinds == kind) & ~np.isnan(latency)
        on, off = latency[chosen & traced], latency[chosen & ~traced]
        if on.size and off.size:
            overheads.append(np.median(on) / np.median(off) - 1.0)
    put("trace.overhead_share", float(np.mean(overheads)) if overheads else 0.0, "share")

    # path breakdowns ---------------------------------------------------
    a, b = log.due[:n_issued], log.done[:n_issued]
    whole = ~np.isnan(b) & within_blocks(tracer.blocks, a, np.nan_to_num(b))
    for kind, path in zip((DELETE, PREDICT, INSERT), PATHS):
        chosen = whole & (kinds == kind)
        parts = path_breakdown((b - a)[chosen], a[chosen], b[chosen], timeline, PATH_LAYERS)
        put(f"path.{path}.e2e_p50_us", parts["e2e"] * 1e6, "us")
        for layer in PATH_LAYERS:
            put(f"path.{path}.{layer}_us", parts[layer] * 1e6, "us")
        put(f"path.{path}.unaccounted_us", parts["unaccounted"] * 1e6, "us")
    return metrics


def training_metrics(fit_seconds: list[float], models) -> dict[str, tuple[float, str]]:
    """``training.*``: median fit time over the run's set-ups, and the
    maintenance nodes of the serving model."""
    return {
        "training.fit_s": (float(np.median(fit_seconds)), "s"),
        "training.maintenance_nodes": (
            float(sum(model.node_census().n_maintenance_nodes for model in models)), "count"
        ),
    }
