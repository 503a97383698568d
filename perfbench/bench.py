"""One benchmark run: guard, set up three times, replay, measure, check."""

from __future__ import annotations

import gc
import os
import platform
import secrets
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from perfbench import checks
from perfbench.deploy import INPROCESS, SHARDED, Deployment, ModelConfig, deploy, load_data, shard_plan
from perfbench.latency import fast_quartile_median, fast_quartile_rate, supported_percentile
from perfbench.layers import layer_metrics, register_layers, training_metrics
from perfbench.loop import RequestLog, run_closed_loop, run_open_loop
from perfbench.schedule import DELETE, KIND_NAMES, PREDICT, check_pools
from perfbench.targets import ClosedLoopPredictFlush, ShardedTarget, SingleEngineTarget
from perfbench.tracing import Tracer
from perfbench.workloads import WORKLOADS, WorkloadSpec

#: Set-ups per run; ``setup_s`` is their median and the last one serves.
N_SETUPS = 3
#: Alternating untraced/traced blocks of a traced run.
TRACE_BLOCK_S = 0.5
#: Request kinds every workload serves; their medians are gated.
GATED_KINDS = (DELETE, PREDICT)
#: The closed loop's gated figures are quartiles over blocks this long.
CLOSED_LOOP_BLOCK_S = 1.0


@dataclass
class RunResult:
    """Metrics by name as ``(value, unit)``.

    ``end_to_end`` are the gated end-to-end metrics (``--trace 0``
    output), ``printed`` the end-to-end figures shown but not gated
    (tails, insertions, the failure share), ``layers`` the per-layer
    metrics of a traced run (``--trace 1`` output).
    """

    end_to_end: dict[str, tuple[float, str]] = field(default_factory=dict)
    printed: dict[str, tuple[float, str]] = field(default_factory=dict)
    layers: dict[str, tuple[float, str]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0


def machine_block(store_dir: Path) -> dict[str, object]:
    """cpu_count, python, numpy and the store's filesystem."""
    filesystem = "unknown"
    try:
        best = ""
        resolved = str(store_dir.resolve())
        with open("/proc/mounts") as mounts:
            for line in mounts:
                _, mount_point, fs_type = line.split()[:3]
                inside = resolved == mount_point or resolved.startswith(
                    mount_point.rstrip("/") + "/"
                )
                if inside and len(mount_point) >= len(best):
                    best, filesystem = mount_point, fs_type
    except OSError:
        pass
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "store_filesystem": filesystem,
    }


def _peak_rss_kb(pid: int | str = "self") -> int:
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    if pid == "self":
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return 0


def _surviving_segments(prefix: str) -> list[str]:
    try:
        return sorted(name for name in os.listdir("/dev/shm") if name.startswith(prefix))
    except OSError:
        return []


def _setup(spec: WorkloadSpec, config: ModelConfig, run_dir: Path, prefix: str, k: int):
    started = time.perf_counter()
    data = load_data(config)
    deployment = deploy(
        spec.deployment, config, data, spec.batch,
        store_dir=run_dir / f"store{k}", segment_name=f"{prefix}s{k}",
        n_readers=spec.n_readers,
    )
    return data, deployment, time.perf_counter() - started


def run(workload: str, seed: int, seconds: float, trace: bool, root: Path) -> RunResult:
    spec = WORKLOADS[workload]
    config = ModelConfig()
    result = RunResult()
    token = secrets.token_hex(3)
    run_dir = root / ".perfbench" / f"run-{os.getpid()}-{token}"
    prefix = f"pb{os.getpid():x}{token}"
    run_dir.mkdir(parents=True)
    deployment: Deployment | None = None
    tracer = Tracer() if trace else None
    began = time.perf_counter()
    try:
        # Guards first: nothing is timed for a schedule that breaks one.
        data = load_data(config)
        schedule = spec.make_schedule(seed, seconds, data, config)
        n_shards = 2 if spec.deployment == SHARDED else 1
        owners, budgets = shard_plan(config, data, n_shards)
        check_pools(
            schedule, data.train.n_rows, data.heldout.n_rows, owners, budgets,
            spec.min_requests,
        )
        del data
        phases = {"guards": time.perf_counter() - began}

        setup_seconds, fit_seconds = [], []
        for k in range(N_SETUPS):
            if deployment is not None:
                deployment.close()
                shutil.rmtree(run_dir / f"store{k - 1}")
                deployment = None
                gc.collect()
            data, deployment, elapsed = _setup(spec, config, run_dir, prefix, k)
            setup_seconds.append(elapsed)
            fit_seconds.append(deployment.fit_seconds)
        result.end_to_end["setup_s"] = (statistics.median(setup_seconds), "s")
        result.layers.update(training_metrics(fit_seconds, deployment.shard_models))
        phases["setups"] = time.perf_counter() - began - phases["guards"]
        # Warm the read path of every reader or replica once.
        for _ in range(max(2, spec.n_readers)):
            deployment.engine.predict_rows(data.test_matrix[:4])

        log = RequestLog(len(schedule))
        clock = time.perf_counter

        def mark(index: int) -> None:
            if tracer is not None:
                tracer.request_id = index
                if index >= 0:
                    log.traced[index] = tracer.active

        target_class = (
            ShardedTarget if spec.deployment == SHARDED
            else SingleEngineTarget if spec.open_loop else ClosedLoopPredictFlush
        )
        target = target_class(
            deployment, schedule, data, log, clock, spec.batch.max_delay_ms / 1e3, mark
        )
        on_tick = None
        if tracer is not None:
            register_layers(tracer)
            next_toggle = clock() + TRACE_BLOCK_S

            def on_tick(now: float) -> None:
                nonlocal next_toggle
                if now >= next_toggle:
                    (tracer.uninstall if tracer.active else tracer.install)()
                    next_toggle = now + TRACE_BLOCK_S

        gc.collect()
        gc.freeze()
        cpu_before = time.process_time()
        if spec.open_loop:
            start = run_open_loop(schedule.due, target, log, clock, time.sleep, on_tick)
        else:
            start = clock()
            run_closed_loop(len(schedule), target, log, clock, seconds, on_tick)
        if tracer is not None:
            tracer.uninstall()
        gc.unfreeze()
        phases["timed"] = clock() - start
        result.notes.append(
            f"load generator busy {(time.process_time() - cpu_before) / phases['timed']:.0%} "
            f"of the timed region (its CPU time)"
        )
        n_issued = int(np.count_nonzero(log.issued()))
        result.attempted = n_issued
        result.failed = target.n_failed()
        _end_to_end(result, spec, schedule, log, target, n_issued, start)
        rss_kb = _peak_rss_kb()
        reader_rss = [
            _peak_rss_kb(stats["pid"])
            for engine in deployment.shard_engines
            if spec.deployment != INPROCESS
            for stats in engine.reader_stats()
        ]
        result.end_to_end["peak_rss_mb"] = ((rss_kb + max(reader_rss, default=0)) / 1024, "MB")
        labels = deployment.engine.predict_rows(data.test_matrix)
        result.end_to_end["accuracy"] = (float(np.mean(labels == data.test.labels)), "share")

        if tracer is not None:
            result.layers.update(
                layer_metrics(tracer, spec, schedule, log, target, deployment, n_issued)
            )
            tracer.dump(root / ".perfbench" / f"spans-{workload}.csv")

        acknowledged = target.acknowledged()
        result.failures += checks.readers_match_primary(deployment, data.test_matrix)
        result.failures += checks.wal_and_audit_reconcile(
            deployment,
            checks.expected_records(deployment, schedule, n_issued, acknowledged, data),
        )
        result.failures += checks.replay_labels(
            deployment, schedule, n_issued, target.labels, acknowledged, data
        )
        result.failures += checks.recovery_matches_live(deployment, data.test_matrix)
        result.notes.append(f"machine {machine_block(run_dir)}")
        phases["total"] = time.perf_counter() - began
        result.notes.append(
            "phases " + ", ".join(f"{name} {elapsed:.1f} s" for name, elapsed in phases.items())
        )
    finally:
        if tracer is not None:
            tracer.uninstall()
        if deployment is not None:
            deployment.close()
        shutil.rmtree(run_dir, ignore_errors=True)
        survivors = _surviving_segments(prefix)
        for name in survivors:
            os.unlink(f"/dev/shm/{name}")
    if survivors:
        result.failures.append(f"shared-memory segments survived the run: {survivors}")
    return result


def _end_to_end(result, spec, schedule, log, target, n_issued, start) -> None:
    """End-to-end metrics from the load generator's timestamps."""
    kinds = schedule.kind[:n_issued]
    latency_us = log.latency()[:n_issued] * 1e6
    done = ~np.isnan(latency_us)
    acknowledged = target.acknowledged()[:n_issued]
    finished = log.done[:n_issued] - start
    for kind in spec.min_requests:
        name = KIND_NAMES[kind]
        chosen = (kinds == kind) & done
        samples = latency_us[chosen]
        p50 = float(np.median(samples))
        if not spec.open_loop:
            # The closed loop's speed is the host's at the moment; see
            # fast_quartile_median. The whole-run median is printed.
            result.printed[f"{name}_p50_run_us"] = (p50, "us")
            p50 = fast_quartile_median(finished[chosen], samples, CLOSED_LOOP_BLOCK_S)
        (result.end_to_end if kind in GATED_KINDS else result.printed)[f"{name}_p50_us"] = (
            p50, "us")
        value, used = supported_percentile(samples, 99)
        result.printed[f"{name}_p99_us"] = (value, "us")
        if used != 99:
            result.notes.append(f"{name}_p99_us: only {samples.size} samples, reporting p{used:g}")
        result.notes.append(f"{name}: {samples.size} requests completed")
    met = np.zeros(n_issued, dtype=bool)
    for kind, limit in spec.slo_us.items():
        chosen = kinds == kind
        ok = done[chosen] & (latency_us[chosen] <= limit)
        if kind != PREDICT:
            ok &= acknowledged[chosen]
        met[chosen] = ok
    result.end_to_end["slo_met_share"] = (float(met.mean()), "share")
    elapsed = float(np.nanmax(finished))
    throughput = float(np.count_nonzero(done)) / elapsed
    if not spec.open_loop:
        result.printed["throughput_run_rps"] = (throughput, "1/s")
        throughput = fast_quartile_rate(finished[done], CLOSED_LOOP_BLOCK_S)
    result.end_to_end["throughput_rps"] = (throughput, "1/s")
    result.printed["failed_share"] = (result.failed / max(1, n_issued), "share")
    limits = ", ".join(f"{KIND_NAMES[k]} {v / 1e3:g} ms" for k, v in spec.slo_us.items())
    result.notes.append(f"latency limits: {limits}")
