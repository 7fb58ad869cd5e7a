"""One run of one workload: train, set up, measure, check, report."""

from __future__ import annotations

import statistics
from dataclasses import replace
from pathlib import Path

import numpy as np

from loadgen import StepResult
from workloads import (
    FLEET, MAX_STEPS, ONLINE, SCALE, THRESHOLD_QUANTILE, Probe,
    check_oracle, closed_loop, layer_metrics, max_ok_rps, open_loop,
    peak_rss_mb, served_from_steps, targets_stream, timed_setups, trained_pipeline,
    accuracy, macs_per_node,
)
from spans import percentile

#: Unit of every end-to-end metric (BENCHMARK.json gives each its direction).
END_TO_END_UNITS = {
    "setup_s": "s",
    "nodes_per_s": "1/s",
    "macs_per_node": "count",
    "accuracy": "ratio",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "max_ok_rps": "1/s",
    "success_frac": "ratio",
    "peak_rss_mb": "MB",
}

#: Targets of the first ``predict`` calls checked against the reference
#: engine on ``batch-40k`` (the naive engine is too slow for every call).
BATCH_ORACLE_CALLS = 2


def per_layer_units() -> dict[str, str]:
    """Unit of every per-layer metric, in report order."""
    units: dict[str, str] = {}
    for name, keys in (
        ("graph.build_support", ("calls", "busy_s", "self_s", "p50_ms")),
        ("core.run_batch", ("calls", "busy_s", "self_s", "p50_ms")),
        ("serving.submit", ("calls", "busy_s", "self_s")),
        ("shard.submit", ("calls", "busy_s", "self_s")),
        ("transport.fetch", ("calls", "busy_s", "self_s", "p50_ms", "p99_ms")),
    ):
        for key in keys:
            units[f"{name}.{key}"] = key.rsplit("_", 1)[-1] if "_" in key else "count"
    units.update({
        "graph.support_rows_per_target": "count",
        "graph.support_mb_mean": "MB",
        **{f"core.{p}_s": "s" for p in
           ("sampling", "stationary", "propagation", "decision", "classification")},
        "core.macs.propagation_per_node": "count",
        "core.exit_hop1_frac": "ratio",
        "core.prepare_s": "s",
        "core.fit_s": "s",
        "serving.queue_wait_p50_ms": "ms",
        "serving.queue_wait_p99_ms": "ms",
        "serving.dispatcher.build_support_busy_frac": "ratio",
        "serving.batches": "count",
        "serving.batch_nodes_mean": "count",
        "serving.batch_requests_mean": "count",
        "serving.cache_hit_ratio": "ratio",
        "serving.rejected": "count",
        "shard.shards_touched_mean": "count",
        "shard.bundles_assembled": "count",
        "shard.remote_row_frac": "ratio",
        "transport.mb_total": "MB",
        "transport.kb_per_request": "KB",
        "transport.retries": "count",
        "transport.failovers": "count",
    })
    for step in range(1, MAX_STEPS + 1):
        units[f"loadgen.step{step}.rps"] = "1/s"
        for key in ("sent", "succeeded", "failed"):
            units[f"loadgen.step{step}.{key}"] = "count"
    units.update({
        "loadgen.late_p99_ms": "ms",
        "loadgen.late_max_ms": "ms",
        "trace.overhead_frac": "ratio",
        "failed_frac": "ratio",
    })
    return units


def _step_row(step: StepResult) -> dict:
    return {
        "rate": step.rate,
        "windows": len(step.windows),
        "seconds": round(step.duration, 3),
        "sent": len(step.outcomes),
        "succeeded": len(step.ok),
        "failed": step.failed,
        "p50_ms": round(step.latency_ms(50), 3),
        "p99_ms": round(step.latency_ms(99), 3),
        "late_p99_ms": round(step.lateness_ms(99), 3),
        "backlog_s": round(step.backlog_seconds(), 4),
        "growth_ms": round(1e3 * step.backlog_growth(), 3),
        "window_p99_ms": [round(w.latency_ms(99), 3) for w in step.windows],
    }


def _loadgen_steps(rows: list[tuple[float, int, int, int]]) -> dict[str, float]:
    """``loadgen.step<k>.*`` for each (rate, sent, succeeded, failed); zeros past the end."""
    metrics: dict[str, float] = {}
    for index in range(MAX_STEPS):
        rate, sent, succeeded, failed = rows[index] if index < len(rows) else (0.0, 0, 0, 0)
        prefix = f"loadgen.step{index + 1}"
        metrics.update({f"{prefix}.rps": rate, f"{prefix}.sent": sent,
                        f"{prefix}.succeeded": succeeded, f"{prefix}.failed": failed})
    return metrics


def _cpu_per_node(served) -> float:
    return served.cpu_seconds / max(1, served.nodes)


def measure_batch(deployment, rng, seconds: float, trace: bool) -> dict:
    """Closed loop of ``predict`` calls; each call is one engine batch."""
    order = targets_stream(rng, np.asarray(deployment.dataset.split.test_idx))
    probe = Probe(deployment) if trace else None
    served, latencies, wall, untraced = closed_loop(deployment, order, seconds, probe)
    calls = len(latencies)
    busy = probe.wall if trace else wall
    out = {
        "served": served,
        "steps": [{"rate": calls / busy, "seconds": round(busy, 3), "sent": calls,
                   "succeeded": calls, "failed": 0}],
        "attempted": calls,
        "failed": 0,
        "e2e": {
            "nodes_per_s": served.nodes / wall,
            "latency_p50_ms": 1e3 * percentile(latencies, 50),
            "latency_p99_ms": 1e3 * percentile(latencies, 99),
            "max_ok_rps": calls / wall,
        },
    }
    if trace:
        layers = layer_metrics(served, probe)
        layers.update(_loadgen_steps([(calls / busy, calls, calls, 0)]))
        layers.update({"loadgen.late_p99_ms": 0.0, "loadgen.late_max_ms": 0.0})
        layers["trace.overhead_frac"] = _cpu_per_node(served) / _cpu_per_node(untraced) - 1
        out["layers"], out["spans"] = layers, probe.recorder
    return out


def measure_open(deployment, spec, rng, seconds: float, trace: bool) -> dict:
    """The interleaved rate ladder (see :class:`workloads.OpenLoopSpec`)."""
    test_idx = np.asarray(deployment.dataset.split.test_idx)
    probe = Probe(deployment) if trace else None
    steps, untraced = open_loop(deployment, spec, rng, test_idx, seconds, probe)
    served = served_from_steps(steps)
    nominal = steps[0]
    best = max_ok_rps(steps, spec.limit_seconds)
    sizes = [o.targets.shape[0] for s in steps for o in s.outcomes]
    out = {
        "served": served,
        "steps": [_step_row(s) for s in steps],
        "attempted": sum(len(s.outcomes) for s in steps),
        "failed": sum(s.failed for s in steps),
        "e2e": {
            "nodes_per_s": best * float(np.mean(sizes)),
            "latency_p50_ms": nominal.window_latency_ms(50),
            "latency_p99_ms": nominal.window_latency_ms(99),
            "max_ok_rps": best,
        },
    }
    if trace:
        layers = layer_metrics(served, probe)
        layers.update(_loadgen_steps(
            [(s.rate, len(s.outcomes), len(s.ok), s.failed) for s in steps]
        ))
        lateness = [o.sent - o.due for s in steps for o in s.outcomes]
        layers["loadgen.late_p99_ms"] = 1e3 * percentile(lateness, 99)
        layers["loadgen.late_max_ms"] = 1e3 * max(lateness)
        layers["trace.overhead_frac"] = (
            (nominal.cpu_seconds / max(1, len(nominal.ok)))
            / (untraced.cpu_seconds / max(1, len(untraced.ok))) - 1
        )
        out["layers"], out["spans"] = layers, probe.recorder
    return out


def run(workload: str, *, seed: int, seconds: float, trace: bool, scale: float | None,
        src: Path, work_dir: Path):
    """Returns ``(result line, details line)`` for one run.

    ``src`` is the program's source tree; ``work_dir`` receives the trained
    pipeline cache and, for traced runs, the span log.
    """
    scale = SCALE if scale is None else scale
    nai, fit_s = trained_pipeline(src, work_dir, scale)
    threshold = nai.suggest_distance_threshold(THRESHOLD_QUANTILE)
    deployment, setups, prepares = timed_setups(workload, nai, threshold, scale)
    rng = np.random.default_rng(seed)
    try:
        if workload == "batch-40k":
            out = measure_batch(deployment, rng, seconds, trace)
        elif workload == "online-zipf-40k":
            out = measure_open(deployment, ONLINE, rng, seconds, trace)
        else:
            out = measure_open(deployment, FLEET, rng, seconds, trace)
        rss = peak_rss_mb()
    finally:
        deployment.close()

    # The oracle runs after the timed region.
    served = out["served"]
    oracle_config = deployment.predictor.config
    dataset = deployment.dataset
    if workload == "batch-40k":
        reference = nai.build_predictor(
            policy="distance", config=replace(oracle_config, engine="reference")
        ).prepare(dataset.graph, dataset.features)
        checked = slice(0, BATCH_ORACLE_CALLS)
        mismatch = check_oracle(reference, served.node_ids[checked],
                                served.predictions[checked], served.depths[checked])
    else:
        oracle = nai.build_predictor(policy="distance", config=oracle_config).prepare(
            dataset.graph, dataset.features
        )
        mismatch = check_oracle(oracle, served.node_ids, served.predictions, served.depths)

    e2e = {
        "setup_s": statistics.median(setups),
        **out["e2e"],
        "macs_per_node": macs_per_node(served),
        "accuracy": accuracy(served, dataset.labels),
        "success_frac": 1.0 - out["failed"] / out["attempted"],
        "peak_rss_mb": rss,
    }
    if trace:
        out["spans"].write(work_dir / f"spans-{workload}-seed{seed}.jsonl")
        layers = dict(out["layers"])
        layers["core.prepare_s"] = statistics.median(prepares)
        layers["core.fit_s"] = fit_s
        layers["failed_frac"] = out["failed"] / out["attempted"]
        units = per_layer_units()
        metrics = {name: {"value": float(layers[name]), "unit": unit}
                   for name, unit in units.items()}
    else:
        metrics = {name: {"value": float(e2e[name]), "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    result = {
        "correct": mismatch is None,
        "attempted": int(out["attempted"]),
        "failed": int(out["failed"]),
        "metrics": metrics,
    }
    details = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "scale": scale, "steps": out["steps"], "setup_s": setups,
        "prepare_s": prepares, "fit_s": fit_s, "oracle": mismatch or "ok",
    }
    return result, details
