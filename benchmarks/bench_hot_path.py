"""Hot-path microbenchmark: fused zero-copy engine vs. the seed baseline.

Runs the synthetic Table-5 inference workloads (vanilla backbone, NAI_d and
NAI_g) through both ``NAIConfig.engine`` implementations and records
end-to-end plus per-procedure wall-clock timings to ``BENCH_hot_path.json``:

* ``engine="reference"`` reproduces the seed hot path exactly (per-depth BFS,
  fancy-indexed CSR submatrices, full feature-matrix copies, Python-dict
  index maps) — the pre-change baseline.
* ``engine="fused"`` is the demand-driven engine, which computes a row's
  ``X^(j)`` only when a still-active target needs it, measured in both
  float64 and float32.

Every comparison asserts that predictions and depth distributions are
unchanged, that the fused propagation MACs equal the demand closure of the
reference's exit depths (never more than the reference), and that every
other MAC term is unchanged (``macs_equal``).
The JSON gives this and future PRs a perf trajectory; rerun after touching
the inference engine, the sampling layer or the sparse kernels.

Usage::

    PYTHONPATH=src python benchmarks/bench_hot_path.py            # full run
    PYTHONPATH=src python benchmarks/bench_hot_path.py --quick    # smoke run
    PYTHONPATH=src python benchmarks/bench_hot_path.py --output /tmp/bench.json

The ``--quick`` mode trains a much smaller context (same code path, tiny
workload) and is wired into tier-1 as a smoke test via the
``hot_path_bench`` pytest marker (see ``tests/benchmarks/``).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.experiments import ExperimentProfile
from repro.experiments.context import TrainedContext, get_context
from repro.graph import closure_propagation_macs, normalized_adjacency

#: Engine/dtype variants measured against the float64 reference baseline.
VARIANTS: tuple[tuple[str, str], ...] = (("fused", "float64"), ("fused", "float32"))

#: Full profile: the three synthetic paper datasets at their Table-5 sizes.
FULL_PROFILE = ExperimentProfile(
    dataset_scale=1.0,
    depth=5,
    classifier_epochs=40,
    gate_epochs=15,
    batch_size=500,
    seed=0,
)
FULL_DATASETS = ("flickr-sim", "arxiv-sim", "products-sim")

#: Quick profile: one small dataset, enough to exercise every code path.
QUICK_PROFILE = ExperimentProfile(
    dataset_scale=0.3,
    depth=3,
    classifier_epochs=20,
    gate_epochs=10,
    batch_size=200,
    seed=0,
)
QUICK_DATASETS = ("flickr-sim",)

#: (label, policy, threshold_quantile) — the Table-5 style inference settings.
WORKLOAD_SETTINGS = (
    ("vanilla", "none", None),
    ("nai_distance", "distance", 0.5),
    ("nai_gate", "gate", None),
)


def _timing_dict(result) -> dict[str, float]:
    t = result.timings
    return {
        "sampling": t.sampling,
        "stationary": t.stationary,
        "propagation": t.propagation,
        "decision": t.decision,
        "classification": t.classification,
        "total": t.total,
        "propagation_plus_sampling": t.propagation + t.sampling,
    }


def _measure(context: TrainedContext, policy: str, config, repeats: int):
    """Best-of-``repeats`` inference run (training is cached, only inference repeats)."""
    best = None
    best_wall = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        result = context.nai.evaluate(context.dataset, policy=policy, config=config)
        wall = time.perf_counter() - start
        if wall < best_wall:
            best, best_wall = result, wall
    return best, best_wall


def run_workload(
    context: TrainedContext,
    dataset_name: str,
    label: str,
    policy: str,
    threshold_quantile: float | None,
    repeats: int,
) -> dict:
    """One Table-5 setting through the baseline and every fused variant."""
    if policy == "none":
        config = context.vanilla_config()
    elif threshold_quantile is not None:
        config = context.nai_config(threshold_quantile=threshold_quantile)
    else:
        config = context.nai_config()

    baseline, baseline_wall = _measure(
        context, policy, config.with_updates(engine="reference", dtype="float64"), repeats
    )
    # Propagation MACs the demand-driven engine must execute: the demand
    # closure of the oracle's exit depths (no more than the reference's).
    dataset = context.dataset
    closure_macs = closure_propagation_macs(
        normalized_adjacency(dataset.graph, gamma=context.nai.backbone.gamma),
        dataset.split.test_idx,
        baseline.depths,
        t_max=config.t_max,
        batch_size=config.batch_size,
        num_features=dataset.num_features,
    )
    record = {
        "dataset": dataset_name,
        "workload": label,
        "policy": policy,
        "num_nodes": baseline.num_nodes,
        "depth_distribution": baseline.depth_distribution(),
        "reference": {"wall_seconds": baseline_wall, "timings": _timing_dict(baseline)},
        "variants": {},
    }
    for engine, dtype in VARIANTS:
        result, wall = _measure(
            context, policy, config.with_updates(engine=engine, dtype=dtype), repeats
        )
        predictions_equal = bool(np.array_equal(baseline.predictions, result.predictions))
        depths_equal = bool(np.array_equal(baseline.depths, result.depths))
        macs_equal = bool(
            result.macs.propagation == closure_macs
            and result.macs.stationary == baseline.macs.stationary
            and result.macs.decision == baseline.macs.decision
            and result.macs.classification == baseline.macs.classification
            and result.macs.total <= baseline.macs.total
        )
        if not (predictions_equal and depths_equal and macs_equal):
            raise AssertionError(
                f"{dataset_name}/{label} {engine}/{dtype}: engine outputs diverged "
                f"(predictions_equal={predictions_equal}, depths_equal={depths_equal}, "
                f"macs_equal={macs_equal})"
            )
        ref_hot = record["reference"]["timings"]["propagation_plus_sampling"]
        hot = result.timings.propagation + result.timings.sampling
        record["variants"][f"{engine}_{dtype}"] = {
            "wall_seconds": wall,
            "timings": _timing_dict(result),
            "predictions_equal": predictions_equal,
            "depths_equal": depths_equal,
            "macs_equal": macs_equal,
            "hot_path_speedup": ref_hot / hot if hot > 0 else float("inf"),
            "end_to_end_speedup": baseline_wall / wall if wall > 0 else float("inf"),
        }
    return record


def aggregate(records: list[dict]) -> dict:
    """Fleet-level speedups: total reference hot-path seconds over total fused."""
    summary: dict[str, dict] = {}
    ref_hot = sum(r["reference"]["timings"]["propagation_plus_sampling"] for r in records)
    ref_total = sum(r["reference"]["timings"]["total"] for r in records)
    for engine, dtype in VARIANTS:
        key = f"{engine}_{dtype}"
        hot = sum(r["variants"][key]["timings"]["propagation_plus_sampling"] for r in records)
        total = sum(r["variants"][key]["timings"]["total"] for r in records)
        summary[key] = {
            "hot_path_seconds": hot,
            "hot_path_speedup": ref_hot / hot if hot > 0 else float("inf"),
            "total_speedup": ref_total / total if total > 0 else float("inf"),
            "all_outputs_equal": all(
                r["variants"][key]["predictions_equal"] and r["variants"][key]["depths_equal"]
                for r in records
            ),
        }
    summary["reference_hot_path_seconds"] = ref_hot
    return summary


def run_bench(*, quick: bool = False, repeats: int | None = None) -> dict:
    """Run the full (or quick) benchmark matrix and return the report dict."""
    profile = QUICK_PROFILE if quick else FULL_PROFILE
    datasets = QUICK_DATASETS if quick else FULL_DATASETS
    repeats = repeats if repeats is not None else (2 if quick else 5)

    records = []
    for dataset_name in datasets:
        context = get_context(dataset_name, profile=profile)
        for label, policy, quantile in WORKLOAD_SETTINGS:
            record = run_workload(context, dataset_name, label, policy, quantile, repeats)
            records.append(record)
            fused32 = record["variants"]["fused_float32"]
            print(
                f"{dataset_name:12s} {label:12s} "
                f"hot-path {record['reference']['timings']['propagation_plus_sampling'] * 1e3:7.1f}ms "
                f"-> {fused32['timings']['propagation_plus_sampling'] * 1e3:7.1f}ms "
                f"({fused32['hot_path_speedup']:.2f}x, outputs equal)"
            )
    report = {
        "benchmark": "bench_hot_path",
        "quick": quick,
        "repeats": repeats,
        "profile": {
            "dataset_scale": profile.dataset_scale,
            "depth": profile.depth,
            "batch_size": profile.batch_size,
            "seed": profile.seed,
        },
        "workloads": records,
        "aggregate": aggregate(records),
    }
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="small deterministic smoke run (used by the tier-1 marker test)",
    )
    parser.add_argument(
        "--repeats", type=int, default=None,
        help="inference repetitions per measurement (best-of), default 5 (2 with --quick)",
    )
    parser.add_argument(
        "--output", type=Path, default=Path(__file__).resolve().parent.parent / "BENCH_hot_path.json",
        help="where to write the JSON report",
    )
    args = parser.parse_args(argv)
    if args.repeats is not None and args.repeats < 1:
        parser.error("--repeats must be a positive integer")

    report = run_bench(quick=args.quick, repeats=args.repeats)
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    agg = report["aggregate"]
    for key, stats in agg.items():
        if isinstance(stats, dict):
            print(
                f"aggregate {key}: hot-path {stats['hot_path_speedup']:.2f}x, "
                f"end-to-end {stats['total_speedup']:.2f}x, "
                f"outputs equal: {stats['all_outputs_equal']}"
            )
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
