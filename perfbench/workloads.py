"""The three workloads: set-up, measurement, oracle check and metrics.

Every workload serves ``products-sim`` at ``scale=10`` (40,000 nodes),
depth 3, distance NAP at the 0.5 threshold quantile, ``batch_size=500``:

``batch-40k``
    One caller runs ``NAIPredictor.predict`` back to back (a closed loop)
    over shuffled passes of the unseen test nodes.  The paper's Table 5
    regime: the engine does all the work, the server and fleet none.
``online-zipf-40k``
    One ``InferenceServer`` (2 workers, default caches) under open-loop
    Poisson arrivals of ~8-target requests drawn Zipf(1.2) over the test
    nodes, so hot nodes recur and requests share work.
``fleet-uniform-40k``
    Two ``degree_balanced`` shards over loopback TCP (``ShardServerGroup`` +
    ``SocketTransport``, built with ``ClusterBuilder``, 1 worker per shard
    server) under open-loop arrivals of uniform, non-repeating targets, so
    no cache can hide the fetch rounds.

Each open-loop workload interleaves windows at its nominal rate, a fixed
rate below today's knee where latency is reported, with one window of each
rate of a ladder; ``max_ok_rps`` is the rate at which the ladder first
misses the workload's p99 limit or falls behind its schedule.  METRICS.md
defines every metric.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import json
import os
import resource
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from loadgen import StepResult, poisson_offsets, run_window
from spans import SpanRecorder, percentile

from repro.core import (
    NAI, BatchEngine, DistillationConfig, NAIPredictor, ServingConfig, ShardConfig,
    TrainingConfig, load_pipeline, save_pipeline,
)
from repro.datasets import load_dataset
from repro.models import make_backbone
from repro.serving import ClusterBuilder, InferenceServer
from repro.shard import ShardEngine, ShardedPredictor, ShardRouter
from repro.transport import ShardServerGroup, SocketTransport

DATASET = "products-sim"
SCALE = 10.0
DEPTH = 3
THRESHOLD_QUANTILE = 0.5
BATCH_SIZE = 500
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Nodes of the warm-up request that ends every set-up (validation nodes,
#: never a workload target).
WARMUP_NODES = 8


@dataclass(frozen=True)
class OpenLoopSpec:
    """Traffic shape and rate ladder of one open-loop workload.

    A run alternates a window at the nominal rate with one window of each
    ladder rate, lowest first: nominal, ladder[0], nominal, ladder[1], ...
    The CPU this benchmark shares speeds up and slows down over seconds, so
    spreading the nominal windows over the whole run, instead of measuring
    one long stretch, keeps the latency figures from resting on one spell.
    """

    nominal: float
    ladder: tuple[float, ...]
    limit_seconds: float
    #: Zipf exponent of target popularity; ``None`` for uniform targets.
    zipf: float | None


ONLINE = OpenLoopSpec(
    nominal=600.0, ladder=(900.0, 1100.0, 1300.0, 1500.0, 1700.0),
    limit_seconds=0.3, zipf=1.2,
)
FLEET = OpenLoopSpec(
    nominal=150.0, ladder=(250.0, 325.0, 400.0, 475.0, 550.0),
    limit_seconds=1.0, zipf=None,
)
#: Targets drawn per open-loop request.
REQUEST_SIZE = 8
#: Share of an open-loop run given to the nominal windows together; the
#: ladder windows split the rest.
NOMINAL_SHARE = 0.5
#: Seed of the Zipf popularity ranking (see :class:`RequestSampler`).
POPULARITY_SEED = 0
#: Rates per open-loop run: the nominal one plus the ladder.
MAX_STEPS = 1 + max(len(ONLINE.ladder), len(FLEET.ladder))


# ---------------------------------------------------------------------- #
# Training (offline: in a child process, once per source tree)
# ---------------------------------------------------------------------- #
def train(scale: float, path: str) -> float:
    """Train the NAI pipeline and save it to ``path``; returns the fit seconds.

    Runs in a child process (``train.py``) so the parent's peak RSS belongs
    to serving.
    """
    dataset = load_dataset(DATASET, scale=scale)
    backbone = make_backbone("sgc", dataset.num_features, dataset.num_classes, DEPTH, rng=0)
    distillation = DistillationConfig(
        training=TrainingConfig(epochs=40, lr=0.05, weight_decay=1e-4, patience=10),
    )
    start = time.perf_counter()
    nai = NAI(backbone, distillation_config=distillation, train_gates=False, rng=0).fit(dataset)
    fit_s = time.perf_counter() - start
    save_pipeline(nai, path)
    return fit_s


def trained_pipeline(src: Path, cache: Path, scale: float) -> tuple[NAI, float]:
    """The trained pipeline for this source tree and scale, and its fit seconds.

    Training is deterministic, so its result is kept under ``cache``, keyed
    by a hash of every file under ``src`` and the scale; only the first run
    in a checkout trains, in a child process that is always waited for:
    ``subprocess.run`` kills and reaps it if this process is interrupted.
    """
    digest = hashlib.sha256(f"{scale!r}".encode())
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    archive = cache / f"nai-{digest.hexdigest()[:20]}.npz"
    meta = archive.with_suffix(".json")
    if not (archive.is_file() and meta.is_file()):
        cache.mkdir(parents=True, exist_ok=True)
        partial = archive.with_name(f"partial-{os.getpid()}.npz")
        partial_meta = partial.with_suffix(".json")
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve().parent / "train.py"),
             "--scale", repr(scale), "--out", str(partial), "--meta", str(partial_meta)],
            check=True, stdout=sys.stderr,
        )
        os.replace(partial, archive)
        os.replace(partial_meta, meta)
    return load_pipeline(archive), json.loads(meta.read_text())["fit_s"]


# ---------------------------------------------------------------------- #
# Deployments
# ---------------------------------------------------------------------- #
@dataclass
class Deployment:
    """A deployed system plus what the measurement needs from it."""

    dataset: object
    predictor: NAIPredictor
    prepare_s: float
    submit: object = None
    server: InferenceServer | None = None
    cluster: object = None
    transport: SocketTransport | None = None
    group: ShardServerGroup | None = None

    @property
    def servers(self) -> list[InferenceServer]:
        """Every ``InferenceServer`` (one dispatcher thread each)."""
        if self.server is not None:
            return [self.server]
        if self.cluster is not None:
            return list(self.cluster.servers.values())
        return []

    def close(self) -> None:
        if self.server is not None:
            self.server.close()
        if self.cluster is not None:
            self.cluster.close()
        if self.transport is not None:
            self.transport.close()
        if self.group is not None:
            self.group.stop()


def deploy(workload: str, nai: NAI, threshold: float, scale: float) -> Deployment:
    """Graph construction, ``prepare``, server/fleet build and one warm-up."""
    dataset = load_dataset(DATASET, scale=scale)
    config = nai.inference_config(distance_threshold=threshold, batch_size=BATCH_SIZE)
    predictor = nai.build_predictor(policy="distance", config=config)
    warmup = np.asarray(dataset.split.val_idx[:WARMUP_NODES])
    if workload == "fleet-uniform-40k":
        sharded = ShardedPredictor.from_predictor(predictor)
        deployment = Deployment(dataset=dataset, predictor=predictor, prepare_s=0.0)

        def connect(store) -> SocketTransport:
            deployment.group = ShardServerGroup(store.shards).start()
            deployment.transport = deployment.group.connect()
            return deployment.transport

        start = time.perf_counter()
        sharded.prepare(
            dataset.graph, dataset.features,
            ShardConfig(num_shards=2, strategy="degree_balanced"), transport=connect,
        )
        deployment.prepare_s = time.perf_counter() - start
        deployment.cluster = ClusterBuilder(sharded, ServingConfig(num_workers=1)).build()
        deployment.submit = deployment.cluster.submit
        deployment.cluster.submit(warmup).result(timeout=60)
        return deployment
    start = time.perf_counter()
    predictor.prepare(dataset.graph, dataset.features)
    deployment = Deployment(
        dataset=dataset, predictor=predictor, prepare_s=time.perf_counter() - start
    )
    if workload == "online-zipf-40k":
        deployment.server = server = InferenceServer(predictor, ServingConfig(num_workers=2))
        # Looked up per call, so a traced phase sees the wrapped method.
        deployment.submit = lambda targets: server.submit(targets)
        deployment.server.submit(warmup).result(timeout=60)
    else:
        predictor.predict(warmup)
    return deployment


def timed_setups(workload: str, nai: NAI, threshold: float, scale: float):
    """Deploy ``SETUP_REPEATS`` times; keep the last deployment.

    Returns ``(deployment, setup seconds, prepare seconds)`` with one entry
    per repeat in each list.
    """
    setups, prepares = [], []
    deployment = None
    for _ in range(SETUP_REPEATS):
        if deployment is not None:
            deployment.close()
            deployment = None
            gc.collect()
        start = time.perf_counter()
        deployment = deploy(workload, nai, threshold, scale)
        setups.append(time.perf_counter() - start)
        prepares.append(deployment.prepare_s)
    return deployment, setups, prepares


# ---------------------------------------------------------------------- #
# Inputs
# ---------------------------------------------------------------------- #
def targets_stream(rng: np.random.Generator, test_idx: np.ndarray):
    """Uniform targets without repeats until every test node was used once."""
    while True:
        yield from rng.permutation(test_idx)


class RequestSampler:
    """Requests of about ``REQUEST_SIZE`` distinct test-node targets.

    Uniform specs walk :func:`targets_stream`; Zipf specs draw ranks
    Zipf(``spec.zipf``) over a permutation of the test nodes, so the same hot
    nodes recur across every step of a run.  Duplicates within a request
    collapse, so hot requests carry slightly fewer targets.

    The popularity ranking is part of the workload, like the graph, and is
    seeded by ``POPULARITY_SEED``, not by the run's seed: the top ~20 ranks
    take half of all draws and sit in nearly every micro-batch, so whether
    they are hubs sets the size of every support bundle.  A per-run ranking
    moved capacity by more than 2x between seeds; the run's seed draws the
    arrivals and the ranks.
    """

    def __init__(self, rng: np.random.Generator, test_idx: np.ndarray, spec: OpenLoopSpec):
        self.rng = rng
        self.spec = spec
        self.stream = targets_stream(rng, test_idx)
        if spec.zipf is not None:
            self.order = np.random.default_rng(POPULARITY_SEED).permutation(test_idx)
            weights = np.arange(1, self.order.shape[0] + 1, dtype=np.float64) ** -spec.zipf
            self.cdf = np.cumsum(weights / weights.sum())

    def requests(self, count: int) -> list[np.ndarray]:
        if self.spec.zipf is None:
            return [
                np.fromiter((next(self.stream) for _ in range(REQUEST_SIZE)), np.int64)
                for _ in range(count)
            ]
        ranks = np.searchsorted(self.cdf, self.rng.random((count, REQUEST_SIZE)))
        ranks = np.minimum(ranks, self.order.shape[0] - 1)
        return [np.unique(self.order[row]) for row in ranks]


# ---------------------------------------------------------------------- #
# Tracing
# ---------------------------------------------------------------------- #
SPAN_NAMES = [
    "graph.build_support", "core.run_batch", "serving.submit",
    "shard.submit", "transport.fetch",
]


class Probe:
    """Span recorder wired to every layer boundary, plus returned values."""

    def __init__(self, deployment: "Deployment") -> None:
        self.deployment = deployment
        self.recorder = SpanRecorder()
        self.support_rows: list[int] = []
        self.support_targets: list[int] = []
        self.support_bytes: list[int] = []
        #: Wall seconds spent traced, and the counters' growth meanwhile.
        self.wall = 0.0
        self.delta: dict[str, float] = {}

    def _on_bundle(self, args, bundle) -> None:
        self.support_rows.append(bundle.num_local)
        self.support_targets.append(int(np.asarray(args[1]).shape[0]))
        self.support_bytes.append(bundle.nbytes)

    def __enter__(self) -> "Probe":
        wrap = self.recorder.wrap
        wrap(BatchEngine, "build_support", "graph.build_support", self._on_bundle)
        wrap(ShardEngine, "build_support", "graph.build_support", self._on_bundle)
        wrap(BatchEngine, "run_batch", "core.run_batch")
        wrap(InferenceServer, "submit", "serving.submit")
        wrap(ShardRouter, "submit", "shard.submit")
        wrap(SocketTransport, "fetch", "transport.fetch")
        return self

    def __exit__(self, *exc_info) -> None:
        self.recorder.restore()

    @contextmanager
    def traced(self):
        """Trace the enclosed calls, adding their wall time and counter growth."""
        before = counters(self.deployment)
        start = time.perf_counter()
        with self:
            yield
        self.wall += time.perf_counter() - start
        for key, value in counters(self.deployment).items():
            self.delta[key] = self.delta.get(key, 0) + value - before[key]


# ---------------------------------------------------------------------- #
# Measurement
# ---------------------------------------------------------------------- #
@dataclass
class Served:
    """Per-call results of a measured phase, workload-independent."""

    node_ids: list[np.ndarray]
    predictions: list[np.ndarray]
    depths: list[np.ndarray]
    #: Batch key -> (nodes, requests, MACBreakdown, TimingBreakdown), so a
    #: batch serving many requests counts once.
    batches: dict
    queue_waits: list[float]
    shards_touched: list[int]
    cpu_seconds: float
    nodes: int


def closed_loop(deployment: Deployment, order, seconds: float, probe: Probe | None = None):
    """Back-to-back ``predict`` calls of ``BATCH_SIZE`` targets for ``seconds``.

    Returns ``(served, latencies, wall, untraced)``.  Without a probe
    ``untraced`` is ``None``.  With one, calls alternate untraced and traced:
    ``served`` and ``latencies`` hold the traced calls and ``untraced`` the
    others, so the tracing overhead is measured under the same CPU
    conditions.
    """
    calls: dict[bool, list] = {False: [], True: []}
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        traced = probe is not None and len(calls[False]) > len(calls[True])
        targets = np.fromiter((next(order) for _ in range(BATCH_SIZE)), np.int64)
        cpu = time.process_time()
        begin = time.perf_counter()
        with probe.traced() if traced else nullcontext():
            result = deployment.predictor.predict(targets)
        calls[traced].append(
            (result, time.perf_counter() - begin, time.process_time() - cpu)
        )
    wall = time.perf_counter() - start

    def served(records) -> Served:
        results = [r for r, _, _ in records]
        return Served(
            node_ids=[r.node_ids for r in results],
            predictions=[r.predictions for r in results],
            depths=[r.depths for r in results],
            batches={i: (r.num_nodes, 1, r.macs, r.timings) for i, r in enumerate(results)},
            queue_waits=[], shards_touched=[],
            cpu_seconds=sum(c for _, _, c in records),
            nodes=sum(r.num_nodes for r in results),
        )

    measured = calls[probe is not None]
    latencies = [latency for _, latency, _ in measured]
    untraced = served(calls[False]) if probe is not None else None
    return served(measured), latencies, wall, untraced


def open_loop(deployment, spec: OpenLoopSpec, rng, test_idx, seconds: float,
              probe: Probe | None = None):
    """Run the interleaved windows; returns ``(steps, untraced)``.

    ``steps`` holds one :class:`StepResult` per rate, ascending, so the
    nominal rate comes first.  Without a probe ``untraced`` is ``None``.
    With one, every window is traced and each nominal window is preceded by
    an untraced twin; the twins come back as ``untraced``, so the tracing
    overhead is measured under the same CPU conditions.
    """
    nominal_seconds = seconds * NOMINAL_SHARE / len(spec.ladder)
    rung_seconds = seconds * (1 - NOMINAL_SHARE) / len(spec.ladder)
    plan = []
    for rung in spec.ladder:
        if probe is not None:
            plan.append((spec.nominal, nominal_seconds, False))
        plan += [(spec.nominal, nominal_seconds, probe is not None),
                 (rung, rung_seconds, probe is not None)]
    sampler = RequestSampler(rng, test_idx, spec)
    windows: dict[tuple[bool, float], list] = {}
    on_submit = None
    if probe is not None:
        request_ids = itertools.count(1)

        def on_submit() -> None:
            probe.recorder.set_request(next(request_ids))
    for rate, duration, traced in plan:
        offsets = poisson_offsets(rng, rate, duration)
        requests = sampler.requests(offsets.shape[0])
        with probe.traced() if traced else nullcontext():
            window = run_window(
                deployment.submit, requests, offsets, duration=duration,
                drain_seconds=max(3.0, 4 * spec.limit_seconds),
                on_submit=on_submit if traced else None,
            )
        windows.setdefault((traced, rate), []).append(window)
    measured = probe is not None
    steps = [StepResult(rate, w) for (t, rate), w in sorted(windows.items()) if t == measured]
    untraced = StepResult(spec.nominal, windows[(False, spec.nominal)]) if measured else None
    return steps, untraced


def served_from_steps(steps: list[StepResult]) -> Served:
    node_ids, predictions, depths, waits, touched = [], [], [], [], []
    batches: dict = {}
    for step in steps:
        for outcome in step.ok:
            response = outcome.response
            parts = getattr(response, "per_shard", None)
            if parts is None:
                parts = {0: response}
            else:
                touched.append(response.num_shards_touched)
            node_ids.append(response.node_ids)
            predictions.append(response.predictions)
            depths.append(response.depths)
            for shard, part in parts.items():
                waits.append(part.queue_seconds)
                batches[(shard, part.batch_id)] = (
                    part.batch_num_nodes, part.batch_num_requests,
                    part.batch_macs, part.batch_timings,
                )
    return Served(
        node_ids=node_ids, predictions=predictions, depths=depths, batches=batches,
        queue_waits=waits, shards_touched=touched,
        cpu_seconds=sum(s.cpu_seconds for s in steps),
        nodes=sum(int(ids.shape[0]) for ids in node_ids),
    )


def max_ok_rps(steps: list[StepResult], limit_seconds: float) -> float:
    """Rate at which the load score first reaches 1.0 (the step's limits).

    Scores of ascending rates are first made non-decreasing (pool adjacent
    violators: averaging neighbours that invert), since a rate cannot get
    easier to serve as it grows and a lucky or unlucky window otherwise
    moves the answer by a whole step.  Between the last rate scoring at most
    1.0 and the next one the score is taken as linear.  0.0 when even the
    lowest rate fails; the top rate when none fails.
    """
    scores = [min(step.load_score(limit_seconds), 1e6) for step in steps]
    blocks: list[list[float]] = []  # [mean, count]
    for score in scores:
        blocks.append([score, 1])
        while len(blocks) > 1 and blocks[-2][0] > blocks[-1][0]:
            mean, count = blocks.pop()
            blocks[-1] = [
                (blocks[-1][0] * blocks[-1][1] + mean * count) / (blocks[-1][1] + count),
                blocks[-1][1] + count,
            ]
    fitted = [mean for mean, count in blocks for _ in range(count)]
    if fitted[0] > 1.0:
        return 0.0
    for low, high, score_low, score_high in zip(steps, steps[1:], fitted, fitted[1:]):
        if score_high > 1.0:
            share = (1.0 - score_low) / (score_high - score_low)
            return low.rate + share * (high.rate - low.rate)
    return steps[-1].rate


# ---------------------------------------------------------------------- #
# Oracle
# ---------------------------------------------------------------------- #
def check_oracle(oracle: NAIPredictor, node_ids, predictions, depths) -> str | None:
    """Compare served outputs with the sequential oracle; ``None`` when equal.

    Per-node outputs do not depend on batch composition, so one oracle call
    over the distinct served targets covers every request.
    """
    if not node_ids:
        return "no request was answered"
    ids = np.concatenate(node_ids)
    unique = np.unique(ids)
    truth = oracle.predict(unique)
    position = np.searchsorted(unique, ids)
    bad = np.flatnonzero(
        (truth.predictions[position] != np.concatenate(predictions))
        | (truth.depths[position] != np.concatenate(depths))
    )
    if bad.size:
        return (
            f"{bad.size} of {ids.size} served outputs differ from the sequential "
            f"oracle (first at node {int(ids[bad[0]])})"
        )
    return None


# ---------------------------------------------------------------------- #
# Metrics
# ---------------------------------------------------------------------- #
def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def accuracy(served: Served, labels: np.ndarray) -> float:
    """Accuracy over distinct served targets (hot repeats count once)."""
    if not served.node_ids:
        return 0.0
    ids = np.concatenate(served.node_ids)
    unique, first = np.unique(ids, return_index=True)
    return float((np.concatenate(served.predictions)[first] == labels[unique]).mean())


def macs_per_node(served: Served) -> float:
    nodes = sum(b[0] for b in served.batches.values())
    return sum(b[2].total for b in served.batches.values()) / nodes if nodes else 0.0


def counters(deployment: Deployment) -> dict[str, float]:
    """Cumulative server, shard and transport counters (diffed around a phase)."""
    snapshots = [server.stats() for server in deployment.servers]
    values = {
        "cache_hits": sum(s.cache_hits for s in snapshots),
        "cache_misses": sum(s.cache_misses for s in snapshots),
        "rejected": sum(s.requests_rejected + s.requests_shed for s in snapshots),
        "bundles": 0, "remote_rows": 0, "local_rows": 0,
        "wire_bytes": 0, "retries": 0, "failovers": 0,
    }
    if deployment.cluster is not None:
        traffic = deployment.cluster.traffic()
        shard, transport = traffic["shard_traffic"], traffic["transport"]
        values.update(
            bundles=shard["bundles_assembled"],
            remote_rows=shard["adjacency_rows_remote"] + shard["feature_rows_remote"],
            local_rows=shard["adjacency_rows_local"] + shard["feature_rows_local"],
            wire_bytes=(deployment.transport.wire_bytes_sent
                        + deployment.transport.wire_bytes_received),
            retries=transport["retries"],
            failovers=transport["failovers"],
        )
    return values


def layer_metrics(served: Served, probe: Probe) -> dict[str, float]:
    """Per-layer numbers of the traced calls or windows."""
    recorder, delta, wall = probe.recorder, probe.delta, probe.wall
    num_dispatchers = len(probe.deployment.servers)
    spans = recorder.layer_metrics(SPAN_NAMES)
    metrics: dict[str, float] = {}
    for name in ("graph.build_support", "core.run_batch"):
        for key in ("calls", "busy_s", "self_s", "p50_ms"):
            metrics[f"{name}.{key}"] = spans[f"{name}.{key}"]
    for name in ("serving.submit", "shard.submit"):
        for key in ("calls", "busy_s", "self_s"):
            metrics[f"{name}.{key}"] = spans[f"{name}.{key}"]
    for key in ("calls", "busy_s", "self_s", "p50_ms", "p99_ms"):
        metrics[f"transport.fetch.{key}"] = spans[f"transport.fetch.{key}"]

    targets = sum(probe.support_targets)
    metrics["graph.support_rows_per_target"] = (
        sum(probe.support_rows) / targets if targets else 0.0
    )
    metrics["graph.support_mb_mean"] = (
        float(np.mean(probe.support_bytes)) / 2**20 if probe.support_bytes else 0.0
    )

    batches = list(served.batches.values())
    batch_nodes = sum(b[0] for b in batches)
    for part in ("sampling", "stationary", "propagation", "decision", "classification"):
        metrics[f"core.{part}_s"] = sum(getattr(b[3], part) for b in batches)
    metrics["core.macs.propagation_per_node"] = (
        sum(b[2].propagation for b in batches) / batch_nodes if batch_nodes else 0.0
    )
    depths = np.concatenate(served.depths) if served.depths else np.zeros(0)
    metrics["core.exit_hop1_frac"] = float((depths == 1).mean()) if depths.size else 0.0

    server_batches = len(batches) if num_dispatchers else 0
    metrics["serving.queue_wait_p50_ms"] = 1e3 * percentile(served.queue_waits, 50)
    metrics["serving.queue_wait_p99_ms"] = 1e3 * percentile(served.queue_waits, 99)
    metrics["serving.dispatcher.build_support_busy_frac"] = (
        recorder.busy_on_threads("graph.build_support", "nai-dispatcher")
        / (wall * num_dispatchers) if num_dispatchers else 0.0
    )
    metrics["serving.batches"] = server_batches
    metrics["serving.batch_nodes_mean"] = batch_nodes / server_batches if server_batches else 0.0
    metrics["serving.batch_requests_mean"] = (
        sum(b[1] for b in batches) / server_batches if server_batches else 0.0
    )
    lookups = delta["cache_hits"] + delta["cache_misses"]
    metrics["serving.cache_hit_ratio"] = delta["cache_hits"] / lookups if lookups else 0.0
    metrics["serving.rejected"] = delta["rejected"]

    metrics["shard.shards_touched_mean"] = (
        float(np.mean(served.shards_touched)) if served.shards_touched else 0.0
    )
    metrics["shard.bundles_assembled"] = delta["bundles"]
    rows = delta["remote_rows"] + delta["local_rows"]
    metrics["shard.remote_row_frac"] = delta["remote_rows"] / rows if rows else 0.0
    requests = len(served.node_ids)
    metrics["transport.mb_total"] = delta["wire_bytes"] / 2**20
    metrics["transport.kb_per_request"] = (
        delta["wire_bytes"] / 1024 / requests if requests else 0.0
    )
    metrics["transport.retries"] = delta["retries"]
    metrics["transport.failovers"] = delta["failovers"]
    return metrics
