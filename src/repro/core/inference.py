"""The NAI online-inference engine (Algorithm 1 of the paper).

For every inference batch of unseen nodes the engine

1. computes the stationary features ``X^(∞)`` of the batch (Eq. 6-7),
2. samples the supporting nodes within ``T_max`` hops,
3. propagates features online, depth by depth, over the supporting subgraph,
4. after each depth ``l ≥ T_min`` asks the NAP policy (distance- or
   gate-based) which of the remaining batch nodes can exit, classifies those
   with ``f^(l)`` and drops them from the batch, and
5. classifies everything still alive at ``T_max`` with ``f^(T_max)``.

Because exited nodes no longer require deeper propagation, the rows that
actually need computing shrink with every exit; this is where the paper's
speedup comes from, and the engine measures it both in wall-clock time and
in exact multiply-accumulate counts.

The same engine with ``policy=None`` implements the vanilla fixed-depth
inference of the underlying scalable GNN ("NAI w/o NAP" in the ablation) —
set ``t_min = t_max = k`` to recover the original model exactly.

Hot-path architecture (``engine="fused"``, the default)
-------------------------------------------------------
The fused engine is *demand-driven*: at depth ``d`` it computes ``X^(d)``
only for the targets still alive.  A row that lacks ``X^(j)`` first pulls
``X^(j-1)`` for its Â-neighbours, recursively, and each level is memoised
in engine-owned, grow-only buffers (one per level ``1 ≤ j < T_max``, with
a per-row generation stamp), so no row is computed twice in a batch.
``X^(T_max)`` is only ever needed at the targets and is computed packed.

* **The demand closure.**  Over a whole batch the rows that get ``X^(j)``
  are exactly ``S_j = {v : dist(v, t) ≤ D_t − j for some target t}``,
  where ``D_t`` is the depth at which target ``t`` exits.  A target that
  exits at hop 1 costs its own row at level 1 and nothing deeper — the
  per-node halting the paper's speedup comes from.
  :func:`~repro.graph.sampling.demand_closure` computes ``S_j``
  independently of this loop, as the oracle for the MAC ledger.
* **The MAC ledger.**  ``macs.propagation`` counts executed nnz × F, which
  is ``F · Σ_j Σ_{v ∈ S_j} nnz(Â[v])``.  ``S_j`` never exceeds what the
  reference engine recomputes, and equals it when nobody exits early
  (``policy=None``).  Stationary, decision and classification MACs are
  the reference's.
* **Global path versus bundle path.**  When :meth:`BatchEngine.run_batch`
  gets no bundle and the engine holds the full graph
  (:meth:`NAIPredictor.predict`, a server with the subgraph cache off),
  the loop runs directly on the global Â arrays and the feature matrix:
  no BFS, no local-CSR extraction, no hop-0 gather, and
  ``timings.sampling`` stays 0.  When a
  :class:`~repro.graph.sampling.SupportBundle` is given (subgraph cache,
  shards, waves, prefetch) the same loop runs on the bundle's local
  arrays.  Both are bit-identical: every row the loop computes lies
  within ``T_max − 1`` hops of a target, so it keeps all its entries, in
  global column order, in either CSR, and the compiled SpMM sums the same
  products in the same order.
* **Kernels.**  :func:`~repro.graph.kernels.row_spmm` picks per-run or
  compacted SpMM from the runs and nnz of each row set — a bundle's
  hop-ordered frontier forms long runs, a frontier in the global graph is
  scattered.  The whole path is dtype-parametric: ``NAIConfig.dtype =
  "float32"`` halves the propagation memory traffic, while classification
  stays float64.

``engine="reference"`` preserves the naive implementation (fresh BFS and
fancy-indexed submatrix per depth) as an equivalence oracle and benchmark
baseline; ``benchmarks/bench_hot_path.py`` records the speedup between the
two in ``BENCH_hot_path.json``.

Worker-ownable engine state
---------------------------
All per-batch execution lives in :class:`BatchEngine`, which owns the
mutable hot-path state (the grow-only per-level memo buffers) while
sharing the prepared read-only deployment state (features, normalized
adjacency, stationary vectors, classifiers).  :class:`NAIPredictor` keeps
one engine for its sequential :meth:`~NAIPredictor.predict` loop;
:mod:`repro.serving` hands each pool worker its own engine via
:meth:`NAIPredictor.make_engine`, so independent micro-batches run
concurrently without sharing scratch memory.  The sampling products of a
batch are packaged as a :class:`~repro.graph.sampling.SupportBundle` that
:meth:`BatchEngine.run_batch` accepts pre-built — the serving layer's
subgraph cache replays bundles across recurring batches, skipping BFS and
feature gathering while every MAC-counted operation still executes.  An
engine given no bundle needs none: it propagates from the global CSR.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from ..exceptions import ConfigurationError, GraphConstructionError, NotFittedError
from ..graph.kernels import gather_columns, packed_row_spmm, row_spmm
from ..graph.normalization import NormalizationScheme, normalized_adjacency
from ..graph.sampling import (
    SupportBundle,
    batch_iterator,
    build_support_bundle,
)
from ..graph.sparse import CSRGraph
from ..models.base import DepthwiseClassifier
from ..nn.tensor import Tensor
from .config import NAIConfig
from .distance_nap import DistanceNAP
from .gate_nap import GateNAP
from .stationary import StationaryState, compute_stationary_state


@dataclass
class MACBreakdown:
    """Multiply-accumulate counts of one inference run, split by procedure."""

    stationary: float = 0.0
    propagation: float = 0.0
    decision: float = 0.0
    classification: float = 0.0

    @property
    def total(self) -> float:
        return self.stationary + self.propagation + self.decision + self.classification

    @property
    def feature_processing(self) -> float:
        """Propagation plus decision MACs ("FP MACs" in the paper's tables)."""
        return self.propagation + self.decision

    def merged_with(self, other: "MACBreakdown") -> "MACBreakdown":
        return MACBreakdown(
            stationary=self.stationary + other.stationary,
            propagation=self.propagation + other.propagation,
            decision=self.decision + other.decision,
            classification=self.classification + other.classification,
        )


@dataclass
class TimingBreakdown:
    """Wall-clock seconds of one inference run, split by procedure."""

    sampling: float = 0.0
    stationary: float = 0.0
    propagation: float = 0.0
    decision: float = 0.0
    classification: float = 0.0

    @property
    def total(self) -> float:
        return (
            self.sampling
            + self.stationary
            + self.propagation
            + self.decision
            + self.classification
        )

    @property
    def feature_processing(self) -> float:
        """Propagation plus decision time ("FP time" in the paper's tables)."""
        return self.propagation + self.decision

    def merged_with(self, other: "TimingBreakdown") -> "TimingBreakdown":
        return TimingBreakdown(
            sampling=self.sampling + other.sampling,
            stationary=self.stationary + other.stationary,
            propagation=self.propagation + other.propagation,
            decision=self.decision + other.decision,
            classification=self.classification + other.classification,
        )


@dataclass
class InferenceResult:
    """Predictions plus efficiency accounting for a set of test nodes."""

    node_ids: np.ndarray
    predictions: np.ndarray
    depths: np.ndarray
    macs: MACBreakdown
    timings: TimingBreakdown
    max_depth: int
    logits: dict[int, np.ndarray] = field(default_factory=dict)

    @property
    def num_nodes(self) -> int:
        return int(self.node_ids.shape[0])

    def accuracy(self, labels: np.ndarray) -> float:
        """Accuracy against the global label vector."""
        labels = np.asarray(labels)
        return float((self.predictions == labels[self.node_ids]).mean())

    def depth_distribution(self) -> list[int]:
        """Number of nodes classified at each depth ``1..max_depth`` (Table VI)."""
        counts = np.bincount(self.depths, minlength=self.max_depth + 1)
        return [int(c) for c in counts[1:self.max_depth + 1]]

    def average_depth(self) -> float:
        """The average personalised propagation depth ``q`` of Table I."""
        return float(self.depths.mean()) if self.depths.size else 0.0

    def macs_per_node(self) -> float:
        """Total MACs averaged over the classified nodes."""
        return self.macs.total / max(self.num_nodes, 1)

    def feature_processing_macs_per_node(self) -> float:
        """Feature-processing MACs averaged over the classified nodes."""
        return self.macs.feature_processing / max(self.num_nodes, 1)

    def time_per_node(self) -> float:
        """Total inference seconds averaged over the classified nodes."""
        return self.timings.total / max(self.num_nodes, 1)

    def feature_processing_time_per_node(self) -> float:
        """Feature-processing seconds averaged over the classified nodes."""
        return self.timings.feature_processing / max(self.num_nodes, 1)


def _distinct_rows(
    rows: np.ndarray, num_rows: int, stamps: np.ndarray | None = None, generation: int = 0
) -> np.ndarray:
    """Sorted distinct values of ``rows`` (all in ``[0, num_rows)``).

    With ``stamps``, rows already stamped ``generation`` (memoised this
    batch) are dropped.  Sorting wins for short lists; once the list is as
    long as the row range, one boolean scatter over ``num_rows`` is several
    times cheaper than ``np.unique``'s hashing, and the memo filter then
    runs once per row rather than once per occurrence.
    """
    if rows.size < num_rows:
        ordered = np.sort(rows)
        first = np.empty(ordered.size, dtype=bool)
        first[:1] = True
        np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
        distinct = ordered[first]
        if stamps is None:
            return distinct
        return distinct[stamps[distinct] != generation]
    mark = np.zeros(num_rows, dtype=bool)
    mark[rows] = True
    if stamps is not None:
        mark &= stamps != generation
    return np.flatnonzero(mark)


class BatchEngine:
    """Executes Algorithm 1 for one batch; owns all mutable per-batch state.

    An engine shares the prepared **read-only** deployment state — the
    feature matrix, the normalized adjacency, the stationary vectors and the
    trained classifiers — with its :class:`NAIPredictor` (and with every
    sibling engine), while owning the **mutable** hot-path state privately:
    the grow-only per-level memo buffers that the fused engine writes
    into.  That split is what makes engines worker-ownable: the serving
    layer's pool gives each worker its own engine, so concurrent batches
    never contend on scratch memory, and merging the per-engine
    :class:`TimingBreakdown`/:class:`MACBreakdown` reproduces the sequential
    accounting exactly.

    Engines are *not* thread-safe individually — one engine runs one batch
    at a time.  Use one engine per worker.
    """

    def __init__(
        self,
        classifiers: Sequence[DepthwiseClassifier],
        policy: DistanceNAP | GateNAP | None,
        config: NAIConfig,
        graph: CSRGraph | None,
        features: np.ndarray | None,
        a_hat: sp.csr_matrix | None,
        stationary: StationaryState,
    ) -> None:
        # graph/features/a_hat may be None for engines whose sampling is
        # served elsewhere (repro.shard overrides build_support; without a
        # global Â the fused path reads only the stationary state and the
        # bundle).
        if (graph is None or features is None or a_hat is None) and (
            config.engine != "fused"
        ):
            raise ConfigurationError(
                "an engine without the full graph/features/Â requires "
                "engine='fused' (the reference engine resamples from the "
                "in-process graph every depth)"
            )
        self.classifiers = list(classifiers)
        self.policy = policy
        self.config = config
        self.graph = graph
        self.features = features
        self.a_hat = a_hat
        self.stationary = stationary
        for classifier in self.classifiers:
            classifier.eval()
        # Grow-only per-level memo buffers reused across batches (fused
        # engine only); see _memo.
        self._memo_values: list[np.ndarray] = []
        self._memo_stamps: list[np.ndarray] = []
        self._generation = 0
        #: Batches executed by this engine (used by pool-utilisation stats).
        self.batches_run = 0

    # ------------------------------------------------------------------ #
    # Sampling
    # ------------------------------------------------------------------ #
    def build_support(self, batch: np.ndarray) -> SupportBundle:
        """Extract the cacheable sampling products for ``batch``.

        The bundle can be handed back to :meth:`run_batch` any number of
        times (by this or any sibling engine of the same predictor) — the
        serving subgraph cache relies on this to amortise sampling across
        recurring batches.
        """
        return build_support_bundle(
            self.graph, self.a_hat, self.features, batch, self.config.t_max
        )

    # ------------------------------------------------------------------ #
    # One batch of Algorithm 1
    # ------------------------------------------------------------------ #
    def run_batch(
        self,
        batch: np.ndarray,
        *,
        keep_logits: bool = False,
        bundle: SupportBundle | None = None,
    ) -> InferenceResult:
        """Classify one batch, optionally reusing a pre-built support bundle."""
        batch = np.asarray(batch, dtype=np.int64)
        if batch.size == 0:
            raise ConfigurationError("run_batch requires at least one node")
        self.batches_run += 1
        if self.config.engine == "reference":
            if bundle is not None:
                raise ConfigurationError(
                    "the reference engine rebuilds sampling per depth and "
                    "cannot reuse a SupportBundle"
                )
            return self._run_reference(batch, keep_logits=keep_logits)
        return self._run_fused(batch, keep_logits=keep_logits, bundle=bundle)

    def _batch_stationary(
        self, batch: np.ndarray, macs: MACBreakdown, timings: TimingBreakdown
    ) -> np.ndarray:
        """Line 2: stationary state of the batch, from the entire graph."""
        num_features = self.stationary.num_features
        start = time.perf_counter()
        stationary_batch = self.stationary.features_for(batch)
        timings.stationary += time.perf_counter() - start
        # The stationary state knows the deployment's global node count even
        # when the engine itself holds no full graph (sharded engines don't).
        macs.stationary += (
            self.stationary.num_nodes * num_features + batch.shape[0] * num_features
        )
        return stationary_batch

    def _memo(self, num_rows: int, width: int) -> tuple[list[np.ndarray], list[np.ndarray], int]:
        """Per-level memo buffers and stamps for one batch, grown as needed.

        Level ``j`` (``1 ≤ j < T_max``) owns a ``(num_rows, width)`` value
        buffer and an int64 stamp per row; a row holds a valid ``X^(j)``
        for the current batch exactly when its stamp equals the returned
        generation.  Bumping the generation invalidates every row at once,
        so stale contents from a previous batch (or from a batch that
        raised half way) are never read.  ``X^(T_max)`` is only ever needed
        at the targets and is not memoised.
        """
        dtype = self.config.np_dtype
        num_levels = self.config.t_max - 1
        if (
            len(self._memo_values) != num_levels
            or (num_levels and (
                self._memo_values[0].shape[0] < num_rows
                or self._memo_values[0].shape[1] != width
                or self._memo_values[0].dtype != dtype
            ))
        ):
            self._memo_values = [
                np.empty((num_rows, width), dtype=dtype) for _ in range(num_levels)
            ]
            self._memo_stamps = [
                np.zeros(num_rows, dtype=np.int64) for _ in range(num_levels)
            ]
        self._generation += 1
        return (
            [values[:num_rows] for values in self._memo_values],
            [stamps[:num_rows] for stamps in self._memo_stamps],
            self._generation,
        )

    def _run_fused(
        self,
        batch: np.ndarray,
        *,
        keep_logits: bool,
        bundle: SupportBundle | None,
    ) -> InferenceResult:
        """Demand-driven propagation: compute ``X^(j)`` only where a live target needs it."""
        cfg = self.config
        num_features = self.stationary.num_features
        macs = MACBreakdown()
        timings = TimingBreakdown()

        stationary_batch = self._batch_stationary(batch, macs, timings)

        # The Â rows the loop reads.  With the full graph in process and no
        # bundle, that is the global CSR and feature matrix themselves: no
        # BFS, no local-CSR extraction, no hop-0 gather.  A bundle (subgraph
        # cache, shards, waves, prefetch) supplies its own local arrays, and
        # an engine without the global Â (sharded) builds one.
        if bundle is None and (self.a_hat is None or self.features is None):
            bundle = self.build_support(batch)
            timings.sampling += bundle.build_seconds
        if bundle is None:
            indptr, indices, data = self.a_hat.indptr, self.a_hat.indices, self.a_hat.data
            level0: np.ndarray = self.features
            target_rows = batch
            if batch.min() < 0 or batch.max() >= level0.shape[0]:
                raise GraphConstructionError("target node ids out of range")
        else:
            indptr, indices, data = bundle.indptr, bundle.indices, bundle.data
            level0 = bundle.local_features
            target_rows = bundle.support.target_local
        values, stamps, generation = self._memo(level0.shape[0], num_features)

        predictions = np.full(batch.shape[0], -1, dtype=np.int64)
        assigned_depth = np.zeros(batch.shape[0], dtype=np.int64)
        logits_store: dict[int, np.ndarray] = {}
        remaining = np.arange(batch.shape[0])

        # Per-depth history of the *batch rows* only (needed by SIGN/S2GC/GAMLP).
        # Entries of targets that already exited are never read.
        target_history: list[np.ndarray] = [level0[target_rows]]

        for depth in range(1, cfg.t_max + 1):
            start = time.perf_counter()
            alive_rows = _distinct_rows(target_rows[remaining], level0.shape[0])
            # Resolve the demand top-down: the live targets need X^(depth);
            # every row lacking X^(j) needs X^(j-1) of its Â-neighbours.
            # Rows already memoised at a level are dropped there, so no row
            # is computed twice in a batch.
            demand = {depth: alive_rows}
            for level in range(depth, 1, -1):
                demand[level - 1] = _distinct_rows(
                    gather_columns(indptr, indices, demand[level]),
                    level0.shape[0], stamps[level - 2], generation,
                )
            # Then compute bottom-up, each level from the one below it.
            for level in range(1, depth + 1):
                rows = demand[level]
                source = level0 if level == 1 else values[level - 2]
                if level < cfg.t_max:
                    nnz = row_spmm(indptr, indices, data, source, values[level - 1], rows)
                    stamps[level - 1][rows] = generation
                else:
                    top, nnz = packed_row_spmm(
                        indptr, indices, data, source, rows, assume_bounded=True
                    )
                macs.propagation += float(nnz) * num_features
            if depth < cfg.t_max:
                target_history.append(values[depth - 1][target_rows])
            else:
                last = np.empty((batch.shape[0], num_features), dtype=level0.dtype)
                last[remaining] = top[np.searchsorted(alive_rows, target_rows[remaining])]
                target_history.append(last)
            timings.propagation += time.perf_counter() - start

            if depth < cfg.t_min:
                continue

            if depth < cfg.t_max and self.policy is not None and remaining.size:
                start = time.perf_counter()
                propagated_remaining = target_history[depth][remaining]
                stationary_remaining = stationary_batch[remaining]
                exits = self.policy.should_exit(propagated_remaining, stationary_remaining, depth)
                timings.decision += time.perf_counter() - start
                macs.decision += self.policy.decision_macs_per_node(num_features) * remaining.size

                exiting = remaining[exits]
                if exiting.size:
                    self._classify(
                        exiting, depth, target_history, predictions, assigned_depth,
                        logits_store, batch, macs, timings, keep_logits,
                    )
                    remaining = remaining[~exits]
            elif depth == cfg.t_max and remaining.size:
                self._classify(
                    remaining, depth, target_history, predictions, assigned_depth,
                    logits_store, batch, macs, timings, keep_logits,
                )
                remaining = remaining[:0]

            if remaining.size == 0:
                break

        return InferenceResult(
            node_ids=batch,
            predictions=predictions,
            depths=assigned_depth,
            macs=macs,
            timings=timings,
            max_depth=cfg.t_max,
            logits=logits_store,
        )

    def _legacy_support(self, batch: np.ndarray, depth: int) -> tuple[np.ndarray, np.ndarray, sp.csr_matrix]:
        """Seed-faithful supporting-node sampling for the reference engine.

        Replicates the pre-optimisation pipeline exactly — per-hop scipy row
        slicing with ``np.unique`` deduplication, a Python-dict local index,
        and two fancy-indexed ``[ids][:, ids]`` submatrix extractions (the
        local graph adjacency that the seed built and discarded, plus the
        normalized adjacency the loop actually propagates) — so that
        ``benchmarks/bench_hot_path.py`` measures against the true
        pre-change baseline rather than one sped up by the shared sampling
        improvements.
        """
        adjacency = self.graph.adjacency
        visited = np.zeros(self.graph.num_nodes, dtype=bool)
        frontier = np.unique(batch)
        visited[frontier] = True
        order = [frontier]
        for _ in range(depth):
            if frontier.size == 0:
                break
            neighbor_ids = adjacency[frontier].indices
            new = np.unique(neighbor_ids[~visited[neighbor_ids]])
            if new.size == 0:
                frontier = new
                continue
            visited[new] = True
            order.append(new)
            frontier = new
        node_ids = np.concatenate(order)
        local_index = {int(g): i for i, g in enumerate(node_ids)}
        target_local = np.asarray([local_index[int(t)] for t in batch], dtype=np.int64)
        adjacency[node_ids][:, node_ids].tocsr()  # the seed built (and never used) this
        local_adj = self.a_hat[node_ids][:, node_ids].tocsr()
        return node_ids, target_local, local_adj

    def _run_reference(self, batch: np.ndarray, *, keep_logits: bool) -> InferenceResult:
        """The naive engine: per-depth BFS + fancy-indexed CSR submatrices.

        Kept verbatim as the equivalence oracle for the fused engine and as
        the baseline that ``benchmarks/bench_hot_path.py`` measures against.
        """
        cfg = self.config
        num_features = self.features.shape[1]
        macs = MACBreakdown()
        timings = TimingBreakdown()

        stationary_batch = self._batch_stationary(batch, macs, timings)

        # Line 3: supporting-node sampling up to T_max hops (seed-faithful).
        start = time.perf_counter()
        node_ids, target_local, local_adj = self._legacy_support(batch, cfg.t_max)
        timings.sampling += time.perf_counter() - start

        local_features = self.features[node_ids]

        predictions = np.full(batch.shape[0], -1, dtype=np.int64)
        assigned_depth = np.zeros(batch.shape[0], dtype=np.int64)
        logits_store: dict[int, np.ndarray] = {}
        remaining = np.arange(batch.shape[0])

        # Per-depth history of the *batch rows* only (needed by SIGN/S2GC/GAMLP).
        target_history: list[np.ndarray] = [local_features[target_local].copy()]

        current = local_features

        for depth in range(1, cfg.t_max + 1):
            # Which local rows can still influence a remaining target within
            # the depths left to run?  (BFS from the remaining targets.)
            remaining_depths = cfg.t_max - depth
            needed_rows = self._rows_needed(local_adj, target_local[remaining], remaining_depths)

            start = time.perf_counter()
            updated = np.array(current, copy=True)
            rows = np.flatnonzero(needed_rows)
            partial = local_adj[rows] @ current
            updated[rows] = partial
            current = updated
            timings.propagation += time.perf_counter() - start
            macs.propagation += float(local_adj[rows].nnz) * num_features

            target_history.append(current[target_local].copy())

            if depth < cfg.t_min:
                continue

            if depth < cfg.t_max and self.policy is not None and remaining.size:
                start = time.perf_counter()
                propagated_remaining = current[target_local[remaining]]
                stationary_remaining = stationary_batch[remaining]
                exits = self.policy.should_exit(propagated_remaining, stationary_remaining, depth)
                timings.decision += time.perf_counter() - start
                macs.decision += self.policy.decision_macs_per_node(num_features) * remaining.size

                exiting = remaining[exits]
                if exiting.size:
                    self._classify(
                        exiting, depth, target_history, predictions, assigned_depth,
                        logits_store, batch, macs, timings, keep_logits,
                    )
                    remaining = remaining[~exits]
            elif depth == cfg.t_max and remaining.size:
                self._classify(
                    remaining, depth, target_history, predictions, assigned_depth,
                    logits_store, batch, macs, timings, keep_logits,
                )
                remaining = remaining[:0]

            if remaining.size == 0:
                break

        return InferenceResult(
            node_ids=batch,
            predictions=predictions,
            depths=assigned_depth,
            macs=macs,
            timings=timings,
            max_depth=cfg.t_max,
            logits=logits_store,
        )

    @staticmethod
    def _rows_needed(
        local_adj: sp.csr_matrix,
        target_rows: np.ndarray,
        remaining_depth: int,
    ) -> np.ndarray:
        """Local rows within ``remaining_depth`` hops of the remaining targets."""
        num_local = local_adj.shape[0]
        needed = np.zeros(num_local, dtype=bool)
        if target_rows.size == 0:
            return needed
        needed[target_rows] = True
        frontier = np.unique(target_rows)
        for _ in range(remaining_depth):
            if frontier.size == 0:
                break
            neighbors = local_adj[frontier].indices
            new = np.unique(neighbors[~needed[neighbors]])
            needed[new] = True
            frontier = new
        return needed

    def _classify(
        self,
        local_positions: np.ndarray,
        depth: int,
        target_history: list[np.ndarray],
        predictions: np.ndarray,
        assigned_depth: np.ndarray,
        logits_store: dict[int, np.ndarray],
        batch: np.ndarray,
        macs: MACBreakdown,
        timings: TimingBreakdown,
        keep_logits: bool,
    ) -> None:
        """Classify the batch rows ``local_positions`` with ``f^(depth)``."""
        classifier = self.classifiers[depth - 1]
        inputs = [Tensor(history[local_positions]) for history in target_history[: depth + 1]]
        start = time.perf_counter()
        logits = classifier(inputs)
        timings.classification += time.perf_counter() - start
        macs.classification += classifier.classification_macs_per_node() * local_positions.size

        predicted = logits.data.argmax(axis=1)
        predictions[local_positions] = predicted
        assigned_depth[local_positions] = depth
        if keep_logits:
            for row, position in enumerate(local_positions):
                logits_store[int(batch[position])] = logits.data[row].copy()


class NAIPredictor:
    """Node-Adaptive Inference engine for a trained scalable-GNN backbone.

    Parameters
    ----------
    classifiers:
        ``[f^(1), ..., f^(k)]`` trained by
        :class:`~repro.core.distillation.InceptionDistillation` (or plain CE).
    policy:
        :class:`DistanceNAP`, :class:`GateNAP` or ``None`` (no early exit).
    config:
        Inference hyper-parameters (``T_min``, ``T_max``, ``T_s``, batch size).
    gamma:
        Convolution coefficient of Eq. (1); must match the training-time
        propagation.
    """

    def __init__(
        self,
        classifiers: Sequence[DepthwiseClassifier],
        *,
        policy: DistanceNAP | GateNAP | None = None,
        config: NAIConfig | None = None,
        gamma: str | float | NormalizationScheme = NormalizationScheme.SYMMETRIC,
    ) -> None:
        if not classifiers:
            raise ConfigurationError("NAIPredictor needs at least one classifier")
        self.classifiers = list(classifiers)
        self.depth = len(self.classifiers)
        self.policy = policy
        self.gamma = gamma
        self.config = (config if config is not None else NAIConfig(t_min=self.depth, t_max=self.depth))
        self.config.validated_against_depth(self.depth)
        self._graph: CSRGraph | None = None
        self._features: np.ndarray | None = None
        self._a_hat: sp.csr_matrix | None = None
        self._stationary: StationaryState | None = None
        self._engine: BatchEngine | None = None

    # ------------------------------------------------------------------ #
    # Deployment
    # ------------------------------------------------------------------ #
    def prepare(self, graph: CSRGraph, features: np.ndarray) -> "NAIPredictor":
        """Deploy the predictor on the full inference-time graph.

        Builds the (global) normalized adjacency and caches the stationary
        state, all cast to ``config.dtype`` so the inference hot path runs in
        a single precision end to end.  Called once before any number of
        :meth:`predict` calls.
        """
        dtype = self.config.np_dtype
        self._graph = graph
        self._features = np.ascontiguousarray(features, dtype=dtype)
        self._a_hat = normalized_adjacency(graph, gamma=self.gamma).astype(dtype, copy=False)
        self._stationary = compute_stationary_state(
            graph, self._features, gamma=self.gamma, dtype=dtype
        )
        self._engine = self.make_engine()
        return self

    def make_engine(self) -> BatchEngine:
        """Create a fresh :class:`BatchEngine` over the prepared state.

        Every engine shares the read-only deployment state (features,
        normalized adjacency, stationary vectors, classifiers) but owns its
        propagation buffers privately, so one engine per worker thread runs
        concurrent batches without contention.  Requires :meth:`prepare`.
        """
        self._require_prepared()
        assert self._graph is not None and self._features is not None
        assert self._a_hat is not None and self._stationary is not None
        return BatchEngine(
            self.classifiers,
            self.policy,
            self.config,
            self._graph,
            self._features,
            self._a_hat,
            self._stationary,
        )

    @property
    def prepared(self) -> bool:
        """Whether :meth:`prepare` has deployed this predictor on a graph."""
        return self._graph is not None and self._a_hat is not None and self._stationary is not None

    def _require_prepared(self) -> None:
        if not self.prepared:
            raise NotFittedError("call NAIPredictor.prepare(graph, features) before predict")

    # ------------------------------------------------------------------ #
    # Inference
    # ------------------------------------------------------------------ #
    def predict(self, node_ids: np.ndarray, *, keep_logits: bool = False) -> InferenceResult:
        """Classify ``node_ids`` with node-adaptive propagation (Algorithm 1)."""
        self._require_prepared()
        node_ids = np.asarray(node_ids, dtype=np.int64)
        if node_ids.size == 0:
            raise ConfigurationError("predict requires at least one node")
        predictions = np.full(node_ids.shape[0], -1, dtype=np.int64)
        depths = np.zeros(node_ids.shape[0], dtype=np.int64)
        logits_store: dict[int, np.ndarray] = {}
        macs = MACBreakdown()
        timings = TimingBreakdown()

        assert self._engine is not None
        # Batches are consecutive slices of ``node_ids``, so the results of
        # batch i land in the matching slice of the output arrays — no
        # per-node Python-dict position lookups.
        offset = 0
        for batch in batch_iterator(node_ids, self.config.batch_size):
            batch_result = self._engine.run_batch(batch, keep_logits=keep_logits)
            macs = macs.merged_with(batch_result.macs)
            timings = timings.merged_with(batch_result.timings)
            predictions[offset:offset + batch.shape[0]] = batch_result.predictions
            depths[offset:offset + batch.shape[0]] = batch_result.depths
            offset += batch.shape[0]
            if keep_logits:
                logits_store.update(batch_result.logits)

        return InferenceResult(
            node_ids=node_ids,
            predictions=predictions,
            depths=depths,
            macs=macs,
            timings=timings,
            max_depth=self.config.t_max,
            logits=logits_store,
        )

