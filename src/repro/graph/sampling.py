"""Supporting-node sampling for inductive inference.

When a batch of unseen nodes is classified with propagation depth ``k``, the
features of every node within ``k`` hops of the batch (the *supporting nodes*)
are touched.  This module extracts those neighbourhoods and builds the local
sub-adjacency over which online propagation runs — the number of supporting
nodes is exactly the quantity the paper's acceleration attacks.

Hot-path architecture
---------------------
:func:`k_hop_neighborhood` returns the local nodes **sorted by hop distance**
(targets first, then the hop-1 frontier, and so on), ascending global id
within a hop.  A bundle's row order therefore depends only on the target
set, which is what lets the serving cache share one bundle across
permutations and slice subsets out of it bit-identically, and the rows the
inference engine computes cluster into long contiguous runs.  All index maps
are vectorised numpy inverse permutations — no Python dict lookups.

The engine itself needs no bundle when it holds the full graph: it pulls
rows on demand from the global CSR.  :func:`demand_closure` states which
rows that is, as an oracle independent of the engine loop.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from ..exceptions import GraphConstructionError
from .kernels import (
    extract_local_csr_arrays,
    extract_submatrix,
    gather_columns,
    global_to_local_map,
    hop_distances,
)
from .sparse import CSRGraph


@dataclass(frozen=True)
class SupportingSubgraph:
    """A k-hop neighbourhood extracted for a batch of target nodes.

    Attributes
    ----------
    node_ids:
        Global ids of all nodes in the subgraph, **sorted by hop distance**
        from the batch (targets occupy the leading positions).
    target_local:
        Local indices (into ``node_ids``) of the batch targets.
    adjacency:
        Local adjacency matrix restricted to ``node_ids``, or ``None`` when
        the caller requested ``include_adjacency=False`` (the inference
        engine extracts the *normalized* adjacency itself and never needs
        this one).
    hops:
        The hop distance from the batch at which each local node was first
        reached (0 for targets).  Non-decreasing by construction.
    global_to_local:
        Inverse-permutation map of length ``num_nodes`` with
        ``global_to_local[node_ids[i]] == i`` and ``-1`` elsewhere.
    """

    node_ids: np.ndarray
    target_local: np.ndarray
    adjacency: sp.csr_matrix | None
    hops: np.ndarray
    global_to_local: np.ndarray | None = None

    @property
    def num_supporting_nodes(self) -> int:
        """Total number of nodes touched, including the targets themselves."""
        return int(self.node_ids.shape[0])

    def prefix_within(self, hop: int) -> int:
        """Number of leading local rows within ``hop`` hops of the targets.

        Because ``hops`` is sorted, these rows form the prefix
        ``[0, prefix_within(h))`` of the local row range.
        """
        return int(np.searchsorted(self.hops, hop, side="right"))

    def as_graph(self) -> CSRGraph:
        """Wrap the local adjacency in a :class:`CSRGraph`."""
        if self.adjacency is None:
            raise GraphConstructionError(
                "this SupportingSubgraph was extracted with include_adjacency=False"
            )
        return CSRGraph(self.adjacency)


def k_hop_neighborhood(
    graph: CSRGraph,
    targets: np.ndarray,
    depth: int,
    *,
    include_adjacency: bool = True,
) -> SupportingSubgraph:
    """Extract the ``depth``-hop supporting subgraph around ``targets``.

    Parameters
    ----------
    graph:
        The full graph (train nodes plus unseen test nodes).
    targets:
        Global node ids of the inference batch.
    depth:
        Maximum propagation depth ``T_max``; supporting nodes further than
        this many hops away cannot influence the batch.
    include_adjacency:
        When false, skip building the local adjacency matrix (the inference
        engine only needs the node ordering and hop distances — it extracts
        the normalized adjacency itself, so building this one would double
        the sampling cost).
    """
    targets = np.asarray(targets, dtype=np.int64)
    if targets.size == 0:
        raise GraphConstructionError("k_hop_neighborhood requires a non-empty batch")
    if targets.min() < 0 or targets.max() >= graph.num_nodes:
        raise GraphConstructionError("target node ids out of range")
    if depth < 0:
        raise ValueError(f"depth must be non-negative, got {depth}")

    adjacency = graph.adjacency
    indptr, indices = adjacency.indptr, adjacency.indices
    visited = np.zeros(graph.num_nodes, dtype=bool)
    newly = np.zeros(graph.num_nodes, dtype=bool)
    hop_of = np.full(graph.num_nodes, -1, dtype=np.int64)
    frontier = np.unique(targets)
    visited[frontier] = True
    hop_of[frontier] = 0
    order = [frontier]
    for hop in range(1, depth + 1):
        if frontier.size == 0:
            break
        # All neighbours of the current frontier, gathered from the raw CSR
        # arrays; the boolean scatter deduplicates them without the sort that
        # np.unique would pay on the (duplicate-heavy) neighbour list.
        neighbor_ids = gather_columns(indptr, indices, frontier)
        neighbor_ids = neighbor_ids[~visited[neighbor_ids]]
        if neighbor_ids.size == 0:
            frontier = neighbor_ids
            continue
        newly[neighbor_ids] = True
        new = np.flatnonzero(newly)
        newly[new] = False
        visited[new] = True
        hop_of[new] = hop
        order.append(new)
        frontier = new

    node_ids = np.concatenate(order) if order else np.unique(targets)
    lookup = global_to_local_map(node_ids, graph.num_nodes)
    target_local = lookup[targets]
    local_adj = None
    if include_adjacency:
        local_adj = extract_submatrix(adjacency, node_ids, lookup=lookup)
    return SupportingSubgraph(
        node_ids=node_ids,
        target_local=target_local,
        adjacency=local_adj,
        hops=hop_of[node_ids],
        global_to_local=lookup,
    )


@dataclass(frozen=True)
class SupportBundle:
    """Everything the inference engine needs from sampling, in one reusable unit.

    A bundle packages the *data-movement* products of supporting-node
    extraction — the hop-ordered neighbourhood, the local normalized-adjacency
    CSR arrays and the gathered hop-0 feature rows — so a serving layer can
    build it once and replay it for every later batch with the same node
    composition (see :class:`repro.serving.SubgraphCache`).  Bundles carry no
    arithmetic: reusing one skips BFS, index remapping and feature gathering
    only, so MAC accounting is unaffected.

    All arrays are treated as read-only by the engine: propagation reads the
    features from :attr:`local_features` and writes depth ≥ 1 states into
    engine-owned memo buffers, never back into the bundle.
    """

    support: SupportingSubgraph
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    local_features: np.ndarray
    build_seconds: float

    @property
    def num_local(self) -> int:
        return self.support.num_supporting_nodes

    def with_target_order(self, rank: np.ndarray) -> "SupportBundle":
        """A view of this bundle whose targets are permuted by ``rank``.

        Everything else about a bundle — the hop-ordered node list, the local
        CSR arrays, the hop-0 feature rows — depends only on the *set* of
        targets: BFS starts from ``np.unique(targets)`` and orders each hop
        by ascending global id.  Only ``target_local`` (the local row of each
        target occurrence, in batch order) is order-sensitive.  Given the
        permutation from :func:`canonical_order`, this returns a shallow view
        whose ``target_local`` matches the permuted batch, sharing every
        array with the original — the serving cache stores one canonical
        bundle per node-set and rebases it per hit.
        """
        rank = np.asarray(rank, dtype=np.int64)
        if rank.shape != self.support.target_local.shape:
            raise GraphConstructionError(
                f"target permutation has length {rank.shape[0]}, bundle has "
                f"{self.support.target_local.shape[0]} targets"
            )
        support = replace(self.support, target_local=self.support.target_local[rank])
        return replace(self, support=support)

    @property
    def nbytes(self) -> int:
        """Approximate memory footprint (used for cache sizing diagnostics)."""
        arrays = (
            self.support.node_ids,
            self.support.target_local,
            self.support.hops,
            self.indptr,
            self.indices,
            self.data,
            self.local_features,
        )
        total = sum(a.nbytes for a in arrays)
        if self.support.global_to_local is not None:
            total += self.support.global_to_local.nbytes
        return int(total)


def canonical_order(targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(sorted_targets, rank)`` such that ``sorted_targets[rank] == targets``.

    ``sorted_targets`` is the canonical (ascending, duplicates preserved)
    form every permutation of a batch shares; ``rank`` re-permutes anything
    computed in canonical batch order — most importantly a canonical
    bundle's ``target_local`` — back to the actual request order (see
    :meth:`SupportBundle.with_target_order`).
    """
    targets = np.asarray(targets, dtype=np.int64)
    order = np.argsort(targets, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(order.shape[0], dtype=np.int64)
    return targets[order], rank


def support_cache_key(targets: np.ndarray, depth: int) -> bytes:
    """Cache key identifying a batch's supporting subgraph.

    The key is **canonical** — depth plus the *sorted* target ids — so every
    permutation of the same node multiset maps to one entry.  The sampling
    products genuinely depend only on the set (BFS starts from the unique
    targets and orders each hop by ascending id); the one order-sensitive
    piece, ``target_local``, is restored per use by rebasing the cached
    bundle through :meth:`SupportBundle.with_target_order`.
    """
    targets = np.ascontiguousarray(targets, dtype=np.int64)
    if targets.size and np.any(targets[1:] < targets[:-1]):
        targets = np.sort(targets, kind="stable")
    return depth.to_bytes(8, "little") + targets.tobytes()


def build_support_bundle(
    graph: CSRGraph,
    normalized_adjacency: sp.csr_matrix,
    features: np.ndarray,
    targets: np.ndarray,
    depth: int,
) -> SupportBundle:
    """Extract the cacheable sampling products for one inference batch.

    One BFS (:func:`k_hop_neighborhood`), one zero-copy local-CSR extraction
    and one contiguous gather of the hop-0 feature rows.  ``features`` must
    already carry the inference dtype — the bundle stores whatever it is
    given, so a cache holds exactly one precision per deployment.

    The graph-sized ``global_to_local`` lookup is only needed *during*
    extraction; it is dropped from the stored subgraph so a cached bundle
    costs O(subgraph), not O(num_nodes) — on a large deployment the lookup
    would otherwise dominate every entry of the serving cache.
    """
    start = time.perf_counter()
    support = k_hop_neighborhood(graph, targets, depth, include_adjacency=False)
    indptr, indices, data = extract_local_csr_arrays(
        normalized_adjacency, support.node_ids, lookup=support.global_to_local
    )
    local_features = np.ascontiguousarray(features[support.node_ids])
    return SupportBundle(
        support=replace(support, global_to_local=None),
        indptr=indptr,
        indices=indices,
        data=data,
        local_features=local_features,
        build_seconds=time.perf_counter() - start,
    )


def slice_support_bundle(
    bundle: SupportBundle,
    targets: np.ndarray,
    depth: int,
) -> SupportBundle:
    """Carve the supporting bundle for ``targets`` out of a superset bundle.

    ``bundle`` must have been built at ``depth`` (or deeper) and every one
    of ``targets`` must be one of *its targets* (hop 0).  Then the
    ``depth``-hop support of ``targets`` is a subset of the bundle's nodes
    and all of its edges are present in the bundle's local CSR, so the
    slice can be built without touching the full graph or the transport
    layer.  The result is **bit-identical** to a fresh
    :func:`build_support_bundle` for the same targets: local rows are
    re-sorted into the fresh build's (hop, global id) order, and the sub-CSR
    extraction preserves per-row column order.

    A node the bundle reached at hop ``h ≥ 1`` is not enough: its own
    ``depth``-hop ball extends ``h`` hops past the bundle's edge, so a slice
    for it would silently drop rows.  Raises
    :class:`~repro.exceptions.GraphConstructionError` when a target is
    missing from the bundle or is not one of its hop-0 targets.  The bundle
    does not record its depth; the serving cache keys bundles by depth, so
    its lookups always pass a matching one.
    """
    start = time.perf_counter()
    targets = np.asarray(targets, dtype=np.int64)
    if targets.size == 0:
        raise GraphConstructionError("slice_support_bundle requires targets")
    support = bundle.support
    node_ids = support.node_ids
    # The stored support drops its graph-sized global_to_local map; recover
    # the target rows with one O(n log n) argsort over the bundle's nodes.
    order = np.argsort(node_ids, kind="stable")
    sorted_ids = node_ids[order]
    pos = np.searchsorted(sorted_ids, targets)
    contained = (pos < sorted_ids.shape[0]) & (
        sorted_ids[np.minimum(pos, sorted_ids.shape[0] - 1)] == targets
    )
    if not np.all(contained):
        raise GraphConstructionError(
            "slice_support_bundle: targets are not contained in the bundle"
        )
    target_rows = order[pos]
    if np.any(support.hops[target_rows] != 0):
        raise GraphConstructionError(
            "slice_support_bundle: targets must be targets (hop 0) of the "
            "bundle; the support of a node reached at hop >= 1 extends past it"
        )
    # Hop distances over the bundle's own CSR reproduce the full-graph BFS
    # exactly: every node within `depth` hops of a contained target is in
    # the bundle (supports are monotone in the target set) along with every
    # edge of its shortest paths, and the normalized adjacency shares the
    # raw adjacency's reachability (self-loops never change BFS layering).
    dist = hop_distances(
        bundle.indptr, bundle.indices, target_rows, bundle.num_local, depth
    )
    sel = np.flatnonzero(dist <= depth)
    # Fresh builds order nodes hop-major, ascending global id within a hop.
    sel = sel[np.lexsort((node_ids[sel], dist[sel]))]
    local_matrix = sp.csr_matrix(
        (bundle.data, bundle.indices, bundle.indptr),
        shape=(bundle.num_local, bundle.num_local),
    )
    lookup = global_to_local_map(sel, bundle.num_local)
    indptr, indices, data = extract_local_csr_arrays(
        local_matrix, sel, lookup=lookup
    )
    sliced = SupportingSubgraph(
        node_ids=node_ids[sel],
        target_local=lookup[target_rows],
        adjacency=None,
        hops=dist[sel],
        global_to_local=None,
    )
    return SupportBundle(
        support=sliced,
        indptr=indptr,
        indices=indices,
        data=data,
        local_features=np.ascontiguousarray(bundle.local_features[sel]),
        build_seconds=time.perf_counter() - start,
    )


def supporting_node_counts(
    graph: CSRGraph,
    targets: np.ndarray,
    max_depth: int,
) -> list[int]:
    """Number of supporting nodes reached at each depth ``0..max_depth``.

    Useful for the batch-size experiment (Figure 5): the count grows roughly
    exponentially with depth until it saturates at the connected component
    size.
    """
    sub = k_hop_neighborhood(graph, targets, max_depth, include_adjacency=False)
    return [sub.prefix_within(depth) for depth in range(max_depth + 1)]


def demand_closure(
    indptr: np.ndarray,
    indices: np.ndarray,
    targets: np.ndarray,
    depths: np.ndarray,
    t_max: int,
) -> list[np.ndarray]:
    """Rows whose ``X^(j)`` a demand-driven batch must compute, per level.

    Returns ``[S_1, ..., S_t_max]`` (sorted row arrays) where
    ``S_j = {v : dist(v, t) <= depths[t] - j for some target t}``: a target
    classified at depth ``D_t`` needs ``X^(D_t)`` of itself, hence
    ``X^(D_t - 1)`` of its Â-neighbours, and so on down to the features.
    ``indptr``/``indices`` give the CSR structure of Â (global or a
    bundle's local arrays, with ``targets`` as rows of it).

    This is the independent oracle for the engine's propagation MACs —
    ``F · Σ_j Σ_{v ∈ S_j} nnz(Â[v])`` — so it deliberately shares no code
    with the engine loop: one bucketed BFS with a radius per target
    computes ``slack[v] = max_t (D_t - dist(v, t))``, and
    ``S_j = {v : slack[v] >= j}``.
    """
    num_rows = indptr.shape[0] - 1
    structure = sp.csr_matrix(
        (np.ones(indices.shape[0], dtype=np.int8), indices, indptr),
        shape=(num_rows, num_rows),
    )
    targets = np.asarray(targets, dtype=np.int64)
    depths = np.asarray(depths, dtype=np.int64)
    slack = np.full(num_rows, -1, dtype=np.int64)
    np.maximum.at(slack, targets, depths)
    # Radii only shrink along a path, so settling buckets from the largest
    # radius down visits every row once at its final slack.
    for radius in range(int(depths.max(initial=0)), 0, -1):
        frontier = np.flatnonzero(slack == radius)
        if frontier.size:
            np.maximum.at(slack, structure[frontier].indices, radius - 1)
    return [np.flatnonzero(slack >= level) for level in range(1, t_max + 1)]


def closure_propagation_macs(
    normalized_adjacency: sp.csr_matrix,
    node_ids: np.ndarray,
    depths: np.ndarray,
    *,
    t_max: int,
    batch_size: int,
    num_features: int,
) -> int:
    """Propagation MACs of demand-driven inference over ``node_ids``.

    Sums ``F · Σ_j Σ_{v ∈ S_j} nnz(Â[v])`` (:func:`demand_closure`) over the
    consecutive batches :func:`batch_iterator` cuts, given the exit depth
    of every node — what ``NAIPredictor.predict`` must report.
    """
    indptr = normalized_adjacency.indptr
    row_nnz = np.diff(indptr).astype(np.int64)
    depths = np.asarray(depths, dtype=np.int64)
    total = 0
    offset = 0
    for batch in batch_iterator(node_ids, batch_size):
        batch_depths = depths[offset:offset + batch.shape[0]]
        offset += batch.shape[0]
        for rows in demand_closure(
            indptr, normalized_adjacency.indices, batch, batch_depths, t_max
        ):
            total += int(row_nnz[rows].sum())
    return total * int(num_features)


def batch_iterator(node_ids: np.ndarray, batch_size: int) -> list[np.ndarray]:
    """Split ``node_ids`` into consecutive batches of at most ``batch_size``."""
    if batch_size <= 0:
        raise ValueError(f"batch_size must be positive, got {batch_size}")
    node_ids = np.asarray(node_ids, dtype=np.int64)
    return [
        node_ids[start:start + batch_size]
        for start in range(0, node_ids.shape[0], batch_size)
    ]
