"""Sparse graph substrate: containers, normalization, propagation, sampling."""

from .generators import SyntheticGraphSpec, generate_community_graph, generate_features
from .kernels import (
    extract_local_csr_arrays,
    extract_submatrix,
    gather_columns,
    gathered_row_spmm,
    global_to_local_map,
    hop_distances,
    masked_row_spmm,
    masked_row_spmm_reference,
    packed_row_spmm,
    row_spmm,
)
from .normalization import (
    NormalizationScheme,
    laplacian,
    normalized_adjacency,
    resolve_gamma,
    second_largest_eigenvalue_magnitude,
)
from .partition import (
    InductivePartition,
    InductiveSplit,
    build_inductive_partition,
    make_inductive_split,
)
from .propagation import (
    propagate_features,
    propagation_steps,
    s2gc_aggregate,
    sign_concatenate,
    smoothness_distance,
)
from .sampling import (
    SupportBundle,
    SupportingSubgraph,
    batch_iterator,
    build_support_bundle,
    canonical_order,
    closure_propagation_macs,
    demand_closure,
    k_hop_neighborhood,
    support_cache_key,
    supporting_node_counts,
)
from .sparse import CSRGraph

__all__ = [
    "CSRGraph",
    "NormalizationScheme",
    "SupportBundle",
    "SyntheticGraphSpec",
    "SupportingSubgraph",
    "InductivePartition",
    "InductiveSplit",
    "batch_iterator",
    "build_inductive_partition",
    "build_support_bundle",
    "canonical_order",
    "closure_propagation_macs",
    "demand_closure",
    "extract_local_csr_arrays",
    "extract_submatrix",
    "gather_columns",
    "gathered_row_spmm",
    "generate_community_graph",
    "generate_features",
    "global_to_local_map",
    "hop_distances",
    "k_hop_neighborhood",
    "laplacian",
    "make_inductive_split",
    "masked_row_spmm",
    "masked_row_spmm_reference",
    "normalized_adjacency",
    "packed_row_spmm",
    "row_spmm",
    "propagate_features",
    "propagation_steps",
    "resolve_gamma",
    "s2gc_aggregate",
    "second_largest_eigenvalue_magnitude",
    "sign_concatenate",
    "smoothness_distance",
    "support_cache_key",
    "supporting_node_counts",
]
