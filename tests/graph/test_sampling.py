"""Tests for supporting-node sampling (k-hop neighbourhoods)."""

import numpy as np
import pytest

from repro.exceptions import GraphConstructionError
from repro.graph import (
    CSRGraph,
    batch_iterator,
    build_support_bundle,
    k_hop_neighborhood,
    supporting_node_counts,
)
from repro.graph.sampling import slice_support_bundle

# A path graph 0-1-2-3-4-5 makes hop counts easy to reason about.
PATH = CSRGraph.from_edges([(i, i + 1) for i in range(5)], num_nodes=6)


class TestKHopNeighborhood:
    def test_zero_hops_keeps_only_targets(self):
        sub = k_hop_neighborhood(PATH, np.array([2]), 0)
        assert sub.num_supporting_nodes == 1
        assert sub.node_ids.tolist() == [2]

    def test_one_hop_from_middle(self):
        sub = k_hop_neighborhood(PATH, np.array([2]), 1)
        assert set(sub.node_ids.tolist()) == {1, 2, 3}

    def test_hops_recorded_correctly(self):
        sub = k_hop_neighborhood(PATH, np.array([0]), 3)
        hop_of = dict(zip(sub.node_ids.tolist(), sub.hops.tolist()))
        assert hop_of == {0: 0, 1: 1, 2: 2, 3: 3}

    def test_targets_come_first(self):
        sub = k_hop_neighborhood(PATH, np.array([4, 1]), 2)
        assert set(sub.node_ids[sub.target_local].tolist()) == {4, 1}

    def test_local_adjacency_matches_global(self):
        sub = k_hop_neighborhood(PATH, np.array([2]), 2)
        global_dense = PATH.adjacency.toarray()[np.ix_(sub.node_ids, sub.node_ids)]
        assert np.allclose(sub.adjacency.toarray(), global_dense)

    def test_exhausts_component(self):
        sub = k_hop_neighborhood(PATH, np.array([0]), 10)
        assert sub.num_supporting_nodes == 6

    def test_empty_batch_rejected(self):
        with pytest.raises(GraphConstructionError):
            k_hop_neighborhood(PATH, np.array([], dtype=int), 2)

    def test_out_of_range_target_rejected(self):
        with pytest.raises(GraphConstructionError):
            k_hop_neighborhood(PATH, np.array([99]), 2)

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError):
            k_hop_neighborhood(PATH, np.array([0]), -1)

    def test_as_graph_wrapper(self):
        sub = k_hop_neighborhood(PATH, np.array([2]), 1)
        assert sub.as_graph().num_nodes == sub.num_supporting_nodes


class TestSupportingNodeCounts:
    def test_counts_monotonically_increase(self):
        counts = supporting_node_counts(PATH, np.array([0]), 4)
        assert counts == sorted(counts)
        assert counts[0] == 1

    def test_counts_saturate_at_component_size(self):
        counts = supporting_node_counts(PATH, np.array([0]), 10)
        assert counts[-1] == 6


class TestBatchIterator:
    def test_splits_into_expected_sizes(self):
        batches = batch_iterator(np.arange(10), 4)
        assert [len(batch) for batch in batches] == [4, 4, 2]

    def test_preserves_order(self):
        batches = batch_iterator(np.arange(5), 2)
        assert np.concatenate(batches).tolist() == list(range(5))

    def test_rejects_non_positive_batch(self):
        with pytest.raises(ValueError):
            batch_iterator(np.arange(5), 0)


class TestSliceSupportBundle:
    """Slicing a bundle is exact for its own targets and refuses anything else."""

    @pytest.fixture(scope="class")
    def deployment(self):
        from repro import load_dataset
        from repro.graph import normalized_adjacency

        dataset = load_dataset("flickr-sim", scale=0.25)
        return dataset, normalized_adjacency(dataset.graph).astype(np.float32)

    def _bundle(self, deployment, targets, depth=3):
        dataset, a_hat = deployment
        return build_support_bundle(
            dataset.graph, a_hat, dataset.features.astype(np.float32),
            np.sort(np.asarray(targets, dtype=np.int64)), depth,
        )

    def test_slice_for_bundle_targets_equals_fresh_build(self, deployment):
        targets = np.asarray(deployment[0].split.test_idx[:4], dtype=np.int64)
        bundle = self._bundle(deployment, targets)
        subset = np.sort(targets)[[0, 2]]
        sliced = slice_support_bundle(bundle, subset, 3)
        fresh = self._bundle(deployment, subset)
        np.testing.assert_array_equal(sliced.support.node_ids, fresh.support.node_ids)
        np.testing.assert_array_equal(sliced.indptr, fresh.indptr)
        np.testing.assert_array_equal(sliced.indices, fresh.indices)
        np.testing.assert_array_equal(sliced.local_features, fresh.local_features)

    def test_slice_rejects_targets_reached_at_hop_one(self, deployment):
        """A hop-1 node's 3-hop ball reaches past a 3-hop bundle."""
        targets = np.asarray(deployment[0].split.test_idx[:4], dtype=np.int64)
        bundle = self._bundle(deployment, targets)
        hop_one = bundle.support.node_ids[bundle.support.hops == 1][:2]
        assert hop_one.size == 2
        subset = np.concatenate((np.sort(targets)[:1], hop_one))
        with pytest.raises(GraphConstructionError):
            slice_support_bundle(bundle, subset, 3)
        # Why it must refuse: the true support holds nodes the bundle lacks.
        fresh = self._bundle(deployment, subset)
        assert np.setdiff1d(fresh.support.node_ids, bundle.support.node_ids).size > 0
