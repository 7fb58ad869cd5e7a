"""Unit tests for the zero-copy sparse kernels behind the NAI hot path."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.exceptions import ShapeError
from repro.graph import (
    CSRGraph,
    extract_local_csr_arrays,
    extract_submatrix,
    gather_columns,
    gathered_row_spmm,
    global_to_local_map,
    hop_distances,
    k_hop_neighborhood,
    masked_row_spmm,
    masked_row_spmm_reference,
    packed_row_spmm,
    row_spmm,
)


@pytest.fixture(scope="module")
def random_csr():
    rng = np.random.default_rng(42)
    dense = (rng.random((60, 60)) < 0.1).astype(np.float64)
    dense *= rng.random((60, 60))
    return sp.csr_matrix(dense)


@pytest.fixture(scope="module")
def source_matrix():
    rng = np.random.default_rng(7)
    return np.ascontiguousarray(rng.standard_normal((60, 9)))


class TestMaskedSpMM:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_matches_naive_submatrix_product(self, random_csr, source_matrix, dtype):
        matrix = random_csr.astype(dtype)
        source = np.ascontiguousarray(source_matrix, dtype=dtype)
        runs = np.array([[0, 7], [12, 13], [20, 41], [55, 60]])
        mask = np.zeros(60, dtype=bool)
        for start, stop in runs:
            mask[start:stop] = True
        rows = np.flatnonzero(mask)
        out = np.full((60, 9), np.nan, dtype=dtype)
        nnz = masked_row_spmm(
            matrix.indptr, matrix.indices, matrix.data, source, out, runs
        )
        expected = masked_row_spmm_reference(matrix, source, rows)
        tol = 1e-12 if dtype == np.float64 else 1e-5
        assert np.allclose(out[rows], expected, atol=tol)
        # Untouched rows keep their previous (NaN) contents.
        assert np.isnan(out[~mask]).all()
        assert nnz == int(np.diff(matrix.indptr)[mask].sum())

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_gathered_matches_naive(self, random_csr, source_matrix, dtype):
        matrix = random_csr.astype(dtype)
        source = np.ascontiguousarray(source_matrix, dtype=dtype)
        rows = np.array([0, 3, 4, 11, 30, 59])
        out = np.full((60, 9), np.nan, dtype=dtype)
        nnz = gathered_row_spmm(
            matrix.indptr, matrix.indices, matrix.data, source, out, rows
        )
        expected = masked_row_spmm_reference(matrix, source, rows)
        tol = 1e-12 if dtype == np.float64 else 1e-5
        assert np.allclose(out[rows], expected, atol=tol)
        assert nnz == int(np.diff(matrix.indptr)[rows].sum())

    def test_row_spmm_agrees_with_reference_on_any_row_set(self, random_csr, source_matrix):
        rng = np.random.default_rng(11)
        for density in (0.05, 0.5, 0.95):
            rows = np.flatnonzero(rng.random(60) < density)
            if not rows.size:
                continue
            out = np.full((60, 9), np.nan)
            nnz = row_spmm(
                random_csr.indptr, random_csr.indices, random_csr.data,
                source_matrix, out, rows,
            )
            expected = masked_row_spmm_reference(random_csr, source_matrix, rows)
            assert np.allclose(out[rows], expected, atol=1e-12)
            assert nnz == int(np.diff(random_csr.indptr)[rows].sum())
            untouched = np.setdiff1d(np.arange(60), rows)
            assert np.isnan(out[untouched]).all()

    @pytest.mark.parametrize("rows", [np.arange(10, 50), np.array([0, 3, 4, 11, 30, 59])])
    def test_row_spmm_strategies_are_bit_identical(
        self, random_csr, source_matrix, rows, monkeypatch
    ):
        """Per-run dispatch and compaction compute identical rows and nnz.

        ``row_spmm`` picks a strategy from the runs and nnz it observes; the
        choice must never change a value, only performance.  Forcing each
        strategy in turn (via the run-cost constant) checks that.
        """
        from repro.graph import kernels

        outputs, counts = [], []
        for run_cost in (0, 10**9):
            monkeypatch.setattr(kernels, "_RUN_COST_NNZ", run_cost)
            out = np.zeros((60, 9))
            counts.append(
                row_spmm(
                    random_csr.indptr, random_csr.indices, random_csr.data,
                    source_matrix, out, rows,
                )
            )
            outputs.append(out[rows])
        assert np.array_equal(outputs[0], outputs[1])
        assert counts[0] == counts[1]

    def test_packed_row_spmm_matches_scattered(self, random_csr, source_matrix):
        rows = np.array([1, 2, 9, 33, 58])
        out = np.zeros((60, 9))
        nnz = gathered_row_spmm(
            random_csr.indptr, random_csr.indices, random_csr.data,
            source_matrix, out, rows,
        )
        block, packed_nnz = packed_row_spmm(
            random_csr.indptr, random_csr.indices, random_csr.data, source_matrix, rows
        )
        assert np.array_equal(block, out[rows])
        assert packed_nnz == nnz

    def test_assume_bounded_skips_only_the_bounds_scan(self, random_csr, source_matrix):
        """assume_bounded must not change results for in-bounds arrays."""
        rows = np.arange(5, 25)
        expected = masked_row_spmm_reference(random_csr, source_matrix, rows)
        out = np.zeros((60, 9))
        masked_row_spmm(
            random_csr.indptr, random_csr.indices, random_csr.data,
            source_matrix, out, np.array([[5, 25]]), assume_bounded=True,
        )
        assert np.allclose(out[rows], expected, atol=1e-12)

    def test_empty_runs_are_noops(self, random_csr, source_matrix):
        out = np.full((60, 9), 3.14)
        nnz = masked_row_spmm(
            random_csr.indptr, random_csr.indices, random_csr.data,
            source_matrix, out, np.empty((0, 2), dtype=np.int64),
        )
        assert nnz == 0
        assert (out == 3.14).all()

    def test_dtype_mismatch_rejected(self, random_csr, source_matrix):
        out = np.zeros((60, 9), dtype=np.float32)
        with pytest.raises(ShapeError):
            masked_row_spmm(
                random_csr.indptr, random_csr.indices, random_csr.data,
                source_matrix, out, np.array([[0, 60]]),
            )

    def test_short_source_rejected_instead_of_oob_read(self, random_csr, source_matrix):
        out = np.zeros((60, 9))
        short_source = np.ascontiguousarray(source_matrix[:40])
        with pytest.raises(ShapeError):
            masked_row_spmm(
                random_csr.indptr, random_csr.indices, random_csr.data,
                short_source, out, np.array([[0, 60]]),
            )

    def test_shape_mismatch_rejected(self, random_csr, source_matrix):
        out = np.zeros((10, 9))
        with pytest.raises(ShapeError):
            masked_row_spmm(
                random_csr.indptr, random_csr.indices, random_csr.data,
                source_matrix, out, np.array([[0, 10]]),
            )


class TestGatherAndDistances:
    def test_gather_columns_matches_scipy_slicing(self, random_csr):
        rows = np.array([2, 5, 7, 40])
        expected = random_csr[rows].indices
        assert np.array_equal(
            gather_columns(random_csr.indptr, random_csr.indices, rows), expected
        )

    def test_gather_columns_empty_rows(self):
        matrix = sp.csr_matrix((5, 5))
        out = gather_columns(matrix.indptr, matrix.indices, np.array([0, 3]))
        assert out.size == 0

    def test_hop_distances_on_path_graph(self):
        graph = CSRGraph.from_edges([(i, i + 1) for i in range(5)], num_nodes=6)
        adj = graph.adjacency
        dist = hop_distances(adj.indptr, adj.indices, np.array([0]), 6, max_hops=3)
        assert dist.tolist() == [0, 1, 2, 3, 7, 7]  # 7 == sentinel num_nodes + 1

    def test_hop_distances_multi_source(self):
        graph = CSRGraph.from_edges([(i, i + 1) for i in range(5)], num_nodes=6)
        adj = graph.adjacency
        dist = hop_distances(adj.indptr, adj.indices, np.array([0, 5]), 6, max_hops=5)
        assert dist.tolist() == [0, 1, 2, 2, 1, 0]


class TestExtraction:
    def test_global_to_local_roundtrip(self):
        node_ids = np.array([7, 3, 9])
        lookup = global_to_local_map(node_ids, 12)
        assert lookup[7] == 0 and lookup[3] == 1 and lookup[9] == 2
        assert (lookup[[0, 1, 2, 4]] == -1).all()

    def test_extract_submatrix_matches_double_fancy_index(self, random_csr):
        node_ids = np.array([5, 0, 17, 44, 3])
        ours = extract_submatrix(random_csr, node_ids)
        expected = random_csr[node_ids][:, node_ids]
        assert np.allclose(ours.toarray(), expected.toarray())

    def test_extract_local_arrays_feed_the_kernel(self, random_csr, source_matrix):
        node_ids = np.arange(60)[::-1].copy()  # a permutation
        indptr, indices, data = extract_local_csr_arrays(random_csr, node_ids)
        out = np.zeros((60, 9))
        masked_row_spmm(indptr, indices, data, source_matrix, out, np.array([[0, 60]]))
        permuted = random_csr[node_ids][:, node_ids]
        assert np.allclose(out, permuted @ source_matrix)

    def test_extract_empty_selection_rows(self):
        matrix = sp.csr_matrix((6, 6))
        sub = extract_submatrix(matrix, np.array([1, 4]))
        assert sub.shape == (2, 2)
        assert sub.nnz == 0

    def test_k_hop_local_adjacency_uses_fast_extraction(self):
        graph = CSRGraph.from_edges([(i, i + 1) for i in range(5)], num_nodes=6)
        sub = k_hop_neighborhood(graph, np.array([2]), 2)
        dense = graph.adjacency.toarray()[np.ix_(sub.node_ids, sub.node_ids)]
        assert np.allclose(sub.adjacency.toarray(), dense)

    def test_k_hop_hops_are_sorted_and_prefix_counts_match(self):
        graph = CSRGraph.from_edges([(i, i + 1) for i in range(5)], num_nodes=6)
        sub = k_hop_neighborhood(graph, np.array([0]), 4)
        assert (np.diff(sub.hops) >= 0).all()
        for hop in range(5):
            assert sub.prefix_within(hop) == int(np.count_nonzero(sub.hops <= hop))

    def test_k_hop_without_adjacency(self):
        graph = CSRGraph.from_edges([(i, i + 1) for i in range(5)], num_nodes=6)
        sub = k_hop_neighborhood(graph, np.array([2]), 1, include_adjacency=False)
        assert sub.adjacency is None
        with pytest.raises(Exception):
            sub.as_graph()


class TestPackedValidation:
    def test_packed_rejects_short_source_instead_of_oob_read(self, random_csr, source_matrix):
        short_source = np.ascontiguousarray(source_matrix[:40])
        with pytest.raises(ShapeError):
            packed_row_spmm(
                random_csr.indptr, random_csr.indices, random_csr.data,
                short_source, np.array([0, 1]),
            )

    def test_packed_rejects_dtype_mismatch(self, random_csr, source_matrix):
        with pytest.raises(ShapeError):
            packed_row_spmm(
                random_csr.indptr, random_csr.indices, random_csr.data,
                source_matrix.astype(np.float32), np.array([0, 1]),
            )
