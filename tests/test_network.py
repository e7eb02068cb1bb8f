import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from multicent import (
    DimensionError,
    InfluenceMatrix,
    MultiplexNetwork,
    ValidationError,
    aggregate_matrix,
    build_network,
    connectivity,
    khatri_rao_influence,
    permute,
    supra_adjacency,
)
from multicent.baselines import _checked_matrix, _influence_operator, _supra_operator
from multicent.network import group_pairs
from multicent.solver import _weighted_sums

from conftest import examples, random_sparse_multiplex
from oracles import influence_product, perron_dense, supra_product, weighted_sums_stacked

# The two routes to the one non-negative CSR validator, each with the name that
# its messages give the matrix: a stored layer, and the input of a Perron run.
VALIDATOR_ROUTES = (
    (lambda M: MultiplexNetwork(n=M.shape[0], L=1, layers=[M]).layers[0], "layer 1"),
    (lambda M: _checked_matrix(M)[0], "matrix"),
)


def _csr_arrays(M) -> list:
    return [M.indptr.tolist(), M.indices.tolist(), M.data.tolist()]


class TestBuildNetwork:
    def test_explanatory_structure(self, explanatory):
        A1 = explanatory.layers[0].toarray()
        A2 = explanatory.layers[1].toarray()
        expected1 = np.zeros((4, 4))
        expected1[0, 1] = expected1[1, 0] = 1.0
        expected2 = np.zeros((4, 4))
        expected2[2, 3] = expected2[3, 2] = 1.0
        np.testing.assert_array_equal(A1, expected1)
        np.testing.assert_array_equal(A2, expected2)

    def test_empty_edge_set(self):
        net = build_network(3, 1, [])
        assert net.layers[0].nnz == 0
        diag = connectivity(net)
        assert diag.empty_layers == (0,)
        assert diag.isolated_nodes == (0, 1, 2)

    def test_duplicate_edges_accumulate(self):
        net = build_network(2, 1, [(1, 1, 2, 2.0), (1, 1, 2, 3.0)])
        A = net.layers[0].toarray()
        assert A[0, 1] == 5.0
        assert A[1, 0] == 5.0

    @pytest.mark.parametrize("weights, total", [((1.0, 1.0, 1e16), 1.0000000000000002e16),
                                                ((1e16, 1.0, 1.0), 1e16)])
    def test_repeats_sum_in_record_order(self, weights, total):
        net = build_network(2, 1, [(1, 1, 2, weights[0]), (1, 2, 1, weights[1]),
                                   (1, 1, 2, weights[2])])
        A = net.layers[0].toarray()
        assert A[0, 1] == A[1, 0] == total

    def test_self_loop_kept_once(self):
        net = build_network(2, 1, [(1, 1, 1, 2.0)])
        A = net.layers[0].toarray()
        assert A[0, 0] == 2.0
        assert net.edge_count() == 1

    def test_out_of_range_indices(self):
        with pytest.raises(ValidationError):
            build_network(3, 1, [(1, 1, 4, 1.0)])
        with pytest.raises(ValidationError):
            build_network(3, 1, [(2, 1, 2, 1.0)])
        with pytest.raises(ValidationError):
            build_network(3, 1, [(1, 0, 2, 1.0)])

    @pytest.mark.parametrize("edge", [(1, 1.5, 2, 1.0), (1.5, 1, 2, 1.0), ("x", 1, 2, 1.0)])
    def test_unstorable_entries_rejected(self, edge):
        with pytest.raises(ValidationError):
            build_network(3, 2, [edge])

    def test_bad_weights(self):
        with pytest.raises(ValidationError):
            build_network(2, 1, [(1, 1, 2, -1.0)])
        with pytest.raises(ValidationError):
            build_network(2, 1, [(1, 1, 2, float("nan"))])
        with pytest.raises(ValidationError):
            build_network(2, 1, [(1, 1, 2, 0.0)])

    def test_bad_counts(self):
        with pytest.raises(ValidationError):
            build_network(0, 1, [])
        with pytest.raises(ValidationError):
            build_network(2, 0, [])

    def test_direct_construction_rejects_asymmetry(self):
        A = np.zeros((2, 2))
        A[0, 1] = 1.0
        with pytest.raises(ValidationError):
            MultiplexNetwork(n=2, L=1, layers=[A])

    def test_direct_construction_checks_summed_entries(self):
        # two entries at one cell whose sum is inf, or negative
        for data, problem in ((np.full(4, 1e308), "non-finite"),
                              (np.array([-1.0, 0.5, -1.0, 0.5]), "negative")):
            A = sp.csr_array((data, np.array([1, 1, 0, 0]), np.array([0, 2, 4])), shape=(2, 2))
            for route, what in VALIDATOR_ROUTES:
                with pytest.raises(ValidationError) as info:
                    route(A)
                assert str(info.value) == f"{what} has {problem} entries"

    def test_direct_construction_leaves_caller_arrays(self):
        # unsorted columns and an explicit zero are mended in a copy, a canonical
        # matrix is kept as given, and both routes store the same arrays
        stored = []
        for route, _ in VALIDATOR_ROUTES:
            A = sp.csr_array((np.ones(4), np.array([1, 0, 1, 0]), np.array([0, 2, 4])),
                             shape=(2, 2))
            Z = sp.csr_array((np.array([0.0, 1.0, 1.0]), np.array([0, 1, 0]),
                              np.array([0, 2, 3])), shape=(2, 2))
            C = sp.csr_array(np.ones((2, 2)))
            given = [_csr_arrays(M) for M in (A, Z, C)]
            out = [route(M) for M in (A, Z, C)]
            assert [_csr_arrays(M) for M in (A, Z, C)] == given
            assert out[0].indices.tolist() == [0, 1, 0, 1]
            assert out[1].nnz == 2 and out[1].data.tolist() == [1.0, 1.0]
            assert all(M.has_canonical_format for M in out)
            assert np.shares_memory(out[2].data, C.data)
            stored.append([_csr_arrays(M) for M in out])
        assert stored[0] == stored[1]

    def test_label_length_checked(self):
        with pytest.raises(DimensionError):
            build_network(2, 1, [], node_labels=["a"])

    def test_stored_layers_exactly_symmetric(self):
        rng = np.random.default_rng(11)
        net = random_sparse_multiplex(rng, 12, 3)
        for A in net.layers:
            assert (A != A.T).nnz == 0


# 3037000499**2 < 2**63 <= 2 * 3037000499**2: with L = 1 the int64 key still
# fits, with L = 2 it would wrap; n = 2**32 always takes the three-column sort.
_KEY_EDGE_N = 3_037_000_499


class TestGroupPairs:
    @settings(max_examples=examples(200), deadline=None)
    @given(data=st.data())
    def test_key_sort_and_column_fallback_agree(self, data):
        n, L = data.draw(st.sampled_from([(6, 3), (_KEY_EDGE_N, 1), (_KEY_EDGE_N, 2)]))
        node = st.sampled_from(sorted({1, 2, n - 1, n}))
        records = data.draw(st.lists(st.tuples(st.integers(1, L), node, node), max_size=30))
        layer, a, b = np.array(records, dtype=np.int64).reshape(-1, 3).T
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        keys = list(zip(layer.tolist(), lo.tolist(), hi.tolist()))
        want = sorted(set(keys))
        by_key = group_pairs(n, L, layer, lo, hi)
        by_columns = group_pairs(2**32, L, layer, lo, hi)  # L * n**2 >= 2**63
        for pairs, group in (by_key, by_columns):
            assert list(zip(*(col.tolist() for col in pairs))) == want
            assert [want[g] for g in group] == keys
        np.testing.assert_array_equal(by_key[1], by_columns[1])


@st.composite
def _raw_layer(draw):
    """A non-canonical CSR layer: unsorted and repeated columns, explicit
    zeros and -0.0; in half of the draws every entry is mirrored, sometimes
    split into two halves, so the summed matrix is symmetric."""
    n = draw(st.integers(1, 4))
    cell = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                     st.sampled_from((0.0, -0.0, 0.5, 1.0, 2.0)))
    entries = draw(st.lists(cell, max_size=8))
    if draw(st.booleans()):
        for i, j, v in list(entries):
            entries += [(j, i, v / 2)] * 2 if draw(st.booleans()) else [(j, i, v)]
    entries = sorted(draw(st.permutations(entries)), key=lambda e: e[0])  # columns unsorted
    rows = np.array([i for i, _, _ in entries], dtype=int)
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n))))
    return sp.csr_array((np.array([v for _, _, v in entries], dtype=float),
                         np.array([j for _, j, _ in entries], dtype=int), indptr), shape=(n, n))


class TestSymmetryCheck:
    @settings(max_examples=examples(300), deadline=None)
    @given(A=_raw_layer())
    def test_matches_sparse_inequality_reference(self, A):
        want = None if (A.copy() != A.copy().T).nnz == 0 else \
            "layer 1: matrix is not exactly symmetric"
        dense = A.toarray()
        try:
            stored = MultiplexNetwork(n=A.shape[0], L=1, layers=[A]).layers[0]
        except ValidationError as exc:
            assert str(exc) == want
            return
        assert want is None
        assert stored.has_canonical_format and not np.any(stored.data == 0)
        np.testing.assert_array_equal(stored.toarray(), dense)


class TestAggregate:
    def test_explanatory_disjoint_supports(self, explanatory):
        agg = aggregate_matrix(explanatory, np.ones(2)).toarray()
        expected = np.zeros((4, 4))
        expected[0, 1] = expected[1, 0] = 1.0
        expected[2, 3] = expected[3, 2] = 1.0
        np.testing.assert_array_equal(agg, expected)

    def test_scaling_linearity(self):
        rng = np.random.default_rng(3)
        net = random_sparse_multiplex(rng, 8, 3)
        base = aggregate_matrix(net, np.ones(3)).toarray()
        scaled = aggregate_matrix(net, 2.5 * np.ones(3)).toarray()
        np.testing.assert_allclose(scaled, 2.5 * base, rtol=1e-15)

    def test_identical_layers_double(self):
        A = np.array([[0.0, 2.0], [2.0, 0.0]])
        net = MultiplexNetwork(n=2, L=2, layers=[A, A])
        np.testing.assert_array_equal(aggregate_matrix(net, np.ones(2)).toarray(), 2 * A)

    def test_wrong_length(self, explanatory):
        with pytest.raises(DimensionError):
            aggregate_matrix(explanatory, np.ones(3))

    def test_nonpositive_weights_rejected(self, explanatory):
        with pytest.raises(ValidationError):
            aggregate_matrix(explanatory, np.array([1.0, 0.0]))

    def test_entrywise_monotone_in_weights(self):
        rng = np.random.default_rng(5)
        net = random_sparse_multiplex(rng, 10, 4)
        w1 = rng.uniform(0.5, 1.0, 4)
        w2 = w1 + rng.uniform(0.0, 1.0, 4)
        diff = (aggregate_matrix(net, w2) - aggregate_matrix(net, w1)).toarray()
        assert np.all(diff >= 0)


class TestAggregateDegree:
    def test_explanatory_uniform(self, explanatory):
        np.testing.assert_array_equal(explanatory.node_strengths, np.ones(4))

    def test_empty_network(self):
        net = build_network(3, 2, [])
        np.testing.assert_array_equal(net.node_strengths, np.zeros(3))


class TestSupraAdjacency:
    def test_single_layer_reduces_to_it(self):
        A = np.array([[0.0, 3.0], [3.0, 0.0]])
        net = MultiplexNetwork(n=2, L=1, layers=[A])
        np.testing.assert_array_equal(supra_adjacency(net).toarray(), A)

    def test_pure_coupling(self):
        net = build_network(1, 2, [])
        np.testing.assert_array_equal(supra_adjacency(net).toarray(),
                                      np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_explanatory_two_path_components(self, explanatory):
        # the graph splits into two 4-node paths, each with spectral
        # radius 2*cos(pi/5)
        B = supra_adjacency(explanatory)
        from scipy.sparse.csgraph import connected_components
        ncomp, labels = connected_components(B, directed=False)
        assert ncomp == 2
        lam, _ = perron_dense(B.toarray())
        assert lam == pytest.approx(2 * np.cos(np.pi / 5), abs=1e-12)

    def test_explanatory_block_permutation_similarity(self, explanatory):
        # reordering node-layer copies as (1,2,5,6 | 3,4,7,8) block-
        # diagonalizes the matrix into a path block and its reversal
        B = supra_adjacency(explanatory).toarray()
        perm = [0, 1, 4, 5, 2, 3, 6, 7]
        P = B[np.ix_(perm, perm)]
        path_block = np.array([[0.0, 1, 1, 0],
                               [1, 0, 0, 1],
                               [1, 0, 0, 0],
                               [0, 1, 0, 0]])
        np.testing.assert_array_equal(P[:4, :4], path_block)
        np.testing.assert_array_equal(P[4:, 4:], path_block[::-1, ::-1])
        np.testing.assert_array_equal(P[:4, 4:], np.zeros((4, 4)))
        np.testing.assert_array_equal(P[4:, :4], np.zeros((4, 4)))

    def test_diagonal_blocks_and_row_sums(self):
        rng = np.random.default_rng(17)
        net = random_sparse_multiplex(rng, 7, 3)
        B = supra_adjacency(net).toarray()
        n, L = net.n, net.L
        for l in range(L):
            block = B[l * n:(l + 1) * n, l * n:(l + 1) * n]
            np.testing.assert_array_equal(block, net.layers[l].toarray())
        row_sums = B.sum(axis=1)
        for l in range(L):
            expected = net.layers[l].toarray().sum(axis=1) + (L - 1)
            np.testing.assert_allclose(row_sums[l * n:(l + 1) * n], expected, rtol=1e-14)

    def test_symmetric(self):
        rng = np.random.default_rng(23)
        net = random_sparse_multiplex(rng, 6, 4)
        B = supra_adjacency(net)
        assert (B != B.T).nnz == 0


class TestKhatriRaoInfluence:
    def test_identity_is_block_diagonal(self, explanatory):
        K = khatri_rao_influence(explanatory, InfluenceMatrix.identity(2)).toarray()
        n = explanatory.n
        np.testing.assert_array_equal(K[:n, n:], np.zeros((n, n)))
        np.testing.assert_array_equal(K[n:, :n], np.zeros((n, n)))
        np.testing.assert_array_equal(K[:n, :n], explanatory.layers[0].toarray())
        np.testing.assert_array_equal(K[n:, n:], explanatory.layers[1].toarray())

    def test_uniform_influence_eigenvector_is_stacked_aggregate_vector(self):
        # with all-ones influence, stacking L copies of the aggregate Perron
        # vector gives a dominant eigenvector of the block matrix
        rng = np.random.default_rng(29)
        net = random_sparse_multiplex(rng, 9, 3)
        K = khatri_rao_influence(net, InfluenceMatrix.uniform(3))
        lam, u = perron_dense(aggregate_matrix(net, np.ones(3)).toarray())
        stacked = np.tile(u, 3)
        np.testing.assert_allclose(K @ stacked, lam * stacked, atol=1e-10 * lam)

    def test_zero_influence_gives_zero_matrix(self, explanatory):
        K = khatri_rao_influence(explanatory, InfluenceMatrix(np.zeros((2, 2))))
        assert K.shape == (8, 8)
        assert K.nnz == 0

    def test_dimension_mismatch(self, explanatory):
        with pytest.raises(DimensionError):
            khatri_rao_influence(explanatory, InfluenceMatrix.identity(3))

    @pytest.mark.parametrize("W", [[[0.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [0.0, 0.0]],
                                   [[2.0, 0.0], [1.0, 0.0]]])
    def test_zero_rows_and_columns_keep_the_shape(self, explanatory, W):
        K = khatri_rao_influence(explanatory, InfluenceMatrix(np.array(W)))
        n = explanatory.n
        want = np.block([[W[l][k] * explanatory.layers[k].toarray() for k in range(2)]
                         for l in range(2)])
        assert K.shape == (2 * n, 2 * n)
        np.testing.assert_array_equal(K.toarray(), want)

    def test_general_blocks(self):
        rng = np.random.default_rng(31)
        net = random_sparse_multiplex(rng, 5, 2)
        W = InfluenceMatrix(np.array([[0.5, 2.0], [0.0, 1.0]]))
        K = khatri_rao_influence(net, W).toarray()
        n = net.n
        for l in range(2):
            for k in range(2):
                np.testing.assert_allclose(
                    K[l * n:(l + 1) * n, k * n:(k + 1) * n],
                    W.W[l, k] * net.layers[k].toarray(), rtol=1e-15)


def _figure_left():
    edges = [(1, 1, 2, 1.0), (1, 2, 4, 1.0), (1, 4, 3, 1.0),
             (2, 1, 2, 1.0), (2, 1, 4, 1.0), (2, 4, 3, 1.0)]
    return build_network(4, 2, edges)


def _figure_middle():
    edges = [(1, 1, 2, 1.0), (1, 2, 4, 1.0), (2, 4, 3, 1.0)]
    return build_network(4, 2, edges)


class TestConnectivity:
    def test_all_layers_connected(self):
        diag = connectivity(_figure_left())
        assert diag.layer_connected == (True, True)
        assert diag.aggregate_connected

    def test_aggregate_connected_layers_not(self):
        diag = connectivity(_figure_middle())
        assert diag.layer_connected == (False, False)
        assert diag.aggregate_connected
        assert diag.isolated_nodes == ()

    def test_nothing_connected(self, explanatory):
        diag = connectivity(explanatory)
        assert diag.layer_connected == (False, False)
        assert not diag.aggregate_connected

    def test_layer_with_isolated_node_is_disconnected(self):
        # a connected triangle among nodes 1..3 still leaves node 4 out
        net = build_network(4, 1, [(1, 1, 2, 1.0), (1, 2, 3, 1.0), (1, 1, 3, 1.0)])
        assert connectivity(net).layer_connected == (False,)


class TestPermute:
    def test_identity(self, explanatory):
        out = permute(explanatory, [1, 2, 3, 4], [1, 2])
        for A, B in zip(out.layers, explanatory.layers):
            assert (A != B).nnz == 0

    def test_involution_twice(self):
        rng = np.random.default_rng(37)
        net = random_sparse_multiplex(rng, 6, 2)
        sigma = [2, 1, 4, 3, 6, 5]
        pi = [2, 1]
        out = permute(permute(net, sigma, pi), sigma, pi)
        for A, B in zip(out.layers, net.layers):
            assert (A != B).nnz == 0

    def test_explanatory_automorphism(self, explanatory):
        out = permute(explanatory, [3, 4, 1, 2], [2, 1])
        for A, B in zip(out.layers, explanatory.layers):
            np.testing.assert_array_equal(A.toarray(), B.toarray())

    def test_rejects_non_bijection(self, explanatory):
        with pytest.raises(ValidationError):
            permute(explanatory, [1, 1, 3, 4], [1, 2])
        with pytest.raises(ValidationError):
            permute(explanatory, [1, 2, 3, 4], [2, 2])

    @settings(deadline=None, max_examples=examples(25))
    @given(seed=st.integers(0, 10_000))
    def test_entries_follow_the_permutation(self, seed):
        rng = np.random.default_rng(seed)
        n, L = 6, 3
        net = random_sparse_multiplex(rng, n, L)
        sigma = rng.permutation(n) + 1
        pi = rng.permutation(L) + 1
        out = permute(net, sigma, pi)
        A = np.stack([layer.toarray() for layer in net.layers], axis=-1)
        B = np.stack([layer.toarray() for layer in out.layers], axis=-1)
        s, p = sigma - 1, pi - 1
        np.testing.assert_array_equal(B, A[np.ix_(s, s, p)])

    def test_connectivity_flags_permute(self):
        rng = np.random.default_rng(41)
        net = random_sparse_multiplex(rng, 8, 3)
        sigma = (rng.permutation(8) + 1).tolist()
        pi = (rng.permutation(3) + 1).tolist()
        out = permute(net, sigma, pi)
        d_in = connectivity(net)
        d_out = connectivity(out)
        p = np.asarray(pi) - 1
        assert d_out.layer_connected == tuple(d_in.layer_connected[l] for l in p)
        assert d_out.aggregate_connected == d_in.aggregate_connected
        s = np.asarray(sigma) - 1
        mapped = tuple(sorted(i for i in range(8) if s[i] in d_in.isolated_nodes))
        assert d_out.isolated_nodes == mapped


@st.composite
def _typed_multiplex(draw):
    """A small multiplex stored as given: integer or float weights, int32 or
    int64 index arrays, often with empty layers and isolated nodes."""
    n, L = draw(st.integers(1, 7)), draw(st.integers(1, 5))
    integer = draw(st.booleans())
    weight = st.sampled_from((1, 2, 7) if integer else (0.3, 1.0, 2.5, 1e-3))
    index = draw(st.sampled_from((np.int32, np.int64)))
    layers = []
    for _ in range(L):
        D = np.zeros((n, n), dtype=np.int64 if integer else float)
        for i, j, w in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                               weight), max_size=n)):
            D[i, j] = D[j, i] = w
        A = sp.csr_array(D)
        layers.append(sp.csr_array((A.data, A.indices.astype(index), A.indptr.astype(index)),
                                   shape=(n, n)))
    net = MultiplexNetwork(n=n, L=L, layers=layers)
    assert all(A.indices.dtype == index and A.dtype == D.dtype for A in net.layers)
    return net


class TestLayerProducts:
    """The products layer by layer against one product with a stacked or
    block-diagonal copy of the layers, as the solver and the block operators
    took them before."""

    @settings(max_examples=examples(200), deadline=None)
    @given(net=_typed_multiplex(), seed=st.integers(0, 2**16))
    def test_match_the_copies_bit_for_bit(self, net, seed):
        rng = np.random.default_rng(seed)
        x, t = rng.random(net.n) * (rng.random(net.n) < 0.8), rng.random(net.L)
        for got, want in zip(_weighted_sums(net, x, t), weighted_sums_stacked(net, x, t)):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        W = InfluenceMatrix(rng.random((net.L, net.L)) * (rng.random((net.L, net.L)) < 0.7))
        supra, influence = _supra_operator(net), _influence_operator(net, W)
        for X in rng.random((2, net.L * net.n)):  # the second call overwrites the buffers
            assert np.array_equal(supra @ X, supra_product(net, X))
            assert np.array_equal(influence @ X, influence_product(net, W, X))
