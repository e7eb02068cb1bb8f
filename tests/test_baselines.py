import json
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

import multicent
import multicent.baselines
from multicent import (
    DimensionError,
    InfluenceMatrix,
    MultiplexNetwork,
    ValidationError,
    aggregate_degree_centrality,
    aggregate_eigenvector_centrality,
    aggregate_matrix,
    build_network,
    connectivity,
    global_heterogeneous_centrality,
    khatri_rao_influence,
    layer_eigenvectors,
    layerwise_eigenvector_centrality,
    local_heterogeneous_centrality,
    matrix_perron,
    permute,
    rank,
    supra_adjacency,
    versatility_centrality,
)
from multicent.baselines import PerronResult, _influence_operator, _supra_operator
from multicent.network import _weighted_layer_sum

from conftest import (
    child_env,
    random_layerwise_connected_multiplex,
    random_positive_multiplex,
    random_sparse_multiplex,
)
from oracles import global_het_on_matrix, perron_dense, versatility_on_matrix

PATH_END = 0.3717
PATH_MID = 0.6015
GOLDEN = 1.6180  # 2*cos(pi/5), spectral radius of the 4-node path


def four_node_path_blocks():
    """[[J2, I2], [I2, 0]]: a 4-node path in block form (middles first)."""
    M = np.zeros((4, 4))
    M[0, 1] = M[1, 0] = 1.0
    M[0, 2] = M[2, 0] = 1.0
    M[1, 3] = M[3, 1] = 1.0
    return M


class TestMatrixPerron:
    def test_four_node_path(self):
        pr = matrix_perron(four_node_path_blocks())
        assert pr.converged and not pr.degenerate_warning
        assert pr.value == pytest.approx(GOLDEN, abs=1e-3)
        v2 = pr.vector / np.linalg.norm(pr.vector)
        np.testing.assert_allclose(np.sort(v2),
                                   [PATH_END, PATH_END, PATH_MID, PATH_MID],
                                   atol=1e-4)

    def test_identity_is_degenerate(self):
        pr = matrix_perron(np.eye(3))
        assert pr.degenerate_warning
        assert pr.value == pytest.approx(1.0)

    def test_two_cycle(self):
        pr = matrix_perron(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert pr.value == pytest.approx(1.0)
        np.testing.assert_allclose(pr.vector, [0.5, 0.5])
        assert not pr.degenerate_warning

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValidationError):
            matrix_perron(np.zeros((3, 3)))

    def test_negative_entries_rejected(self):
        with pytest.raises(ValidationError):
            matrix_perron(np.array([[0.0, -1.0], [-1.0, 0.0]]))

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            matrix_perron(np.ones((2, 3)))

    def test_nilpotent_reports_zero_and_degenerate(self):
        pr = matrix_perron(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert pr.value == 0.0
        assert pr.degenerate_warning

    def test_eigen_residual_contract_on_symmetric(self):
        rng = np.random.default_rng(71)
        for _ in range(10):
            net = random_sparse_multiplex(rng, 12, 2)
            M = aggregate_matrix(net, np.ones(2))
            tol = 1e-10
            pr = matrix_perron(M, tol=tol)
            assert pr.converged
            res = np.max(np.abs(M @ pr.vector - pr.value * pr.vector))
            assert res <= 10 * tol * pr.value

    def test_matches_dense_eigensolver_on_connected_graph(self):
        rng = np.random.default_rng(73)
        net = random_sparse_multiplex(rng, 15, 3)
        M = aggregate_matrix(net, np.ones(3))
        pr = matrix_perron(M, tol=1e-12)
        lam, v = perron_dense(M.toarray())
        assert pr.value == pytest.approx(lam, rel=1e-10)
        np.testing.assert_allclose(pr.vector, v, atol=1e-8)

    def test_oscillating_bipartite_flagged(self):
        # a 3-node path has eigenvalues +-sqrt(2), 0; the uniform start is not
        # orthogonal to the negative one, so the residual plateaus
        M = np.zeros((3, 3))
        M[0, 1] = M[1, 0] = 1.0
        M[1, 2] = M[2, 1] = 1.0
        pr = matrix_perron(M, max_iter=500)
        assert not pr.converged
        assert pr.degenerate_warning

    @pytest.mark.parametrize("data, summed, layer", [
        ([1.0, 1.0, 1.0, 1.0], [[0.0, 2.0], [1.0, 1.0]],
         "layer 1: matrix is not exactly symmetric"),
        ([2.0, -1.0, 1.0, 1.0], [[0.0, 1.0], [1.0, 1.0]], [[0, 1, 3], [1, 0, 1], [1, 1, 1]]),
    ], ids=["repeated-column", "negative-duplicate"])
    def test_duplicate_entries_count_as_their_sum(self, data, summed, layer):
        # row 0 stores column 1 twice, and both routes to the validator, a Perron
        # run and a stored layer, see the summed matrix; a child process, so that
        # a hang in the strong-component search fails this test instead of
        # stalling the suite
        try:
            out = subprocess.run(
                [sys.executable, "-c", DUPLICATE_ENTRIES, json.dumps(data), json.dumps(summed)],
                env=child_env(), capture_output=True, text=True, check=True, timeout=60)
        except subprocess.TimeoutExpired:
            pytest.fail("matrix_perron did not return on a CSR with a repeated column index")
        got, want = json.loads(out.stdout)
        assert got == want
        assert got[1] == layer


PERRON_STEP_FAULTS = """
import resource
import sys
from click.testing import CliRunner
from multicent import InfluenceMatrix, build_network, global_heterogeneous_centrality
from multicent.cli import main

assert CliRunner().invoke(main, ["info", sys.argv[1]]).exit_code == 0  # sets the allocator
n, L = 450, 37  # star layers: the iteration oscillates, so all 300 steps run
net = build_network(n, L, [(l, 1, j, 1.0) for l in range(1, L + 1) for j in range(2, n + 1)])
W = InfluenceMatrix.uniform(L)
global_heterogeneous_centrality(net, W, max_iter=10)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
global_heterogeneous_centrality(net, W, max_iter=300)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


DUPLICATE_ENTRIES = """
import json
import sys
import numpy as np
import scipy.sparse as sp
from multicent import MultiplexNetwork, ValidationError, matrix_perron

def routes(M):
    pr = matrix_perron(M)
    try:
        A = MultiplexNetwork(n=2, L=1, layers=[M]).layers[0]
        layer = [A.indptr.tolist(), A.indices.tolist(), A.data.tolist()]
    except ValidationError as exc:
        layer = str(exc)
    return [[pr.value, pr.vector.tolist(), pr.converged, pr.degenerate_warning,
             pr.iterations], layer]

data, summed = map(json.loads, sys.argv[1:])
M = sp.csr_array((data, [1, 1, 0, 1], [0, 2, 4]), shape=(2, 2))
print(json.dumps([routes(M), routes(np.array(summed))]))
"""


class TestLayerEigenvectors:
    def test_explanatory_supports_and_flags(self, explanatory):
        Q = layer_eigenvectors(explanatory)
        np.testing.assert_allclose(Q.matrix[:, 0], [0.5, 0.5, 0.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(Q.matrix[:, 1], [0.0, 0.0, 0.5, 0.5], atol=1e-12)
        assert Q.column_degenerate == (True, True)
        assert Q.degenerate_warning

    def test_single_connected_layer_is_its_perron_vector(self):
        rng = np.random.default_rng(79)
        net = random_sparse_multiplex(rng, 10, 1)
        Q = layer_eigenvectors(net, tol=1e-12)
        _, v = perron_dense(net.layers[0].toarray())
        np.testing.assert_allclose(Q.matrix[:, 0], v, atol=1e-8)
        assert Q.column_degenerate == (False,)

    def test_empty_layer_zero_column(self):
        net = build_network(3, 2, [(1, 1, 2, 1.0)])
        Q = layer_eigenvectors(net)
        np.testing.assert_array_equal(Q.matrix[:, 1], np.zeros(3))
        assert Q.column_degenerate[1]


class TestLayerwiseEigenvectorCentrality:
    def test_single_layer_reduces_to_perron_vector(self):
        rng = np.random.default_rng(83)
        net = random_sparse_multiplex(rng, 9, 1)
        res = layerwise_eigenvector_centrality(net, tol=1e-12)
        _, v = perron_dense(net.layers[0].toarray())
        np.testing.assert_allclose(res.scores, v, atol=1e-8)
        assert not res.degenerate_warning

    def test_explanatory_uniform_and_flagged(self, explanatory):
        res = layerwise_eigenvector_centrality(explanatory)
        np.testing.assert_allclose(res.scores, 0.25, atol=1e-12)
        assert res.degenerate_warning

    def test_omega_weights_columns(self, explanatory):
        res = layerwise_eigenvector_centrality(explanatory, omega=[3.0, 1.0])
        np.testing.assert_allclose(res.scores, [0.375, 0.375, 0.125, 0.125],
                                   atol=1e-12)

    def test_omega_validated(self, explanatory):
        with pytest.raises(DimensionError):
            layerwise_eigenvector_centrality(explanatory, omega=[1.0])
        with pytest.raises(ValidationError):
            layerwise_eigenvector_centrality(explanatory, omega=[1.0, 0.0])

    def test_permutation_equivariant_on_connected_layers(self):
        rng = np.random.default_rng(149)
        net = random_layerwise_connected_multiplex(rng, 9, 3)
        base = layerwise_eigenvector_centrality(net, tol=1e-12)
        assert not base.degenerate_warning
        sigma = rng.permutation(9) + 1
        pi = rng.permutation(3) + 1
        permuted = layerwise_eigenvector_centrality(permute(net, sigma, pi),
                                                    tol=1e-12)
        np.testing.assert_allclose(permuted.scores, base.scores[sigma - 1],
                                   atol=1e-8)


class TestAggregateEigenvectorCentrality:
    def test_single_layer(self):
        rng = np.random.default_rng(89)
        net = random_sparse_multiplex(rng, 8, 1)
        res = aggregate_eigenvector_centrality(net, tol=1e-12)
        _, v = perron_dense(net.layers[0].toarray())
        np.testing.assert_allclose(res.scores, v, atol=1e-8)

    def test_explanatory_flagged(self, explanatory):
        assert aggregate_eigenvector_centrality(explanatory).degenerate_warning

    def test_invariant_under_weight_and_tensor_scaling(self):
        rng = np.random.default_rng(97)
        net = random_sparse_multiplex(rng, 10, 3)
        base = aggregate_eigenvector_centrality(net, tol=1e-12).scores
        scaled_w = aggregate_eigenvector_centrality(net, omega=4.0 * np.ones(3),
                                                    tol=1e-12).scores
        np.testing.assert_allclose(scaled_w, base, atol=1e-9)
        from multicent import MultiplexNetwork
        scaled_net = MultiplexNetwork(n=net.n, L=net.L,
                                      layers=[3.0 * A for A in net.layers])
        np.testing.assert_allclose(
            aggregate_eigenvector_centrality(scaled_net, tol=1e-12).scores,
            base, atol=1e-9)


class TestLocalHeterogeneous:
    def test_identity_reduces_to_layer_eigenvectors(self):
        rng = np.random.default_rng(101)
        net = random_sparse_multiplex(rng, 8, 3)
        lh = local_heterogeneous_centrality(net, InfluenceMatrix.identity(3))
        Q = layer_eigenvectors(net)
        np.testing.assert_allclose(lh.matrix, Q.matrix, atol=1e-10)

    def test_uniform_reduces_to_aggregate(self):
        rng = np.random.default_rng(103)
        net = random_sparse_multiplex(rng, 8, 3)
        lh = local_heterogeneous_centrality(net, InfluenceMatrix.uniform(3), tol=1e-12)
        agg = aggregate_eigenvector_centrality(net, tol=1e-12).scores
        for l in range(3):
            np.testing.assert_allclose(lh.matrix[:, l], agg, atol=1e-10)

    def test_single_layer_any_scale(self):
        rng = np.random.default_rng(107)
        net = random_sparse_multiplex(rng, 7, 1)
        _, v = perron_dense(net.layers[0].toarray())
        for c in (0.5, 1.0, 9.0):
            lh = local_heterogeneous_centrality(net, InfluenceMatrix(np.array([[c]])),
                                                tol=1e-12)
            np.testing.assert_allclose(lh.matrix[:, 0], v, atol=1e-8)

    def test_zero_row_rejected(self, explanatory):
        with pytest.raises(ValidationError):
            local_heterogeneous_centrality(
                explanatory, InfluenceMatrix(np.array([[1.0, 0.0], [0.0, 0.0]])))


class TestGlobalHeterogeneous:
    def test_uniform_columns_equal_aggregate(self):
        rng = np.random.default_rng(109)
        net = random_sparse_multiplex(rng, 8, 3)
        gh = global_heterogeneous_centrality(net, InfluenceMatrix.uniform(3), tol=1e-12)
        agg = aggregate_eigenvector_centrality(net, tol=1e-12).scores
        for l in range(3):
            np.testing.assert_allclose(gh.matrix[:, l], agg, atol=1e-8)

    def test_identity_always_degenerate(self):
        rng = np.random.default_rng(113)
        net = random_sparse_multiplex(rng, 8, 2)
        gh = global_heterogeneous_centrality(net, InfluenceMatrix.identity(2))
        assert gh.degenerate_warning

    def test_single_layer_single_column(self):
        rng = np.random.default_rng(127)
        net = random_sparse_multiplex(rng, 7, 1)
        gh = global_heterogeneous_centrality(net, InfluenceMatrix(np.array([[1.0]])),
                                             tol=1e-12)
        _, v = perron_dense(net.layers[0].toarray())
        np.testing.assert_allclose(gh.matrix[:, 0], v, atol=1e-8)

    def test_zero_influence_rejected(self, explanatory):
        with pytest.raises(ValidationError):
            global_heterogeneous_centrality(explanatory,
                                            InfluenceMatrix(np.zeros((2, 2))))

    def test_flag_takes_the_built_pattern_when_products_underflow(self):
        # 1e-300 * 1e-300 rounds to 0, so the built matrix drops edge {2, 3}
        net = build_network(3, 1, [(1, 1, 2, 1.0), (1, 2, 3, 1e-300)])
        W = InfluenceMatrix(np.array([[1e-300]]))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(multicent.baselines, "matrix_perron", _clean_perron)
            assert global_heterogeneous_centrality(net, W).degenerate_warning
            assert not global_heterogeneous_centrality(net, InfluenceMatrix.uniform(1)) \
                .degenerate_warning

    def test_integer_layers_match_float_layers(self):
        A = [np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]]),
             np.array([[0, 2, 0], [2, 0, 1], [0, 1, 0]])]
        W = InfluenceMatrix.uniform(2)
        got = global_heterogeneous_centrality(MultiplexNetwork(n=3, L=2, layers=A), W)
        want = global_heterogeneous_centrality(
            MultiplexNetwork(n=3, L=2, layers=[a.astype(float) for a in A]), W)
        assert np.array_equal(got.matrix, want.matrix)
        assert got.column_degenerate == want.column_degenerate == (False, False)

    def test_positive_influence_builds_no_block_matrix(self, monkeypatch):
        rng = np.random.default_rng(157)
        nets = [random_sparse_multiplex(rng, 9, 3), random_positive_multiplex(rng, 5, 3)]
        want = [global_heterogeneous_centrality(net, InfluenceMatrix.uniform(3)) for net in nets]

        def refuse(*args):
            raise AssertionError("influence block matrix built")
        monkeypatch.setattr(multicent.baselines, "khatri_rao_influence", refuse)
        for net, ref in zip(nets, want):
            gh = global_heterogeneous_centrality(net, InfluenceMatrix.uniform(3))
            assert np.array_equal(gh.matrix, ref.matrix)
            assert gh.column_degenerate == ref.column_degenerate
        assert [ref.degenerate_warning for ref in want] == [True, False]

    def test_memory_stays_below_the_block_matrix(self):
        # every node has an edge in every layer, so the aggregate is checked too
        n, L = 2500, 20
        rng = np.random.default_rng(163)
        edges = []
        for layer in range(1, L + 1):
            p = rng.permutation(n) + 1
            edges += [(layer, int(a), int(b), 1.0) for a, b in zip(p, np.roll(p, 1))]
        net = build_network(n, L, edges)
        block_bytes = L * sum(A.nnz for A in net.layers) * 12
        assert block_bytes > 20e6
        tracemalloc.start()
        try:
            global_heterogeneous_centrality(net, InfluenceMatrix.uniform(L), max_iter=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < block_bytes / 4

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts page faults")
    def test_perron_steps_fault_in_no_fresh_pages(self, tmp_path):
        """Under the CLI's allocator settings, 300 Perron steps on nL-vectors of
        130 KiB fault in fewer than 2,000 pages; a step that maps its vectors
        afresh faults in 66 or more."""
        edges = tmp_path / "one.edges"
        edges.write_text("1 1 2 1\n", encoding="utf-8")
        out = subprocess.run([sys.executable, "-c", PERRON_STEP_FAULTS, str(edges)],
                             env=child_env(), capture_output=True, text=True, check=True)
        assert int(out.stdout) < 2000


class TestVersatility:
    def test_single_layer_reduces_to_perron_vector(self):
        rng = np.random.default_rng(131)
        net = random_sparse_multiplex(rng, 9, 1)
        res = versatility_centrality(net, tol=1e-12)
        _, v = perron_dense(net.layers[0].toarray())
        np.testing.assert_allclose(res.scores, v, atol=1e-8)
        assert not res.degenerate_warning

    def test_explanatory_degenerate(self, explanatory):
        assert versatility_centrality(explanatory).degenerate_warning

    def test_explanatory_start_dependence_of_aggregates(self, explanatory):
        # the two dominant eigenvectors concentrate on opposite node pairs,
        # so the aggregated versatility depends on where the iteration lands
        B = supra_adjacency(explanatory)
        end, mid = 0.3717, 0.6015
        v1 = np.array([mid, mid, 0.0, 0.0, end, end, 0.0, 0.0])
        v2 = np.array([0.0, 0.0, end, end, 0.0, 0.0, mid, mid])
        for v in (v1, v2):
            assert np.max(np.abs(B @ v - GOLDEN * v)) < 1e-3
        agg1 = v1.reshape(2, 4).sum(axis=0)
        agg2 = v2.reshape(2, 4).sum(axis=0)
        assert np.argmax(agg1) in (0, 1)
        assert np.argmax(agg2) in (2, 3)

    def test_disconnected_aggregate_always_flagged(self):
        # two disjoint triangles spread over two layers
        edges = [(1, 1, 2, 1.0), (1, 2, 3, 1.0), (2, 1, 3, 1.0),
                 (1, 4, 5, 1.0), (2, 5, 6, 1.0), (2, 4, 6, 1.0)]
        net = build_network(6, 2, edges)
        assert versatility_centrality(net).degenerate_warning
        assert aggregate_eigenvector_centrality(net).degenerate_warning

    def test_connected_aggregate_not_flagged_and_equivariant(self):
        rng = np.random.default_rng(137)
        net = random_sparse_multiplex(rng, 8, 3)
        res = versatility_centrality(net, tol=1e-12)
        assert not res.degenerate_warning
        sigma = rng.permutation(8) + 1
        pi = rng.permutation(3) + 1
        permuted = versatility_centrality(permute(net, sigma, pi), tol=1e-12)
        np.testing.assert_allclose(permuted.scores, res.scores[sigma - 1], atol=1e-8)

    def test_invariant_under_layer_weight_rescaling(self):
        rng = np.random.default_rng(141)
        net = random_sparse_multiplex(rng, 8, 3)
        base = versatility_centrality(net, tol=1e-12).scores
        scaled = versatility_centrality(net, omega=6.0 * np.ones(3), tol=1e-12).scores
        np.testing.assert_allclose(scaled, base, atol=1e-12)


class TestAggregateDegreeCentrality:
    def test_explanatory_uniform(self, explanatory):
        res = aggregate_degree_centrality(explanatory)
        np.testing.assert_allclose(res.scores, 0.25, rtol=1e-15)
        assert not res.degenerate_warning

    def test_star_graph(self):
        net = build_network(4, 1, [(1, 1, 2, 1.0), (1, 1, 3, 1.0), (1, 1, 4, 1.0)])
        res = aggregate_degree_centrality(net)
        np.testing.assert_allclose(res.scores, [0.5, 1 / 6, 1 / 6, 1 / 6], rtol=1e-14)

    def test_permutation_equivariant_exactly(self):
        rng = np.random.default_rng(139)
        net = random_sparse_multiplex(rng, 10, 2)
        sigma = rng.permutation(10) + 1
        pi = np.array([2, 1])
        base = aggregate_degree_centrality(net).scores
        permuted = aggregate_degree_centrality(permute(net, sigma, pi)).scores
        np.testing.assert_allclose(permuted, base[sigma - 1], rtol=1e-13)


@st.composite
def _multiplex_and_influence(draw, entries=(0.0, 0.0, 1.0, 1.0, 0.3), edges_per_node=3):
    """A small multiplex, possibly with one layer, empty layers, self-loops
    and isolated nodes, and an influence matrix drawn from ``entries``."""
    n, L = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    edge = st.tuples(st.integers(1, L), st.integers(1, n), st.integers(1, n),
                     st.sampled_from((0.5, 1.0, 2.0, 3.7)))
    net = build_network(n, L, draw(st.lists(edge, max_size=edges_per_node * n)))
    entry = st.sampled_from(entries)
    W = draw(st.lists(st.lists(entry, min_size=L, max_size=L), min_size=L, max_size=L))
    return net, InfluenceMatrix(np.array(W))


def _clean_perron(M, **kw):
    """A loop that reports a clean run, so a result's flag is the structural one."""
    return PerronResult(value=1.0, vector=np.full(M.shape[0], 1.0 / M.shape[0]),
                        converged=True, degenerate_warning=False, iterations=1)


def _close(new, ref):
    """Equal to 1e-12 relative to the largest entry of ``ref``."""
    np.testing.assert_allclose(new, ref, rtol=0, atol=1e-12 * np.abs(ref).max())


def _same_order(new, ref):
    """Identical rankings; entries that agree to rounding count as exact ties
    (both scores are rounded to 11 decimals of their largest entry first)."""
    def settled(s):
        return np.round(s / s.max(), 11) if s.max() > 0 else s
    assert np.array_equal(rank(settled(new)).order, rank(settled(ref)).order)


# few iterations keep the drawn non-converging cases quick; both routes get the same cap
_PERRON = {"max_iter": 300}


class TestBlockOperators:
    """The supra and influence operators against the matrices they replace."""

    @settings(max_examples=150, deadline=None)
    @given(case=_multiplex_and_influence(), seed=st.integers(0, 2**16))
    def test_operators_match_built_matrices(self, case, seed):
        net, W = case
        x = np.random.default_rng(seed).random(net.n * net.L)
        for op, M in ((_supra_operator(net), supra_adjacency(net)),
                      (_influence_operator(net, W), khatri_rao_influence(net, W))):
            want = M @ x
            np.testing.assert_allclose(op @ x, want, rtol=0,
                                       atol=1e-12 * max(np.abs(want).max(), 1.0))

    @settings(max_examples=150, deadline=None)
    @given(case=_multiplex_and_influence())
    def test_versatility_flag_is_supra_reducibility(self, case):
        net, _ = case
        ncomp, _ = connected_components(supra_adjacency(net), directed=True,
                                        connection="strong")
        assert (not connectivity(net).aggregate_connected) == (ncomp > 1)
        if net.L == 1 and net.layers[0].nnz == 0:
            return
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(multicent.baselines, "matrix_perron", _clean_perron)
            assert versatility_centrality(net).degenerate_warning == (ncomp > 1)

    @settings(max_examples=300, deadline=None)
    @given(case=_multiplex_and_influence(entries=(0.3, 1.0, 2.5), edges_per_node=8))
    def test_global_het_flag_is_block_matrix_reducibility(self, case):
        net, W = case
        K = khatri_rao_influence(net, W)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(multicent.baselines, "matrix_perron", _clean_perron)
            if K.nnz == 0:
                with pytest.raises(ValidationError, match="identically zero"):
                    global_heterogeneous_centrality(net, W)
                return
            ncomp, _ = connected_components(K, directed=True, connection="strong")
            gh = global_heterogeneous_centrality(net, W)
        assert gh.column_degenerate == (ncomp > 1,) * net.L

    @settings(max_examples=100, deadline=None)
    @given(case=_multiplex_and_influence())
    def test_scores_match_perron_on_built_matrices(self, case):
        net, W = case
        if not (net.L == 1 and net.layers[0].nnz == 0):
            ref, flag = versatility_on_matrix(net, **_PERRON)
            res = versatility_centrality(net, **_PERRON)
            assert res.degenerate_warning == flag
            _close(res.scores, ref)
            _same_order(res.scores, ref)
        if khatri_rao_influence(net, W).nnz:
            ref, flag = global_het_on_matrix(net, W, **_PERRON)
            gh = global_heterogeneous_centrality(net, W, **_PERRON)
            assert gh.column_degenerate == (flag,) * net.L
            for new, want in zip(gh.matrix.T, ref.T):
                _close(new, want)
                _same_order(new, want)

    @pytest.mark.parametrize("call, error, message", [
        (lambda net: global_heterogeneous_centrality(net, InfluenceMatrix(np.zeros((3, 3)))),
         ValidationError, "influence block matrix is identically zero"),
        (lambda net: global_heterogeneous_centrality(
            net, InfluenceMatrix(np.diag([0.0, 0.0, 1.0]))),
         ValidationError, "influence block matrix is identically zero"),
        (lambda net: global_heterogeneous_centrality(
            build_network(2, 1, [(1, 1, 2, 1e10)]), InfluenceMatrix(np.array([[1e300]]))),
         ValidationError, "influence block matrix has non-finite entries"),
        (lambda net: global_heterogeneous_centrality(build_network(3, 3, []),
                                                     InfluenceMatrix.uniform(3)),
         ValidationError, "influence block matrix is identically zero"),
        # every product rounds to 0, as in the built matrix
        (lambda net: global_heterogeneous_centrality(
            build_network(2, 1, [(1, 1, 2, 1e-300)]), InfluenceMatrix(np.array([[1e-300]]))),
         ValidationError, "influence block matrix is identically zero"),
        (lambda net: matrix_perron(np.array([[0.0, np.inf], [np.inf, 0.0]])),
         ValidationError, "matrix has non-finite entries"),
        (lambda net: versatility_centrality(build_network(3, 1, [])),
         ValidationError, "matrix is identically zero"),
        (lambda net: global_heterogeneous_centrality(net, InfluenceMatrix.uniform(2)),
         DimensionError, "influence matrix side 2 does not match layer count 3"),
        (lambda net: local_heterogeneous_centrality(net, InfluenceMatrix.uniform(4)),
         DimensionError, "influence matrix side 4 does not match layer count 3"),
    ])
    def test_error_paths(self, call, error, message):
        net = build_network(3, 3, [(1, 1, 2, 1.0), (2, 2, 3, 1.0)])  # layer 3 is empty
        with pytest.raises(error) as info:
            call(net)
        assert type(info.value) is error and str(info.value) == message


class TestLocalHeterogeneousSharedRows:
    def test_repeated_rows_solved_once_each(self, monkeypatch):
        rng = np.random.default_rng(151)
        net = random_sparse_multiplex(rng, 9, 4)
        W = np.array([[1.0, 0.0, 2.0, 0.0], [0.0, 1.0, 0.0, 0.0],
                      [1.0, 0.0, 2.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
        want = [matrix_perron(_weighted_layer_sum(net, row)) for row in W]
        calls = []
        real = matrix_perron
        monkeypatch.setattr(multicent.baselines, "matrix_perron",
                            lambda *a, **kw: calls.append(1) or real(*a, **kw))
        lh = local_heterogeneous_centrality(net, InfluenceMatrix(W))
        assert len(calls) == 2
        for l, pr in enumerate(want):
            assert np.array_equal(lh.matrix[:, l], pr.vector)
            assert lh.column_degenerate[l] == (pr.degenerate_warning or not pr.converged)

    def test_identity_is_the_layer_eigenvectors_exactly(self):
        net = build_network(4, 3, [(1, 1, 2, 1.0), (1, 2, 3, 2.0), (2, 3, 4, 1.0)])
        lh = local_heterogeneous_centrality(net, InfluenceMatrix.identity(3))
        Q = layer_eigenvectors(net)
        assert np.array_equal(lh.matrix, Q.matrix)
        assert lh.column_degenerate == Q.column_degenerate == (True, True, True)
