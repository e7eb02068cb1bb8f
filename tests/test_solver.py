import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multicent import (
    DegenerateInputError,
    MultiplexNetwork,
    NodeLayerScores,
    ParameterDomainError,
    SolverParams,
    SupportMismatchError,
    ValidationError,
    build_network,
    contraction_factor,
    contraction_gate_holds,
    eigen_residual,
    hilbert_distance,
    iteration_bound,
    node_layer_centrality,
    normalized_update,
    permute,
    product_metric,
    raw_update,
)

from conftest import (
    examples,
    make_explanatory,
    make_ratio_e_net,
    random_positive_multiplex,
    random_score_pair,
    random_sparse_multiplex,
    random_valid_exponents,
)
from oracles import (
    dense_tensor,
    fixed_point_dense,
    hilbert_distance_dense,
    update_dense,
)


class TestSolverParams:
    def test_defaults_and_gate(self):
        p = SolverParams(alpha=2.1, beta=2.0)
        assert p.tol == 1e-6 and p.max_iter == 1000
        assert p.stopping_norm == "euclidean"

    def test_gate_rejects_boundary(self):
        with pytest.raises(ParameterDomainError):
            SolverParams(alpha=2.0, beta=2.0)
        with pytest.raises(ParameterDomainError):
            SolverParams(alpha=1.0, beta=1.0)

    def test_unsafe_override(self):
        p = SolverParams(alpha=1.0, beta=1.0, unsafe_params=True)
        assert p.unsafe_params

    def test_bad_values(self):
        with pytest.raises(ValidationError):
            SolverParams(alpha=-1.0, beta=2.0)
        with pytest.raises(ValidationError):
            SolverParams(alpha=3.0, beta=2.0, tol=0.0)
        with pytest.raises(ValidationError):
            SolverParams(alpha=3.0, beta=2.0, max_iter=0)
        with pytest.raises(ValidationError):
            SolverParams(alpha=3.0, beta=2.0, stopping_norm="chebyshev")

    @pytest.mark.parametrize("alpha, beta, message", [
        (-1.0, 2.0, "alpha must be positive and finite, got -1.0"),
        (3.0, float("inf"), "beta must be positive and finite, got inf"),
    ])
    def test_one_exponent_check_also_when_unsafe(self, alpha, beta, message):
        calls = [lambda: contraction_factor(alpha, beta)]
        calls += [lambda unsafe=unsafe: SolverParams(alpha, beta, unsafe_params=unsafe)
                  for unsafe in (False, True)]
        for call in calls:
            with pytest.raises(ValidationError) as info:
                call()
            assert str(info.value) == message


class TestContractionFactor:
    def test_boundary_is_one(self):
        cd = contraction_factor(2.0, 2.0)
        assert cd.rho == pytest.approx(1.0, abs=5e-16)
        assert not contraction_gate_holds(2.0, 2.0)

    def test_reference_values(self):
        assert contraction_factor(2.1, 2.0).rho == pytest.approx(0.96808, abs=5e-6)
        assert contraction_factor(3.0, 2.0).rho == pytest.approx(0.76759, abs=5e-6)

    def test_eigen_identity_of_weights(self):
        # b must be the Perron eigenvector of the transposed homogeneity matrix
        for alpha, beta in [(2.1, 2.0), (3.0, 2.0), (4.5, 2.7), (1.5, 1.0)]:
            cd = contraction_factor(alpha, beta)
            np.testing.assert_allclose(cd.theta.T @ cd.b, cd.rho * cd.b,
                                       rtol=1e-12, atol=1e-14)
            np.testing.assert_array_equal(
                cd.theta, [[1 / alpha, 1 / alpha], [2 / beta, 0.0]])

    def test_gate_fails_where_rho_evaluates_to_one(self, explanatory):
        # 2/20 < 1.1 - 1 holds in floating point, but rho rounds to exactly 1
        assert 2.0 / 20.0 < 1.1 - 1.0
        assert contraction_factor(1.1, 20.0).rho == 1.0
        assert not contraction_gate_holds(1.1, 20.0)
        with pytest.raises(ParameterDomainError):
            iteration_bound(explanatory, 1.1, 20.0, 1e-6)
        with pytest.raises(ParameterDomainError):
            SolverParams(alpha=1.1, beta=20.0)

    @settings(deadline=None, max_examples=examples(100))
    @given(alpha=st.floats(0.2, 20), beta=st.floats(0.2, 20))
    def test_below_one_iff_gate_holds(self, alpha, beta):
        cd = contraction_factor(alpha, beta)
        if contraction_gate_holds(alpha, beta):
            assert cd.rho < 1
        else:
            assert cd.rho >= 1 - 1e-12


class TestUpdateMap:
    def test_explanatory_uniform_pair_matches_oracle(self, explanatory):
        x = np.full(4, 0.25)
        t = np.full(2, 0.5)
        for alpha, beta in [(2.1, 2.0), (3.0, 2.5), (1.0, 1.0)]:
            f1, f2 = raw_update(explanatory, x, t, alpha, beta)
            np.testing.assert_allclose(f1, (1 / 8) ** (1 / alpha) * np.ones(4), rtol=1e-14)
            np.testing.assert_allclose(f2, (1 / 8) ** (1 / beta) * np.ones(2), rtol=1e-14)
            o1, o2 = update_dense(dense_tensor(explanatory), x, t, alpha, beta)
            np.testing.assert_allclose(f1, o1, rtol=1e-13)
            np.testing.assert_allclose(f2, o2, rtol=1e-13)

    def test_matches_oracle_on_random_input(self):
        rng = np.random.default_rng(101)
        for _ in range(10):
            net = random_sparse_multiplex(rng, 7, 3)
            x = rng.uniform(0, 1, 7)
            t = rng.uniform(0, 1, 3)
            alpha, beta = random_valid_exponents(rng)
            f1, f2 = raw_update(net, x, t, alpha, beta)
            o1, o2 = update_dense(dense_tensor(net), x, t, alpha, beta)
            np.testing.assert_allclose(f1, o1, rtol=1e-12, atol=1e-15)
            np.testing.assert_allclose(f2, o2, rtol=1e-12, atol=1e-15)

    def test_empty_layer_gives_zero(self):
        net = build_network(3, 2, [(1, 1, 2, 1.0)])
        _, f2 = raw_update(net, np.ones(3), np.ones(2), 2.1, 2.0)
        assert f2[1] == 0.0

    def test_isolated_node_gives_zero(self):
        net = build_network(3, 1, [(1, 1, 2, 1.0)])
        f1, _ = raw_update(net, np.ones(3), np.ones(1), 2.1, 2.0)
        assert f1[2] == 0.0

    def test_two_node_single_edge_symmetry_forces_uniform(self):
        net = build_network(2, 1, [(1, 1, 2, 1.0)])
        rng = np.random.default_rng(5)
        out = normalized_update(net, rng.uniform(0.1, 1, 2), np.array([1.0]), 2.1, 2.0)
        np.testing.assert_allclose(out.t, [1.0], rtol=0)
        # from any positive start the iteration lands on the symmetric pair
        start = NodeLayerScores(x=rng.uniform(0.1, 1, 2), t=np.array([1.0]))
        scores, report = node_layer_centrality(
            net, SolverParams(2.1, 2.0, tol=1e-13, max_iter=10_000), start=start)
        assert report.converged
        np.testing.assert_allclose(scores.x, [0.5, 0.5], atol=1e-12)
        np.testing.assert_allclose(scores.t, [1.0], rtol=0)

    @settings(deadline=None, max_examples=examples(30))
    @given(c=st.floats(1e-3, 1e3), c2=st.floats(1e-3, 1e3))
    def test_normalized_update_scale_invariant(self, c, c2):
        net = make_explanatory()
        rng = np.random.default_rng(7)
        x = rng.uniform(0.1, 1, 4)
        t = rng.uniform(0.1, 1, 2)
        a = normalized_update(net, x, t, 2.1, 2.0)
        b = normalized_update(net, c * x, c2 * t, 2.1, 2.0)
        np.testing.assert_allclose(a.x, b.x, rtol=1e-12)
        np.testing.assert_allclose(a.t, b.t, rtol=1e-12)

    def test_multi_homogeneity_exponents(self):
        rng = np.random.default_rng(13)
        net = random_positive_multiplex(rng, 5, 2)
        x = rng.uniform(0.1, 1, 5)
        t = rng.uniform(0.1, 1, 2)
        alpha, beta = 2.5, 2.0
        c, c2 = 3.0, 7.0
        f1, f2 = raw_update(net, x, t, alpha, beta)
        g1, g2 = raw_update(net, c * x, c2 * t, alpha, beta)
        np.testing.assert_allclose(g1, c ** (1 / alpha) * c2 ** (1 / alpha) * f1, rtol=1e-12)
        np.testing.assert_allclose(g2, c ** (2 / beta) * f2, rtol=1e-12)

    def test_update_keeps_no_stacked_copy_of_the_layers(self):
        # the (L*n)-by-n stack of the layers, which the update once built and
        # kept, holds an L*n index pointer of its own beside the layers' entries
        n, L = 2000, 100
        rng = np.random.default_rng(29)
        edges = [(l, int(a), int(b), 1.0) for l in range(1, L + 1)
                 for a, b in zip(rng.integers(1, n + 1, n), rng.integers(1, n + 1, n))]
        net = build_network(n, L, edges)
        stacked = (L * n + 1) * 4 + sum(A.nnz for A in net.layers) * 12
        x, t = np.full(n, 1.0 / n), np.full(L, 1.0 / L)
        tracemalloc.start()
        try:
            normalized_update(net, x, t, 2.1, 2.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < L * n * 8 + stacked

    def test_non_finite_input_rejected(self, explanatory):
        with pytest.raises(ValidationError):
            raw_update(explanatory, [np.inf, 1, 1, 1], [1, 1], 2.1, 2.0)
        with pytest.raises(ValidationError):
            raw_update(explanatory, [1, 1, 1, 1], [np.nan, 1], 2.1, 2.0)

    def test_disjoint_support_degenerate(self, explanatory):
        with pytest.raises(DegenerateInputError):
            normalized_update(explanatory, [0, 0, 1, 1], [1, 0], 2.1, 2.0)


class TestCentrality:
    def test_explanatory_exact(self, explanatory):
        scores, report = node_layer_centrality(explanatory, SolverParams(2.1, 2.0))
        np.testing.assert_allclose(scores.x, 0.25, atol=1e-12)
        np.testing.assert_allclose(scores.t, 0.5, atol=1e-12)
        assert report.converged and report.iterations <= 5
        assert report.a_priori_bound_k == 0 and report.C == 0.0

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(211)
        net = random_positive_multiplex(rng, 5, 3)
        scores, report = node_layer_centrality(
            net, SolverParams(2.1, 2.0, tol=1e-12, max_iter=50_000))
        assert report.converged
        ox, ot = fixed_point_dense(dense_tensor(net), 2.1, 2.0, tol=1e-12)
        np.testing.assert_allclose(scores.x, ox, atol=1e-8)
        np.testing.assert_allclose(scores.t, ot, atol=1e-8)

    def test_iterates_stay_normalized(self):
        rng = np.random.default_rng(19)
        net = random_sparse_multiplex(rng, 9, 3)
        x = np.full(9, 1 / 9)
        t = np.full(3, 1 / 3)
        for _ in range(40):
            out = normalized_update(net, x, t, 2.1, 2.0)
            x, t = out.x, out.t
            assert abs(x.sum() - 1) <= 1e-14
            assert abs(t.sum() - 1) <= 1e-14

    def test_fixed_point_property(self):
        rng = np.random.default_rng(23)
        net = random_sparse_multiplex(rng, 10, 3)
        tol = 1e-8
        scores, report = node_layer_centrality(
            net, SolverParams(3.0, 2.0, tol=tol, max_iter=10_000))
        assert report.converged
        out = normalized_update(net, scores.x, scores.t, 3.0, 2.0)
        gap = max(np.abs(out.x - scores.x).max(), np.abs(out.t - scores.t).max())
        assert gap < 10 * tol

    def test_zero_pattern_matches_structure(self):
        # node 4 isolated, layer 3 empty
        net = build_network(4, 3, [(1, 1, 2, 1.0), (2, 2, 3, 2.0)])
        scores, report = node_layer_centrality(
            net, SolverParams(2.1, 2.0, tol=1e-10, max_iter=5000))
        assert report.converged
        assert scores.x[3] == 0.0
        assert np.all(scores.x[:3] > 0)
        assert scores.t[2] == 0.0
        assert np.all(scores.t[:2] > 0)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(31)
        net = random_sparse_multiplex(rng, 8, 3)
        sigma = rng.permutation(8) + 1
        pi = rng.permutation(3) + 1
        params = SolverParams(2.5, 2.0, tol=1e-12, max_iter=20_000)
        base, _ = node_layer_centrality(net, params)
        permuted, _ = node_layer_centrality(permute(net, sigma, pi), params)
        s, p = sigma - 1, pi - 1
        np.testing.assert_allclose(permuted.x, base.x[s], atol=1e-10)
        np.testing.assert_allclose(permuted.t, base.t[p], atol=1e-10)

    def test_tensor_scaling_invariance(self):
        rng = np.random.default_rng(37)
        net = random_sparse_multiplex(rng, 8, 2)
        scaled = MultiplexNetwork(n=net.n, L=net.L,
                                  layers=[7.5 * A for A in net.layers])
        params = SolverParams(2.5, 2.0, tol=1e-12, max_iter=20_000)
        a, _ = node_layer_centrality(net, params)
        b, _ = node_layer_centrality(scaled, params)
        np.testing.assert_allclose(a.x, b.x, atol=1e-10)
        np.testing.assert_allclose(a.t, b.t, atol=1e-10)

    def test_max_iter_exhaustion_reports_not_converged(self):
        net = make_ratio_e_net()
        scores, report = node_layer_centrality(
            net, SolverParams(2.1, 2.0, max_iter=1))
        assert not report.converged
        assert report.iterations == 1

    def test_empty_network_rejected(self):
        net = build_network(3, 1, [])
        with pytest.raises(ValidationError):
            node_layer_centrality(net, SolverParams(2.1, 2.0))

    def test_start_must_be_strictly_positive(self, explanatory):
        start = NodeLayerScores(x=np.array([0.0, 1, 1, 1]), t=np.ones(2))
        with pytest.raises(ValidationError):
            node_layer_centrality(explanatory, SolverParams(2.1, 2.0), start=start)

    def test_custom_start_has_no_a_priori_bound(self, explanatory):
        start = NodeLayerScores(x=np.ones(4), t=np.array([2.0, 1.0]))
        _, report = node_layer_centrality(explanatory, SolverParams(2.1, 2.0),
                                          start=start)
        assert report.a_priori_bound_k is None and report.C is None

    def test_per_block_convergence_recorded(self):
        net = make_ratio_e_net()
        _, report = node_layer_centrality(net, SolverParams(2.1, 2.0))
        assert report.converged
        assert report.layer_converged_at is not None
        assert report.node_converged_at is not None
        assert max(report.node_converged_at, report.layer_converged_at) == report.iterations
        assert len(report.node_residuals) == report.iterations
        # converged means both final residuals beat the tolerance
        assert report.node_residuals[-1] < 1e-6
        assert report.layer_residuals[-1] < 1e-6

    def test_map_eigenvalues_consistent_with_system_scalars(self):
        rng = np.random.default_rng(41)
        net = random_sparse_multiplex(rng, 6, 2)
        alpha, beta = 2.5, 2.0
        scores, report = node_layer_centrality(
            net, SolverParams(alpha, beta, tol=1e-12, max_iter=20_000))
        mu, lam, res = eigen_residual(net, scores, alpha, beta)
        assert res < 1e-10
        assert mu == pytest.approx(report.node_eigenvalue ** alpha, rel=1e-9)
        assert lam == pytest.approx(report.layer_eigenvalue ** beta, rel=1e-9)


class TestIterationBound:
    def test_uniform_strengths_give_zero(self, explanatory):
        b = iteration_bound(explanatory, 2.1, 2.0, 1e-6)
        assert b.k == 0 and b.C == 0.0 and b.uniform_start_exact

    def test_ratio_e_constant_is_rho(self):
        net = make_ratio_e_net()
        b = iteration_bound(net, 2.1, 2.0, 1e-6)
        rho = contraction_factor(2.1, 2.0).rho
        assert b.C == pytest.approx(rho, rel=1e-12)
        expected_k = math.ceil((math.log((1 - rho) * 1e-6) - math.log(rho)) / math.log(rho))
        assert b.k == expected_k

    def test_shrinks_with_alpha(self):
        net = make_ratio_e_net()
        ks = [iteration_bound(net, a, 2.0, 1e-6).k
              for a in (2.1, 2.5, 2.7, 3.0, 4.0, 5.0, 10.0)]
        assert all(k2 <= k1 for k1, k2 in zip(ks, ks[1:]))

    def test_requires_contraction(self):
        net = make_ratio_e_net()
        with pytest.raises(ParameterDomainError):
            iteration_bound(net, 2.0, 2.0, 1e-6)

    def test_bad_eps(self, explanatory):
        with pytest.raises(ValidationError):
            iteration_bound(explanatory, 2.1, 2.0, 0.0)


class TestHilbertMetric:
    def test_identity_and_reference_value(self):
        x = np.array([1.0, 2.0])
        assert hilbert_distance(x, x) == 0.0
        assert hilbert_distance(x, np.array([2.0, 1.0])) == pytest.approx(np.log(4))

    @settings(deadline=None, max_examples=examples(50))
    @given(c=st.floats(1e-6, 1e6))
    def test_projective(self, c):
        x = np.array([0.3, 1.4, 0.8])
        assert hilbert_distance(x, c * x) == pytest.approx(0.0, abs=1e-12)

    def test_symmetric_and_matches_dense_oracle(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            x = rng.uniform(0.01, 1, 6)
            u = rng.uniform(0.01, 1, 6)
            d = hilbert_distance(x, u)
            assert d == pytest.approx(hilbert_distance(u, x), rel=1e-13)
            assert d == pytest.approx(hilbert_distance_dense(x, u), rel=1e-12)
            assert d >= 0

    def test_support_mismatch(self):
        with pytest.raises(SupportMismatchError):
            hilbert_distance([1.0, 0.0], [1.0, 1.0])
        with pytest.raises(SupportMismatchError):
            hilbert_distance([0.0, 0.0], [0.0, 0.0])

    def test_zero_entries_on_common_support_ok(self):
        assert hilbert_distance([1.0, 0.0, 2.0], [2.0, 0.0, 1.0]) == pytest.approx(np.log(4))


class TestProductMetric:
    def test_zero_on_equal_pairs(self):
        p = NodeLayerScores(x=np.array([0.25, 0.75]), t=np.array([1.0]))
        assert product_metric(p, p, np.array([1.0, 1.0])) == 0.0

    def test_unit_weights_sum_blocks(self):
        p = NodeLayerScores(x=np.array([0.3, 0.7]), t=np.array([0.4, 0.6]))
        q = NodeLayerScores(x=np.array([0.5, 0.5]), t=np.array([0.9, 0.1]))
        total = product_metric(p, q, np.array([1.0, 1.0]))
        assert total == pytest.approx(hilbert_distance(p.x, q.x)
                                      + hilbert_distance(p.t, q.t), rel=1e-14)

    def test_update_contracts_sampled(self):
        rng = np.random.default_rng(47)
        for _ in range(20):
            n, L = int(rng.integers(2, 8)), int(rng.integers(1, 4))
            net = random_positive_multiplex(rng, n, L)
            alpha, beta = random_valid_exponents(rng)
            cd = contraction_factor(alpha, beta)
            p = random_score_pair(rng, n, L)
            q = random_score_pair(rng, n, L)
            gp = normalized_update(net, p.x, p.t, alpha, beta)
            gq = normalized_update(net, q.x, q.t, alpha, beta)
            assert (product_metric(gp, gq, cd.b)
                    <= cd.rho * product_metric(p, q, cd.b) + 1e-12)

    def test_bad_weights(self):
        p = NodeLayerScores(x=np.array([1.0]), t=np.array([1.0]))
        with pytest.raises(ValidationError):
            product_metric(p, p, np.array([1.0, 0.0]))


class TestEigenResidual:
    def test_converged_pair_solves_system(self, explanatory):
        scores, _ = node_layer_centrality(explanatory, SolverParams(2.1, 2.0))
        _, _, res = eigen_residual(explanatory, scores, 2.1, 2.0)
        assert res < 1e-8

    def test_perturbation_bounded_away_from_zero(self, explanatory):
        scores, _ = node_layer_centrality(explanatory, SolverParams(2.1, 2.0))
        x = scores.x.copy()
        x[0] *= 1.1
        pert = NodeLayerScores(x=x / x.sum(), t=scores.t)
        _, _, res = eigen_residual(explanatory, pert, 2.1, 2.0)
        assert res > 0.1

    def test_degenerate_boundary_pair_exact(self, explanatory):
        scores = NodeLayerScores(x=np.array([0.5, 0.5, 0.0, 0.0]),
                                 t=np.array([1.0, 0.0]))
        mu, lam, res = eigen_residual(explanatory, scores, 1.0, 1.0)
        assert res == 0.0
        assert mu == 1.0 and lam == 0.5

    def test_zero_scores_rejected(self, explanatory):
        with pytest.raises(ValidationError):
            eigen_residual(explanatory,
                           NodeLayerScores(x=np.zeros(4), t=np.ones(2)), 2.1, 2.0)


class TestBoundaryNonUniqueness:
    def test_gate_rejects_alpha_beta_one(self):
        with pytest.raises(ParameterDomainError):
            SolverParams(alpha=1.0, beta=1.0)

    def test_three_fixed_points_under_unsafe_params(self, explanatory):
        pairs = [
            (np.full(4, 0.25), np.full(2, 0.5)),
            (np.array([0.5, 0.5, 0.0, 0.0]), np.array([1.0, 0.0])),
            (np.array([0.0, 0.0, 0.5, 0.5]), np.array([0.0, 1.0])),
        ]
        for x, t in pairs:
            out = normalized_update(explanatory, x, t, 1.0, 1.0)
            assert np.abs(out.x - x).max() <= 1e-12
            assert np.abs(out.t - t).max() <= 1e-12
