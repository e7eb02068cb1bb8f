import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multicent import (
    ValidationError,
    alpha_sweep,
    intersection_similarity,
    isim_curve,
    pearson,
    rank,
)

from conftest import examples, make_explanatory, random_positive_multiplex
from oracles import isim_bruteforce


class TestRank:
    def test_basic_order(self):
        r = rank([0.1, 0.3, 0.2])
        # descending scores 0.3, 0.2, 0.1 -> indices 1, 2, 0
        np.testing.assert_array_equal(r.order, [1, 2, 0])

    def test_all_equal_breaks_ties_by_index(self):
        r = rank(np.full(5, 0.2))
        np.testing.assert_array_equal(r.order, np.arange(5))

    def test_partial_ties(self):
        r = rank([0.5, 0.9, 0.5, 0.9])
        np.testing.assert_array_equal(r.order, [1, 3, 0, 2])

    def test_zero_scores_rank_last(self):
        r = rank([0.0, 0.4, 0.0, 0.6])
        np.testing.assert_array_equal(r.order, [3, 1, 0, 2])

    def test_positions_inverse(self):
        r = rank([0.1, 0.3, 0.2])
        pos = r.positions()
        np.testing.assert_array_equal(pos[r.order], np.arange(3))

    @settings(deadline=None, max_examples=examples(40))
    @given(seed=st.integers(0, 10_000), c=st.floats(1e-6, 1e6))
    def test_invariant_under_positive_rescaling(self, seed, c):
        rng = np.random.default_rng(seed)
        s = rng.uniform(0, 1, 12)
        np.testing.assert_array_equal(rank(s).order, rank(c * s).order)

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError):
            rank([1.0, np.nan])


class TestPearson:
    def test_perfect_correlation(self):
        assert pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)

    def test_perfect_anticorrelation(self):
        assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_zero_variance_rejected(self):
        with pytest.raises(ValidationError):
            pearson([1.0, 1.0, 1.0], [1, 2, 3])

    def test_too_short(self):
        with pytest.raises(ValidationError):
            pearson([1.0], [2.0])

    @settings(deadline=None, max_examples=examples(40))
    @given(seed=st.integers(0, 10_000), a=st.floats(0.01, 100),
           b=st.floats(-50, 50))
    def test_invariant_under_positive_affine_maps(self, seed, a, b):
        rng = np.random.default_rng(seed)
        u = rng.uniform(0, 1, 10)
        v = rng.uniform(0, 1, 10)
        base = pearson(u, v)
        assert pearson(a * u + b, v) == pytest.approx(base, abs=1e-9)


class TestIntersectionSimilarity:
    def test_identical_rankings_zero(self):
        r = rank([0.4, 0.3, 0.2, 0.1])
        for K in range(1, 5):
            assert intersection_similarity(r, r, K) == 0.0

    def test_disjoint_top_k_is_one(self):
        r1 = rank([4.0, 3.0, 2.0, 1.0])   # order 0,1,2,3
        r2 = rank([1.0, 2.0, 3.0, 4.0])   # order 3,2,1,0
        assert intersection_similarity(r1, r2, 2) == 1.0

    def test_reference_value_one_third(self):
        # orders (0,1,2) and (1,0,2): term sequence 1, 0, 0
        r1 = rank([3.0, 2.0, 1.0])
        r2 = rank([2.0, 3.0, 1.0])
        assert intersection_similarity(r1, r2, 3) == pytest.approx(1 / 3)

    def test_symmetric(self):
        rng = np.random.default_rng(151)
        r1 = rank(rng.uniform(0, 1, 9))
        r2 = rank(rng.uniform(0, 1, 9))
        for K in (1, 4, 9):
            assert intersection_similarity(r1, r2, K) == pytest.approx(
                intersection_similarity(r2, r1, K), rel=1e-14)

    def test_k_validated(self):
        r = rank([1.0, 2.0])
        with pytest.raises(ValidationError):
            intersection_similarity(r, r, 0)
        with pytest.raises(ValidationError):
            intersection_similarity(r, r, 3)

    def test_matches_bruteforce_exhaustively_small(self):
        # direct comparison on explicit orders, bypassing score construction
        from multicent import Ranking
        for m in (1, 2, 3, 4):
            perms = list(itertools.permutations(range(m)))
            for p1 in perms:
                for p2 in perms:
                    r1 = Ranking(order=np.array(p1), scores=np.zeros(m))
                    r2 = Ranking(order=np.array(p2), scores=np.zeros(m))
                    for K in range(1, m + 1):
                        assert intersection_similarity(r1, r2, K) == pytest.approx(
                            isim_bruteforce(p1, p2, K), abs=1e-14)

    @settings(deadline=None, max_examples=examples(60))
    @given(seed=st.integers(0, 100_000), m=st.integers(2, 8))
    def test_matches_bruteforce_sampled_and_bounded(self, seed, m):
        from multicent import Ranking
        rng = np.random.default_rng(seed)
        p1 = rng.permutation(m)
        p2 = rng.permutation(m)
        r1 = Ranking(order=p1, scores=np.zeros(m))
        r2 = Ranking(order=p2, scores=np.zeros(m))
        for K in range(1, m + 1):
            val = intersection_similarity(r1, r2, K)
            assert 0.0 <= val <= 1.0
            assert val == pytest.approx(isim_bruteforce(p1, p2, K), abs=1e-14)


class TestIsimClosedForm:
    """The closed form divides the same integers as the prefix-set oracle and
    adds the terms in the same order, so the two agree exactly."""

    @settings(deadline=None, max_examples=examples(200))
    @given(seed=st.integers(0, 2**32 - 1), n1=st.integers(1, 30), n2=st.integers(1, 30))
    def test_equals_oracle_on_prefixes_of_different_lengths(self, seed, n1, n2):
        rng = np.random.default_rng(seed)
        # scores drawn from four values, so most rankings break ties
        r1 = rank(rng.integers(0, 4, n1).astype(float))
        r2 = rank(rng.integers(0, 4, n2).astype(float))
        for K in range(1, min(n1, n2) + 1):
            assert intersection_similarity(r1, r2, K) == isim_bruteforce(r1.order, r2.order, K)

    @settings(deadline=None, max_examples=examples(200))
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40))
    def test_curve_is_running_mean_of_oracle_terms(self, seed, n):
        rng = np.random.default_rng(seed)
        r1 = rank(rng.integers(0, 4, n).astype(float))
        r2 = rank(rng.integers(0, 4, n).astype(float))
        # the oracle at K is the mean of its first K terms, summed in order
        expected = [isim_bruteforce(r1.order, r2.order, K) for K in range(1, n + 1)]
        assert isim_curve(r1, r2).tolist() == expected


class TestIsimCurve:
    def test_identical_is_zero_curve(self):
        r = rank([0.5, 0.4, 0.3, 0.2, 0.1])
        np.testing.assert_array_equal(isim_curve(r, r), np.zeros(5))

    def test_reversed_first_point_is_one(self):
        r1 = rank([5.0, 4.0, 3.0, 2.0, 1.0])
        r2 = rank([1.0, 2.0, 3.0, 4.0, 5.0])
        curve = isim_curve(r1, r2)
        assert curve[0] == 1.0
        assert np.all((curve >= 0) & (curve <= 1))
        assert len(curve) == 5

    def test_matches_pointwise_definition(self):
        rng = np.random.default_rng(157)
        r1 = rank(rng.uniform(0, 1, 11))
        r2 = rank(rng.uniform(0, 1, 11))
        curve = isim_curve(r1, r2)
        for K in range(1, 12):
            assert curve[K - 1] == pytest.approx(
                intersection_similarity(r1, r2, K), rel=1e-14)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            isim_curve(rank([1.0, 2.0]), rank([1.0, 2.0, 3.0]))


class TestAlphaSweep:
    def test_explanatory_rankings_identical_across_alphas(self):
        net = make_explanatory()
        result = alpha_sweep(net, [2.1, 3.0, 5.0], beta=2.0)
        assert all(e.ok for e in result.entries)
        orders = [e.node_ranking.order.tolist() for e in result.entries]
        assert orders.count(orders[0]) == len(orders)
        # uniform scores: tie-break leaves ascending indices
        assert orders[0] == [0, 1, 2, 3]
        layer_orders = [e.layer_ranking.order.tolist() for e in result.entries]
        assert layer_orders[0] == [0, 1]

    def test_iteration_counts_track_contraction_strength(self):
        rng = np.random.default_rng(163)
        net = random_positive_multiplex(rng, 12, 3)
        alphas = [2.1, 2.5, 2.7, 3.0, 4.0, 5.0, 10.0]
        result = alpha_sweep(net, alphas, beta=2.0, tol=1e-8)
        counts = result.iteration_counts()
        assert all(c is not None for c in counts)
        for earlier, later in zip(counts, counts[1:]):
            assert later <= earlier + 2

    def test_gate_failures_recorded_not_fatal(self):
        net = make_explanatory()
        result = alpha_sweep(net, [1.0, 2.1], beta=2.0)
        assert not result.entries[0].ok
        assert "2/beta" in result.entries[0].error
        assert result.entries[1].ok

    def test_position_tables_shape(self):
        net = make_explanatory()
        result = alpha_sweep(net, [2.1, 3.0], beta=2.0)
        alphas, pos = result.node_position_table()
        assert pos.shape == (4, 2)
        np.testing.assert_array_equal(alphas, [2.1, 3.0])
        alphas, lpos = result.layer_position_table()
        assert lpos.shape == (2, 2)
