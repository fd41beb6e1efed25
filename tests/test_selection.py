import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisestab.exceptions import ConfigError, NonFiniteError
from noisestab.selection import (SelectionRequest, greedy_k_center,
                                 k_center_normalized, kmeans_pp, select,
                                 top_magnitude)


def covering_radius(points, center_indices):
    centers = points[list(center_indices)]
    dists = np.linalg.norm(points[:, None, :] - centers[None, :, :], axis=2)
    return dists.min(axis=1).max()


def brute_force_optimal_radius(points, budget):
    """Exhaustive search over all center subsets (the 2-approximation oracle)."""
    best = np.inf
    for subset in itertools.combinations(range(len(points)), budget):
        best = min(best, covering_radius(points, subset))
    return best


def req(embeddings, budget, **kw):
    return SelectionRequest(embeddings=np.asarray(embeddings, dtype=float),
                            budget=budget, **kw)


class TestGreedyKCenter:
    def test_full_budget_returns_all_indices_in_pick_order(self):
        picks = greedy_k_center(req([[0.0], [1.0], [10.0]], 3))
        assert sorted(picks) == [0, 1, 2]
        assert len(set(picks)) == 3

    def test_line_instance_picks_and_radius(self):
        points = np.array([[0.0], [1.0], [10.0]])
        picks = greedy_k_center(req(points, 2))
        # max-norm start picks 10, farthest-point pick adds 0
        assert picks == [2, 0]
        radius = covering_radius(points, picks)
        assert radius == 1.0
        assert radius <= 2.0 * brute_force_optimal_radius(points, 2)

    def test_tied_farthest_points_resolve_to_lowest_index(self):
        points = np.array([[0.0, 0.0], [5.0, 0.0], [5.0, 0.0], [-1.0, 0.0]])
        picks = greedy_k_center(req(points, 2))
        assert picks[0] == 1  # tie between the two (5, 0) rows
        # farthest from (5,0) is (-1,0)
        assert picks[1] == 3

    def test_budget_above_pool_rejected(self):
        with pytest.raises(ConfigError):
            req([[1.0], [2.0]], 3)

    def test_zero_budget_selects_nothing(self):
        assert greedy_k_center(req([[1.0], [2.0]], 0)) == []

    def test_labeled_seeding_makes_every_pick_farthest(self):
        pool = np.array([[0.0], [4.0], [10.0]])
        labeled = np.array([[0.5]])
        picks = greedy_k_center(req(pool, 2, seeds_from_labeled=labeled))
        assert picks == [2, 1]

    def test_duplicate_of_labeled_point_chosen_last(self):
        pool = np.array([[0.5], [3.0], [7.0]])
        labeled = np.array([[0.5]])
        picks = greedy_k_center(req(pool, 3, seeds_from_labeled=labeled))
        assert picks[-1] == 0

    def test_two_approximation_on_random_instances(self):
        gen = np.random.default_rng(42)
        for _ in range(60):
            n = int(gen.integers(3, 13))
            budget = int(gen.integers(1, min(n, 4) + 1))
            points = gen.normal(size=(n, int(gen.integers(1, 4))))
            picks = greedy_k_center(req(points, budget))
            assert covering_radius(points, picks) <= \
                2.0 * brute_force_optimal_radius(points, budget) + 1e-12

    def test_prefix_stability_of_pick_sequences(self):
        gen = np.random.default_rng(7)
        points = gen.normal(size=(20, 3))
        for budget in range(1, 10):
            shorter = greedy_k_center(req(points, budget))
            longer = greedy_k_center(req(points, budget + 1))
            assert longer[:budget] == shorter

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_permutation_equivariance(self, seed):
        gen = np.random.default_rng(seed)
        points = gen.normal(size=(9, 2))
        # distinct pairwise distances make tie-breaking irrelevant
        dists = np.linalg.norm(points[:, None] - points[None, :], axis=2)
        iu = np.triu_indices(9, 1)
        if len(set(np.round(dists[iu], 12))) < iu[0].size:
            return
        perm = gen.permutation(9)
        base = greedy_k_center(req(points, 4))
        shuffled = greedy_k_center(req(points[perm], 4))
        assert [int(perm[i]) for i in shuffled] == base

    def test_picks_skew_toward_large_norms(self):
        # diversity prefers large magnitudes on average, not per instance
        gen = np.random.default_rng(11)
        gaps = []
        for _ in range(120):
            norms = gen.lognormal(0.0, 1.0, size=30)
            dirs = gen.normal(size=(30, 4))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            points = norms[:, None] * dirs
            picks = greedy_k_center(req(points, 5))
            gaps.append(norms[picks].mean() - norms.mean())
        assert np.mean(gaps) > 0.0


class TestKmeansPP:
    def test_full_budget_returns_all_indices(self):
        picks = kmeans_pp(req([[0.0], [1.0], [2.0]], 3, seed=5))
        assert sorted(picks) == [0, 1, 2]

    def test_identical_points_still_produce_valid_deterministic_set(self):
        points = [[1.0, 1.0]] * 5
        a = kmeans_pp(req(points, 3, seed=9))
        b = kmeans_pp(req(points, 3, seed=9))
        assert a == b
        assert len(set(a)) == 3

    def test_squared_distance_law_on_far_point(self):
        # points {0, 0, 100}: whenever the first uniform pick is a near point,
        # the far point's squared distance dominates and must be picked next
        points = np.array([[0.0], [0.0], [100.0]])
        second_is_far = 0
        trials_with_near_start = 0
        for seed in range(10000):
            picks = kmeans_pp(req(points, 2, seed=seed))
            assert 2 in picks  # the far point always ends up selected
            if picks[0] != 2:
                trials_with_near_start += 1
                second_is_far += picks[1] == 2
        assert trials_with_near_start > 5000
        assert second_is_far / trials_with_near_start > 0.99

    def test_budget_above_pool_rejected(self):
        with pytest.raises(ConfigError):
            req([[1.0]], 2, seed=0)


class TestTopMagnitude:
    def test_descending_norms_with_index_ties(self):
        picks = top_magnitude(req([[3.0], [1.0], [2.0]], 2))
        assert picks == [0, 2]

    def test_zero_budget_is_empty(self):
        assert top_magnitude(req([[3.0], [1.0]], 0)) == []

    def test_matches_full_sort_oracle(self):
        gen = np.random.default_rng(3)
        points = gen.normal(size=(40, 6))
        norms = np.linalg.norm(points, axis=1)
        oracle = sorted(range(40), key=lambda i: (-norms[i], i))
        for budget in (1, 7, 40):
            assert top_magnitude(req(points, budget)) == oracle[:budget]

    def test_exact_ties_resolve_to_lowest_index(self):
        picks = top_magnitude(req([[1.0, 0.0], [0.0, 1.0], [2.0, 0.0]], 2))
        assert picks == [2, 0]


class TestKCenterNormalized:
    def test_unit_norm_input_matches_plain_k_center(self):
        gen = np.random.default_rng(13)
        points = gen.normal(size=(12, 3))
        points /= np.linalg.norm(points, axis=1, keepdims=True)
        assert k_center_normalized(req(points, 5)) == greedy_k_center(req(points, 5))

    def test_colinear_points_collapse(self):
        points = np.array([[1.0, 0.0], [5.0, 0.0], [0.0, 1.0]])
        picks = k_center_normalized(req(points, 2))
        assert len(picks) == 2
        assert 2 in picks  # the orthogonal direction must be covered
        assert not {0, 1} <= set(picks)  # colinear pair collapses to one point

    def test_all_zero_pool_selects_index_zero(self):
        assert k_center_normalized(req([[0.0, 0.0], [0.0, 0.0]], 1)) == [0]

    def test_zero_vectors_only_after_nonzero_exhausted(self):
        points = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0], [0.0, 0.0]])
        picks = k_center_normalized(req(points, 4))
        assert set(picks[:2]) == {1, 2}
        assert picks[2:] == [0, 3]


class TestDispatch:
    def test_select_routes_by_method(self):
        points = [[3.0], [1.0], [2.0]]
        assert select(req(points, 2, method="top_magnitude")) == [0, 2]
        assert select(req(points, 2, method="k_center")) == \
            greedy_k_center(req(points, 2))

    def test_k_dpp_is_reserved_but_unsupported(self):
        with pytest.raises(ConfigError, match="k_dpp"):
            select(req([[1.0]], 1, method="k_dpp"))

    def test_unknown_method_rejected_at_request(self):
        with pytest.raises(ConfigError):
            req([[1.0]], 1, method="sorcery")

    def test_ragged_embeddings_rejected(self):
        with pytest.raises(Exception):
            SelectionRequest(embeddings=[[1.0], [1.0, 2.0]], budget=1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_embeddings_rejected(self, bad):
        with pytest.raises(NonFiniteError):
            req([[1.0, 0.0], [bad, 2.0]], 1)
        with pytest.raises(NonFiniteError):
            req([[1.0, 0.0], [0.0, 2.0]], 1, seeds_from_labeled=[[bad, 0.0]])
