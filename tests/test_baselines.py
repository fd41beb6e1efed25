import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisestab import baselines, nn
from noisestab.exceptions import ConfigError, DataError, NonFiniteError
from oracles import loss_gradient, set_params


class TestSelectRandom:
    def test_full_budget_returns_every_index(self):
        picks = baselines.select_random(8, 8, seed=1)
        assert sorted(picks) == list(range(8))

    def test_same_seed_same_set(self):
        assert baselines.select_random(50, 10, seed=3) == \
            baselines.select_random(50, 10, seed=3)

    def test_draws_are_uniform(self):
        counts = np.zeros(10)
        for seed in range(10000):
            counts[baselines.select_random(10, 1, seed=seed)[0]] += 1
        # three sigma around p = 0.1 for 10000 draws
        sigma = math.sqrt(10000 * 0.1 * 0.9)
        assert np.all(np.abs(counts - 1000.0) < 3 * sigma)

    def test_budget_above_pool_rejected(self):
        with pytest.raises(ConfigError):
            baselines.select_random(3, 4, seed=0)

    def test_negative_budget_rejected(self):
        # numpy's choice raised an untyped ValueError
        with pytest.raises(ConfigError, match=r"^budget -1 outside \[0, 5\]$"):
            baselines.select_random(5, -1, 0)


class TestSelectEntropy:
    def test_one_hot_rows_rank_last(self):
        probs = np.array([[1.0, 0.0], [0.5, 0.5], [0.9, 0.1]])
        assert baselines.select_entropy(probs, 3) == [1, 2, 0]

    def test_uniform_row_ranks_first_with_log_c_entropy(self):
        probs = np.array([[0.25, 0.25, 0.25, 0.25], [0.7, 0.1, 0.1, 0.1]])
        scores = baselines.entropy_rows(probs)
        assert scores[0] == pytest.approx(math.log(4.0))
        assert baselines.select_entropy(probs, 1) == [0]

    def test_half_half_entropy_is_ln_two(self):
        assert baselines.entropy_rows(np.array([[0.5, 0.5]]))[0] == \
            pytest.approx(0.6931471805599453)

    def test_invalid_rows_rejected(self):
        with pytest.raises(DataError):
            baselines.select_entropy(np.array([[0.5, 0.6]]), 1)
        with pytest.raises(DataError):
            baselines.select_entropy(np.array([[1.2, -0.2]]), 1)

    def test_negative_budget_rejected(self):
        # order[:-1] returned every row but the lowest-entropy one
        probs = np.array([[0.5, 0.5], [0.9, 0.1], [0.7, 0.3]])
        with pytest.raises(ConfigError, match=r"^budget -1 outside \[0, 3\]$"):
            baselines.select_entropy(probs, -1)

    def test_nan_row_is_not_picked_quietly(self):
        # the row-sum check reads False for NaN, and the NaN row scored as
        # entropy 0, so [0, 2] came back
        probs = np.array([[0.5, 0.5], [np.nan, np.nan], [0.9, 0.1]])
        with pytest.raises(NonFiniteError, match="row 1"):
            baselines.select_entropy(probs, 2)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_selection_invariant_to_label_permutation(self, seed):
        gen = np.random.default_rng(seed)
        probs = gen.dirichlet(np.ones(4), size=12)
        perm = gen.permutation(4)
        assert baselines.select_entropy(probs, 5) == \
            baselines.select_entropy(probs[:, perm], 5)


class TestSelectCoreset:
    def test_empty_labeled_budget_one_takes_max_norm(self):
        feats = np.array([[1.0, 0.0], [0.0, 3.0], [0.5, 0.5]])
        assert baselines.select_coreset(feats, None, 1) == [1]

    def test_labeled_duplicate_in_pool_chosen_last(self):
        feats = np.array([[2.0, 2.0], [5.0, -1.0], [0.0, 0.0]])
        labeled = np.array([[2.0, 2.0]])
        picks = baselines.select_coreset(feats, labeled, 3)
        assert picks[-1] == 0

    def test_matches_k_center_delegation(self):
        from noisestab.selection import SelectionRequest, greedy_k_center
        gen = np.random.default_rng(17)
        feats = gen.normal(size=(25, 4))
        labeled = gen.normal(size=(5, 4))
        assert baselines.select_coreset(feats, labeled, 6) == greedy_k_center(
            SelectionRequest(embeddings=feats, budget=6,
                             seeds_from_labeled=labeled))


class TestBadgeEmbedding:
    def test_confident_prediction_embeds_to_zero(self):
        z = np.array([0.3, -0.7, 1.1])
        p = np.array([0.0, 1.0, 0.0])
        emb = baselines.badge_embeddings(z[None], p[None])[0]
        assert np.array_equal(emb, np.zeros(9))

    def test_uniform_probabilities_block_norms(self):
        z = np.array([1.0, 2.0])
        c = 4
        p = np.full(c, 1.0 / c)
        emb = baselines.badge_embeddings(z[None], p[None])[0]
        z_norm = np.linalg.norm(z)
        for i in range(c):
            block = emb[i * 2:(i + 1) * 2]
            expected = abs(1.0 / c - (1.0 if i == 0 else 0.0)) * z_norm
            assert np.linalg.norm(block) == pytest.approx(expected)

    def test_matches_backprop_gradient_with_pseudo_label(self):
        # embedding equals the cross-entropy gradient w.r.t. a softmax head's
        # weights when the head sees the feature and the argmax pseudo-label
        gen = np.random.default_rng(23)
        for _ in range(25):
            d, c = int(gen.integers(2, 6)), int(gen.integers(2, 5))
            z = gen.normal(size=d)
            logits_w = gen.normal(size=(c, d))
            head = nn.MlpModel([nn.Linear(logits_w.copy()), nn.Softmax()], 1)
            _, p = nn.forward(head, z)
            pseudo = int(np.argmax(p))
            grad, _ = loss_gradient(head, z, np.array([pseudo]))
            emb = baselines.badge_embeddings(z[None], p[None])[0]
            assert np.abs(emb - grad).max() < 1e-10

    def test_norm_identity(self):
        gen = np.random.default_rng(29)
        z = gen.normal(size=5)
        p = gen.dirichlet(np.ones(3))
        emb = baselines.badge_embeddings(z[None], p[None])[0]
        coeff = p.copy()
        coeff[np.argmax(p)] -= 1.0
        assert np.linalg.norm(emb) == pytest.approx(
            np.linalg.norm(z) * np.linalg.norm(coeff))

    def test_batch_helper_matches_single(self):
        gen = np.random.default_rng(31)
        feats = gen.normal(size=(6, 4))
        probs = gen.dirichlet(np.ones(3), size=6)
        batch = baselines.badge_embeddings(feats, probs)
        for i in range(6):
            assert np.array_equal(batch[i], baselines.badge_embeddings(
                feats[i][None], probs[i][None])[0])


class TestBaldMcDropout:
    def test_zero_dropout_rate_gives_zero_scores(self):
        model = nn.build_mlp(2, [6], 3, dropout=0.0, seed=2)
        model.layers.insert(2, nn.Dropout(0.0))
        pool = np.random.default_rng(1).normal(size=(5, 2))
        picks = baselines.select_bald_mcdropout(model, pool, 8, 2, seed=3)
        assert len(picks) == 2
        probs = np.stack([nn.forward(model, pool)[1]] * 8)
        assert np.abs(baselines.bald_scores(probs)).max() < 1e-12

    def test_hand_computed_two_sample_score(self):
        probs = np.array([[[1.0, 0.0]], [[0.0, 1.0]]])  # (T=2, N=1, C=2)
        score = baselines.bald_scores(probs)[0]
        assert score == pytest.approx(math.log(2.0))

    def test_scores_are_nonnegative_mutual_information(self):
        gen = np.random.default_rng(7)
        probs = gen.dirichlet(np.ones(4), size=(10, 20))
        assert baselines.bald_scores(probs).min() >= -1e-12

    def test_model_without_dropout_rejected(self):
        model = nn.build_mlp(2, [4], 2, dropout=0.0, seed=5)
        with pytest.raises(ConfigError):
            baselines.select_bald_mcdropout(model, np.zeros((3, 2)), 8, 1, seed=0)

    def test_seeded_masks_reproduce_selection(self):
        model = nn.build_mlp(2, [8], 3, dropout=0.3, seed=11)
        pool = np.random.default_rng(13).normal(size=(12, 2))
        a = baselines.select_bald_mcdropout(model, pool, 10, 4, seed=17)
        b = baselines.select_bald_mcdropout(model, pool, 10, 4, seed=17)
        assert a == b

    def test_nan_probabilities_raise(self):
        model = nn.build_mlp(2, [8], 3, dropout=0.3, seed=11)
        model.layers[-2].bias[1] = np.nan
        pool = np.random.default_rng(13).normal(size=(12, 2))
        with pytest.raises(NonFiniteError, match="row 0"):
            baselines.select_bald_mcdropout(model, pool, 4, 2, seed=17)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_pool_row_raises_naming_it(self, bad):
        # ReLU maps NaN to 0.0, so such a row used to get an ordinary score
        model = nn.build_mlp(2, [8], 3, dropout=0.3, seed=11)
        pool = np.random.default_rng(13).normal(size=(12, 2))
        pool[5, 1] = bad
        with pytest.raises(NonFiniteError, match="pool row 5 "):
            baselines.select_bald_mcdropout(model, pool, 4, 2, seed=17)

    def test_negative_budget_rejected(self):
        # order[:-1] returned all but one of the 12 rows
        model = nn.build_mlp(2, [8], 3, dropout=0.3, seed=11)
        pool = np.random.default_rng(13).normal(size=(12, 2))
        with pytest.raises(ConfigError, match=r"^budget -1 outside \[0, 12\]$"):
            baselines.select_bald_mcdropout(model, pool, 4, -1, seed=17)

    def test_too_few_samples_rejected(self):
        model = nn.build_mlp(2, [4], 2, dropout=0.2, seed=5)
        with pytest.raises(ConfigError):
            baselines.select_bald_mcdropout(model, np.zeros((3, 2)), 1, 1, seed=0)


class TestRowsAlone:
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(500, 700),
           n_labeled=st.integers(0, 40))
    @settings(max_examples=8, deadline=None)
    def test_every_baseline_row_has_the_bits_of_the_row_alone(self, seed, n,
                                                              n_labeled):
        # the ns_blobs shape, 8 -> 24 -> 4: a row's feature, probabilities,
        # entropy score, coreset feature and BADGE embedding do not depend on
        # what else is in the pool
        gen = np.random.default_rng(seed)
        model = nn.build_mlp(8, [24], 4, seed=seed % 2**31)
        set_params(model, gen.normal(0.0, 0.5, size=model.n_params()))
        pool = gen.normal(0.0, 2.0, size=(n, 8))
        labeled = gen.normal(0.0, 2.0, size=(n_labeled, 8))
        feats, probs = nn.forward(model, pool)
        assert feats.flags.c_contiguous and probs.flags.c_contiguous
        scores = baselines.entropy_rows(probs)
        coreset_feats, _ = nn.forward(model, np.vstack([pool, labeled]))
        emb = baselines.badge_embeddings(feats, probs)
        for i, x in enumerate(pool):
            feat, prob = nn.forward(model, x)
            assert feat.tobytes() == feats[i].tobytes()
            assert prob.tobytes() == probs[i].tobytes()
            assert baselines.entropy_rows(prob[None])[0] == scores[i]
            assert coreset_feats[i].tobytes() == feat.tobytes()
            assert (baselines.badge_embeddings(feat[None], prob[None])[0].tobytes()
                    == emb[i].tobytes())
