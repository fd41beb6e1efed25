import numpy as np
import pytest

from noisestab import nn, stability
from noisestab.exceptions import ConfigError, InvalidStateError
from noisestab.stability import (DeviationEmbedding, NoiseConfig,
                                 deviation_block, dump_embeddings, embedding,
                                 perturbation_set, pool_embeddings,
                                 sample_directions, uncertainty_score)


@pytest.fixture
def linear_model():
    # scalar bias-free linear map; inputs are kept small-norm so the
    # float cancellation in (f(theta+d) - f(theta)) / (zeta*|theta|) stays
    # far below the closed-form tolerances even at zeta = 1e-6
    return nn.MlpModel([nn.Linear(np.array([[0.6, -0.8, 0.3, 0.5]]))], 1)


def feature_cfg(**kw):
    kw.setdefault("tap", nn.TAP_FEATURE)
    return NoiseConfig(**kw)


class TestSampleDirections:
    def test_rows_are_unit_norm(self):
        pset = sample_directions(17, 64, seed=3)
        norms = np.linalg.norm(pset.directions, axis=1)
        assert np.abs(norms - 1.0).max() < 1e-12

    def test_same_seed_reproduces_directions(self):
        a = sample_directions(9, 21, seed=5).directions
        b = sample_directions(9, 21, seed=5).directions
        assert np.array_equal(a, b)

    def test_zero_dimension_rejected(self):
        with pytest.raises(ConfigError):
            sample_directions(0, 4, seed=0)

    def test_second_moment_approaches_isotropy(self):
        # (1/K) sum u u^T -> I/n; modest K here, the tight version lives in
        # the theory checks
        u = sample_directions(10, 20000, seed=11).directions
        m = (u.T @ u) / u.shape[0]
        target = np.eye(10) / 10
        rel = np.linalg.norm(m - target) / np.linalg.norm(target)
        assert rel < 0.2


class TestNoiseConfig:
    def test_tap_determines_scope(self):
        assert NoiseConfig(tap=nn.TAP_FEATURE).scope == nn.SCOPE_FEATURE
        assert NoiseConfig(tap=nn.TAP_PREDICTIVE).scope == nn.SCOPE_ALL
        assert NoiseConfig(tap=nn.TAP_LOGITS).scope == nn.SCOPE_ALL

    def test_contradictory_scope_rejected(self):
        with pytest.raises(ConfigError):
            NoiseConfig(tap=nn.TAP_FEATURE, scope=nn.SCOPE_ALL)

    def test_invalid_magnitude_rejected(self):
        with pytest.raises(ConfigError):
            NoiseConfig(zeta=0.0)
        with pytest.raises(ConfigError):
            NoiseConfig(samplings=0)


class TestDeviationBlock:
    def test_linear_model_block_equals_direction_dot_x(self, linear_model):
        x = np.array([0.06, 0.08, 0.0, 0.0])
        for zeta in (1e-6, 1e-3, 1.0):
            pset = perturbation_set(linear_model,
                                    feature_cfg(zeta=zeta, samplings=8, seed=2))
            for k in range(8):
                block = deviation_block(linear_model, x, pset, k)
                assert abs(block[0] - pset.directions[k] @ x) < 1e-10

    def test_blocks_are_deterministic(self, linear_model):
        x = np.array([0.3, -0.2, 0.5, 0.1])
        pset = perturbation_set(linear_model, feature_cfg(samplings=4, seed=9))
        b1 = deviation_block(linear_model, x, pset, 2)
        b2 = deviation_block(linear_model, x, pset, 2)
        assert np.array_equal(b1, b2)

    def test_zeta_cancels_for_linear_maps(self, linear_model):
        x = np.array([0.06, 0.08, 0.0, 0.0])
        blocks = []
        for zeta in (1e-6, 1e-3, 1.0):
            pset = perturbation_set(linear_model,
                                    feature_cfg(zeta=zeta, samplings=3, seed=4))
            blocks.append(np.concatenate(
                [deviation_block(linear_model, x, pset, k) for k in range(3)]))
        assert np.abs(blocks[0] - blocks[1]).max() < 1e-10
        assert np.abs(blocks[1] - blocks[2]).max() < 1e-10

    def test_parameters_restored_bit_exactly(self, linear_model):
        before = nn.flatten_params(linear_model)
        pset = perturbation_set(linear_model, feature_cfg(samplings=2, seed=1))
        deviation_block(linear_model, np.array([1.0, 2.0, 3.0, 4.0]), pset, 0)
        assert np.array_equal(nn.flatten_params(linear_model), before)

    def test_zero_norm_parameters_rejected(self):
        model = nn.MlpModel([nn.Linear(np.zeros((1, 3)))], 1)
        with pytest.raises(InvalidStateError):
            perturbation_set(model, feature_cfg())


class TestEmbedding:
    def test_single_sampling_scales_by_sqrt_n(self, linear_model):
        x = np.array([0.2, -0.4, 0.1, 0.3])
        pset = perturbation_set(linear_model, feature_cfg(samplings=1, seed=6))
        emb = embedding(linear_model, x, pset)
        assert np.allclose(emb.vector, np.sqrt(4.0) * emb.blocks[0])

    def test_vector_length_is_samplings_times_width(self):
        model = nn.build_mlp(3, [10], 10, task="regression", seed=0)
        cfg = feature_cfg(samplings=30, seed=1)
        emb = embedding(model, np.array([0.5, -0.5, 1.0]),
                        perturbation_set(model, cfg))
        assert emb.vector.shape == (300,)
        assert emb.blocks.shape == (30, 10)

    def test_matches_per_block_reference(self):
        model = nn.build_mlp(2, [6], 3, task="classification", seed=5)
        x = np.array([0.7, -0.9])
        cfg = NoiseConfig(samplings=5, seed=13, tap=nn.TAP_PREDICTIVE)
        pset = perturbation_set(model, cfg)
        emb = embedding(model, x, pset)
        for k in range(5):
            assert np.array_equal(emb.blocks[k], deviation_block(model, x, pset, k))

    def test_linear_model_vector_is_scaled_projection(self, linear_model):
        # elementwise: vector entry k equals sqrt(n/K) * (u_k . x)
        x = np.array([0.06, 0.08, 0.0, 0.0])
        pset = perturbation_set(linear_model, feature_cfg(samplings=12, seed=3))
        emb = embedding(linear_model, x, pset)
        expected = np.sqrt(4.0 / 12.0) * (pset.directions @ x)
        assert np.abs(emb.vector - expected).max() < 1e-10

    def test_mean_squared_norm_tracks_jacobian_frobenius(self):
        model = nn.build_mlp(2, [8], 3, task="classification", seed=2)
        x = np.array([0.4, -1.2])
        cfg = NoiseConfig(zeta=1e-4, samplings=4000, seed=3,
                          tap=nn.TAP_PREDICTIVE)
        emb = embedding(model, x, perturbation_set(model, cfg))
        jac = nn.jacobian(model, x, tap=nn.TAP_PREDICTIVE, scope=nn.SCOPE_ALL)
        frob2 = float((jac * jac).sum())
        assert abs(float(emb.vector @ emb.vector) - frob2) / frob2 < 0.05


class TestUncertaintyScore:
    def test_zero_embedding_scores_zero(self):
        emb = DeviationEmbedding.from_blocks(np.zeros((4, 3)), n=7)
        assert uncertainty_score(emb) == 0.0

    def test_score_is_absolutely_homogeneous(self):
        blocks = np.arange(12.0).reshape(4, 3)
        e1 = DeviationEmbedding.from_blocks(blocks, n=5)
        e2 = DeviationEmbedding.from_blocks(-2.5 * blocks, n=5)
        assert uncertainty_score(e2) == pytest.approx(2.5 * uncertainty_score(e1))

    def test_linear_model_score_scales_with_input(self, linear_model):
        pset = perturbation_set(linear_model, feature_cfg(samplings=16, seed=8))
        x = np.array([0.05, 0.02, -0.03, 0.04])
        s1 = uncertainty_score(embedding(linear_model, x, pset))
        s2 = uncertainty_score(embedding(linear_model, 2.0 * x, pset))
        assert abs(s2 - 2.0 * s1) < 1e-10


class TestPoolEmbeddings:
    @pytest.fixture
    def trained_model(self):
        return nn.build_mlp(3, [8], 2, task="classification", seed=21)

    def test_identical_examples_get_identical_embeddings(self, trained_model):
        pool = np.array([[0.5, -0.2, 0.8], [1.0, 0.0, -1.0], [0.5, -0.2, 0.8]])
        embs = pool_embeddings(trained_model, pool, NoiseConfig(samplings=6, seed=2))
        assert np.array_equal(embs[0].vector, embs[2].vector)

    def test_permuting_pool_permutes_embeddings(self, trained_model):
        gen = np.random.default_rng(3)
        pool = gen.normal(size=(7, 3))
        perm = gen.permutation(7)
        cfg = NoiseConfig(samplings=5, seed=4)
        base = pool_embeddings(trained_model, pool, cfg)
        shuffled = pool_embeddings(trained_model, pool[perm], cfg)
        for i, j in enumerate(perm):
            assert np.array_equal(shuffled[i].vector, base[j].vector)

    @pytest.mark.parametrize("pool_size", [1, 9, 50])
    def test_one_forward_per_direction_over_the_whole_pool(
            self, trained_model, monkeypatch, pool_size):
        calls = []
        forward_to = nn.forward_to

        def counting(model, x, boundary):
            calls.append(np.shape(x))
            return forward_to(model, x, boundary)

        monkeypatch.setattr(nn, "forward_to", counting)
        pool = np.random.default_rng(5).normal(size=(pool_size, 3))
        embs = pool_embeddings(trained_model, pool, NoiseConfig(samplings=7, seed=6))
        assert len(embs) == pool_size
        assert calls == [(pool_size, 3)] * 8

    def test_model_parameters_untouched(self, trained_model):
        before = nn.flatten_params(trained_model)
        pool_embeddings(trained_model, np.ones((4, 3)), NoiseConfig(samplings=3, seed=7))
        assert np.array_equal(nn.flatten_params(trained_model), before)

    def test_empty_pool_returns_empty_list(self, trained_model):
        assert pool_embeddings(trained_model, np.zeros((0, 3)),
                               NoiseConfig(samplings=3, seed=8)) == []

    def test_embeddings_independent_of_pool_composition(self, trained_model):
        cfg = NoiseConfig(samplings=4, seed=9)
        x = np.array([0.1, 0.2, 0.3])
        alone = pool_embeddings(trained_model, x[None, :], cfg)[0]
        crowd = pool_embeddings(
            trained_model, np.vstack([np.eye(3), x[None, :]]), cfg)[3]
        assert np.array_equal(alone.vector, crowd.vector)


class TestZetaRobustness:
    def test_score_ranking_stable_across_good_band(self):
        from scipy.stats import spearmanr

        from noisestab import TrainConfig, gen_blobs, train

        ds = gen_blobs(60, 3, 4, centers_seed=5, noise_std=1.5, seed=6)
        model = nn.build_mlp(4, [12], 3, seed=7)
        train(model, (ds.inputs, ds.targets),
              TrainConfig(optimizer="adam", lr=0.01, epochs=40, batch_size=32,
                          loss="cross_entropy", seed=8))
        pool = ds.inputs[:80]
        scores = {}
        for zeta in (1e-4, 1e-2):
            cfg = NoiseConfig(zeta=zeta, samplings=30, seed=10)
            scores[zeta] = [uncertainty_score(e)
                            for e in pool_embeddings(model, pool, cfg)]
        rho = spearmanr(scores[1e-4], scores[1e-2]).statistic
        assert rho > 0.9


class TestDump:
    def test_csv_header_records_metadata(self, tmp_path):
        model = nn.build_mlp(2, [4], 2, task="classification", seed=1)
        cfg = NoiseConfig(samplings=3, seed=5)
        embs = pool_embeddings(model, np.array([[0.1, 0.2], [0.5, -0.5]]), cfg)
        path = tmp_path / "embs.csv"
        dump_embeddings(path, embs, n=model.n_total_params, samplings=3,
                        zeta=cfg.zeta, seed=5, tap=cfg.tap)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("#")
        for token in ("n=", "K=3", "d=2", "zeta=", "seed=5", "tap=predictive"):
            assert token in lines[0]
        assert len(lines) == 3
        row = np.array([float(v) for v in lines[1].split(",")])
        assert np.array_equal(row, embs[0].vector)
