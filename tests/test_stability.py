import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from noisestab import nn, stability
from noisestab.exceptions import (ConfigError, DimensionError, InvalidStateError,
                                  NonFiniteError)
from noisestab.stability import (NoiseConfig, embedding, perturbation_set,
                                 pool_embeddings, sample_directions)
from oracles import deviation_block


@pytest.fixture
def linear_model():
    # scalar bias-free linear map; inputs are kept small-norm so the
    # float cancellation in (f(theta+d) - f(theta)) / (zeta*|theta|) stays
    # far below the closed-form tolerances even at zeta = 1e-6
    return nn.MlpModel([nn.Linear(np.array([[0.6, -0.8, 0.3, 0.5]]))], 1)


def feature_cfg(**kw):
    kw.setdefault("tap", nn.TAP_FEATURE)
    return NoiseConfig(**kw)


def reference_deviations(model, xs, pset, ks):
    """The per-direction deviation kernel the chunked one replaced: one apply,
    forward and restore per direction. Kept as the oracle the chunked kernel
    must match bit for bit."""
    boundary = model.tap_boundary(pset.tap)
    base = nn.forward_to(model, xs, boundary)
    out = np.empty((base.shape[0], len(ks), base.shape[1]))
    for i, k in enumerate(ks):
        nn.apply_perturbation(model, pset.magnitude * pset.directions[k], pset.tap)
        try:
            perturbed = nn.forward_to(model, xs, boundary)
        finally:
            nn.remove_perturbation(model)
        out[:, i, :] = (perturbed - base) / pset.magnitude
    return out


def per_direction_entries(model, pset, n_rows):
    """What one direction of a chunk is charged against the entry budget."""
    boundary = model.tap_boundary(pset.tap)
    widest = max(l.weight.shape[0] for l in model.layers[:boundary]
                 if isinstance(l, nn.Linear))
    return n_rows * widest + pset.n


class TestSampleDirections:
    def test_rows_are_unit_norm(self):
        u = sample_directions(17, 64, seed=3)
        assert u.shape == (64, 17)
        norms = np.linalg.norm(u, axis=1)
        assert np.abs(norms - 1.0).max() < 1e-12

    def test_same_seed_reproduces_directions(self):
        a = sample_directions(9, 21, seed=5)
        b = sample_directions(9, 21, seed=5)
        assert np.array_equal(a, b)

    def test_zero_dimension_rejected(self):
        with pytest.raises(ConfigError):
            sample_directions(0, 4, seed=0)

    @pytest.mark.parametrize("n,samplings", [(10, 5), (10, 10000), (1, 70000),
                                             (40000, 2)])
    def test_bits_equal_the_whole_array_division(self, n, samplings):
        # the norms are taken in blocks of rows; K=10000 at n=10 and K=70000
        # at n=1 span several blocks, and n=40000 puts one row in a block
        gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(8)))
        t = gen.standard_normal((samplings, n))
        expected = t / np.linalg.norm(t, axis=1, keepdims=True)
        assert sample_directions(n, samplings, seed=8).tobytes() == expected.tobytes()

    def test_peak_memory_stays_near_the_result(self):
        # whole-array t * t and t / norms temporaries used to double the peak
        tracemalloc.start()
        try:
            u = sample_directions(10, 100000, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.3 * u.nbytes

    def test_second_moment_approaches_isotropy(self):
        # (1/K) sum u u^T -> I/n; modest K here, the tight version lives in
        # the theory checks
        u = sample_directions(10, 20000, seed=11)
        m = (u.T @ u) / u.shape[0]
        target = np.eye(10) / 10
        rel = np.linalg.norm(m - target) / np.linalg.norm(target)
        assert rel < 0.2


class TestNoiseConfig:
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
        assert np.allclose(emb, np.sqrt(4.0) * deviation_block(linear_model, x, pset, 0))

    def test_vector_length_is_samplings_times_width(self):
        model = nn.build_mlp(3, [10], 10, task="regression", seed=0)
        cfg = feature_cfg(samplings=30, seed=1)
        emb = embedding(model, np.array([0.5, -0.5, 1.0]),
                        perturbation_set(model, cfg))
        assert emb.shape == (300,)

    def test_matches_per_block_reference(self):
        model = nn.build_mlp(2, [6], 3, task="classification", seed=5)
        x = np.array([0.7, -0.9])
        cfg = NoiseConfig(samplings=5, seed=13, tap=nn.TAP_PREDICTIVE)
        pset = perturbation_set(model, cfg)
        scaled_blocks = embedding(model, x, pset).reshape(5, -1)
        for k in range(5):
            assert np.array_equal(scaled_blocks[k], np.sqrt(pset.n / 5)
                                  * deviation_block(model, x, pset, k))

    def test_linear_model_vector_is_scaled_projection(self, linear_model):
        # elementwise: vector entry k equals sqrt(n/K) * (u_k . x)
        x = np.array([0.06, 0.08, 0.0, 0.0])
        pset = perturbation_set(linear_model, feature_cfg(samplings=12, seed=3))
        emb = embedding(linear_model, x, pset)
        expected = np.sqrt(4.0 / 12.0) * (pset.directions @ x)
        assert np.abs(emb - expected).max() < 1e-10

    def test_mean_squared_norm_tracks_jacobian_frobenius(self):
        model = nn.build_mlp(2, [8], 3, task="classification", seed=2)
        x = np.array([0.4, -1.2])
        cfg = NoiseConfig(zeta=1e-4, samplings=4000, seed=3,
                          tap=nn.TAP_PREDICTIVE)
        emb = embedding(model, x, perturbation_set(model, cfg))
        jac = nn.jacobian(model, x, tap=nn.TAP_PREDICTIVE)
        frob2 = float((jac * jac).sum())
        assert abs(float(emb @ emb) - frob2) / frob2 < 0.05


class TestUncertaintyScore:
    # the score is the embedding's Euclidean length
    def test_zero_embedding_scores_zero(self, linear_model):
        # a bias-free linear map sends the origin to zero under every
        # perturbation, so the embedding there is zero and so is its score
        pset = perturbation_set(linear_model, feature_cfg(samplings=16, seed=8))
        e = embedding(linear_model, np.zeros(4), pset)
        assert not e.any()
        assert np.linalg.norm(e) == 0.0

    def test_score_is_absolutely_homogeneous(self, linear_model):
        pset = perturbation_set(linear_model, feature_cfg(samplings=16, seed=8))
        x = np.array([0.05, 0.02, -0.03, 0.04])
        s1 = np.linalg.norm(embedding(linear_model, x, pset))
        s2 = np.linalg.norm(embedding(linear_model, -2.5 * x, pset))
        assert s2 == pytest.approx(2.5 * s1)

    def test_linear_model_score_scales_with_input(self, linear_model):
        pset = perturbation_set(linear_model, feature_cfg(samplings=16, seed=8))
        x = np.array([0.05, 0.02, -0.03, 0.04])
        s1 = np.linalg.norm(embedding(linear_model, x, pset))
        s2 = np.linalg.norm(embedding(linear_model, 2.0 * x, pset))
        assert abs(s2 - 2.0 * s1) < 1e-10


class TestPoolEmbeddings:
    @pytest.fixture
    def trained_model(self):
        return nn.build_mlp(3, [8], 2, task="classification", seed=21)

    def test_identical_examples_get_identical_embeddings(self, trained_model):
        pool = np.array([[0.5, -0.2, 0.8], [1.0, 0.0, -1.0], [0.5, -0.2, 0.8]])
        embs = pool_embeddings(trained_model, pool, NoiseConfig(samplings=6, seed=2))
        assert np.array_equal(embs[0], embs[2])

    def test_permuting_pool_permutes_embeddings(self, trained_model):
        gen = np.random.default_rng(3)
        pool = gen.normal(size=(7, 3))
        perm = gen.permutation(7)
        cfg = NoiseConfig(samplings=5, seed=4)
        base = pool_embeddings(trained_model, pool, cfg)
        shuffled = pool_embeddings(trained_model, pool[perm], cfg)
        for i, j in enumerate(perm):
            assert np.array_equal(shuffled[i], base[j])

    @pytest.mark.parametrize("pool_size", [1, 9, 50])
    @pytest.mark.parametrize("directions_per_chunk", [None, 1, 3],
                             ids=["default_budget", "1_per_chunk", "3_per_chunk"])
    def test_one_base_forward_then_one_per_chunk_over_the_whole_pool(
            self, trained_model, monkeypatch, pool_size, directions_per_chunk):
        cfg = NoiseConfig(samplings=7, seed=6)
        entries = per_direction_entries(trained_model,
                                        perturbation_set(trained_model, cfg),
                                        pool_size)
        if directions_per_chunk is None:  # the default budget
            chunks = -(-7 // max(1, stability._CHUNK_ENTRIES // entries))
        else:
            monkeypatch.setattr(stability, "_CHUNK_ENTRIES",
                                directions_per_chunk * entries)
            chunks = -(-7 // directions_per_chunk)
        calls = []
        forward_to = nn.forward_to

        def counting(model, x, boundary):
            calls.append(np.shape(x))
            return forward_to(model, x, boundary)

        monkeypatch.setattr(nn, "forward_to", counting)
        pool = np.random.default_rng(5).normal(size=(pool_size, 3))
        embs = pool_embeddings(trained_model, pool, cfg)
        assert len(embs) == pool_size
        assert calls == [(pool_size, 3)] * (1 + chunks)

    def test_model_parameters_untouched(self, trained_model):
        before = nn.flatten_params(trained_model)
        pool_embeddings(trained_model, np.ones((4, 3)), NoiseConfig(samplings=3, seed=7))
        assert np.array_equal(nn.flatten_params(trained_model), before)

    def test_empty_pool_returns_zero_row_matrix(self, trained_model):
        embs = pool_embeddings(trained_model, np.zeros((0, 3)),
                               NoiseConfig(samplings=3, seed=8))
        assert embs.shape == (0, 3 * 2)

    def test_single_example_vector_rejected(self, trained_model):
        with pytest.raises(DimensionError, match="embedding"):
            pool_embeddings(trained_model, np.zeros(3), NoiseConfig(samplings=3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_row_raises_naming_it(self, trained_model, bad):
        # ReLU maps NaN to 0.0, so such a row used to get an ordinary,
        # finite embedding
        pool = np.random.default_rng(9).normal(size=(6, 3))
        pool[3, 0] = bad
        with pytest.raises(NonFiniteError, match="pool row 3 "):
            pool_embeddings(trained_model, pool, NoiseConfig(samplings=3, seed=1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("what", ["embedding"])
    def test_non_finite_single_example_raises_naming_it(self, trained_model,
                                                        bad, what):
        # the single-example path of the theory checks used to return a
        # finite vector for such an input
        pset = stability.perturbation_set(trained_model,
                                          NoiseConfig(samplings=3, seed=1))
        x = np.array([0.5, bad, -0.2])
        with pytest.raises(NonFiniteError, match=f"{what} input row 0 "):
            embedding(trained_model, x, pset)

    @given(pool_size=st.integers(0, 12), samplings=st.integers(1, 6),
           tap=st.sampled_from([nn.TAP_FEATURE, nn.TAP_PREDICTIVE]),
           seed=st.integers(0, 2**32 - 1))
    @example(pool_size=0, samplings=3, tap=nn.TAP_PREDICTIVE, seed=0)
    @example(pool_size=1, samplings=3, tap=nn.TAP_FEATURE, seed=1)
    @settings(max_examples=30)
    def test_rows_equal_single_example_embeddings(self, pool_size, samplings,
                                                  tap, seed):
        model = nn.build_mlp(3, [5], 3, task="classification", seed=seed)
        pool = np.random.default_rng(seed).normal(size=(pool_size, 3))
        cfg = NoiseConfig(samplings=samplings, seed=seed, tap=tap)
        embs = pool_embeddings(model, pool, cfg)
        width = 5 if tap == nn.TAP_FEATURE else 3
        assert embs.shape == (pool_size, samplings * width)
        pset = perturbation_set(model, cfg)
        scale = np.sqrt(pset.n / samplings)
        for i, x in enumerate(pool):
            assert np.array_equal(embs[i], embedding(model, x, pset))
            blocks = [deviation_block(model, x, pset, k) for k in range(samplings)]
            assert np.array_equal(embs[i], scale * np.concatenate(blocks))

    @given(pool_size=st.sampled_from([0, 1, 4, 6000]), samplings=st.integers(1, 9),
           tap=st.sampled_from([nn.TAP_FEATURE, nn.TAP_PREDICTIVE]),
           bias=st.booleans(), dropout=st.sampled_from([0.0, 0.3]),
           budget=st.sampled_from(["one", "few_rows", "all", "default"]),
           seed=st.integers(0, 2**32 - 1))
    @example(pool_size=6000, samplings=9, tap=nn.TAP_FEATURE, bias=True,
             dropout=0.3, budget="default", seed=0)
    @example(pool_size=4, samplings=9, tap=nn.TAP_PREDICTIVE, bias=True,
             dropout=0.3, budget="few_rows", seed=2)
    @example(pool_size=0, samplings=5, tap=nn.TAP_PREDICTIVE, bias=False,
             dropout=0.0, budget="one", seed=1)
    @settings(max_examples=60)
    def test_chunked_kernel_matches_per_direction_reference(
            self, pool_size, samplings, tap, bias, dropout, budget, seed):
        model = nn.build_mlp(3, [6, 5], 4, dropout=dropout, bias=bias, seed=seed)
        xs = np.random.default_rng(seed).normal(size=(pool_size, 3))
        pset = perturbation_set(model, NoiseConfig(samplings=samplings, seed=seed,
                                                   tap=tap))
        # 6000 rows of width 6 are past the default budget on their own: one
        # direction per pass; "few_rows" fits three single-row directions
        patched = {"one": 1, "few_rows": 3 * (6 + pset.n),
                   "all": samplings * per_direction_entries(model, pset, pool_size),
                   "default": None}[budget]
        before = nn.flatten_params(model)
        expected = reference_deviations(model, xs, pset, range(samplings))
        with pytest.MonkeyPatch.context() as mp:
            if patched is not None:
                mp.setattr(stability, "_CHUNK_ENTRIES", patched)
            chunked = stability._deviations(model, xs, pset, pset.directions)
        assert chunked.shape == expected.shape
        assert np.array_equal(chunked, expected)
        assert np.array_equal(nn.flatten_params(model), before)

    def test_embeddings_independent_of_pool_composition(self, trained_model):
        cfg = NoiseConfig(samplings=4, seed=9)
        x = np.array([0.1, 0.2, 0.3])
        alone = pool_embeddings(trained_model, x[None, :], cfg)[0]
        crowd = pool_embeddings(
            trained_model, np.vstack([np.eye(3), x[None, :]]), cfg)[3]
        assert np.array_equal(alone, crowd)


class TestZetaRobustness:
    def test_score_ranking_stable_across_good_band(self):
        from noisestab import TrainConfig, gen_blobs, train

        ds = gen_blobs(60, 3, 4, centers_seed=5, noise_std=1.5, seed=6)
        model = nn.build_mlp(4, [12], 3, seed=7)
        train(model, (ds.inputs, ds.targets),
              TrainConfig(optimizer="adam", lr=0.01, epochs=40, batch_size=32,
                          seed=8))
        pool = ds.inputs[:80]
        scores = {}
        for zeta in (1e-4, 1e-2):
            cfg = NoiseConfig(zeta=zeta, samplings=30, seed=10)
            scores[zeta] = np.linalg.norm(pool_embeddings(model, pool, cfg),
                                          axis=1)
        # Spearman's rho: the Pearson correlation of the ranks (no ties here)
        ranks = [np.argsort(np.argsort(scores[zeta])) for zeta in (1e-4, 1e-2)]
        rho = np.corrcoef(ranks[0], ranks[1])[0, 1]
        assert rho > 0.9

