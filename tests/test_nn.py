import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisestab import nn
from noisestab.exceptions import (ConfigError, DimensionError,
                                  InvalidStateError)


class TestForward:
    def test_identity_linear_layer_passes_input_through(self):
        model = nn.MlpModel([nn.Linear(np.eye(2))], feature_tap=1)
        feature, output = nn.forward(model, np.array([1.0, 2.0]))
        assert np.array_equal(feature, [1.0, 2.0])
        assert np.array_equal(output, [1.0, 2.0])

    def test_dead_relu_zeroes_negative_preactivation(self):
        model = nn.MlpModel([nn.Linear(np.array([[1.0, -1.0]])), nn.ReLU()],
                            feature_tap=2)
        feature, _ = nn.forward(model, np.array([0.5, 2.0]))
        # pre-activation is 0.5 - 2.0 = -1.5 < 0
        assert feature == np.array([0.0])

    def test_hand_set_232_net_matches_hand_computation(self, hand_232_model):
        x = np.array([1.0, 2.0])
        h = (0.1 * 1.0 - 0.2 * 2.0 + 0.01,
             0.3 * 1.0 + 0.4 * 2.0 - 0.02,
             -0.5 * 1.0 + 0.6 * 2.0 + 0.03)
        h = tuple(max(v, 0.0) for v in h)
        expected = (1.0 * h[0] - 1.0 * h[1] + 0.5 * h[2] + 0.05,
                    0.2 * h[0] + 0.3 * h[1] - 0.4 * h[2] - 0.06)
        feature, output = nn.forward(hand_232_model, x)
        assert np.allclose(feature, h, atol=1e-12, rtol=0)
        assert np.allclose(output, expected, atol=1e-12, rtol=0)

    def test_shape_mismatch_raises_dimension_error(self, hand_232_model):
        with pytest.raises(DimensionError):
            nn.forward(hand_232_model, np.array([1.0, 2.0, 3.0]))

    def test_eval_forward_is_pure(self, hand_232_model):
        x = np.array([0.3, -0.7])
        _, out1 = nn.forward(hand_232_model, x)
        _, out2 = nn.forward(hand_232_model, x)
        assert np.array_equal(out1, out2)

    def test_batched_rows_equal_single_forwards(self, hand_232_model):
        xs = np.array([[1.0, 2.0], [0.0, -1.0], [1.0, 2.0]])
        _, batch_out = nn.forward(hand_232_model, xs)
        for i, x in enumerate(xs):
            _, single = nn.forward(hand_232_model, x)
            assert np.array_equal(batch_out[i], single)


@st.composite
def stack_and_pool(draw):
    """A random Linear/ReLU(/Softmax) stack, a pool of inputs for it, and
    pool indices forming a subset in any order."""
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    widths = draw(st.lists(st.integers(1, 12), min_size=2, max_size=4))
    layers = []
    for n_in, n_out in zip(widths, widths[1:]):
        bias = gen.normal(size=n_out) if draw(st.booleans()) else None
        layers += [nn.Linear(gen.normal(size=(n_out, n_in)), bias), nn.ReLU()]
    layers.pop()
    if draw(st.booleans()):
        layers.append(nn.Softmax())
    pool = gen.normal(0.0, 2.0, size=(draw(st.integers(10, 40)), widths[0]))
    order = draw(st.permutations(range(len(pool))))
    return layers, pool, order[:draw(st.integers(1, len(pool)))]


class TestForwardTo:
    @given(stack_and_pool())
    @settings(max_examples=60)
    def test_rows_do_not_depend_on_the_rest_of_the_pool(self, case):
        layers, pool, subset = case
        for boundary in range(1, len(layers) + 1):
            model = nn.MlpModel(layers, feature_tap=boundary)
            full = nn.forward_to(model, pool, boundary)
            assert np.array_equal(nn.forward_to(model, pool[subset], boundary),
                                  full[subset])
            for i, x in enumerate(pool):
                assert np.array_equal(nn.forward_to(model, x, boundary), full[i])
            feature, _ = nn.forward(model, pool)
            assert np.linalg.norm(full - feature) <= 1e-12 * np.linalg.norm(feature)


class TestSoftmax:
    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_rows_sum_to_one_and_stay_positive(self, logits):
        p, _ = nn.Softmax().forward(np.array([logits]), False, None)
        assert abs(p.sum() - 1.0) < 1e-12
        assert np.all(p > 0.0)

    def test_extreme_logits_keep_strictly_positive_rows(self):
        p, _ = nn.Softmax().forward(np.array([[0.0, -800.0, 500.0]]), False, None)
        assert np.all(p > 0.0)
        assert abs(p.sum() - 1.0) < 1e-12


class TestFlattenParams:
    def test_two_by_three_linear_without_bias_has_six_params(self):
        model = nn.MlpModel([nn.Linear(np.arange(6.0).reshape(3, 2))], 1)
        assert nn.flatten_params(model).shape == (6,)

    def test_roundtrip_is_bit_exact(self, hand_232_model):
        vec = nn.flatten_params(hand_232_model)
        nn.set_params(hand_232_model, vec)
        assert np.array_equal(nn.flatten_params(hand_232_model), vec)

    def test_232_net_with_biases_counts_17_params(self, hand_232_model):
        assert nn.flatten_params(hand_232_model, nn.SCOPE_ALL).shape == (17,)
        assert hand_232_model.n_total_params == 17
        assert hand_232_model.n_feature_params == 9

    def test_order_is_layer_major_then_row_major(self):
        w1 = np.array([[1.0, 2.0], [3.0, 4.0]])
        b1 = np.array([5.0, 6.0])
        w2 = np.array([[7.0, 8.0]])
        model = nn.MlpModel([nn.Linear(w1, b1), nn.Linear(w2)], 1)
        assert np.array_equal(nn.flatten_params(model),
                              [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0])

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_write_back_roundtrip_for_random_vectors(self, seed):
        model = nn.build_mlp(3, [4], 2, seed=1)
        vec = np.random.default_rng(seed).normal(size=model.n_total_params)
        nn.set_params(model, vec)
        assert np.array_equal(nn.flatten_params(model), vec)


class TestPerturbation:
    def test_zero_delta_leaves_outputs_unchanged(self, hand_232_model):
        x = np.array([0.4, 0.9])
        _, before = nn.forward(hand_232_model, x)
        nn.apply_perturbation(hand_232_model, np.zeros(17))
        _, during = nn.forward(hand_232_model, x)
        nn.remove_perturbation(hand_232_model)
        assert np.array_equal(before, during)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_apply_then_remove_restores_bit_exactly(self, seed):
        model = nn.build_mlp(3, [5], 2, seed=7)
        before = nn.flatten_params(model)
        delta = np.random.default_rng(seed).normal(size=before.size) * 10.0
        nn.apply_perturbation(model, delta)
        nn.remove_perturbation(model)
        assert np.array_equal(nn.flatten_params(model), before)

    def test_linear_output_shift_equals_delta_dot_x(self, scalar_linear_model):
        x = np.array([1.5, -0.5, 2.0, 0.25])
        delta = np.array([0.01, -0.02, 0.03, 0.04])
        _, base = nn.forward(scalar_linear_model, x)
        nn.apply_perturbation(scalar_linear_model, delta, nn.SCOPE_FEATURE)
        _, shifted = nn.forward(scalar_linear_model, x)
        nn.remove_perturbation(scalar_linear_model)
        assert shifted[0] - base[0] == pytest.approx(delta @ x, abs=1e-15)

    def test_length_mismatch_raises(self, hand_232_model):
        with pytest.raises(DimensionError):
            nn.apply_perturbation(hand_232_model, np.zeros(5))

    def test_remove_without_apply_raises(self, hand_232_model):
        with pytest.raises(InvalidStateError):
            nn.remove_perturbation(hand_232_model)

    def test_nested_apply_raises(self, hand_232_model):
        nn.apply_perturbation(hand_232_model, np.zeros(17))
        with pytest.raises(InvalidStateError):
            nn.apply_perturbation(hand_232_model, np.zeros(17))
        nn.remove_perturbation(hand_232_model)


class TestJacobian:
    def test_linear_model_jacobian_is_input_pattern(self):
        x = np.array([0.7, -1.3, 0.2])
        model = nn.MlpModel([nn.Linear(np.zeros((2, 3)))], 1)
        jac = nn.jacobian(model, x)
        # d z_i / d W_ij = x_j inside row i's block, zero across rows
        expected = np.zeros((2, 6))
        expected[0, :3] = x
        expected[1, 3:] = x
        assert np.allclose(jac, expected, atol=1e-15)

    def test_zero_input_zero_bias_gives_zero_weight_block(self):
        model = nn.MlpModel([nn.Linear(np.ones((3, 2)))], 1)
        jac = nn.jacobian(model, np.zeros(2))
        assert np.array_equal(jac, np.zeros((3, 6)))

    def test_relu_net_matches_finite_differences(self):
        model = nn.build_mlp(2, [4], 3, task="regression", seed=11)
        x = np.array([0.8, -0.6])
        for tap, scope in ((nn.TAP_FEATURE, nn.SCOPE_FEATURE),
                           (nn.TAP_PREDICTIVE, nn.SCOPE_ALL)):
            jac = nn.jacobian(model, x, tap=tap, scope=scope)
            fd = nn.finite_diff_jacobian(model, x, tap=tap, scope=scope, h=1e-5)
            assert np.abs(jac - fd).max() < 1e-6

    def test_unknown_tap_rejected(self, hand_232_model):
        with pytest.raises(ConfigError):
            nn.jacobian(hand_232_model, np.zeros(2), tap="nowhere")

    def test_feature_tap_with_all_scope_zeroes_head_columns(self, hand_232_model):
        jac = nn.jacobian(hand_232_model, np.array([1.0, 2.0]),
                          tap=nn.TAP_FEATURE, scope=nn.SCOPE_ALL)
        assert jac.shape == (3, 17)
        assert np.array_equal(jac[:, 9:], np.zeros((3, 8)))

    def test_gradient_check_sweep_over_random_nets(self):
        from conftest import random_relu_net
        gen = np.random.default_rng(123)
        checked = 0
        while checked < 100:
            model, input_dim = random_relu_net(gen)
            x = gen.normal(size=input_dim)
            # stay away from ReLU kinks so central differences are smooth
            acts, _ = nn.forward(model, x)
            pre = x
            near_kink = False
            for layer in model.layers:
                out, _ = layer.forward(pre[None, :], False, None)
                if isinstance(layer, nn.ReLU) and np.abs(pre).min() < 1e-3:
                    near_kink = True
                    break
                pre = out[0]
            if near_kink:
                continue
            jac = nn.jacobian(model, x, tap=nn.TAP_PREDICTIVE, scope=nn.SCOPE_ALL)
            fd = nn.finite_diff_jacobian(model, x, tap=nn.TAP_PREDICTIVE,
                                         scope=nn.SCOPE_ALL, h=1e-5)
            assert np.abs(jac - fd).max() < 1e-5
            checked += 1


class TestFiniteDiff:
    def test_exact_on_linear_model(self, scalar_linear_model):
        x = np.array([0.9, -0.4, 0.2, 0.7])
        jac = nn.jacobian(scalar_linear_model, x)
        fd = nn.finite_diff_jacobian(scalar_linear_model, x, h=1e-4)
        assert np.abs(jac - fd).max() < 1e-10

    def test_halving_h_shrinks_error_on_smooth_input(self):
        # a softmax head makes the output nonlinear in each single parameter
        # coordinate; a bare Linear/ReLU stack is coordinate-wise linear and
        # central differences would be exact regardless of h
        model = nn.build_mlp(2, [4], 2, task="classification", seed=3)
        x = np.array([0.9, 0.7])
        jac = nn.jacobian(model, x, tap=nn.TAP_PREDICTIVE, scope=nn.SCOPE_ALL)
        errs = []
        for h in (1e-2, 5e-3, 2.5e-3):
            fd = nn.finite_diff_jacobian(model, x, tap=nn.TAP_PREDICTIVE,
                                         scope=nn.SCOPE_ALL, h=h)
            errs.append(np.abs(fd - jac).max())
        assert errs[0] > errs[1] > errs[2]

    def test_constant_output_model_gives_zero_matrix(self):
        # bias-free net at x = 0 stays 0 for every parameter value
        model = nn.MlpModel([nn.Linear(np.ones((3, 2))), nn.ReLU(),
                             nn.Linear(np.ones((2, 3)))], 2)
        fd = nn.finite_diff_jacobian(model, np.zeros(2), tap=nn.TAP_PREDICTIVE,
                                     scope=nn.SCOPE_ALL, h=1e-4)
        assert np.array_equal(fd, np.zeros_like(fd))

    def test_nonpositive_h_rejected(self, scalar_linear_model):
        with pytest.raises(ConfigError):
            nn.finite_diff_jacobian(scalar_linear_model, np.zeros(4), h=0.0)


class TestTrain:
    def test_zero_learning_rate_freezes_parameters(self):
        model = nn.build_mlp(2, [4], 2, seed=5)
        before = nn.flatten_params(model)
        cfg = nn.TrainConfig(optimizer="sgd", lr=0.0, epochs=4, batch_size=4,
                             loss="cross_entropy", seed=9)
        xs = np.random.default_rng(0).normal(size=(12, 2))
        ys = np.array([0, 1] * 6)
        curve = nn.train(model, (xs, ys), cfg)
        assert np.array_equal(nn.flatten_params(model), before)
        assert all(v == curve[0] for v in curve)

    def test_single_sgd_step_matches_closed_form(self):
        w = np.array([[0.3, -0.2]])
        b = np.array([0.1])
        model = nn.MlpModel([nn.Linear(w.copy(), b.copy())], 1)
        xs = np.array([[1.0, 2.0], [-0.5, 0.4], [0.2, 0.2]])
        ys = np.array([1.0, -0.3, 0.8])
        lr = 0.05
        cfg = nn.TrainConfig(optimizer="sgd", lr=lr, epochs=1,
                             batch_size=3, loss="squared_error", seed=0)
        nn.train(model, (xs, ys), cfg)
        # closed form: theta - lr * grad of mean per-example squared error
        residual = xs @ w[0] + b[0] - ys
        grad_w = 2.0 * residual @ xs / 3.0
        grad_b = 2.0 * residual.sum() / 3.0
        expected = np.concatenate([w[0] - lr * grad_w, [b[0] - lr * grad_b]])
        assert np.abs(nn.flatten_params(model) - expected).max() < 1e-12

    def test_separable_blobs_loss_decreases(self):
        gen = np.random.default_rng(2)
        xs = np.vstack([gen.normal(-2.0, 0.5, size=(40, 2)),
                        gen.normal(2.0, 0.5, size=(40, 2))])
        ys = np.array([0] * 40 + [1] * 40)
        model = nn.build_mlp(2, [8], 2, seed=4)
        cfg = nn.TrainConfig(optimizer="adam", lr=0.01, epochs=50,
                             batch_size=16, loss="cross_entropy", seed=1)
        curve = nn.train(model, (xs, ys), cfg)
        assert curve[-1] < curve[0]

    def test_empty_labeled_set_with_epochs_raises(self):
        model = nn.build_mlp(2, [4], 2, seed=5)
        with pytest.raises(InvalidStateError):
            nn.train(model, [], nn.TrainConfig(epochs=1))

    def test_same_seed_reproduces_parameters_bit_exactly(self):
        gen = np.random.default_rng(6)
        xs = gen.normal(size=(30, 3))
        ys = gen.integers(0, 2, size=30)
        results = []
        for _ in range(2):
            model = nn.build_mlp(3, [6], 2, dropout=0.2, seed=8)
            cfg = nn.TrainConfig(optimizer="adam", lr=0.01, epochs=10,
                                 batch_size=8, loss="cross_entropy", seed=21)
            nn.train(model, (xs, ys), cfg)
            results.append(nn.flatten_params(model))
        assert np.array_equal(results[0], results[1])

    def test_pair_list_input_matches_array_input(self):
        xs = np.array([[0.1, 0.2], [0.3, -0.1], [0.5, 0.6], [-0.2, 0.4]])
        ys = np.array([0, 1, 1, 0])
        cfg = nn.TrainConfig(optimizer="sgd", lr=0.1, epochs=3, batch_size=2,
                             loss="cross_entropy", seed=3)
        m1 = nn.build_mlp(2, [4], 2, seed=10)
        m2 = nn.build_mlp(2, [4], 2, seed=10)
        nn.train(m1, (xs, ys), cfg)
        nn.train(m2, list(zip(xs, ys)), cfg)
        assert np.array_equal(nn.flatten_params(m1), nn.flatten_params(m2))


class TestDropout:
    def test_eval_mode_is_identity(self):
        layer = nn.Dropout(0.4)
        x = np.random.default_rng(0).normal(size=(5, 7))
        out, _ = layer.forward(x, False, None)
        assert np.array_equal(out, x)

    def test_inverted_scaling_preserves_mean(self):
        layer = nn.Dropout(0.3)
        gen = np.random.default_rng(1)
        x = np.ones((200, 50))
        out, _ = layer.forward(x, True, gen)
        kept = out[out > 0]
        assert np.allclose(kept, 1.0 / 0.7)
        assert abs(out.mean() - 1.0) < 0.02

    def test_train_mode_without_rng_raises(self):
        with pytest.raises(InvalidStateError):
            nn.Dropout(0.5).forward(np.ones((2, 2)), True, None)


class TestCheckpoint:
    def test_roundtrip_is_bit_exact(self, tmp_path):
        model = nn.build_mlp(3, [5], 2, dropout=0.1, seed=17)
        path = tmp_path / "model.json"
        nn.save_model(model, path)
        loaded = nn.load_model(path)
        assert np.array_equal(nn.flatten_params(loaded), nn.flatten_params(model))
        assert loaded.feature_tap == model.feature_tap
        assert [l.spec() for l in loaded.layers] == [l.spec() for l in model.layers]

    def test_unknown_version_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format_version": 99, "layers": [],
                                    "feature_tap": 1, "params": []}))
        with pytest.raises(ConfigError):
            nn.load_model(path)


class TestModelCopy:
    def test_copies_are_independent(self, hand_232_model):
        clone = hand_232_model.copy()
        nn.apply_perturbation(clone, np.ones(17))
        assert not np.array_equal(nn.flatten_params(clone),
                                  nn.flatten_params(hand_232_model))
        nn.remove_perturbation(clone)
        assert np.array_equal(nn.flatten_params(clone),
                              nn.flatten_params(hand_232_model))
