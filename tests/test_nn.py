import contextlib
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from noisestab import nn, stability
from noisestab.exceptions import (ConfigError, DataError, DimensionError,
                                  InvalidStateError, NonFiniteError)
from oracles import finite_diff_jacobian, loss_gradient, set_params


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_row_raises_naming_it(self, hand_232_model, bad):
        # ReLU maps NaN to 0.0, so such a row used to get finite outputs
        x = np.arange(8.0).reshape(4, 2)
        x[2, 1] = bad
        with pytest.raises(NonFiniteError, match="input row 2 "):
            nn.forward(hand_232_model, x)
        with pytest.raises(NonFiniteError, match="input row 0 "):
            nn.forward(hand_232_model, x[2])

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
            assert_same_bytes(feature, full)


def _reference_linear(layer, x):
    """Row-major ``Linear.infer`` as it was before the feature-major forward:
    (N, in) or (Kc, N, in) in, the products ``x[..., j] * W[..., j]`` added to
    the bias in j order, a transposed (..., N, out) view out."""
    w = layer.weight
    out = np.empty((w.shape[:-2] or x.shape[:-2]) + (w.shape[-2], x.shape[-2]))
    out[...] = 0.0 if layer.bias is None else layer.bias[..., None]
    term = np.empty_like(out)
    for w_j, x_j in zip(np.moveaxis(w, -1, 0)[..., None],
                        np.moveaxis(x, -1, 0)[..., None, :]):
        np.multiply(w_j, x_j, out=term)
        out += term
    return out.swapaxes(-1, -2)


def _reference_softmax(x):
    """Row-major ``Softmax.infer``: the max over the last axis, the
    normalizer summed column by column."""
    shifted = x - x.max(axis=-1, keepdims=True)
    np.clip(shifted, nn._SOFTMAX_MIN_SHIFTED, None, out=shifted)
    e = np.exp(shifted)
    columns = np.moveaxis(e, -1, 0)
    total = columns[0].copy()
    for column in columns[1:]:
        total += column
    return e / total[..., None]


def reference_forward_to(model, x, boundary):
    """The row-major eval forward the feature-major ``nn.forward_to``
    replaced, kept as the oracle it must match bit for bit. ``x`` is (N, D);
    the result is (N, d), or (Kc, N, d) under a stack."""
    acts = np.asarray(x, dtype=np.float64)
    for layer in model.layers[:boundary]:
        if isinstance(layer, nn.Linear):
            acts = _reference_linear(layer, acts)
        elif isinstance(layer, nn.ReLU):
            acts = np.where(acts > 0.0, acts, 0.0)
        elif isinstance(layer, nn.Softmax):
            acts = _reference_softmax(acts)
    return acts


def assert_same_bytes(got, expected):
    """Equal shape and dtype, and equal bytes in C order: tells -0.0 from 0.0
    and compares NaNs by their bits."""
    assert got.shape == expected.shape and got.dtype == expected.dtype
    assert (np.ascontiguousarray(got).tobytes()
            == np.ascontiguousarray(expected).tobytes())


# float64 values at the edges of ReLU and of the sums: signed zeros, NaNs of
# both signs, infinities, subnormals and the smallest normal
SPECIAL_VALUES = np.array([-0.0, 0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324,
                           -5e-324, 1e-310, -1e-310, 2.2250738585072014e-308,
                           -1.7976931348623157e308, 1.5, -2.5])
# rows past what nn._PASS_ENTRIES gives one direction at width 4 or more
_PAST_CHUNK_BUDGET_ROWS = nn._PASS_ENTRIES // 4 + 1


class TestFeatureMajorForward:
    @given(depth=st.integers(0, 2), width=st.integers(1, 12),
           dim=st.integers(1, 4), task=st.sampled_from(["classification",
                                                        "regression"]),
           classes=st.integers(2, 5), bias=st.booleans(),
           dropout=st.sampled_from([0.0, 0.3]),
           n_rows=st.one_of(st.integers(0, 40), st.just(_PAST_CHUNK_BUDGET_ROWS)),
           stack=st.integers(0, 3),
           special=st.booleans(), signed_zero=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    @example(depth=1, width=6, dim=1, task="classification", classes=3,
             bias=True, dropout=0.0, n_rows=_PAST_CHUNK_BUDGET_ROWS, stack=0,
             special=True, signed_zero=True, seed=1)
    @example(depth=1, width=5, dim=2, task="classification", classes=3,
             bias=True, dropout=0.0, n_rows=9, stack=3, special=True,
             signed_zero=False, seed=4)
    @example(depth=2, width=3, dim=2, task="classification", classes=4,
             bias=True, dropout=0.3, n_rows=1, stack=1, special=False,
             signed_zero=True, seed=2)
    @example(depth=0, width=1, dim=3, task="regression", classes=2, bias=False,
             dropout=0.0, n_rows=0, stack=0, special=True, signed_zero=False,
             seed=3)
    @settings(max_examples=60)
    def test_equals_the_row_major_reference_bit_for_bit(
            self, depth, width, dim, task, classes, bias, dropout, n_rows, stack,
            special, signed_zero, seed):
        gen = np.random.default_rng(seed)
        model = nn.build_mlp(dim, [width] * depth, classes, task=task,
                             dropout=dropout, bias=bias, seed=seed)
        if signed_zero and bias:
            # a zero weight row and a -0.0 bias make a -0.0 pre-activation on
            # every row whose inputs are all negative; numpy's fmax keeps
            # one only near the end of an array, hence the last unit and row
            first = model.layers[0]
            first.weight[-1] = 0.0
            first.bias[-1] = -0.0
        xs = gen.normal(size=(n_rows, dim))
        if special:
            hit = gen.random(xs.shape) < 0.2
            xs[hit] = gen.choice(SPECIAL_VALUES, size=int(hit.sum()))
        if signed_zero:
            xs[-1:] = -1.0
        if stack:
            nn.apply_perturbation(
                model, 0.1 * gen.normal(size=(stack, model.n_params())))
        with np.errstate(all="ignore"):
            for tap in (nn.TAP_FEATURE, nn.TAP_PREDICTIVE):
                boundary = model.tap_boundary(tap)
                assert_same_bytes(nn.forward_to(model, xs, boundary),
                                  reference_forward_to(model, xs, boundary))

    @pytest.mark.parametrize("size", [1, 3, 8, 16, 100, 1001])
    @pytest.mark.parametrize("transposed", [False, True])
    def test_fmax_plus_zero_is_where_byte_for_byte(self, size, transposed):
        # ReLU.infer keeps the bits of np.where(x > 0.0, x, 0.0) only because
        # of this numpy fact: fmax maps NaN to 0.0, and the + 0.0 turns a -0.0
        # that fmax keeps on some array lengths into +0.0
        x = np.resize(SPECIAL_VALUES, size)
        if transposed:
            x = np.resize(SPECIAL_VALUES, (size, 3)).T
        expected = np.where(x > 0.0, x, 0.0)
        assert_same_bytes(np.fmax(x, 0.0) + 0.0, expected)
        assert_same_bytes(nn.ReLU().infer(x), expected)


@contextlib.contextmanager
def caller_bufsize(size):
    """Run the block with numpy's ufunc buffer at ``size``, as a caller might
    have set it, and put the previous size back afterwards."""
    previous = np.setbufsize(size)
    try:
        yield
    finally:
        np.setbufsize(previous)


# numpy's default buffer, one below the eval pass's and one above every
# array of the shapes below
CALLER_BUFSIZES = [16, 8192, 2**20]


def eval_case(shape):
    """(model, pool, tap) of a pool embedding shape: blobs-sized pools
    through 8->24->4 at the predictive tap, regression-sized pools through
    10->32->16->1 at the feature tap."""
    gen = np.random.default_rng(17)
    if shape == "predictive_1990":
        return (nn.build_mlp(8, [24], 4, seed=3), gen.normal(0.0, 2.0, (1990, 8)),
                nn.TAP_PREDICTIVE)
    return (nn.build_mlp(10, [32, 16], 1, task="regression", seed=4),
            gen.normal(size=(543, 10)), nn.TAP_FEATURE)


class TestEvalBufferSize:
    @pytest.mark.parametrize("shape", ["predictive_1990", "feature_543"])
    def test_outputs_and_the_callers_buffer_do_not_depend_on_it(self, shape):
        model, pool, tap = eval_case(shape)
        boundary = model.tap_boundary(tap)
        cfg = stability.NoiseConfig(samplings=3, seed=5, tap=tap)
        stack = 1e-3 * np.random.default_rng(6).normal(
            size=(2, model.n_params(tap)))
        outputs = []
        for size in CALLER_BUFSIZES:
            got = []
            with caller_bufsize(size):
                got.append(nn.forward_to(model, pool, boundary))
                assert np.getbufsize() == size
                nn.apply_perturbation(model, stack, tap)
                try:
                    got.append(nn.forward_to(model, pool, boundary))
                    assert np.getbufsize() == size
                finally:
                    nn.remove_perturbation(model)
                got.extend(nn.forward(model, pool))
                assert np.getbufsize() == size
                got.append(stability.pool_embeddings(model, pool, cfg))
                assert np.getbufsize() == size
            outputs.append([a.tobytes() for a in got])
        assert outputs[1:] == outputs[:1] * (len(outputs) - 1)

    @pytest.mark.parametrize("size", CALLER_BUFSIZES)
    def test_callers_buffer_is_restored_when_the_pass_raises(self, hand_232_model,
                                                             size):
        x = np.array([[0.4, 0.9], [-0.3, 0.2]])
        with caller_bufsize(size):
            nn.apply_perturbation(hand_232_model, np.ones((3, 17)))
            try:
                with pytest.raises(InvalidStateError):
                    nn.forward(hand_232_model, x)
                assert np.getbufsize() == size
            finally:
                nn.remove_perturbation(hand_232_model)
            # the width check of the first Linear raises inside the pass
            with pytest.raises(DimensionError):
                nn.forward_to(hand_232_model, np.ones((2, 3)), 1)
            assert np.getbufsize() == size

    def test_layers_run_at_the_pass_buffer_size(self):
        seen = []

        class Probe:
            n_params = 0

            def infer(self, acts):
                seen.append(np.getbufsize())
                return acts

        model = nn.MlpModel([nn.Linear(np.eye(2)), Probe(), Probe()], feature_tap=2)
        nn.forward_to(model, np.ones((3, 2)), 3)
        nn.forward(model, np.ones((3, 2)))
        assert seen == [nn._INFER_BUFSIZE] * 4


class TestBlockedPass:
    # a 5 -> 7 -> 6 -> 3 classifier: its widest activation is 7 entries a
    # column, 21 under a stack of 3 directions
    @pytest.mark.parametrize("budget,blocks,stacked_blocks", [
        (77, 4, 16),  # 50 rows: blocks of 12 and 13 columns; stacked, 3 and 4
        (1, 50, 50)],  # one column a block
        ids=["ragged", "one_column"])
    def test_blocks_keep_the_bits_of_one_pass(self, monkeypatch, budget, blocks,
                                              stacked_blocks):
        model = nn.build_mlp(5, [7, 6], 3, dropout=0.3, seed=3)
        pool = np.random.default_rng(3).normal(size=(50, 5))
        stack = 0.1 * np.random.default_rng(4).normal(size=(3, model.n_params()))
        boundaries = range(1, len(model.layers) + 1)

        def passes():
            """Every eval pass's output, and the block count under the stack."""
            got = list(nn.forward(model, pool))
            got += [nn.forward_to(model, pool, b) for b in boundaries]
            nn.apply_perturbation(model, stack)
            try:
                got += [nn.forward_to(model, pool, b) for b in boundaries]
                stacked = nn._block_count(model.layers, len(pool))
            finally:
                nn.remove_perturbation(model)
            for tap in (nn.TAP_FEATURE, nn.TAP_PREDICTIVE):
                got.append(stability.pool_embeddings(
                    model, pool, stability.NoiseConfig(samplings=4, seed=5, tap=tap)))
            return got, stacked

        whole, stacked = passes()
        assert stacked == 1
        monkeypatch.setattr(nn, "_PASS_ENTRIES", budget)
        blocked, stacked = passes()
        assert (nn._block_count(model.layers, len(pool)), stacked) == (
            blocks, stacked_blocks)
        for got, expected in zip(blocked, whole, strict=True):
            assert_same_bytes(got, expected)

    def test_blocks_are_sized_by_the_layers_not_the_input(self):
        # 1,024 columns of the 64-wide layer fill the budget; the 784-wide
        # input, copied one block at a time, does not shrink them, and a
        # pool under 2,048 columns runs whole
        layers = nn.build_mlp(784, [64], 10, seed=0).layers
        assert [nn._block_count(layers, n) for n in (0, 2047, 2048, 5000)] == [
            1, 1, 2, 4]


def _parameter_arrays(model):
    return [p for layer in model.layers if isinstance(layer, nn.Linear)
            for p in (layer.weight, layer.bias) if p is not None]


class TestOutputsOwnTheirMemory:
    # stability._deviations writes each chunk's deviations into forward_to's
    # output in place, which is safe only because of this property
    def assert_fresh(self, outputs, model, rows):
        for out in outputs:
            for owner in [rows] + _parameter_arrays(model):
                assert not np.shares_memory(out, owner)

    def passes(self, model, rows):
        """forward's two outputs and forward_to's at every boundary, for the
        pool and for its first row alone."""
        got = []
        for x in (rows, rows[0]):
            got += nn.forward(model, x)
            got += [nn.forward_to(model, x, b)
                    for b in range(1, len(model.layers) + 1)]
        return got

    # 30 rows whose widest activation is 6 entries a column, 18 under a
    # stack of 3: whole, or cut into blocks of 3 columns and, stacked, of 1
    BUDGETS = pytest.mark.parametrize("budget,blocks,stacked_blocks", [
        (nn._PASS_ENTRIES, 1, 1), (20, 10, 30)], ids=["one_block", "blocked"])

    @BUDGETS
    def test_forward_and_forward_to(self, monkeypatch, budget, blocks,
                                    stacked_blocks):
        model = nn.build_mlp(4, [6, 5], 3, seed=2)
        rows = np.random.default_rng(2).normal(size=(30, 4))
        monkeypatch.setattr(nn, "_PASS_ENTRIES", budget)
        assert nn._block_count(model.layers, len(rows)) == blocks
        self.assert_fresh(self.passes(model, rows), model, rows)

    @BUDGETS
    def test_under_an_applied_stack(self, monkeypatch, budget, blocks,
                                    stacked_blocks):
        model = nn.build_mlp(4, [6], 3, seed=2)
        rows = np.random.default_rng(2).normal(size=(30, 4))
        monkeypatch.setattr(nn, "_PASS_ENTRIES", budget)
        base = [nn.forward_to(model, rows, b) for b in (1, 2, 3, 4)]
        nn.apply_perturbation(
            model, 0.1 * np.random.default_rng(3).normal(size=(3, model.n_params())))
        try:
            assert nn._block_count(model.layers, len(rows)) == stacked_blocks
            stacked = [nn.forward_to(model, rows, b) for b in (1, 2, 3, 4)]
            self.assert_fresh(stacked, model, rows)
        finally:
            nn.remove_perturbation(model)
        assert all(a.ndim == 3 for a in stacked)
        for a, b in zip(stacked, base):
            assert not np.shares_memory(a, b)

    @pytest.mark.parametrize("layers", [
        # the Dropout after the hidden ReLU is the last layer before the tap
        lambda: nn.build_mlp(4, [6], 3, dropout=0.3, seed=2).layers,
        # a Dropout first returns the pass's own copy of the rows
        lambda: [nn.Dropout(0.3), nn.Linear(np.ones((2, 4)))]],
        ids=["after_relu", "first"])
    def test_a_dropout_before_the_tap(self, layers):
        layers = layers()
        tap = next(i for i in range(len(layers), 0, -1)
                   if isinstance(layers[i - 1], nn.Dropout))
        model = nn.MlpModel(layers, feature_tap=tap)
        rows = np.random.default_rng(2).normal(size=(30, 4))
        self.assert_fresh(self.passes(model, rows), model, rows)


class TestLinearInferEdges:
    # Linear.infer adds the first product to the bias straight into its
    # result; _reference_linear fills the result with the bias, then adds
    def assert_matches_reference(self, layer, x):
        """``x`` is row-major, (N, in) or (Kc, N, in)."""
        assert_same_bytes(layer.infer(x.swapaxes(-1, -2)),
                          _reference_linear(layer, x).swapaxes(-1, -2))

    @pytest.mark.parametrize("bias", [None, np.array([0.5, -0.0, -2.0])],
                             ids=["no_bias", "bias"])
    def test_zero_width_layer_returns_the_bias(self, bias):
        layer = nn.Linear(np.empty((3, 0)), bias)
        x = np.empty((4, 0))
        self.assert_matches_reference(layer, x)
        expected = np.zeros(3) if bias is None else bias
        assert_same_bytes(layer.infer(x.T), np.repeat(expected[:, None], 4, axis=1))

    def test_zero_width_layer_under_a_stack(self):
        layer = nn.Linear(np.empty((3, 0)), np.zeros(3))
        layer.weight = np.empty((2, 3, 0))
        layer.bias = np.array([[1.0, -0.0, 2.0], [-3.0, 4.0, -0.0]])
        self.assert_matches_reference(layer, np.empty((2, 5, 0)))

    def test_a_negative_zero_first_product_adds_to_a_positive_zero(self):
        # 0.0 + (-0.0) is +0.0: the bias-free fill gave that, and writing the
        # first product into the result would keep -0.0
        layer = nn.Linear(np.array([[-1.0, 0.0], [-0.0, 1.0]]))
        x = np.array([[0.0, -0.0], [0.0, 0.0], [2.0, -0.0]])
        self.assert_matches_reference(layer, x)
        out = layer.infer(x.T)
        assert out[:, :2].tolist() == [[0.0, 0.0], [0.0, 0.0]]
        assert not np.signbit(out[:, :2]).any()

    @pytest.mark.parametrize("bias", [False, True])
    def test_stacked_weight_and_bias_over_a_stacked_input(self, bias):
        gen = np.random.default_rng(5)
        layer = nn.Linear(gen.normal(size=(3, 4)), gen.normal(size=3) if bias else None)
        layer.weight = gen.normal(size=(2, 3, 4))
        if bias:
            layer.bias = gen.normal(size=(2, 3))
        self.assert_matches_reference(layer, gen.normal(size=(2, 7, 4)))


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
        set_params(hand_232_model, vec)
        assert np.array_equal(nn.flatten_params(hand_232_model), vec)

    def test_232_net_with_biases_counts_17_params(self, hand_232_model):
        assert nn.flatten_params(hand_232_model, nn.TAP_PREDICTIVE).shape == (17,)
        assert hand_232_model.n_params(nn.TAP_PREDICTIVE) == 17
        assert hand_232_model.n_params(nn.TAP_FEATURE) == 9

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
        vec = np.random.default_rng(seed).normal(size=model.n_params())
        set_params(model, vec)
        assert np.array_equal(nn.flatten_params(model), vec)


class TestParamViews:
    @given(seed=st.integers(0, 2**32 - 1), bias=st.booleans(),
           tap=st.sampled_from([nn.TAP_FEATURE, nn.TAP_PREDICTIVE]),
           lead=st.sampled_from([(), (1,), (3,)]))
    @settings(max_examples=60, deadline=None)
    def test_views_lay_out_the_last_axis(self, seed, bias, tap, lead):
        # lead () is an (n,) vector; (Kc,) a stack or, read as (d,), a Jacobian
        gen = np.random.default_rng(seed)
        hidden = gen.integers(1, 5, size=int(gen.integers(0, 3))).tolist()
        model = nn.build_mlp(int(gen.integers(1, 4)), hidden, int(gen.integers(1, 4)),
                             bias=bias, seed=seed)
        boundary = model.tap_boundary(tap)
        flat = np.zeros(lead + (model.n_params(tap),))
        views = nn._param_views(model, flat, tap)
        assert list(views) == [i for i, layer in enumerate(model.layers[:boundary])
                               if isinstance(layer, nn.Linear)]
        for i, (weight, b) in views.items():
            layer = model.layers[i]
            assert weight.shape == lead + layer.weight.shape
            assert np.shares_memory(weight, flat)
            assert (b is None) == (layer.bias is None)
            if b is not None:
                assert b.shape == lead + layer.bias.shape
                assert np.shares_memory(b, flat)
        # layer-major, then row-major: each layer's raveled weight, then its bias
        flat[...] = np.arange(flat.size).reshape(flat.shape)
        read = [part.reshape(lead + (-1,)) for weight, b in views.values()
                for part in (weight, b) if part is not None]
        assert np.array_equal(np.concatenate(read, axis=-1), flat)

        values = gen.normal(size=flat.shape)
        twin = model.copy()
        nn._write_params(model, values, tap)
        for k, row in enumerate(values.reshape(-1, values.shape[-1])):
            nn._write_params(twin, row, tap)
            assert np.array_equal(nn.flatten_params(twin, tap), row)
            for i, (weight, b) in views.items():
                written, alone = model.layers[i], twin.layers[i]
                # (out, in) weights from a vector, (Kc, out, in) from a stack
                assert written.weight.shape == weight.shape
                assert np.array_equal(written.weight.reshape((-1,) + alone.weight.shape)[k],
                                      alone.weight)
                assert not np.shares_memory(written.weight, values)
                if b is not None:
                    assert np.array_equal(written.bias.reshape(-1, b.shape[-1])[k],
                                          alone.bias)
                    assert not np.shares_memory(written.bias, values)


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

    @pytest.mark.parametrize("lead", [(), (3,)])
    def test_remove_puts_back_the_arrays_apply_replaced(self, lead):
        # apply never writes into a layer's own arrays; remove rebinds them
        model = nn.build_mlp(3, [5], 2, seed=7)
        owned = [(layer, layer.weight, layer.bias, layer.weight.tobytes(),
                  layer.bias.tobytes()) for layer in model.layers
                 if isinstance(layer, nn.Linear)]
        nn.apply_perturbation(model, np.ones(lead + (model.n_params(),)))
        for layer, weight, bias, weight_bytes, bias_bytes in owned:
            assert layer.weight is not weight and layer.bias is not bias
            assert weight.tobytes() == weight_bytes and bias.tobytes() == bias_bytes
        nn.remove_perturbation(model)
        assert all(layer.weight is weight and layer.bias is bias
                   for layer, weight, bias, _, _ in owned)

    def test_linear_output_shift_equals_delta_dot_x(self, scalar_linear_model):
        x = np.array([1.5, -0.5, 2.0, 0.25])
        delta = np.array([0.01, -0.02, 0.03, 0.04])
        _, base = nn.forward(scalar_linear_model, x)
        nn.apply_perturbation(scalar_linear_model, delta, nn.TAP_FEATURE)
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


def _stack_case(seed, bias, tap=nn.TAP_PREDICTIVE):
    gen = np.random.default_rng(seed)
    model = nn.build_mlp(3, [5, 4], 3, dropout=0.25 if seed % 2 else 0.0,
                         bias=bias, seed=seed)
    stack = gen.normal(size=(int(gen.integers(1, 6)), model.n_params(tap)))
    return model, stack, gen.normal(size=(int(gen.integers(0, 7)), 3))


class TestStackedPerturbation:
    @given(seed=st.integers(0, 2**32 - 1), bias=st.booleans())
    @settings(max_examples=25)
    def test_apply_then_remove_restores_bit_exactly(self, seed, bias):
        model, stack, _ = _stack_case(seed, bias)
        before = nn.flatten_params(model)
        nn.apply_perturbation(model, stack)
        assert model.n_params() == stack.shape[1]
        nn.remove_perturbation(model)
        assert np.array_equal(nn.flatten_params(model), before)
        assert all(l.weight.ndim == 2 for l in model.layers if isinstance(l, nn.Linear))

    @given(seed=st.integers(0, 2**32 - 1), bias=st.booleans(),
           tap=st.sampled_from([nn.TAP_FEATURE, nn.TAP_PREDICTIVE]))
    @settings(max_examples=40)
    def test_each_direction_has_the_bits_of_a_separate_apply(self, seed, bias, tap):
        model, stack, xs = _stack_case(seed, bias, tap)
        boundary = model.tap_boundary(tap)
        after_tap = [layer for layer in model.layers[boundary:]
                     if isinstance(layer, nn.Linear)]
        unmoved = [(layer.weight.tobytes(),
                    None if layer.bias is None else layer.bias.tobytes())
                   for layer in after_tap]
        nn.apply_perturbation(model, stack, tap)
        # the noise moves the parameters before the tap and nothing after it
        assert all(layer.weight.ndim == 2 for layer in after_tap)
        assert [(layer.weight.tobytes(),
                 None if layer.bias is None else layer.bias.tobytes())
                for layer in after_tap] == unmoved
        # each Linear before the tap holds one (out, in) weight per direction
        assert model.n_params(tap) == sum(
            layer.weight[0].size + (0 if layer.bias is None else layer.bias[0].size)
            for layer in model.layers[:boundary] if isinstance(layer, nn.Linear))
        stacked = nn.forward_to(model, xs, boundary)
        nn.remove_perturbation(model)
        assert stacked.shape == (len(stack),) + nn.forward_to(model, xs, boundary).shape
        for k, delta in enumerate(stack):
            nn.apply_perturbation(model, delta, tap)
            alone = nn.forward_to(model, xs, boundary)
            nn.remove_perturbation(model)
            assert np.array_equal(stacked[k], alone)

    def test_wrong_last_dimension_raises(self, hand_232_model):
        with pytest.raises(DimensionError):
            nn.apply_perturbation(hand_232_model, np.zeros((3, 16)))
        assert hand_232_model._pristine is None

    def test_three_dimensional_delta_raises(self, hand_232_model):
        with pytest.raises(DimensionError):
            nn.apply_perturbation(hand_232_model, np.zeros((2, 3, 17)))

    def test_second_apply_raises(self, hand_232_model):
        nn.apply_perturbation(hand_232_model, np.zeros((3, 17)))
        with pytest.raises(InvalidStateError):
            nn.apply_perturbation(hand_232_model, np.zeros((3, 17)))
        with pytest.raises(InvalidStateError):
            nn.apply_perturbation(hand_232_model, np.zeros(17))
        nn.remove_perturbation(hand_232_model)

    def test_forward_and_train_on_a_stack_raise(self, hand_232_model):
        x = np.array([[0.4, 0.9], [-0.3, 0.2]])
        nn.apply_perturbation(hand_232_model, np.ones((3, 17)))
        with pytest.raises(InvalidStateError):
            nn.forward(hand_232_model, x)
        with pytest.raises(InvalidStateError):
            nn.train(hand_232_model, (x, np.array([[0.1, 0.2], [0.3, 0.4]])),
                     nn.TrainConfig(epochs=1))
        nn.remove_perturbation(hand_232_model)
        nn.forward(hand_232_model, x)


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
        for tap in (nn.TAP_FEATURE, nn.TAP_PREDICTIVE):
            jac = nn.jacobian(model, x, tap=tap)
            fd = finite_diff_jacobian(model, x, tap=tap, h=1e-5)
            assert np.abs(jac - fd).max() < 1e-6

    def test_unknown_tap_rejected(self, hand_232_model):
        with pytest.raises(ConfigError):
            nn.jacobian(hand_232_model, np.zeros(2), tap="nowhere")

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_rejected(self, value):
        # NaN used to give an all-NaN Jacobian, an infinity a RuntimeWarning
        model = nn.build_mlp(3, [4], 2)
        with pytest.raises(NonFiniteError,
                           match="^jacobian input row 0 holds a NaN or infinite value$"):
            nn.jacobian(model, [value, 0.0, 1.0])

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
            jac = nn.jacobian(model, x, tap=nn.TAP_PREDICTIVE)
            fd = finite_diff_jacobian(model, x, tap=nn.TAP_PREDICTIVE, h=1e-5)
            assert np.abs(jac - fd).max() < 1e-5
            checked += 1


class TestFiniteDiff:
    def test_exact_on_linear_model(self, scalar_linear_model):
        x = np.array([0.9, -0.4, 0.2, 0.7])
        jac = nn.jacobian(scalar_linear_model, x)
        fd = finite_diff_jacobian(scalar_linear_model, x, h=1e-4)
        assert np.abs(jac - fd).max() < 1e-10

    def test_halving_h_shrinks_error_on_smooth_input(self):
        # a softmax head makes the output nonlinear in each single parameter
        # coordinate; a bare Linear/ReLU stack is coordinate-wise linear and
        # central differences would be exact regardless of h
        model = nn.build_mlp(2, [4], 2, task="classification", seed=3)
        x = np.array([0.9, 0.7])
        jac = nn.jacobian(model, x, tap=nn.TAP_PREDICTIVE)
        errs = []
        for h in (1e-2, 5e-3, 2.5e-3):
            fd = finite_diff_jacobian(model, x, tap=nn.TAP_PREDICTIVE, h=h)
            errs.append(np.abs(fd - jac).max())
        assert errs[0] > errs[1] > errs[2]

    def test_constant_output_model_gives_zero_matrix(self):
        # bias-free net at x = 0 stays 0 for every parameter value
        model = nn.MlpModel([nn.Linear(np.ones((3, 2))), nn.ReLU(),
                             nn.Linear(np.ones((2, 3)))], 2)
        fd = finite_diff_jacobian(model, np.zeros(2), tap=nn.TAP_PREDICTIVE,
                                  h=1e-4)
        assert np.array_equal(fd, np.zeros_like(fd))

    def test_nonpositive_h_rejected(self, scalar_linear_model):
        with pytest.raises(ConfigError):
            finite_diff_jacobian(scalar_linear_model, np.zeros(4), h=0.0)


def reference_loss(model, out, y):
    """Per-example losses and their batch-mean gradient w.r.t. the output:
    cross-entropy on class indices under a Softmax head, squared error
    otherwise."""
    b = out.shape[0]
    if isinstance(model.layers[-1], nn.Softmax):
        y = np.asarray(y, dtype=np.int64)
        p_true = out[np.arange(b), y]
        grad = np.zeros_like(out)
        grad[np.arange(b), y] = -1.0 / (b * p_true)
        return -np.log(p_true), grad
    diff = out - np.asarray(y, dtype=np.float64).reshape(b, -1)
    return (diff * diff).sum(axis=1), 2.0 * diff / b


def reference_forward(model, batch, mode, rng):
    """Every layer's training-mode (``mode == "train"``) or eval-mode forward,
    written out here rather than read from ``nn``, and what each layer's
    backward needs: the output and one cache per layer."""
    acts, caches = batch, []
    for layer in model.layers:
        if isinstance(layer, nn.Linear):
            cache = acts
            acts = acts @ layer.weight.T
            if layer.bias is not None:
                acts = acts + layer.bias
        elif isinstance(layer, nn.ReLU):
            cache = acts > 0.0
            acts = np.where(cache, acts, 0.0)
        elif isinstance(layer, nn.Dropout):
            cache = None
            if mode == "train" and layer.rate > 0.0:
                cache = (rng.random(acts.shape) >= layer.rate) / (1.0 - layer.rate)
                acts = acts * cache
        else:
            assert isinstance(layer, nn.Softmax)
            e = np.exp(np.clip(acts - acts.max(axis=1, keepdims=True), -700.0, None))
            acts = cache = e / e.sum(axis=1, keepdims=True)
        caches.append(cache)
    return acts, caches


def reference_loss_gradient(model, x, y, mode="eval", rng=None):
    """The loss gradient the in-place training step replaced, with every
    layer's forward and backward written out here: backprop through every
    layer, the Softmax included and the input gradient of the first Linear
    too, then one concatenation. Kept as the oracle ``loss_gradient`` and
    the training step must match bit for bit."""
    batch = np.atleast_2d(np.asarray(x, dtype=np.float64))
    out, caches = reference_forward(model, batch, mode, rng)
    losses, grad = reference_loss(model, out, y)
    grads = {}
    for i in range(len(model.layers) - 1, -1, -1):
        layer, cache = model.layers[i], caches[i]
        if isinstance(layer, nn.Linear):
            grads[i] = (grad.T @ cache,
                        None if layer.bias is None else grad.sum(axis=0))
            grad = grad @ layer.weight
        elif isinstance(layer, nn.Softmax):
            grad = cache * grad - cache * (grad * cache).sum(axis=1, keepdims=True)
        elif cache is not None:
            grad = grad * cache
    parts = []
    for i in range(len(model.layers)):
        if model.layers[i].n_params == 0:
            continue
        grad_w, grad_b = grads[i]
        parts.append(grad_w.ravel())
        if grad_b is not None:
            parts.append(grad_b)
    return np.concatenate(parts), losses


class _ReferenceAdam:
    """Adam (Kingma & Ba 2015) at its published constants, written out here
    rather than read from ``nn``."""

    def __init__(self, cfg, n):
        self.lr = cfg.lr
        self.m = np.zeros(n)
        self.v = np.zeros(n)
        self.t = 0

    def step(self, theta, grad):
        self.t += 1
        self.m = 0.9 * self.m + (1 - 0.9) * grad
        self.v = 0.999 * self.v + (1 - 0.999) * grad * grad
        m_hat = self.m / (1 - 0.9 ** self.t)
        v_hat = self.v / (1 - 0.999 ** self.t)
        return theta - self.lr * m_hat / (np.sqrt(v_hat) + 1e-8)


def reference_train(model, labeled, cfg):
    """The training loop the in-place one replaced: per step it flattens the
    parameters, takes a fresh concatenated gradient, builds new optimizer
    vectors and writes every layer back."""
    xs, ys = labeled
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys)
    n = xs.shape[0]
    if n == 0:
        return []
    gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(cfg.seed)))
    theta = nn.flatten_params(model)
    state = _ReferenceAdam(cfg, theta.size)
    curve = []
    for _ in range(cfg.epochs):
        order = gen.permutation(n)
        epoch_losses = np.zeros(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            grad, losses = reference_loss_gradient(model, xs[idx], ys[idx],
                                                   mode="train", rng=gen)
            epoch_losses[idx] = losses
            theta = state.step(nn.flatten_params(model), grad)
            set_params(model, theta)
        curve.append(float(epoch_losses.sum() / n))
    return curve


@st.composite
def training_case(draw):
    """A built model, an (X, y) pair for it and a TrainConfig, over both
    tasks (so both losses), bias, dropout, hidden depth 0-2,
    batch sizes that do and do not divide N or exceed it, and 0-3 epochs."""
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    task = draw(st.sampled_from(["classification", "regression"]))
    dim, out = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    if task == "classification":
        out = max(out, 2)
    hidden = draw(st.lists(st.integers(1, 9), max_size=2))
    model = nn.build_mlp(dim, hidden, out, task=task,
                         dropout=draw(st.sampled_from([0.0, 0.3])),
                         bias=draw(st.booleans()), seed=draw(st.integers(0, 99)))
    n = draw(st.integers(1, 40))
    xs = gen.normal(size=(n, dim))
    if task == "classification":
        ys = gen.integers(0, out, size=n)
    else:
        ys = gen.normal(size=n if out == 1 else (n, out))
    cfg = nn.TrainConfig(lr=draw(st.sampled_from([1e-3, 0.05])),
                         epochs=draw(st.integers(0, 3)),
                         batch_size=draw(st.integers(1, 50)),
                         seed=draw(st.integers(0, 2**32 - 1)))
    return model, (xs, ys), cfg


def _owned_parameter_arrays(model):
    arrays = []
    for layer in model.layers:
        if layer.n_params:
            arrays += [a for a in (layer.weight, layer.bias) if a is not None]
    return arrays


class TestTrain:
    def test_zero_learning_rate_freezes_parameters(self):
        model = nn.build_mlp(2, [4], 2, seed=5)
        before = nn.flatten_params(model)
        cfg = nn.TrainConfig(lr=0.0, epochs=4, batch_size=4, seed=9)
        xs = np.random.default_rng(0).normal(size=(12, 2))
        ys = np.array([0, 1] * 6)
        curve = nn.train(model, (xs, ys), cfg)
        assert np.array_equal(nn.flatten_params(model), before)
        assert all(v == curve[0] for v in curve)

    def test_single_adam_step_matches_closed_form(self):
        w = np.array([[0.3, -0.2]])
        b = np.array([0.1])
        model = nn.MlpModel([nn.Linear(w.copy(), b.copy())], 1)
        xs = np.array([[1.0, 2.0], [-0.5, 0.4], [0.2, 0.2]])
        ys = np.array([1.0, -0.3, 0.8])
        lr = 0.05
        cfg = nn.TrainConfig(lr=lr, epochs=1, batch_size=3, seed=0)
        nn.train(model, (xs, ys), cfg)
        # closed form of Adam's first step: bias correction leaves m = g and
        # v = g*g, so theta - lr * g / (|g| + eps), g the gradient of the
        # mean per-example squared error
        residual = xs @ w[0] + b[0] - ys
        grad = np.append(2.0 * residual @ xs / 3.0, 2.0 * residual.sum() / 3.0)
        expected = np.append(w[0], b[0]) - lr * grad / (np.abs(grad) + 1e-8)
        assert np.abs(nn.flatten_params(model) - expected).max() < 1e-12

    def test_separable_blobs_loss_decreases(self):
        gen = np.random.default_rng(2)
        xs = np.vstack([gen.normal(-2.0, 0.5, size=(40, 2)),
                        gen.normal(2.0, 0.5, size=(40, 2))])
        ys = np.array([0] * 40 + [1] * 40)
        model = nn.build_mlp(2, [8], 2, seed=4)
        cfg = nn.TrainConfig(optimizer="adam", lr=0.01, epochs=50,
                             batch_size=16, seed=1)
        curve = nn.train(model, (xs, ys), cfg)
        assert curve[-1] < curve[0]

    def test_empty_labeled_set_with_epochs_raises(self):
        model = nn.build_mlp(2, [4], 2, seed=5)
        with pytest.raises(InvalidStateError):
            nn.train(model, (np.zeros((0, 2)), np.zeros(0)), nn.TrainConfig(epochs=1))

    def test_target_count_must_match_rows(self):
        # extra targets used to be ignored without a word
        model = nn.build_mlp(2, [4], 2, seed=5)
        with pytest.raises(DimensionError, match=r"\(X, y\) pair"):
            nn.train(model, (np.zeros((3, 2)), np.array([0, 1, 0, 1])),
                     nn.TrainConfig(epochs=1))

    @pytest.mark.parametrize("ys,row", [([0.7, 1.3, 2.9, -1.0], "row 0 (0.7)"),
                                        ([0, 1, 2, -1], "row 3 (-1)"),
                                        ([0, 3, 1, 2], "row 1 (3)"),
                                        ([0.0, 1.0, np.nan, 2.0], "row 2 (nan)")])
    def test_softmax_targets_must_be_class_indices(self, ys, row):
        # a float target used to be truncated, and -1 to wrap to the last class
        model = nn.build_mlp(2, [4], 3, seed=0)
        before = nn.flatten_params(model)
        xs = np.zeros((4, 2))
        match = re.escape(f"target {row} is not a class index in [0, 3)")
        with pytest.raises(DataError, match=match):
            nn.train(model, (xs, ys), nn.TrainConfig(epochs=2))
        with pytest.raises(DataError, match=match):
            loss_gradient(model, xs, ys)
        assert np.array_equal(nn.flatten_params(model), before)

    def test_integral_float_targets_train_as_class_indices(self):
        xs = np.random.default_rng(4).normal(size=(9, 2))
        ys = np.array([0, 1, 2] * 3)
        cfg = nn.TrainConfig(epochs=3, batch_size=4, seed=1)
        models = [nn.build_mlp(2, [4], 3, seed=0) for _ in range(2)]
        assert nn.train(models[0], (xs, ys), cfg) == \
            nn.train(models[1], (xs, ys.astype(float)), cfg)
        assert np.array_equal(nn.flatten_params(models[0]),
                              nn.flatten_params(models[1]))

    def test_targets_are_checked_once_per_call(self, monkeypatch):
        # on the whole target array, never once per step
        calls = []
        check = nn._class_targets
        monkeypatch.setattr(nn, "_class_targets",
                            lambda model, y: (calls.append(len(y)),
                                              check(model, y))[1])
        gen = np.random.default_rng(2)
        nn.train(nn.build_mlp(2, [4], 2, seed=5),
                 (gen.normal(size=(10, 2)), gen.integers(0, 2, size=10)),
                 nn.TrainConfig(epochs=3, batch_size=4))
        assert calls == [10]

    def test_same_seed_reproduces_parameters_bit_exactly(self):
        gen = np.random.default_rng(6)
        xs = gen.normal(size=(30, 3))
        ys = gen.integers(0, 2, size=30)
        results = []
        for _ in range(2):
            model = nn.build_mlp(3, [6], 2, dropout=0.2, seed=8)
            cfg = nn.TrainConfig(optimizer="adam", lr=0.01, epochs=10,
                                 batch_size=8, seed=21)
            nn.train(model, (xs, ys), cfg)
            results.append(nn.flatten_params(model))
        assert np.array_equal(results[0], results[1])


    @given(training_case())
    @settings(max_examples=150)
    def test_matches_the_reference_loop_bit_for_bit(self, case):
        model, labeled, cfg = case
        expected_model = model.copy()
        expected_curve = reference_train(expected_model, labeled, cfg)
        curve = nn.train(model, labeled, cfg)
        assert np.array_equal(curve, expected_curve)
        assert np.array_equal(nn.flatten_params(model),
                              nn.flatten_params(expected_model))

    def test_wide_batches_match_the_reference_bit_for_bit(self):
        # shapes large enough for BLAS to split the products across threads
        gen = np.random.default_rng(3)
        xs = gen.normal(size=(300, 40))
        ys = gen.integers(0, 5, size=300)
        model = nn.build_mlp(40, [160, 96], 5, dropout=0.1, seed=2)
        expected = model.copy()
        cfg = nn.TrainConfig(lr=0.01, epochs=2, batch_size=256, seed=4)
        assert nn.train(model, (xs, ys), cfg) == reference_train(expected, (xs, ys), cfg)
        assert np.array_equal(nn.flatten_params(model), nn.flatten_params(expected))

    @given(training_case())
    @settings(max_examples=60)
    def test_loss_gradient_matches_the_reference_bit_for_bit(self, case):
        model, (xs, ys), _ = case
        grad, losses = loss_gradient(model, xs, ys)
        expected, expected_losses = reference_loss_gradient(model, xs, ys)
        assert np.array_equal(grad, expected)
        assert np.array_equal(losses, expected_losses)

    def test_layers_own_unshared_parameters_after_training(self, monkeypatch):
        written = []
        write = nn._write_params
        monkeypatch.setattr(nn, "_write_params",
                            lambda model, vec, *tap: (written.append(vec),
                                                      write(model, vec, *tap)))
        model = nn.build_mlp(3, [5, 4], 2, seed=1)
        gen = np.random.default_rng(0)
        nn.train(model, (gen.normal(size=(20, 3)), gen.integers(0, 2, size=20)),
                 nn.TrainConfig(epochs=2, batch_size=6))
        arrays = _owned_parameter_arrays(model)
        assert len(arrays) == 6
        for k, a in enumerate(arrays):
            assert a.flags.owndata
            assert not np.shares_memory(a, written[0])
            assert not any(np.shares_memory(a, b) for b in arrays[k + 1:])
        before = nn.flatten_params(model)
        model.layers[0].weight[0, 0] += 1.0
        changed = np.flatnonzero(nn.flatten_params(model) != before)
        assert changed.tolist() == [0]

    def test_width_mismatch_raises_and_leaves_a_working_model(self):
        model = nn.build_mlp(3, [4], 2, seed=5)
        twin = model.copy()
        before = nn.flatten_params(model)
        gen = np.random.default_rng(1)
        with pytest.raises(DimensionError):
            nn.train(model, (gen.normal(size=(6, 4)), gen.integers(0, 2, size=6)),
                     nn.TrainConfig(epochs=1))
        assert np.array_equal(nn.flatten_params(model), before)
        assert all(a.flags.owndata for a in _owned_parameter_arrays(model))
        clone = model.copy()
        assert np.array_equal(nn.flatten_params(clone), before)
        labeled = (gen.normal(size=(9, 3)), gen.integers(0, 2, size=9))
        cfg = nn.TrainConfig(epochs=3, batch_size=4, seed=2)
        assert nn.train(model, labeled, cfg) == nn.train(twin, labeled, cfg)
        assert np.array_equal(nn.flatten_params(model), nn.flatten_params(twin))

    @pytest.mark.parametrize("epochs,batch_size", [(0, 4), (1, 32), (5, 3)])
    def test_parameters_are_written_back_once_per_call(self, monkeypatch,
                                                        epochs, batch_size):
        calls = []
        write = nn._write_params
        monkeypatch.setattr(nn, "_write_params",
                            lambda *args: (calls.append(1), write(*args)))
        model = nn.build_mlp(2, [4], 2, seed=5)
        gen = np.random.default_rng(2)
        nn.train(model, (gen.normal(size=(10, 2)), gen.integers(0, 2, size=10)),
                 nn.TrainConfig(epochs=epochs, batch_size=batch_size))
        assert len(calls) == 1


# one below train's own buffer, numpy's default and one above every array of
# the cases below
TRAIN_CALLER_BUFSIZES = [16, 8192, 65536]


def saturated_case(classes, batch_size):
    """(model, (X, y), cfg) whose true-class logits sit more than 700 below
    the row maximum at the start, so ``p_true`` comes from the clip floor."""
    gen = np.random.default_rng(classes * 100 + batch_size)
    model = nn.build_mlp(3, [5], classes, seed=classes)
    head = model.layers[-2]
    head.bias[:] = 0.0
    head.bias[0] = 900.0
    xs = gen.normal(size=(40, 3))
    ys = gen.integers(1, classes, size=40)
    cfg = nn.TrainConfig(lr=0.05, epochs=3, batch_size=batch_size, seed=classes)
    return model, (xs, ys), cfg


class TestTrainStep:
    @pytest.mark.parametrize("classes", [2, 10])
    @pytest.mark.parametrize("batch_size", [1, 32])
    def test_saturated_softmax_matches_the_reference_bit_for_bit(self, classes,
                                                                 batch_size):
        model, (xs, ys), cfg = saturated_case(classes, batch_size)
        logits, _ = nn._forward_cached(model, xs, len(model.layers) - 1)
        shifted = logits[np.arange(len(ys)), ys] - logits.max(axis=1)
        assert (shifted < nn._SOFTMAX_MIN_SHIFTED).all()
        expected_model = model.copy()
        expected_curve = reference_train(expected_model, (xs, ys), cfg)
        curve = nn.train(model, (xs, ys), cfg)
        assert curve[0] > -nn._SOFTMAX_MIN_SHIFTED - 1.0
        assert np.array_equal(curve, expected_curve)
        assert np.array_equal(nn.flatten_params(model),
                              nn.flatten_params(expected_model))

    @given(training_case())
    @settings(max_examples=40)
    def test_bits_do_not_depend_on_the_callers_buffer(self, case):
        model, labeled, cfg = case
        results = []
        for size in TRAIN_CALLER_BUFSIZES:
            trained = model.copy()
            with caller_bufsize(size):
                curve = nn.train(trained, labeled, cfg)
                assert np.getbufsize() == size
            results.append((np.asarray(curve).tobytes(),
                            nn.flatten_params(trained).tobytes()))
        assert results[1:] == results[:1] * (len(results) - 1)

    def test_wide_batches_do_not_depend_on_the_callers_buffer(self):
        # reductions longer than every buffer size: a 300-row epoch loss, and
        # 256-row bias-gradient sums into a one-output regression head
        gen = np.random.default_rng(8)
        xs = gen.normal(size=(300, 6))
        ys = gen.normal(size=300)
        cfg = nn.TrainConfig(lr=0.01, epochs=2, batch_size=256, seed=3)
        results = []
        for size in TRAIN_CALLER_BUFSIZES:
            model = nn.build_mlp(6, [40], 1, task="regression", seed=1)
            with caller_bufsize(size):
                curve = nn.train(model, (xs, ys), cfg)
            results.append((curve, nn.flatten_params(model).tobytes()))
        assert results[1:] == results[:1] * (len(results) - 1)

    def test_steps_run_at_the_pass_buffer_size(self, monkeypatch):
        seen = []
        backprop = nn._backprop
        monkeypatch.setattr(nn, "_backprop", lambda *args: (
            seen.append(np.getbufsize()), backprop(*args))[1])
        gen = np.random.default_rng(2)
        with caller_bufsize(8192):
            nn.train(nn.build_mlp(2, [4], 2, seed=5),
                     (gen.normal(size=(10, 2)), gen.integers(0, 2, size=10)),
                     nn.TrainConfig(epochs=2, batch_size=4))
        assert seen == [nn._INFER_BUFSIZE] * 6

    def test_the_step_is_laid_out_once_per_call(self, monkeypatch):
        built = []
        schedule = nn._Schedule
        monkeypatch.setattr(nn, "_Schedule", lambda *args: (
            built.append(1), schedule(*args))[1])
        gen = np.random.default_rng(2)
        nn.train(nn.build_mlp(2, [4], 2, seed=5),
                 (gen.normal(size=(10, 2)), gen.integers(0, 2, size=10)),
                 nn.TrainConfig(epochs=3, batch_size=4))
        assert built == [1]

    @pytest.mark.parametrize("size", TRAIN_CALLER_BUFSIZES)
    def test_callers_buffer_is_restored_when_training_raises(self, size):
        model = nn.build_mlp(3, [4], 2, seed=5)
        gen = np.random.default_rng(1)
        with caller_bufsize(size):
            # the first Linear's width check raises inside the first step
            with pytest.raises(DimensionError):
                nn.train(model, (gen.normal(size=(6, 4)),
                                 gen.integers(0, 2, size=6)),
                         nn.TrainConfig(epochs=1))
            assert np.getbufsize() == size


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


class TestModelCopy:
    def test_copies_are_independent(self, hand_232_model):
        clone = hand_232_model.copy()
        nn.apply_perturbation(clone, np.ones(17))
        assert not np.array_equal(nn.flatten_params(clone),
                                  nn.flatten_params(hand_232_model))
        nn.remove_perturbation(clone)
        assert np.array_equal(nn.flatten_params(clone),
                              nn.flatten_params(hand_232_model))
