"""Minimal dense MLP engine on float64 numpy arrays.

Provides layered feed-forward models with a designated feature tap, one
fixed-order eval forward, training with Adam (in place on one flat
parameter vector, each step run from a layout built once per call),
flattened parameter views, perturbation with bit-exact restore (one
direction, or a stack of directions evaluated in one eval forward), and the
analytic Jacobian of a tap (backprop).

A tap names both the output that is read and the parameters that move it:
the parameters of ``layers[:model.tap_boundary(tap)]``. The predictive tap,
the default, covers every parameter.

Conventions:
  * all numeric data is float64; inputs may be single examples ``(D,)`` or
    batches ``(B, D)``;
  * parameters flatten layer-major, then row-major, as ``_param_views`` states;
  * ReLU subgradient at 0 is 0;
  * dropout uses inverted scaling, so eval-mode forward is unscaled.

The eval pass (``_infer``, behind ``forward`` and ``forward_to``) runs over
blocks of pool columns sized by ``_PASS_ENTRIES``, every layer on one block
before the next block starts, so a pool of any size holds only its result
and one block's activations; a pool under twice the budget runs whole.

The eval pass and ``train`` run with numpy's ufunc buffer set to
``_INFER_BUFSIZE`` elements.
Numpy sends a broadcast that is small next to its buffer down a buffered loop
that costs several times the unbuffered one. ``Linear.infer``'s
``(out, 1) x (1, N)`` multiply-adds at pool sizes are such broadcasts, and
training's small per-step calls measured faster at that size too. The eval
pass is elementwise or a max, so the buffer size cannot move a bit there.
Training's reductions (the softmax normalizer, bias gradients and the epoch
loss) are tested at several buffer sizes against a loop run at the caller's.
Both restore the caller's size on return and on raise; selection and theory
run at it.
"""

from dataclasses import dataclass

import numpy as np

from . import seeding
from .exceptions import (ConfigError, DataError, DimensionError, InvalidStateError,
                         NonFiniteError, all_finite, check_fields)

TAP_FEATURE = "feature"
TAP_PREDICTIVE = "predictive"

# Shifted logits below this underflow exp() to exactly 0; clipping keeps
# softmax outputs strictly positive without visibly changing probabilities.
_SOFTMAX_MIN_SHIFTED = -700.0

# ufunc buffer size, in elements, of the eval pass (numpy's default is 8192).
# A broadcast that is small next to the buffer runs numpy's buffered loop: a
# (24, 1) x (1, 1990) multiply took about 79 us at 8192 against 19 us at 256.
# 256 was fastest or tied at every pool and stack shape measured (CHANGES.md);
# 1024 leaves pools of a few hundred rows slow, 16 the one-row stacks.
_INFER_BUFSIZE = 256

# float64 entries one activation of an eval pass may take, the budget of
# three rules, all in this module: ``_block_count`` cuts a pool into blocks of
# columns whose widest layer output takes at least this many entries,
# ``directions_per_pass`` stacks as many directions per pass as fit in it, and
# ``row_blocks`` cuts row-wise passes over (K, n) direction arrays. At 2^16 a
# block's activations stay near 512 KB, in cache, and stacking directions
# amortizes each pass's fixed costs (numpy's per-call overhead,
# apply_perturbation / remove_perturbation): a pool of thousands runs one
# direction per pass, about 600 rows at width 32 run three, and a single
# example runs hundreds. At 2^17 the stacks pass 1 MB and leave the cache.
# Blocks pay from twice the budget on. ``pool_embeddings`` (30 directions,
# one hidden layer of 64) took 2.2 s whole and 1.05 s in blocks on 20,000
# rows of 32, 0.24 s and 0.15 s on 3,000 rows of 32, and 8.8 s and 4.0 s on
# 5,000 rows of 784. Cutting 1,100 rows of 784 into 1,024 and 76 columns cost
# 17%, and into two of 550 cost 8%, so a pool under twice the budget runs
# whole (one OpenBLAS thread, 2-core x86-64 host). Every shipped config's and
# benchmark workload's pass runs whole.
_PASS_ENTRIES = 65536


# axes that move the last axis first, by ndim: one direction, or a stack
_LAST_AXIS_FIRST = {2: (1, 0), 3: (2, 0, 1)}


def _last_axis_first(a):
    """View of ``a`` with its last axis first: ``np.moveaxis(a, -1, 0)``
    without that function's per-call Python overhead, which an eval forward
    over a small pool would feel."""
    return a.transpose(_LAST_AXIS_FIRST[a.ndim])


def _stacked_error(what, stacked):
    return InvalidStateError(f"{what} cannot run while a stack of {len(stacked)} "
                             "perturbations is applied")


class Linear:
    """Affine layer ``y = x @ W.T + b`` with weight (out, in) and optional bias.

    While a stack of Kc perturbations is applied the weight is (Kc, out, in)
    and the bias (Kc, out); only ``infer`` evaluates such a layer, and the
    other methods raise ``InvalidStateError`` rather than broadcast it.
    """

    def __init__(self, weight, bias=None):
        self.weight = np.asarray(weight, dtype=np.float64)
        if self.weight.ndim != 2:
            raise DimensionError("Linear weight must be 2-D (out, in)")
        self.bias = None if bias is None else np.asarray(bias, dtype=np.float64)
        if self.bias is not None and self.bias.shape != (self.weight.shape[0],):
            raise DimensionError("Linear bias length must equal the output width")
        # parameters of one direction, also while a stack is applied
        self.n_params = self.weight.size + (0 if self.bias is None else self.bias.size)

    def _check_width(self, width):
        if width != self.weight.shape[-1]:
            raise DimensionError(
                f"input width {width} does not match layer width {self.weight.shape[-1]}"
            )

    def forward(self, x, train, rng):
        """``x @ W.T + b`` of a (B, in) batch by BLAS, the bias added in
        place on the fresh product; returns it and ``x``, the cache the
        weight gradient reads."""
        if self.weight.ndim != 2:
            raise _stacked_error("forward", self.weight)
        self._check_width(x.shape[-1])
        y = x @ self.weight.T
        if self.bias is not None:
            y += self.bias
        return y, x

    def infer(self, a):
        """Eval forward on feature-major activations: ``a`` is (in, N), or
        (Kc, in, N), and the result is (out, N), or (Kc, out, N). Each output
        is ``b + sum_j W[..., j] * a[..., j, :]``, accumulated in j order, so
        every multiply-add runs over a contiguous input row. A leading
        direction axis of the weight or of ``a`` is broadcast, so each
        direction's slice holds its own bits.

        The first product is added to the bias, or to 0.0 without one, straight
        into the result, the bits of filling it with the bias and adding the
        product; a zero-width input returns the bias. The column-by-row
        multiplies and the bias add are broadcasts; at pool sizes they fit
        numpy's default ufunc buffer and would run its slow buffered loop.
        ``_infer`` shrinks the buffer for them; called outside it, this method
        gives the same bits, only slower."""
        self._check_width(a.shape[-2])
        w = self.weight
        # at most one direction axis, on the weight, on a, or the same on both
        out = np.empty((w.shape[:-2] or a.shape[:-2]) + (w.shape[-2], a.shape[-1]))
        term = np.empty_like(out)
        acc = 0.0 if self.bias is None else self.bias[..., None]
        for w_j, a_j in zip(_last_axis_first(w)[..., None],
                            a.swapaxes(0, -2)[..., None, :]):
            np.multiply(w_j, a_j, out=term)
            np.add(acc, term, out=out)
            acc = out
        if acc is not out:
            out[...] = acc
        return out

    def copy(self):
        if self.weight.ndim != 2:
            raise _stacked_error("copy", self.weight)
        return Linear(self.weight.copy(), None if self.bias is None else self.bias.copy())


class ReLU:
    n_params = 0

    def forward(self, x, train, rng):
        """``infer``'s output and, as the cache ``backward`` reads, the mask
        ``x > 0.0`` in float64 ones and zeros: ``np.sign`` of that output,
        which is +0.0 wherever ``x > 0.0`` fails. A product with it has the
        bits of one with the boolean mask, without numpy's buffered
        bool-to-float cast."""
        out = self.infer(x)
        return out, np.sign(out)

    def infer(self, x):
        """Eval ReLU of activations in any layout, with the bits of
        ``np.where(x > 0.0, x, 0.0)`` and no per-element branch. ``fmax``
        returns the operand that is not NaN, so NaN maps to 0.0 as it does
        there; it may keep a ``-0.0`` against 0.0, and adding 0.0 turns that
        into +0.0 while leaving every other value as it is."""
        out = np.fmax(x, 0.0)
        out += 0.0
        return out

    def backward(self, grad, cache):
        return grad * cache


class Dropout:
    """Inverted dropout: kept units divided by keep-probability at train time."""

    n_params = 0

    def __init__(self, rate):
        if not 0.0 <= rate < 1.0:
            raise ConfigError("dropout rate must be in [0, 1)")
        self.rate = float(rate)

    def forward(self, x, train, rng):
        if not train or self.rate == 0.0:
            return x, None
        if rng is None:
            raise InvalidStateError("train-mode forward through Dropout needs an rng")
        keep = 1.0 - self.rate
        scale = (rng.random(x.shape) >= self.rate) / keep
        return x * scale, scale

    def infer(self, x):
        return x

    def backward(self, grad, cache):
        if cache is None:
            return grad
        return grad * cache


class Softmax:
    n_params = 0

    @staticmethod
    def _shifted_exp(x, axis):
        # np.maximum.reduce and np.add.reduce (in forward) are what
        # ndarray.max and ndarray.sum call, minus their Python wrappers
        shifted = x - np.maximum.reduce(x, axis=axis, keepdims=True)
        # the bits of np.clip with no upper bound, without its Python wrapper
        np.maximum(shifted, _SOFTMAX_MIN_SHIFTED, out=shifted)
        return np.exp(shifted, out=shifted)

    def forward(self, x, train, rng):
        """Softmax of (B, C) logits, ``e / e.sum(axis=1, keepdims=True)``
        of the clipped shifted exponential ``e``, run in place on one
        temporary, which is both the output and the cache."""
        e = self._shifted_exp(x, 1)
        e /= np.add.reduce(e, axis=1, keepdims=True)
        return e, e

    def infer(self, x):
        """Eval softmax of feature-major logits: (C, N), or (Kc, C, N), with
        the classes on axis -2. The max over the classes is exact in any
        order; the normalizer is summed class by class over contiguous rows.
        The shift, the exponential and the division run in place on one
        temporary, which is returned."""
        e = self._shifted_exp(x, -2)
        rows = e.swapaxes(0, -2)
        total = rows[0].copy()
        for row in rows[1:]:
            total += row
        e /= total[..., None, :]
        return e

    def backward(self, grad, cache):
        p = cache
        inner = (grad * p).sum(axis=1, keepdims=True)
        return p * grad - p * inner


class MlpModel:
    """Ordered layer stack with a feature tap splitting it into f (body) and g (head).

    ``feature_tap`` is a layer boundary in ``[1, len(layers)]``: the output
    after ``layers[:feature_tap]`` is the feature vector, and the parameters
    of those layers are the ones that move it.
    """

    def __init__(self, layers, feature_tap):
        if not layers:
            raise ConfigError("model needs at least one layer")
        if not 1 <= feature_tap <= len(layers):
            raise ConfigError(
                f"feature_tap {feature_tap} is not a boundary of a {len(layers)}-layer stack"
            )
        self.layers = list(layers)
        self.feature_tap = int(feature_tap)
        # (layer, weight, bias) of each layer a perturbation replaced, holding
        # the arrays it replaced, while one is applied
        self._pristine = None

    def n_params(self, tap=TAP_PREDICTIVE) -> int:
        """Parameters of the layers before the tap's boundary."""
        return sum(layer.n_params for layer in self.layers[:self.tap_boundary(tap)])

    def tap_boundary(self, tap) -> int:
        """Layer boundary whose post-activation realizes the given tap."""
        if tap == TAP_FEATURE:
            return self.feature_tap
        if tap == TAP_PREDICTIVE:
            return len(self.layers)
        raise ConfigError(f"unknown tap {tap!r}")

    def copy(self) -> "MlpModel":
        """Copies of its Linear layers and their parameters; the ReLU, Dropout
        and Softmax layers hold no state that changes, so the copy shares them."""
        return MlpModel([l.copy() if isinstance(l, Linear) else l for l in self.layers],
                        self.feature_tap)

    def has_dropout(self) -> bool:
        return any(isinstance(l, Dropout) for l in self.layers)


def build_mlp(input_dim, hidden, output_dim, *, task="classification",
              dropout=0.0, bias=True, seed=0) -> MlpModel:
    """Construct and He-initialize a Linear/ReLU(/Dropout) stack.

    Classification models end in Linear + Softmax, regression models in a bare
    Linear. The feature tap sits just before the final Linear, so the body
    is the hidden stack and the head is the output layer; with no hidden
    stack it sits after the output Linear.
    """
    gen = seeding.rng(seed)
    layers = []
    prev = input_dim
    for width in hidden:
        w = gen.normal(0.0, np.sqrt(2.0 / prev), size=(width, prev))
        layers.append(Linear(w, np.zeros(width) if bias else None))
        layers.append(ReLU())
        if dropout > 0.0:
            layers.append(Dropout(dropout))
        prev = width
    w = gen.normal(0.0, np.sqrt(1.0 / prev), size=(output_dim, prev))
    feature_tap = len(layers) or 1
    layers.append(Linear(w, np.zeros(output_dim) if bias else None))
    if task == "classification":
        layers.append(Softmax())
    elif task != "regression":
        raise ConfigError(f"unknown task {task!r}")
    return MlpModel(layers, feature_tap)


def _as_batch(x):
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        return x[None, :], True
    if x.ndim == 2:
        return x, False
    raise DimensionError(f"expected a vector or matrix input, got ndim={x.ndim}")


def check_finite_rows(rows, what):
    """Raise ``NonFiniteError`` naming the first row of the (N, D) ``rows``
    that holds a NaN or an infinity. ReLU maps NaN to 0.0, so such a row
    would otherwise get finite outputs and ordinary scores. A finite array,
    the common case, is told by ``all_finite`` with no (N, D) temporary; the
    row search runs only on a non-finite one."""
    if all_finite(rows):
        return
    bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
    if bad.size:
        raise NonFiniteError(f"{what} row {int(bad[0])} holds a NaN or infinite value")


def _forward_cached(model, x, boundary, train=False, rng=None):
    acts = x
    caches = []
    for layer in model.layers[:boundary]:
        acts, cache = layer.forward(acts, train, rng)
        caches.append(cache)
    return acts, caches


def _widest(layers):
    """The widest output of the Linear layers of ``layers``, 1 if none."""
    return max((layer.weight.shape[-2] for layer in layers
                if isinstance(layer, Linear)), default=1)


def _block_count(layers, n):
    """Blocks of an eval pass of ``n`` pool columns through ``layers``:
    n // B, at least one, where B columns of the widest layer output fill
    ``_PASS_ENTRIES`` entries. Such a column holds Kc times the layer's
    width while a stack of Kc perturbations is applied. ``_infer`` splits
    the columns evenly, so a block holds B to 2B - 1 columns and a pool under
    2B runs whole: a block cut smaller pays numpy's per-call costs, D calls
    per Linear, for too little work. The block's (D, columns) copy of the
    input is not charged, so a wide input, such as 784 pixels, gets the
    blocks its layers get, and a stack of two or more directions from
    ``directions_per_pass`` always runs as one block."""
    depth = max((layer.weight.shape[0] for layer in layers
                 if isinstance(layer, Linear) and layer.weight.ndim == 3),
                default=1)
    return max(1, n // max(1, _PASS_ENTRIES // (depth * _widest(layers))))


def directions_per_pass(layers, n_rows, n_params):
    """Directions to stack per eval pass of ``n_rows`` rows through
    ``layers`` when ``n_params`` parameters move: as many as fit in
    ``_PASS_ENTRIES``, at least one, each charged its activations over the
    rows, N times the widest layer, plus its copy of the parameters. A pool
    of thousands gets one; about 600 rows at width 32 get three."""
    return max(1, _PASS_ENTRIES // (n_rows * _widest(layers) + n_params))


def row_blocks(n_rows, width):
    """Slices of at most ``_PASS_ENTRIES // width`` rows (at least one) over
    ``n_rows`` rows of ``width`` entries, so that a row-wise pass makes no
    temporary the size of the whole array."""
    step = max(1, _PASS_ENTRIES // width)
    return [slice(start, start + step) for start in range(0, n_rows, step)]


def _infer(layers, rows, stops):
    """Eval pass of the (N, D) ``rows``: for each boundary s of ``stops``, in
    increasing order, the feature-major activations after ``layers[:s]``,
    (d, N), or (Kc, d, N) while a stack of Kc perturbations is applied.

    The pass runs over ``_block_count`` blocks of consecutive columns. Each
    block's rows are copied into a contiguous (D, columns) array, every layer
    runs on it, and its activations at the stops are written into the results
    before the next block starts, so no layer temporary spans the pool and no
    (D, N) copy is made. A pool that runs as one block gets its activations
    as the layers made them, with no copy. Each column is its own computation
    (see ``forward_to``), so the bits do not depend on the blocks.

    The layers run with numpy's ufunc buffer at ``_INFER_BUFSIZE``, so their
    broadcasts take the unbuffered loops; every op here is elementwise or a
    max, whose bits do not depend on the buffer. The caller's buffer size is
    restored on return and on raise, because a reduction outside this pass,
    such as a strided sum, could change bits under a different buffer.
    """
    n = rows.shape[0]
    blocks = _block_count(layers[:stops[-1]], n)
    results = []
    previous = np.setbufsize(_INFER_BUFSIZE)
    try:
        for block in range(blocks):
            start, end = block * n // blocks, (block + 1) * n // blocks
            acts = rows[start:end].T.copy()
            found = []
            done = 0
            for stop in stops:
                for layer in layers[done:stop]:
                    acts = layer.infer(acts)
                found.append(acts)
                done = stop
            if blocks == 1:
                return found
            if not results:
                results = [np.empty(a.shape[:-1] + (n,)) for a in found]
            for result, a in zip(results, found):
                result[..., start:end] = a
    finally:
        np.setbufsize(previous)
    return results


def forward(model, x):
    """(feature, output) of an eval pass through every layer, as C-contiguous
    (N, d) arrays or (d,) for one example. Each row has the bits of
    ``forward_to`` at its boundary, alone or in any batch. Raises
    ``NonFiniteError`` for an input row holding a NaN or an infinity, and
    ``InvalidStateError`` while a stack of perturbations is applied."""
    batch, squeeze = _as_batch(x)
    check_finite_rows(batch, "input")
    feature, out = _infer(model.layers, batch,
                          (model.feature_tap, len(model.layers)))
    if out.ndim == 3:
        raise _stacked_error("forward", out)
    if squeeze:
        return feature[:, 0], out[:, 0]
    return np.ascontiguousarray(feature.T), np.ascontiguousarray(out.T)


def forward_to(model, x, boundary):
    """Eval-mode activations after ``layers[:boundary]``: (N, d), or
    (Kc, N, d) while a stack of Kc perturbations is applied to a layer before
    the boundary, row k holding direction k's activations.

    Inside the call the activations are feature-major: ``_infer`` copies each
    block of input rows into a contiguous (D, columns) array, every layer's
    ``infer`` takes and returns (d, columns), or (Kc, d, columns) under a
    stack, and the (d, N) or (Kc, d, N) result is returned as a transposed
    view with the shapes above.

    Every row goes through the same floating-point operations whatever the
    batch holds: each Linear adds its products ``W[:, j] * a[j, :]`` to the
    bias one input feature at a time in a fixed order, the Softmax normalizer
    is summed one class at a time, and everything else is elementwise. A row's
    output therefore depends only on (parameters, row), bit for bit, never on
    the batch size, the row's position or the block it runs in (BLAS GEMM
    gives no such promise), so a whole pool can be evaluated in one call. The
    same holds across a stack: each direction's slice has the bits of a
    separate call with that direction applied alone. ``forward`` runs the same
    pass; training and the other ``Layer.forward`` callers use BLAS and agree
    with it to rounding.

    The array under the returned view is made by the call: it shares no memory
    with ``x`` or with any layer's weight or bias (nor does ``forward``'s), so
    a caller may write into it.
    """
    if not 0 < boundary <= len(model.layers):
        raise ConfigError(f"boundary {boundary} out of range")
    batch, squeeze = _as_batch(x)
    acts = _infer(model.layers, batch, (boundary,))[0].swapaxes(-1, -2)
    return acts[0] if squeeze else acts


def _param_views(model, flat, tap=TAP_PREDICTIVE):
    """``{layer index: (weight, bias or None)}`` of each parameter layer before
    the tap, as views of ``flat``, whose last axis holds the n parameters (an
    (n,) vector, a (Kc, n) stack, a (d, n) Jacobian). This is the one statement
    of the flat layout: layer-major, then row-major within a layer (the weight
    raveled C-order, then the bias). A weight view is (..., out, in)."""
    lead = flat.shape[:-1]
    views = {}
    offset = 0
    for i, layer in enumerate(model.layers[:model.tap_boundary(tap)]):
        if not layer.n_params:
            continue
        rows, cols = layer.weight.shape[-2:]
        weight = flat[..., offset:offset + rows * cols].reshape(lead + (rows, cols))
        offset += rows * cols
        bias = None
        if layer.bias is not None:
            bias = flat[..., offset:offset + rows]
            offset += rows
        views[i] = (weight, bias)
    return views


def flatten_params(model, tap=TAP_PREDICTIVE):
    """Parameters before the tap as one (n,) vector in ``_param_views``
    order. Raises ``InvalidStateError`` while a stack is applied."""
    flat = np.empty(model.n_params(tap))
    for i, (weight, bias) in _param_views(model, flat, tap).items():
        layer = model.layers[i]
        if layer.weight.ndim != 2:
            raise _stacked_error("flatten_params", layer.weight)
        weight[...] = layer.weight
        if bias is not None:
            bias[...] = layer.bias
    return flat


def _write_params(model, vec, tap=TAP_PREDICTIVE):
    """Give each layer before the tap owned copies of its views of an (n,)
    vector or a (Kc, n) stack (inverse of ``flatten_params``)."""
    for i, (weight, bias) in _param_views(model, vec, tap).items():
        layer = model.layers[i]
        layer.weight = weight.copy()
        if bias is not None:
            layer.bias = bias.copy()


def apply_perturbation(model, delta, tap=TAP_PREDICTIVE):
    """Add ``delta`` to the parameters before the tap, keeping the arrays it
    replaces.

    ``delta`` is one direction, shape (n,), or a stack of Kc directions,
    shape (Kc, n), laid out as ``_param_views`` states. Each Linear before the
    tap gets the new arrays ``weight + dW`` and ``bias + db``, its slices of
    ``delta``, so its own arrays are neither copied nor written. A stack
    leaves such a layer holding (Kc, out, in) weights, the sum broadcast over
    the stack, so row k has the bits a separate apply of ``delta[k]`` would
    give. Until the matching ``remove_perturbation`` only ``forward_to``
    evaluates such a model.

    A delta of any other shape raises ``DimensionError`` before the model is
    touched.
    """
    if model._pristine is not None:
        raise InvalidStateError("a perturbation is already applied; remove it first")
    delta = np.asarray(delta, dtype=np.float64)
    n = model.n_params(tap)
    if delta.ndim not in (1, 2) or delta.shape[-1] != n:
        raise DimensionError(
            f"delta shape {delta.shape} is neither ({n},) nor a "
            f"(Kc, {n}) stack of parameter vectors before the tap"
        )
    model._pristine = []
    for i, (d_weight, d_bias) in _param_views(model, delta, tap).items():
        layer = model.layers[i]
        model._pristine.append((layer, layer.weight, layer.bias))
        layer.weight = layer.weight + d_weight
        if d_bias is not None:
            layer.bias = layer.bias + d_bias


def remove_perturbation(model):
    """Put back the arrays the matching ``apply_perturbation`` replaced. They
    were never written, so the restore is bit-exact by construction, with no
    subtraction to round."""
    if model._pristine is None:
        raise InvalidStateError("no perturbation to remove")
    for layer, weight, bias in model._pristine:
        layer.weight, layer.bias = weight, bias
    model._pristine = None


def jacobian(model, x, tap=TAP_FEATURE):
    """Analytic Jacobian of the tap output w.r.t. the flat parameters before
    the tap, in ``flatten_params`` order.

    Row i is the gradient of output coordinate i; computed by backpropagating
    the full identity seed matrix in one sweep (one backward per layer, all
    output coordinates at once). Eval-mode semantics. An input holding a NaN
    or an infinity raises ``NonFiniteError``.
    """
    boundary = model.tap_boundary(tap)
    xb, _ = _as_batch(x)
    if xb.shape[0] != 1:
        raise DimensionError("jacobian expects a single example")
    check_finite_rows(xb, "jacobian input")
    out, caches = _forward_cached(model, xb, boundary)
    d = out.shape[1]
    jac = np.empty((d, model.n_params(tap)))
    views = _param_views(model, jac, tap)
    grad = np.eye(d)
    for i in range(boundary - 1, -1, -1):
        layer = model.layers[i]
        # caches were built for a 1-row batch; every backward here is linear in
        # the seed rows, so the d-row grad propagates coordinate-wise
        cache = caches[i]
        if i in views:
            jac_w, jac_b = views[i]
            np.multiply(grad[:, :, None], cache[0], out=jac_w)
            if jac_b is not None:
                jac_b[...] = grad
            grad = grad @ layer.weight
        else:
            grad = layer.backward(grad, cache)
    return jac


# Adam's moment decay rates and denominator guard (Kingma & Ba 2015)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class TrainConfig:
    """Loop settings for train(), which always runs Adam at ``ADAM_BETA1``,
    ``ADAM_BETA2`` and ``ADAM_EPS``; ``optimizer`` only names it. It checks
    each field's JSON type and range, naming it ``train.<field>``. Experiment
    configs cannot set ``seed``; the loop derives one per run seed and cycle."""

    optimizer: str = "adam"
    lr: float = 1e-3
    epochs: int = 50
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        check_fields(self, "train.")
        for key, least in (("lr", 0), ("epochs", 0), ("batch_size", 1)):
            if getattr(self, key) < least:
                raise ConfigError(f"train.{key} must be >= {least}, "
                                  f"got {getattr(self, key)!r}")
        if self.optimizer != "adam":
            raise ConfigError(f"unknown optimizer {self.optimizer!r}; "
                              "the only optimizer is 'adam'")


def _classes(model):
    """C, the width of the last Linear layer, the classes of a Softmax head."""
    return next(layer for layer in reversed(model.layers)
                if layer.n_params).weight.shape[0]


def _class_targets(model, y):
    """``y`` as int64 class indices when the model ends in a Softmax, else
    as given. DataError names the first row whose target is not an integer
    in ``[0, C)``, C the width of the last Linear layer."""
    if not isinstance(model.layers[-1], Softmax):
        return y
    y = np.asarray(y)
    classes = _classes(model)
    bad = np.flatnonzero(~((y >= 0) & (y < classes) & (y == np.floor(y))))
    if bad.size:
        raise DataError(f"target row {bad[0]} ({y.flat[bad[0]]}) is not a "
                        f"class index in [0, {classes})")
    return y.astype(np.int64)


def _cross_entropy(output, labels):
    """Per-example cross-entropy of the (B, C) Softmax ``output`` at
    ``labels``, the flat positions of the true classes in it (see
    ``_Schedule.label_offsets``), and the gradient of the batch mean at the
    logits, so the step skips the Softmax layer. Flat positions gather and
    scatter the labels with one index, where (row, class) pairs take two.

    The gradient has the bits of the output gradient ``-1/(b·p_true)`` at the
    label pushed through ``Softmax.backward``: that row sum holds one nonzero
    term, ``v = (-1/(b·p_true))·p_true``, so the gradient is ``0 - p·v`` off
    the label and ``v - p_true·v`` on it."""
    b = output.shape[0]
    p_true = output.reshape(-1)[labels]
    v = (-1.0 / (b * p_true)) * p_true
    grad = np.empty(output.shape)  # C-contiguous, so its reshape is a view
    np.multiply(output, v[:, None], out=grad)
    np.subtract(0.0, grad, out=grad)
    grad.reshape(-1)[labels] = v - p_true * v
    return -np.log(p_true), grad


def _squared_error(output, y):
    """Per-example squared error of the (B, d) ``output`` against ``y``, and
    the gradient of the batch mean at the output."""
    y = np.asarray(y, dtype=np.float64)
    if y.ndim == 1:
        y = y[:, None]
    diff = output - y
    return (diff * diff).sum(axis=1), 2.0 * diff / output.shape[0]


class _Schedule:
    """A model's training step, laid out once per ``train`` call so that no
    step re-derives it from the layer list:

    * ``forwards``, each layer's bound ``forward``, bottom to top;
    * ``loss``, ``_cross_entropy`` after a Softmax (whose gradient enters the
      layer below it, and whose targets ``label_offsets`` gives), else
      ``_squared_error`` (which enters the top layer);
    * ``backwards``, ``(i, layer, views)`` from the layer the loss gradient
      enters down to ``first``, the first parameter layer, ``views`` being
      layer i's ``(weight, bias or None)`` views of the flat gradient
      ``grad`` (see ``_param_views``), or None for a layer without
      parameters;
    * Adam's state, which ``adam`` steps.

    The layers are read when a step runs, so their parameters may be rebound
    after the schedule is built."""

    def __init__(self, model, lr):
        layers = model.layers
        n = model.n_params()
        self.grad = np.empty(n)
        views = _param_views(model, self.grad)
        softmax = isinstance(layers[-1], Softmax)
        self.forwards = [layer.forward for layer in layers]
        self.loss = _cross_entropy if softmax else _squared_error
        self.classes = _classes(model) if softmax else None
        self.first = min(views, default=len(layers))
        self.backwards = [(i, layers[i], views.get(i))
                          for i in range(len(layers) - 1 - softmax, self.first - 1, -1)]
        self.t = 0
        self.m, self.v = np.zeros(n), np.zeros(n)
        self.step_buf, self.denom = np.empty(n), np.empty(n)
        # Adam's constant operands as (n,) vectors of their values: each
        # product or sum is the same, and an array operand skips the
        # conversion a Python float costs every call
        self.constants = [np.full(n, c) for c in (ADAM_BETA1, 1 - ADAM_BETA1, ADAM_BETA2,
                                                  1 - ADAM_BETA2, lr, ADAM_EPS)]

    def label_offsets(self, n, batch_size):
        """What the class indices of ``n`` rows, taken in consecutive batches
        of ``batch_size``, gain to become the labels ``_cross_entropy`` takes:
        ``(row % batch_size) * C``, so each label is its flat position in its
        batch's (B, C) output. None for squared error, whose targets a step
        takes as they are."""
        if self.classes is None:
            return None
        return np.arange(n) % batch_size * self.classes

    def adam(self, theta):
        """Adam (Kingma & Ba 2015), stepping θ in place with ``grad``. Each
        step evaluates, elementwise and in this order,
        ``m = β1·m + (1−β1)·g``, ``v = β2·v + ((1−β2)·g)·g`` and
        ``θ = θ − (lr·(m/(1−β1ᵗ))) / (√(v/(1−β2ᵗ)) + eps)``, with β1, β2 and
        eps the ``ADAM_*`` constants."""
        grad, m, v, step, denom = self.grad, self.m, self.v, self.step_buf, self.denom
        beta1, rest1, beta2, rest2, lr, eps = self.constants
        self.t = t = self.t + 1
        np.multiply(beta1, m, out=m)
        np.multiply(rest1, grad, out=step)
        np.add(m, step, out=m)
        np.multiply(beta2, v, out=v)
        np.multiply(rest2, grad, out=step)
        np.multiply(step, grad, out=step)
        np.add(v, step, out=v)
        np.divide(m, 1 - ADAM_BETA1 ** t, out=step)
        np.multiply(lr, step, out=step)
        np.divide(v, 1 - ADAM_BETA2 ** t, out=denom)
        np.sqrt(denom, out=denom)
        np.add(denom, eps, out=denom)
        np.divide(step, denom, out=step)
        np.subtract(theta, step, out=theta)


def _backprop(schedule, x, y, train, rng):
    """One step of ``schedule``'s model on the batch ``x``: forward through
    every layer, then backpropagate the batch-mean loss against the targets
    ``y`` (in the form ``schedule.loss`` takes), writing each parameter
    layer's gradient into its views of ``schedule.grad``; returns the
    per-example losses.

    Each layer's math is its ``forward`` and ``backward``, and a parameter
    layer's gradients are one BLAS product and one ``np.add.reduce`` over the
    batch. The input gradient of the first parameter layer is not formed: no
    parameter lies below it.
    """
    acts = x
    caches = []
    for forward in schedule.forwards:
        acts, cache = forward(acts, train, rng)
        caches.append(cache)
    losses, grad = schedule.loss(acts, y)
    first = schedule.first
    for i, layer, views in schedule.backwards:
        if views is None:
            grad = layer.backward(grad, caches[i])
            continue
        grad_w, grad_b = views
        np.matmul(grad.T, caches[i], out=grad_w)
        if grad_b is not None:
            np.add.reduce(grad, axis=0, out=grad_b)
        if i > first:
            grad = grad @ layer.weight
    return losses


def train(model, labeled, cfg: TrainConfig):
    """Mini-batch training in place on the ``(X, y)`` array pair ``labeled``;
    returns the per-epoch mean loss curve.

    The loss follows the model, so ``TrainConfig`` has no loss field:
    cross-entropy on class indices when it ends in a Softmax (classification),
    squared error otherwise (regression).

    For the length of the call every Linear layer's weight and bias are views
    of one flat parameter vector θ in ``flatten_params`` order. Each step
    backpropagates into views of one flat gradient vector and the optimizer
    updates θ in place, so no step flattens, concatenates or writes back.
    When the call returns or raises, the layers get owned copies of θ again,
    and none of them aliases a buffer of the call.

    The step's layout (``_Schedule``), the batch slices and the labels'
    offsets are built once per call; each step is one ``_backprop`` call
    and one Adam update. Each epoch gathers its shuffled rows once and takes
    its batches as slices of them. The call runs at numpy's ufunc buffer
    ``_INFER_BUFSIZE`` and restores the caller's size on return and on raise;
    its bits do not depend on either size.

    Identical seed + data + config reproduce bit-identical final parameters.
    """
    xs, ys = labeled
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys)
    if xs.ndim != 2 or ys.shape[:1] != xs.shape[:1]:
        raise DimensionError("train expects an (X, y) pair: X of shape (N, D) "
                             "and one target per row")
    ys = _class_targets(model, ys)
    n = xs.shape[0]
    if n == 0:
        if cfg.epochs > 0:
            raise InvalidStateError("cannot train on an empty labeled set")
        return []
    gen = seeding.rng(cfg.seed)
    theta = flatten_params(model)
    schedule = _Schedule(model, cfg.lr)
    batches = [slice(start, start + cfg.batch_size)
               for start in range(0, n, cfg.batch_size)]
    offsets = schedule.label_offsets(n, cfg.batch_size)
    shuffled_losses, epoch_losses = np.empty(n), np.empty(n)
    curve = []
    previous = np.setbufsize(_INFER_BUFSIZE)
    try:
        for i, (weight, bias) in _param_views(model, theta).items():
            model.layers[i].weight, model.layers[i].bias = weight, bias
        for _ in range(cfg.epochs):
            order = gen.permutation(n)
            xs_epoch, ys_epoch = xs[order], ys[order]
            if offsets is not None:
                ys_epoch += offsets
            for batch in batches:
                shuffled_losses[batch] = _backprop(schedule, xs_epoch[batch],
                                                   ys_epoch[batch], True, gen)
                schedule.adam(theta)
            # scatter per-example losses back to canonical positions so the
            # epoch mean does not depend on the shuffle's summation order
            epoch_losses[order] = shuffled_losses
            curve.append(float(np.add.reduce(epoch_losses) / n))
    finally:
        np.setbufsize(previous)
        _write_params(model, theta)
    return curve
