"""Minimal dense MLP engine on float64 numpy arrays.

Provides layered feed-forward models with a designated feature tap, one
fixed-order eval forward, training with Adam (in place on one flat
parameter vector), flattened parameter views, in-place perturbation with
bit-exact restore (one direction, or a stack of directions evaluated in one
eval forward), and the analytic Jacobian of a tap (backprop).

A tap names both the output that is read and the parameters that move it:
the parameters of ``layers[:model.tap_boundary(tap)]``. The predictive tap,
the default, covers every parameter.

Conventions:
  * all numeric data is float64; inputs may be single examples ``(D,)`` or
    batches ``(B, D)``;
  * parameter flattening is layer-major, then row-major within a layer
    (weight matrix raveled C-order, then bias);
  * ReLU subgradient at 0 is 0;
  * dropout uses inverted scaling, so eval-mode forward is unscaled.

The eval pass (``_infer``, behind ``forward`` and ``forward_to``) and
``train`` run with numpy's ufunc buffer set to ``_INFER_BUFSIZE`` elements.
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

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import seeding
from .exceptions import (ConfigError, DataError, DimensionError, InvalidStateError,
                         NonFiniteError)

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
        if self.weight.ndim != 2:
            raise _stacked_error("forward", self.weight)
        self._check_width(x.shape[-1])
        y = x @ self.weight.T
        if self.bias is not None:
            y = y + self.bias
        return y, x

    def infer(self, a):
        """Eval forward on feature-major activations: ``a`` is (in, N), or
        (Kc, in, N), and the result is (out, N), or (Kc, out, N). Each output
        is ``b + sum_j W[..., j] * a[..., j, :]``, accumulated in j order, so
        every multiply-add runs over a contiguous input row. A leading
        direction axis of the weight or of ``a`` is broadcast, so each
        direction's slice holds its own bits.

        The column-by-row multiplies and the bias fill are broadcasts; at
        pool sizes they fit numpy's default ufunc buffer and would run its
        slow buffered loop. ``_infer`` shrinks the buffer for them; called
        outside it, this method gives the same bits, only slower."""
        self._check_width(a.shape[-2])
        w = self.weight
        # at most one direction axis, on the weight, on a, or the same on both
        out = np.empty((w.shape[:-2] or a.shape[:-2]) + (w.shape[-2], a.shape[-1]))
        out[...] = 0.0 if self.bias is None else self.bias[..., None]
        term = np.empty_like(out)
        for w_j, a_j in zip(_last_axis_first(w)[..., None],
                            a.swapaxes(0, -2)[..., None, :]):
            np.multiply(w_j, a_j, out=term)
            out += term
        return out

    def flat_params(self):
        if self.weight.ndim != 2:
            raise _stacked_error("flatten_params", self.weight)
        parts = [self.weight.ravel()]
        if self.bias is not None:
            parts.append(self.bias)
        return np.concatenate(parts)

    def set_flat_params(self, vec):
        """Write an (n,) vector, or a (Kc, n) stack that makes the weight
        (Kc, out, in) and the bias (Kc, out)."""
        shape = vec.shape[:-1] + self.weight.shape[-2:]
        w_size = shape[-2] * shape[-1]
        self.weight = vec[..., :w_size].reshape(shape).copy()
        if self.bias is not None:
            self.bias = vec[..., w_size:].copy()

    def copy(self):
        if self.weight.ndim != 2:
            raise _stacked_error("copy", self.weight)
        return Linear(self.weight.copy(), None if self.bias is None else self.bias.copy())


class ReLU:
    n_params = 0

    def forward(self, x, train, rng):
        mask = x > 0.0
        return np.where(mask, x, 0.0), mask

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

    def copy(self):
        return ReLU()


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

    def copy(self):
        return Dropout(self.rate)


class Softmax:
    n_params = 0

    @staticmethod
    def _shifted_exp(x, axis):
        shifted = x - x.max(axis=axis, keepdims=True)
        # the bits of np.clip with no upper bound, without its Python wrapper
        np.maximum(shifted, _SOFTMAX_MIN_SHIFTED, out=shifted)
        return np.exp(shifted)

    def forward(self, x, train, rng):
        e = self._shifted_exp(x, -1)
        p = e / e.sum(axis=1, keepdims=True)
        return p, p

    def infer(self, x):
        """Eval softmax of feature-major logits: (C, N), or (Kc, C, N), with
        the classes on axis -2. The max over the classes is exact in any
        order; the normalizer is summed class by class over contiguous rows."""
        e = self._shifted_exp(x, -2)
        rows = e.swapaxes(0, -2)
        total = rows[0].copy()
        for row in rows[1:]:
            total += row
        return e / total[..., None, :]

    def backward(self, grad, cache):
        p = cache
        inner = (grad * p).sum(axis=1, keepdims=True)
        return p * grad - p * inner

    def copy(self):
        return Softmax()


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
        self._pristine = None  # (tap, saved flat params) while a perturbation is applied

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
        """Deep copy of layers and parameters (cheap at desk scale)."""
        return MlpModel([l.copy() for l in self.layers], self.feature_tap)

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
    would otherwise get finite outputs and ordinary scores."""
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


def _infer(layers, acts):
    """Eval pass of feature-major (d, N), or (Kc, d, N), activations.

    The layers run with numpy's ufunc buffer at ``_INFER_BUFSIZE``, so their
    broadcasts take the unbuffered loops; every op here is elementwise or a
    max, whose bits do not depend on the buffer. The caller's buffer size is
    restored on return and on raise, because a reduction outside this pass,
    such as a strided sum, could change bits under a different buffer.
    """
    previous = np.setbufsize(_INFER_BUFSIZE)
    try:
        for layer in layers:
            acts = layer.infer(acts)
    finally:
        np.setbufsize(previous)
    return acts


def forward(model, x):
    """(feature, output) of an eval pass through every layer, as C-contiguous
    (N, d) arrays or (d,) for one example. Each row has the bits of
    ``forward_to`` at its boundary, alone or in any batch. Raises
    ``NonFiniteError`` for an input row holding a NaN or an infinity, and
    ``InvalidStateError`` while a stack of perturbations is applied."""
    batch, squeeze = _as_batch(x)
    check_finite_rows(batch, "input")
    feature = _infer(model.layers[:model.feature_tap], batch.T.copy())
    out = _infer(model.layers[model.feature_tap:], feature)
    if out.ndim == 3:
        raise _stacked_error("forward", out)
    if squeeze:
        return feature[:, 0], out[:, 0]
    return np.ascontiguousarray(feature.T), np.ascontiguousarray(out.T)


def forward_to(model, x, boundary):
    """Eval-mode activations after ``layers[:boundary]``: (N, d), or
    (Kc, N, d) while a stack of Kc perturbations is applied to a layer before
    the boundary, row k holding direction k's activations.

    Inside the call the activations are feature-major: the (N, D) input is
    copied once into a contiguous (D, N) array, every layer's ``infer`` takes
    and returns (d, N), or (Kc, d, N) under a stack, and the result is swapped
    back to the shapes above at the end.

    Every row goes through the same floating-point operations whatever the
    batch holds: each Linear adds its products ``W[:, j] * a[j, :]`` to the
    bias one input feature at a time in a fixed order, the Softmax normalizer
    is summed one class at a time, and everything else is elementwise. A row's
    output therefore depends only on (parameters, row), bit for bit, never on
    the batch size or the row's position (BLAS GEMM gives no such promise), so
    a whole pool can be evaluated in one call. The same holds across a stack:
    each direction's slice has the bits of a separate call with that direction
    applied alone. ``forward`` runs the same pass; training and the other
    ``Layer.forward`` callers use BLAS and agree with it to rounding.
    """
    if not 0 < boundary <= len(model.layers):
        raise ConfigError(f"boundary {boundary} out of range")
    batch, squeeze = _as_batch(x)
    acts = _infer(model.layers[:boundary], batch.T.copy()).swapaxes(-1, -2)
    return acts[0] if squeeze else acts


def flatten_params(model, tap=TAP_PREDICTIVE):
    """Parameters before the tap as one vector, layer-major then row-major."""
    parts = [layer.flat_params() for layer in model.layers[:model.tap_boundary(tap)]
             if layer.n_params]
    if not parts:
        return np.zeros(0)
    return np.concatenate(parts)


def _write_params(model, vec, tap=TAP_PREDICTIVE):
    """Write an (n,) vector, or a (Kc, n) stack, into the layers before the
    tap (inverse of ``flatten_params``)."""
    offset = 0
    for layer in model.layers[:model.tap_boundary(tap)]:
        if layer.n_params == 0:
            continue
        layer.set_flat_params(vec[..., offset:offset + layer.n_params])
        offset += layer.n_params


def apply_perturbation(model, delta, tap=TAP_PREDICTIVE):
    """Add ``delta`` to the parameters before the tap, keeping a pristine copy.

    ``delta`` is one direction, shape (n,), or a stack of Kc directions,
    shape (Kc, n). A stack leaves each Linear before the tap holding
    (Kc, out, in) weights, ``current + delta`` broadcast over the stack, so
    row k has the bits a separate apply of ``delta[k]`` would give. Until the
    matching ``remove_perturbation`` only ``forward_to`` evaluates such a
    model.

    Restoring from the saved copy (rather than subtracting) makes
    apply/remove bit-exact under floating-point non-associativity.
    """
    if model._pristine is not None:
        raise InvalidStateError("a perturbation is already applied; remove it first")
    delta = np.asarray(delta, dtype=np.float64)
    current = flatten_params(model, tap)
    if delta.ndim not in (1, 2) or delta.shape[-1:] != current.shape:
        raise DimensionError(
            f"delta shape {delta.shape} is neither ({current.size},) nor a "
            f"(Kc, {current.size}) stack of parameter vectors before the tap"
        )
    model._pristine = (tap, current)
    _write_params(model, current + delta, tap)


def remove_perturbation(model):
    """Restore the parameters saved by the matching apply_perturbation."""
    if model._pristine is None:
        raise InvalidStateError("no perturbation to remove")
    tap, saved = model._pristine
    _write_params(model, saved, tap)
    model._pristine = None


def jacobian(model, x, tap=TAP_FEATURE):
    """Analytic Jacobian of the tap output w.r.t. the flat parameters before
    the tap, in ``flatten_params`` order.

    Row i is the gradient of output coordinate i; computed by backpropagating
    the full identity seed matrix in one sweep (one backward per layer, all
    output coordinates at once). Eval-mode semantics.
    """
    boundary = model.tap_boundary(tap)
    xb, _ = _as_batch(x)
    if xb.shape[0] != 1:
        raise DimensionError("jacobian expects a single example")
    out, caches = _forward_cached(model, xb, boundary)
    d = out.shape[1]
    grad = np.eye(d)
    blocks = []  # each Linear layer's columns, last layer first
    for i in range(boundary - 1, -1, -1):
        layer = model.layers[i]
        # caches were built for a 1-row batch; every backward here is linear in
        # the seed rows, so the d-row grad propagates coordinate-wise
        cache = caches[i]
        if isinstance(layer, Linear):
            a = cache[0]  # cached input activation, (in,)
            grad_w = grad[:, :, None] * a[None, None, :]  # (d, out, in)
            parts = [grad_w.reshape(d, -1)]
            if layer.bias is not None:
                parts.append(grad)
            blocks.append(np.hstack(parts))
            grad = grad @ layer.weight
        else:
            grad = layer.backward(grad, cache)
    if not blocks:
        return np.zeros((d, 0))
    return np.hstack(blocks[::-1])


# Adam's moment decay rates and denominator guard (Kingma & Ba 2015)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class TrainConfig:
    """Loop settings for train(), which always runs Adam at ``ADAM_BETA1``,
    ``ADAM_BETA2`` and ``ADAM_EPS``; ``optimizer`` only names it. Experiment
    configs cannot set ``seed``; the loop derives one per run seed and
    cycle."""

    optimizer: str = "adam"
    lr: float = 1e-3
    epochs: int = 50
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        if self.lr < 0:
            raise ConfigError("lr must be >= 0")
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.optimizer != "adam":
            raise ConfigError(f"unknown optimizer {self.optimizer!r}; "
                              "the only optimizer is 'adam'")


def _class_targets(model, y):
    """``y`` as int64 class indices when the model ends in a Softmax, else
    as given. DataError names the first row whose target is not an integer
    in ``[0, C)``, C the width of the last Linear layer."""
    if not isinstance(model.layers[-1], Softmax):
        return y
    y = np.asarray(y)
    classes = next(layer for layer in reversed(model.layers)
                   if layer.n_params).weight.shape[0]
    bad = np.flatnonzero(~((y >= 0) & (y < classes) & (y == np.floor(y))))
    if bad.size:
        raise DataError(f"target row {bad[0]} ({y.flat[bad[0]]}) is not a "
                        f"class index in [0, {classes})")
    return y.astype(np.int64)


def _loss_and_grad(model, output, y):
    """Per-example losses and the gradient of their batch mean, and the index
    of the top layer that gradient enters. After a Softmax the loss is
    cross-entropy on the int64 class indices of ``_class_targets`` and the
    gradient is taken at the logits, so the Softmax layer is skipped;
    otherwise it is squared error at the model output.

    The logits gradient has the bits of the output gradient
    ``-1/(b·p_true)`` at the label pushed through ``Softmax.backward``:
    that row sum holds one nonzero term, ``v = (-1/(b·p_true))·p_true``, so
    the gradient is ``0 - p·v`` off the label and ``v - p_true·v`` on it."""
    b = output.shape[0]
    top = len(model.layers) - 1
    if isinstance(model.layers[-1], Softmax):
        rows = np.arange(b)
        p_true = output[rows, y]
        v = (-1.0 / (b * p_true)) * p_true
        grad = np.multiply(output, v[:, None])
        np.subtract(0.0, grad, out=grad)
        grad[rows, y] = v - p_true * v
        return -np.log(p_true), grad, top - 1
    y = np.asarray(y, dtype=np.float64)
    if y.ndim == 1:
        y = y[:, None]
    diff = output - y
    return (diff * diff).sum(axis=1), 2.0 * diff / b, top


def _param_views(model, flat):
    """``{layer index: (weight, bias or None)}`` of every parameter layer, as
    views of the flat vector ``flat`` laid out in ``flatten_params`` order."""
    views = {}
    offset = 0
    for i, layer in enumerate(model.layers):
        if not layer.n_params:
            continue
        rows, cols = layer.weight.shape[-2:]
        weight = flat[offset:offset + rows * cols].reshape(rows, cols)
        offset += rows * cols
        bias = None
        if layer.bias is not None:
            bias = flat[offset:offset + rows]
            offset += rows
        views[i] = (weight, bias)
    return views


def _backprop(model, x, y, grads, train, rng):
    """Forward ``x`` through the whole model and backpropagate the batch-mean
    loss, writing each parameter layer's gradient into its ``(weight, bias)``
    views in ``grads`` (see ``_param_views``); returns the per-example losses.

    The input gradient of the first parameter layer is not formed: no
    parameter lies below it.
    """
    out, caches = _forward_cached(model, x, len(model.layers), train, rng)
    losses, grad, top = _loss_and_grad(model, out, y)
    first = min(grads, default=len(model.layers))
    for i in range(top, first - 1, -1):
        layer = model.layers[i]
        if i not in grads:
            grad = layer.backward(grad, caches[i])
            continue
        grad_w, grad_b = grads[i]
        np.matmul(grad.T, caches[i], out=grad_w)
        if grad_b is not None:
            np.add.reduce(grad, axis=0, out=grad_b)
        if i > first:
            grad = grad @ layer.weight
    return losses


class _AdamState:
    """Adam (Kingma & Ba 2015), stepping θ in place. Each step evaluates,
    elementwise and in this order, ``m = β1·m + (1−β1)·g``,
    ``v = β2·v + ((1−β2)·g)·g`` and
    ``θ = θ − (lr·(m/(1−β1ᵗ))) / (√(v/(1−β2ᵗ)) + eps)``, with β1, β2 and
    eps the ``ADAM_*`` constants."""

    def __init__(self, lr, n):
        self.lr = lr
        self.m = np.zeros(n)
        self.v = np.zeros(n)
        self.t = 0
        self.step_buf = np.empty(n)
        self.denom = np.empty(n)

    def step(self, theta, grad):
        m, v, step, denom = self.m, self.v, self.step_buf, self.denom
        self.t += 1
        np.multiply(ADAM_BETA1, m, out=m)
        np.multiply(1 - ADAM_BETA1, grad, out=step)
        np.add(m, step, out=m)
        np.multiply(ADAM_BETA2, v, out=v)
        np.multiply(1 - ADAM_BETA2, grad, out=step)
        np.multiply(step, grad, out=step)
        np.add(v, step, out=v)
        np.divide(m, 1 - ADAM_BETA1 ** self.t, out=step)
        np.multiply(self.lr, step, out=step)
        np.divide(v, 1 - ADAM_BETA2 ** self.t, out=denom)
        np.sqrt(denom, out=denom)
        np.add(denom, ADAM_EPS, out=denom)
        np.divide(step, denom, out=step)
        np.subtract(theta, step, out=theta)


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

    Each epoch gathers its shuffled rows once and takes its batches as
    slices of them. The call runs at numpy's ufunc buffer ``_INFER_BUFSIZE``
    and restores the caller's size on return and on raise; its bits do not
    depend on either size.

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
    grad = np.empty_like(theta)
    grads = _param_views(model, grad)
    state = _AdamState(cfg.lr, theta.size)
    shuffled_losses, epoch_losses = np.empty(n), np.empty(n)
    curve = []
    previous = np.setbufsize(_INFER_BUFSIZE)
    try:
        for i, (weight, bias) in _param_views(model, theta).items():
            model.layers[i].weight, model.layers[i].bias = weight, bias
        for _ in range(cfg.epochs):
            order = gen.permutation(n)
            xs_epoch, ys_epoch = xs[order], ys[order]
            for start in range(0, n, cfg.batch_size):
                batch = slice(start, start + cfg.batch_size)
                shuffled_losses[batch] = _backprop(model, xs_epoch[batch],
                                                   ys_epoch[batch], grads, True, gen)
                state.step(theta, grad)
            # scatter per-example losses back to canonical positions so the
            # epoch mean does not depend on the shuffle's summation order
            epoch_losses[order] = shuffled_losses
            curve.append(float(epoch_losses.sum() / n))
    finally:
        np.setbufsize(previous)
        _write_params(model, theta)
    return curve
