"""Minimal dense MLP engine on float64 numpy arrays.

Provides layered feed-forward models with a designated feature tap, one
fixed-order eval forward, training with SGD/Adam (in place on one flat
parameter vector), flattened parameter views, in-place perturbation with
bit-exact restore (one direction, or a stack of directions evaluated in one
eval forward), and Jacobian oracles (backprop and central differences).

Conventions:
  * all numeric data is float64; inputs may be single examples ``(D,)`` or
    batches ``(B, D)``;
  * parameter flattening is layer-major, then row-major within a layer
    (weight matrix raveled C-order, then bias);
  * ReLU subgradient at 0 is 0;
  * dropout uses inverted scaling, so eval-mode forward is unscaled.

The eval pass (``_infer``, behind ``forward`` and ``forward_to``) runs with
numpy's ufunc buffer set to ``_INFER_BUFSIZE`` elements. Numpy sends a
broadcast that is small next to its buffer down a buffered loop that costs
several times the unbuffered one, and ``Linear.infer``'s ``(out, 1) x (1, N)``
multiply-adds at pool sizes are such broadcasts. Every op of the pass is
elementwise or a max, so the buffer size cannot move a bit there. It can
elsewhere: a strided ``sum`` reduces in buffer-sized pieces, so its bits
depend on the buffer size, and training, selection and theory run at the
caller's setting, which the pass restores on return and on raise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import ConfigError, DimensionError, InvalidStateError, NonFiniteError

TAP_FEATURE = "feature"
TAP_PREDICTIVE = "predictive"
TAP_LOGITS = "logits"

SCOPE_FEATURE = "feature_only"
SCOPE_ALL = "all"

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
        np.clip(shifted, _SOFTMAX_MIN_SHIFTED, None, out=shifted)
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
    after ``layers[:feature_tap]`` is the feature vector, and the layers before
    the tap own the feature-scope parameters.
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
        self._pristine = None  # (scope, saved flat params) while a perturbation is applied

    def scope_layers(self, scope):
        if scope == SCOPE_FEATURE:
            return range(self.feature_tap)
        if scope == SCOPE_ALL:
            return range(len(self.layers))
        raise ConfigError(f"unknown parameter scope {scope!r}")

    def n_params(self, scope=SCOPE_ALL) -> int:
        return sum(self.layers[i].n_params for i in self.scope_layers(scope))

    def tap_boundary(self, tap) -> int:
        """Layer boundary whose post-activation realizes the given tap."""
        if tap == TAP_FEATURE:
            return self.feature_tap
        if tap == TAP_PREDICTIVE:
            return len(self.layers)
        if tap == TAP_LOGITS:
            if isinstance(self.layers[-1], Softmax):
                return len(self.layers) - 1
            return len(self.layers)
        raise ConfigError(f"unknown tap {tap!r}")

    def copy(self) -> "MlpModel":
        """Deep copy of layers and parameters (cheap at desk scale)."""
        return MlpModel([l.copy() for l in self.layers], self.feature_tap)

    def has_dropout(self) -> bool:
        return any(isinstance(l, Dropout) for l in self.layers)


def build_mlp(input_dim, hidden, output_dim, *, task="classification",
              dropout=0.0, bias=True, seed=0, feature_tap=None) -> MlpModel:
    """Construct and He-initialize a Linear/ReLU(/Dropout) stack.

    Classification models end in Linear + Softmax, regression models in a bare
    Linear. The default feature tap sits just before the final Linear, so the
    body is the hidden stack and the head is the output layer.
    """
    gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
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
    tap_default = len(layers) if layers else None
    layers.append(Linear(w, np.zeros(output_dim) if bias else None))
    if task == "classification":
        layers.append(Softmax())
    elif task != "regression":
        raise ConfigError(f"unknown task {task!r}")
    if feature_tap is None:
        # with no hidden stack the only boundary before the head is degenerate;
        # fall back to tapping the raw output layer
        feature_tap = tap_default if tap_default else 1
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


def flatten_params(model, scope=SCOPE_ALL):
    """Scoped parameters as one vector, layer-major then row-major."""
    parts = [model.layers[i].flat_params()
             for i in model.scope_layers(scope) if model.layers[i].n_params]
    if not parts:
        return np.zeros(0)
    return np.concatenate(parts)


def set_params(model, vec, scope=SCOPE_ALL):
    """Write a flat vector back into the scoped layers (inverse of flatten)."""
    vec = np.asarray(vec, dtype=np.float64)
    expected = model.n_params(scope)
    if vec.shape != (expected,):
        raise DimensionError(f"expected parameter vector of length {expected}, got {vec.shape}")
    _write_params(model, vec, scope)


def _write_params(model, vec, scope):
    """Write an (n,) vector, or a (Kc, n) stack, into the scoped layers."""
    offset = 0
    for i in model.scope_layers(scope):
        layer = model.layers[i]
        if layer.n_params == 0:
            continue
        layer.set_flat_params(vec[..., offset:offset + layer.n_params])
        offset += layer.n_params


def apply_perturbation(model, delta, scope=SCOPE_ALL):
    """Add ``delta`` to the scoped parameters, keeping a pristine copy.

    ``delta`` is one direction, shape (n,), or a stack of Kc directions,
    shape (Kc, n). A stack leaves each scoped Linear holding (Kc, out, in)
    weights, ``current + delta`` broadcast over the stack, so row k has the
    bits a separate apply of ``delta[k]`` would give. Until the matching
    ``remove_perturbation`` only ``forward_to`` evaluates such a model.

    Restoring from the saved copy (rather than subtracting) makes
    apply/remove bit-exact under floating-point non-associativity.
    """
    if model._pristine is not None:
        raise InvalidStateError("a perturbation is already applied; remove it first")
    delta = np.asarray(delta, dtype=np.float64)
    current = flatten_params(model, scope)
    if delta.ndim not in (1, 2) or delta.shape[-1:] != current.shape:
        raise DimensionError(
            f"delta shape {delta.shape} is neither ({current.size},) nor a "
            f"(Kc, {current.size}) stack of scoped parameter vectors"
        )
    model._pristine = (scope, current)
    _write_params(model, current + delta, scope)


def remove_perturbation(model):
    """Restore the parameters saved by the matching apply_perturbation."""
    if model._pristine is None:
        raise InvalidStateError("no perturbation to remove")
    scope, saved = model._pristine
    _write_params(model, saved, scope)
    model._pristine = None


def jacobian(model, x, tap=TAP_FEATURE, scope=SCOPE_FEATURE):
    """Analytic Jacobian of the tap output w.r.t. the scoped flat parameters.

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
    blocks = {}
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
            blocks[i] = np.hstack(parts)
            grad = grad @ layer.weight
        else:
            grad = layer.backward(grad, cache)
    columns = []
    for i in model.scope_layers(scope):
        layer = model.layers[i]
        if layer.n_params == 0:
            continue
        if i in blocks:
            columns.append(blocks[i])
        else:
            # parameters in scope but downstream of the tap cannot move it
            columns.append(np.zeros((d, layer.n_params)))
    if not columns:
        return np.zeros((d, 0))
    return np.hstack(columns)


def finite_diff_jacobian(model, x, tap=TAP_FEATURE, scope=SCOPE_FEATURE, h=1e-5):
    """Central-difference Jacobian oracle, (f(θ+h·eⱼ) − f(θ−h·eⱼ)) / 2h."""
    if h <= 0:
        raise ConfigError("finite-difference step h must be positive")
    boundary = model.tap_boundary(tap)
    work = model.copy()
    theta = flatten_params(work, scope)
    base = np.atleast_1d(forward_to(work, x, boundary))
    jac = np.zeros((base.size, theta.size))
    for j in range(theta.size):
        step = np.zeros_like(theta)
        step[j] = h
        set_params(work, theta + step, scope)
        plus = np.atleast_1d(forward_to(work, x, boundary))
        set_params(work, theta - step, scope)
        minus = np.atleast_1d(forward_to(work, x, boundary))
        jac[:, j] = (plus - minus) / (2.0 * h)
    set_params(work, theta, scope)
    return jac


@dataclass
class TrainConfig:
    """Optimizer and loop settings for train(). Experiment configs cannot set
    ``seed``; the loop derives one per run seed and cycle."""

    optimizer: str = "adam"
    lr: float = 1e-3
    momentum: float = 0.0
    weight_decay: float = 0.0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    epochs: int = 50
    batch_size: int = 32
    loss: str = "cross_entropy"
    seed: int = 0

    def __post_init__(self):
        if self.lr < 0:
            raise ConfigError("lr must be >= 0")
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.optimizer not in ("sgd", "adam"):
            raise ConfigError(f"unknown optimizer {self.optimizer!r}")
        if self.loss not in ("cross_entropy", "squared_error"):
            raise ConfigError(f"unknown loss {self.loss!r}")
        # written as "not in range" so that NaN fails too
        for key in ("beta1", "beta2"):
            value = getattr(self, key)
            if not 0 <= value < 1:
                raise ConfigError(f"{key} must be in [0, 1), got {value!r}")
        if not self.eps > 0:
            raise ConfigError(f"eps must be > 0, got {self.eps!r}")
        for key in ("momentum", "weight_decay"):
            value = getattr(self, key)
            if not value >= 0:
                raise ConfigError(f"{key} must be >= 0, got {value!r}")
            # Adam has neither, and would train as if the key were absent
            if value and self.optimizer == "adam":
                raise ConfigError(f"{key} applies only to optimizer 'sgd'; "
                                  f"got {value!r} with 'adam'")


def _loss_and_grad(output, y, loss):
    """Per-example losses and the gradient of their batch mean w.r.t. the
    model output."""
    b = output.shape[0]
    if loss == "cross_entropy":
        y = np.asarray(y, dtype=np.int64)
        p_true = output[np.arange(b), y]
        grad = np.zeros_like(output)
        grad[np.arange(b), y] = -1.0 / (b * p_true)
        return -np.log(p_true), grad
    y = np.asarray(y, dtype=np.float64)
    if y.ndim == 1:
        y = y[:, None]
    diff = output - y
    return (diff * diff).sum(axis=1), 2.0 * diff / b


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


def _backprop(model, x, y, loss, grads, train, rng):
    """Forward ``x`` through the whole model and backpropagate the batch-mean
    loss, writing each parameter layer's gradient into its ``(weight, bias)``
    views in ``grads`` (see ``_param_views``); returns the per-example losses.

    The input gradient of the first parameter layer is not formed: no
    parameter lies below it.
    """
    out, caches = _forward_cached(model, x, len(model.layers), train, rng)
    losses, grad = _loss_and_grad(out, y, loss)
    first = min(grads, default=len(model.layers))
    for i in range(len(model.layers) - 1, first - 1, -1):
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


def loss_gradient(model, x, y, loss="cross_entropy", mode="eval", rng=None):
    """Flat gradient of the batch-mean loss w.r.t. all parameters, plus the
    per-example loss values: one step of ``train``'s backprop, into a new
    vector."""
    batch, _ = _as_batch(x)
    flat = np.empty(model.n_params())
    losses = _backprop(model, batch, y, loss, _param_views(model, flat),
                       mode == "train", rng)
    return flat, losses


class _SgdState:
    """SGD with momentum and weight decay, stepping θ in place. Each step
    evaluates, elementwise and in this order,
    ``g = grad + wd·θ``, ``vel = μ·vel + g``, ``θ = θ − lr·vel``."""

    def __init__(self, cfg, n):
        self.cfg = cfg
        self.velocity = np.zeros(n)
        self.scratch = np.empty(n)

    def step(self, theta, grad):
        cfg, vel, g = self.cfg, self.velocity, self.scratch
        np.multiply(cfg.weight_decay, theta, out=g)
        np.add(grad, g, out=g)
        np.multiply(cfg.momentum, vel, out=vel)
        np.add(vel, g, out=vel)
        np.multiply(cfg.lr, vel, out=g)
        np.subtract(theta, g, out=theta)


class _AdamState:
    """Adam (Kingma & Ba 2015), stepping θ in place. Each step evaluates,
    elementwise and in this order, ``m = β1·m + (1−β1)·g``,
    ``v = β2·v + ((1−β2)·g)·g`` and
    ``θ = θ − (lr·(m/(1−β1ᵗ))) / (√(v/(1−β2ᵗ)) + eps)``."""

    def __init__(self, cfg, n):
        self.cfg = cfg
        self.m = np.zeros(n)
        self.v = np.zeros(n)
        self.t = 0
        self.step_buf = np.empty(n)
        self.denom = np.empty(n)

    def step(self, theta, grad):
        cfg, m, v, step, denom = self.cfg, self.m, self.v, self.step_buf, self.denom
        self.t += 1
        np.multiply(cfg.beta1, m, out=m)
        np.multiply(1 - cfg.beta1, grad, out=step)
        np.add(m, step, out=m)
        np.multiply(cfg.beta2, v, out=v)
        np.multiply(1 - cfg.beta2, grad, out=step)
        np.multiply(step, grad, out=step)
        np.add(v, step, out=v)
        np.divide(m, 1 - cfg.beta1 ** self.t, out=step)
        np.multiply(cfg.lr, step, out=step)
        np.divide(v, 1 - cfg.beta2 ** self.t, out=denom)
        np.sqrt(denom, out=denom)
        np.add(denom, cfg.eps, out=denom)
        np.divide(step, denom, out=step)
        np.subtract(theta, step, out=theta)


def train(model, labeled, cfg: TrainConfig):
    """Mini-batch training in place on the ``(X, y)`` array pair ``labeled``;
    returns the per-epoch mean loss curve.

    For the length of the call every Linear layer's weight and bias are views
    of one flat parameter vector θ in ``flatten_params`` order. Each step
    backpropagates into views of one flat gradient vector and the optimizer
    updates θ in place, so no step flattens, concatenates or writes back.
    When the call returns or raises, the layers get owned copies of θ again,
    and none of them aliases a buffer of the call.

    Identical seed + data + config reproduce bit-identical final parameters.
    """
    xs, ys = labeled
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys)
    if xs.ndim != 2 or ys.shape[:1] != xs.shape[:1]:
        raise DimensionError("train expects an (X, y) pair: X of shape (N, D) "
                             "and one target per row")
    n = xs.shape[0]
    if n == 0:
        if cfg.epochs > 0:
            raise InvalidStateError("cannot train on an empty labeled set")
        return []
    gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(cfg.seed)))
    theta = flatten_params(model, SCOPE_ALL)
    grad = np.empty_like(theta)
    grads = _param_views(model, grad)
    state = (_SgdState if cfg.optimizer == "sgd" else _AdamState)(cfg, theta.size)
    curve = []
    try:
        for i, (weight, bias) in _param_views(model, theta).items():
            model.layers[i].weight, model.layers[i].bias = weight, bias
        for _ in range(cfg.epochs):
            order = gen.permutation(n)
            # scatter per-example losses back to canonical positions so the
            # epoch mean does not depend on the shuffle's summation order
            epoch_losses = np.zeros(n)
            for start in range(0, n, cfg.batch_size):
                idx = order[start:start + cfg.batch_size]
                epoch_losses[idx] = _backprop(model, xs[idx], ys[idx], cfg.loss,
                                              grads, True, gen)
                state.step(theta, grad)
            curve.append(float(epoch_losses.sum() / n))
    finally:
        _write_params(model, theta, SCOPE_ALL)
    return curve
