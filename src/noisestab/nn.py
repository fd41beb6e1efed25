"""Minimal dense MLP engine on float64 numpy arrays.

Provides layered feed-forward models with a designated feature tap, training
with SGD/Adam, flattened parameter views, in-place parameter perturbation with
bit-exact restore, and two Jacobian oracles (analytic backprop and central
finite differences).

Conventions:
  * all numeric data is float64; inputs may be single examples ``(D,)`` or
    batches ``(B, D)``;
  * parameter flattening is layer-major, then row-major within a layer
    (weight matrix raveled C-order, then bias);
  * ReLU subgradient at 0 is 0;
  * dropout uses inverted scaling, so eval-mode forward is unscaled.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from .exceptions import ConfigError, DimensionError, InvalidStateError

TAP_FEATURE = "feature"
TAP_PREDICTIVE = "predictive"
TAP_LOGITS = "logits"

SCOPE_FEATURE = "feature_only"
SCOPE_ALL = "all"

# Shifted logits below this underflow exp() to exactly 0; clipping keeps
# softmax outputs strictly positive without visibly changing probabilities.
_SOFTMAX_MIN_SHIFTED = -700.0


class Linear:
    """Affine layer ``y = x @ W.T + b`` with weight (out, in) and optional bias."""

    def __init__(self, weight, bias=None):
        self.weight = np.asarray(weight, dtype=np.float64)
        if self.weight.ndim != 2:
            raise DimensionError("Linear weight must be 2-D (out, in)")
        self.bias = None if bias is None else np.asarray(bias, dtype=np.float64)
        if self.bias is not None and self.bias.shape != (self.weight.shape[0],):
            raise DimensionError("Linear bias length must equal the output width")

    @property
    def n_params(self) -> int:
        return self.weight.size + (0 if self.bias is None else self.bias.size)

    def _check_width(self, x):
        if x.shape[1] != self.weight.shape[1]:
            raise DimensionError(
                f"input width {x.shape[1]} does not match layer width {self.weight.shape[1]}"
            )

    def forward(self, x, train, rng):
        self._check_width(x)
        y = x @ self.weight.T
        if self.bias is not None:
            y = y + self.bias
        return y, x

    def infer(self, x):
        """Eval forward ``y = b + sum_j x[:, j] * W[:, j]``, accumulated in j order."""
        self._check_width(x)
        # built transposed, (out, B), so every multiply-add runs over a
        # contiguous row of the batch
        out = np.empty((self.weight.shape[0], x.shape[0]))
        out[...] = 0.0 if self.bias is None else self.bias[:, None]
        term = np.empty_like(out)
        for w_j, x_j in zip(self.weight.T[:, :, None], x.T):
            np.multiply(w_j, x_j, out=term)
            out += term
        return out.T

    def backward(self, grad, cache):
        grad_w = grad.T @ cache
        grad_b = None if self.bias is None else grad.sum(axis=0)
        return grad @ self.weight, (grad_w, grad_b)

    def flat_params(self):
        parts = [self.weight.ravel()]
        if self.bias is not None:
            parts.append(self.bias)
        return np.concatenate(parts)

    def set_flat_params(self, vec):
        w_size = self.weight.size
        self.weight = vec[:w_size].reshape(self.weight.shape).copy()
        if self.bias is not None:
            self.bias = vec[w_size:].copy()

    def spec(self):
        return {
            "kind": "linear",
            "in": int(self.weight.shape[1]),
            "out": int(self.weight.shape[0]),
            "bias": self.bias is not None,
        }

    def copy(self):
        return Linear(self.weight.copy(), None if self.bias is None else self.bias.copy())


class ReLU:
    n_params = 0

    def forward(self, x, train, rng):
        mask = x > 0.0
        return np.where(mask, x, 0.0), mask

    def infer(self, x):
        return np.where(x > 0.0, x, 0.0)

    def backward(self, grad, cache):
        return grad * cache, None

    def spec(self):
        return {"kind": "relu"}

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
            return grad, None
        return grad * cache, None

    def spec(self):
        return {"kind": "dropout", "rate": self.rate}

    def copy(self):
        return Dropout(self.rate)


class Softmax:
    n_params = 0

    @staticmethod
    def _shifted_exp(x):
        shifted = x - x.max(axis=1, keepdims=True)
        np.clip(shifted, _SOFTMAX_MIN_SHIFTED, None, out=shifted)
        return np.exp(shifted)

    def forward(self, x, train, rng):
        e = self._shifted_exp(x)
        p = e / e.sum(axis=1, keepdims=True)
        return p, p

    def infer(self, x):
        # the row max is exact in any order; the normalizer is summed column
        # by column
        e = self._shifted_exp(x)
        total = e[:, 0].copy()
        for column in e.T[1:]:
            total += column
        return e / total[:, None]

    def backward(self, grad, cache):
        p = cache
        inner = (grad * p).sum(axis=1, keepdims=True)
        return p * grad - p * inner, None

    def spec(self):
        return {"kind": "softmax"}

    def copy(self):
        return Softmax()


_LAYER_KINDS = {"linear", "relu", "dropout", "softmax"}


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

    @property
    def n_feature_params(self) -> int:
        return sum(l.n_params for l in self.layers[: self.feature_tap])

    @property
    def n_total_params(self) -> int:
        return sum(l.n_params for l in self.layers)

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


def _forward_cached(model, x, boundary, train=False, rng=None):
    acts = x
    caches = []
    for layer in model.layers[:boundary]:
        acts, cache = layer.forward(acts, train, rng)
        caches.append(cache)
    return acts, caches


def forward(model, x, mode="eval", rng=None):
    """Full forward pass; returns (feature, output).

    Eval mode is a pure function of (parameters, x): dropout is the identity.
    """
    if mode not in ("eval", "train"):
        raise ConfigError(f"unknown forward mode {mode!r}")
    batch, squeeze = _as_batch(x)
    train = mode == "train"
    acts = batch
    feature = None
    for i, layer in enumerate(model.layers):
        acts, _ = layer.forward(acts, train, rng)
        if i + 1 == model.feature_tap:
            feature = acts
    if squeeze:
        return feature[0], acts[0]
    return feature, acts


def forward_to(model, x, boundary):
    """Eval-mode activations after ``layers[:boundary]``.

    Every row goes through the same floating-point operations whatever the
    batch holds: each Linear adds its products ``x[:, j] * W[:, j]`` to the
    bias one input column at a time in a fixed order, the Softmax normalizer
    is summed one column at a time, and everything else is elementwise. A row's
    output therefore depends only on (parameters, row), bit for bit, never on
    the batch size or the row's position (BLAS GEMM gives no such promise), so
    a whole pool can be evaluated in one call. ``forward`` and training use
    BLAS and agree with this path to rounding.
    """
    if not 0 < boundary <= len(model.layers):
        raise ConfigError(f"boundary {boundary} out of range")
    acts, squeeze = _as_batch(x)
    for layer in model.layers[:boundary]:
        acts = layer.infer(acts)
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
    offset = 0
    for i in model.scope_layers(scope):
        layer = model.layers[i]
        if layer.n_params == 0:
            continue
        layer.set_flat_params(vec[offset:offset + layer.n_params])
        offset += layer.n_params


def apply_perturbation(model, delta, scope=SCOPE_ALL):
    """Add ``delta`` to the scoped parameters, keeping a pristine copy.

    Restoring from the saved copy (rather than subtracting) makes
    apply/remove bit-exact under floating-point non-associativity.
    """
    if model._pristine is not None:
        raise InvalidStateError("a perturbation is already applied; remove it first")
    delta = np.asarray(delta, dtype=np.float64)
    current = flatten_params(model, scope)
    if delta.shape != current.shape:
        raise DimensionError(
            f"delta length {delta.shape} does not match scoped parameter count {current.shape}"
        )
    model._pristine = (scope, current)
    set_params(model, current + delta, scope)


def remove_perturbation(model):
    """Restore the parameters saved by the matching apply_perturbation."""
    if model._pristine is None:
        raise InvalidStateError("no perturbation to remove")
    scope, saved = model._pristine
    set_params(model, saved, scope)
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
            grad, _ = layer.backward(grad, cache)
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
    """Optimizer and loop settings for train()."""

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


def loss_gradient(model, x, y, loss="cross_entropy", mode="eval", rng=None):
    """Flat gradient of the batch-mean loss w.r.t. all parameters, plus the
    per-example loss values."""
    batch, _ = _as_batch(x)
    out, caches = _forward_cached(model, batch, len(model.layers),
                                  train=(mode == "train"), rng=rng)
    losses, grad = _loss_and_grad(out, y, loss)
    grads = {}
    for i in range(len(model.layers) - 1, -1, -1):
        layer = model.layers[i]
        grad, param_grad = layer.backward(grad, caches[i])
        if param_grad is not None:
            grads[i] = param_grad
    parts = []
    for i in range(len(model.layers)):
        if model.layers[i].n_params == 0:
            continue
        grad_w, grad_b = grads[i]
        parts.append(grad_w.ravel())
        if grad_b is not None:
            parts.append(grad_b)
    return np.concatenate(parts), losses


class _SgdState:
    def __init__(self, cfg, n):
        self.cfg = cfg
        self.velocity = np.zeros(n)

    def step(self, theta, grad):
        g = grad + self.cfg.weight_decay * theta
        self.velocity = self.cfg.momentum * self.velocity + g
        return theta - self.cfg.lr * self.velocity


class _AdamState:
    def __init__(self, cfg, n):
        self.cfg = cfg
        self.m = np.zeros(n)
        self.v = np.zeros(n)
        self.t = 0

    def step(self, theta, grad):
        cfg = self.cfg
        self.t += 1
        self.m = cfg.beta1 * self.m + (1 - cfg.beta1) * grad
        self.v = cfg.beta2 * self.v + (1 - cfg.beta2) * grad * grad
        m_hat = self.m / (1 - cfg.beta1 ** self.t)
        v_hat = self.v / (1 - cfg.beta2 ** self.t)
        return theta - cfg.lr * m_hat / (np.sqrt(v_hat) + cfg.eps)


def train(model, labeled, cfg: TrainConfig):
    """Mini-batch training in place; returns the per-epoch mean loss curve.

    ``labeled`` is either a list of (x, y) pairs or an (X, y) array pair.
    Identical seed + data + config reproduce bit-identical final parameters.
    """
    if isinstance(labeled, tuple) and len(labeled) == 2:
        xs = np.asarray(labeled[0], dtype=np.float64)
        ys = np.asarray(labeled[1])
    else:
        pairs = list(labeled)
        if not pairs:
            xs = np.zeros((0, 0))
            ys = np.zeros(0)
        else:
            xs = np.asarray([np.asarray(p[0], dtype=np.float64) for p in pairs])
            ys = np.asarray([p[1] for p in pairs])
    n = xs.shape[0]
    if n == 0:
        if cfg.epochs > 0:
            raise InvalidStateError("cannot train on an empty labeled set")
        return []
    gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(cfg.seed)))
    theta = flatten_params(model, SCOPE_ALL)
    state = (_SgdState if cfg.optimizer == "sgd" else _AdamState)(cfg, theta.size)
    curve = []
    for _ in range(cfg.epochs):
        order = gen.permutation(n)
        # scatter per-example losses back to canonical positions so the epoch
        # mean does not depend on the shuffle's summation order
        epoch_losses = np.zeros(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            grad, losses = loss_gradient(model, xs[idx], ys[idx], cfg.loss,
                                         mode="train", rng=gen)
            epoch_losses[idx] = losses
            theta = state.step(flatten_params(model, SCOPE_ALL), grad)
            set_params(model, theta, SCOPE_ALL)
        curve.append(float(epoch_losses.sum() / n))
    return curve


CHECKPOINT_VERSION = 1


def save_model(model, path):
    """Versioned JSON checkpoint; float64 values survive the decimal roundtrip
    bit-exactly (Python emits shortest-roundtrip representations, at most 17
    significant digits)."""
    doc = {
        "format_version": CHECKPOINT_VERSION,
        "layers": [l.spec() for l in model.layers],
        "feature_tap": model.feature_tap,
        "params": flatten_params(model, SCOPE_ALL).tolist(),
    }
    tmp_fd, tmp_path = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)) or ".")
    try:
        with os.fdopen(tmp_fd, "w") as fh:
            json.dump(doc, fh)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def load_model(path) -> MlpModel:
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("format_version") != CHECKPOINT_VERSION:
        raise ConfigError(f"unsupported checkpoint version {doc.get('format_version')!r}")
    layers = []
    for spec in doc["layers"]:
        kind = spec.get("kind")
        if kind == "linear":
            w = np.zeros((spec["out"], spec["in"]))
            b = np.zeros(spec["out"]) if spec["bias"] else None
            layers.append(Linear(w, b))
        elif kind == "relu":
            layers.append(ReLU())
        elif kind == "dropout":
            layers.append(Dropout(spec["rate"]))
        elif kind == "softmax":
            layers.append(Softmax())
        else:
            raise ConfigError(f"unknown layer kind {kind!r} in checkpoint")
    model = MlpModel(layers, doc["feature_tap"])
    set_params(model, np.asarray(doc["params"], dtype=np.float64), SCOPE_ALL)
    return model
