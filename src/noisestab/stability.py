"""Parameter-noise deviation embeddings.

One cycle's noise is a shared set of K unit directions u and a scale equal to
zeta times the L2 norm of the parameters before the tap, the ones the noise
moves. Each unlabeled example is embedded by the concatenation of its K
normalized output deviations, scaled by sqrt(n/K); the embedding's length is
the uncertainty score and its direction drives diverse batch selection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import nn, seeding
from .exceptions import ConfigError, DimensionError, InvalidStateError

_TAPS = (nn.TAP_FEATURE, nn.TAP_PREDICTIVE)

# entries one chunk of directions may take (the size of
# selection._BLOCK_ENTRIES): each direction costs its activations over the
# rows, N times the widest layer up to the tap, plus its copy of the
# parameters before the tap. A pool of thousands runs one direction per pass;
# a single example runs hundreds.
_CHUNK_ENTRIES = 32768


@dataclass
class NoiseConfig:
    """Noise magnitude and sampling settings for one embedding pass.

    ``tap`` picks where deviations are read, the deep feature or the
    predictive output, and so the parameters the noise moves: those before
    it. ``seed`` picks the directions. Experiment configs set
    neither: the loop derives a seed per run seed and cycle, and the tap
    follows the dataset's task (``loop.ExperimentConfig``).
    """

    zeta: float = 1e-3
    samplings: int = 30
    seed: int = 0
    tap: str = nn.TAP_PREDICTIVE

    def __post_init__(self):
        if not 0 < self.zeta < math.inf:
            raise ConfigError(f"zeta must be a finite number > 0, got {self.zeta!r}")
        if self.samplings < 1:
            raise ConfigError("samplings must be >= 1")
        if self.tap not in _TAPS:
            raise ConfigError(f"unknown tap {self.tap!r}")


@dataclass
class PerturbationSet:
    """K unit directions over the parameters before the tap, the shared
    scale zeta * ||theta||, and the tap."""

    directions: np.ndarray  # (K, n), rows unit-norm
    magnitude: float
    tap: str

    @property
    def n(self) -> int:
        return self.directions.shape[1]

    @property
    def samplings(self) -> int:
        return self.directions.shape[0]


def sample_directions(n, samplings, seed) -> np.ndarray:
    """(K, n) independent directions, each a normalized standard Gaussian draw
    (uniform on the unit sphere); deterministic per seed."""
    if n < 1:
        raise ConfigError("direction dimension n must be >= 1")
    if samplings < 1:
        raise ConfigError("samplings must be >= 1")
    gen = seeding.rng(seed)
    t = gen.standard_normal((samplings, n))
    # row norms in blocks of rows, so no temporary is the size of t; a row's
    # norm has the same bits in a block as in the whole array
    norms = np.empty((samplings, 1))
    rows = max(1, _CHUNK_ENTRIES // n)
    for start in range(0, samplings, rows):
        norms[start:start + rows] = np.linalg.norm(t[start:start + rows], axis=1,
                                                   keepdims=True)
    # a zero draw has probability zero; resample defensively if it happens
    while np.any(norms == 0.0):
        bad = norms[:, 0] == 0.0
        t[bad] = gen.standard_normal((int(bad.sum()), n))
        norms[bad] = np.linalg.norm(t[bad], axis=1, keepdims=True)
    t /= norms
    return t


def perturbation_set(model, cfg: NoiseConfig) -> PerturbationSet:
    """Sample the cycle's directions and attach the scale from the current
    norm of the parameters before the tap."""
    n = model.n_params(cfg.tap)
    directions = sample_directions(n, cfg.samplings, cfg.seed)
    theta_norm = float(np.linalg.norm(nn.flatten_params(model, cfg.tap)))
    if theta_norm == 0.0:
        raise InvalidStateError("parameters before the tap have zero norm; cannot scale noise")
    return PerturbationSet(directions=directions, magnitude=cfg.zeta * theta_norm,
                           tap=cfg.tap)


def _chunk_size(model, boundary, n_rows, n_params):
    """Directions per pass: as many as fit in ``_CHUNK_ENTRIES``, at least one."""
    widest = max((layer.weight.shape[-2] for layer in model.layers[:boundary]
                  if isinstance(layer, nn.Linear)), default=1)
    return max(1, _CHUNK_ENTRIES // (n_rows * widest + n_params))


def _deviations(model, xs, pset, directions):
    """(N, K, d) normalized output deviations of the rows of ``xs`` along the
    K rows of ``directions``, (f(x; theta + m u_k) - f(x; theta)) / m with
    m = zeta * ||theta||.

    One ``nn.forward_to`` over all rows for the base, then one per chunk of
    directions: each chunk is applied as one (Kc, n) stack and removed,
    restoring the parameters bit-exactly, before the next. A row's deviation
    for a direction has the same bits whatever the chunk size (see
    ``nn.forward_to``).
    """
    boundary = model.tap_boundary(pset.tap)
    base = nn.forward_to(model, xs, boundary)
    n_dirs = directions.shape[0]
    out = np.empty((base.shape[0], n_dirs, base.shape[1]))
    by_direction = out.swapaxes(0, 1)
    chunk = _chunk_size(model, boundary, base.shape[0], pset.n)
    for start in range(0, n_dirs, chunk):
        stop = min(start + chunk, n_dirs)
        nn.apply_perturbation(model, pset.magnitude * directions[start:stop],
                              pset.tap)
        try:
            perturbed = nn.forward_to(model, xs, boundary)
        finally:
            nn.remove_perturbation(model)
        by_direction[start:stop] = (perturbed - base) / pset.magnitude
    return out


def _embed(model, xs, pset):
    """(N, K*d) matrix: row i is the sqrt(n/K)-scaled concatenation of row i's
    K deviation blocks."""
    blocks = _deviations(model, xs, pset, pset.directions)
    blocks *= np.sqrt(pset.n / pset.samplings)
    return blocks.reshape(xs.shape[0], pset.samplings * blocks.shape[2])


def embedding(model, x, pset: PerturbationSet) -> np.ndarray:
    """Deviation embedding (K*d,) of a single example under a prepared set."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise DimensionError("embedding expects a single example vector")
    nn.check_finite_rows(x[None, :], "embedding input")
    return _embed(model, x[None, :], pset)[0]


def pool_embeddings(model, pool, cfg: NoiseConfig) -> np.ndarray:
    """(N, K*d) embedding matrix of an (N, D) pool under one shared direction
    set; row i is example i's embedding.

    Directions are sampled once per call, so identical examples get identical
    rows, the result is order-equivariant, and an example's row does not
    depend on what else is in the pool (see ``nn.forward_to``). A row holding
    a NaN or an infinity raises ``NonFiniteError`` naming it.
    """
    xs = np.asarray(pool, dtype=np.float64)
    if xs.ndim != 2:
        raise DimensionError("pool_embeddings expects an (N, D) pool; "
                             "embed a single example with embedding()")
    nn.check_finite_rows(xs, "pool")
    return _embed(model.copy(), xs, perturbation_set(model, cfg))
