"""Parameter-noise deviation embeddings.

One cycle's noise is a shared set of K unit directions u and a scale equal to
zeta times the L2 norm of the parameters before the tap, the ones the noise
moves. Each unlabeled example is embedded by the concatenation of its K
normalized output deviations, scaled by sqrt(n/K); the embedding's length is
the uncertainty score and its direction drives diverse batch selection.
"""

from dataclasses import dataclass

import numpy as np

from . import nn, seeding
from .exceptions import (ConfigError, DimensionError, InvalidStateError,
                         check_dimension, check_fields)

_TAPS = (nn.TAP_FEATURE, nn.TAP_PREDICTIVE)


@dataclass
class NoiseConfig:
    """Noise magnitude and sampling settings for one embedding pass, each
    field checked for its JSON type and range as ``noise.<field>``.

    ``tap`` picks where deviations are read, the deep feature or the
    predictive output, and so the parameters the noise moves: those before
    it. ``seed`` picks the directions. Experiment configs set neither: the
    loop derives a seed per run seed and cycle, and the tap follows the
    dataset's task (``loop.ExperimentConfig``)."""

    zeta: float = 1e-3
    samplings: int = 30
    seed: int = 0
    tap: str = nn.TAP_PREDICTIVE

    def __post_init__(self):
        check_fields(self, "noise.")
        if self.zeta <= 0:
            raise ConfigError(f"noise.zeta must be > 0, got {self.zeta!r}")
        if self.samplings < 1:
            raise ConfigError(f"noise.samplings must be >= 1, got {self.samplings!r}")
        check_dimension(self.samplings, "noise.samplings")
        if self.tap not in _TAPS:
            raise ConfigError(f"unknown tap {self.tap!r}")


@dataclass
class PerturbationSet:
    """K unit directions over the parameters before the tap, zeta and
    ||theta||, whose product is the shared scale, and the tap."""

    directions: np.ndarray  # (K, n), rows unit-norm
    zeta: float
    theta_norm: float
    tap: str

    @property
    def magnitude(self) -> float:
        return self.zeta * self.theta_norm

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
    # a row's norm has the same bits in a block as in the whole array
    norms = np.empty((samplings, 1))
    for rows in nn.row_blocks(samplings, n):
        norms[rows] = np.linalg.norm(t[rows], axis=1, keepdims=True)
    # a zero draw has probability zero; resample defensively if it happens
    while np.any(norms == 0.0):
        bad = norms[:, 0] == 0.0
        t[bad] = gen.standard_normal((int(bad.sum()), n))
        norms[bad] = np.linalg.norm(t[bad], axis=1, keepdims=True)
    t /= norms
    return t


def perturbation_set(model, cfg: NoiseConfig) -> PerturbationSet:
    """Sample the cycle's directions and attach the scale m = zeta * ||theta||
    from the current parameters before the tap.

    Raises ``InvalidStateError`` if ||theta|| is zero. A scale m below
    float64 resolution is found where it matters, in the outputs
    (``_deviations``), not here.
    """
    directions = sample_directions(model.n_params(cfg.tap), cfg.samplings, cfg.seed)
    theta_norm = float(np.linalg.norm(nn.flatten_params(model, cfg.tap)))
    if theta_norm == 0.0:
        raise InvalidStateError("parameters before the tap have zero norm; cannot scale noise")
    return PerturbationSet(directions=directions, zeta=cfg.zeta,
                           theta_norm=theta_norm, tap=cfg.tap)


def _deviations(model, xs, pset, directions):
    """(N, K, d) normalized output deviations of the rows of ``xs`` along the
    K rows of ``directions``, (f(x; theta + m u_k) - f(x; theta)) / m with
    m = zeta * ||theta||.

    One ``nn.forward_to`` over all rows for the base, then one per chunk of
    directions: each chunk is applied as one (Kc, n) stack and removed,
    restoring the parameters bit-exactly, before the next. A pool of
    thousands runs one direction per pass, about 600 rows at width 32 run
    three (``nn.directions_per_pass``). A row's deviation for a direction has
    the same bits whatever the chunk size (see ``nn.forward_to``). Each chunk's
    ``perturbed - base`` and its division by m run in place on the chunk's own
    feature-major output, which shares no memory with anything else (see
    ``nn.forward_to``), and one assignment writes it into the chunk's slice of
    the result.

    The one resolution check: ``InvalidStateError`` naming zeta, ||theta||
    and the direction if a direction's deviation is exactly 0 on every row
    and output while some row's ``nn.jacobian`` is nonzero (theta + m u_k
    rounding back to theta is one such case). Where every Jacobian is zero
    (a bias-free map at the origin), the zero embedding is exact and is
    returned. The check reads each chunk's output before it is written out;
    the Jacobians run only when a direction reads all zero.
    """
    boundary = model.tap_boundary(pset.tap)
    base = nn.forward_to(model, xs, boundary)
    n_dirs = directions.shape[0]
    out = np.empty((base.shape[0], n_dirs, base.shape[1]))
    by_direction = out.swapaxes(0, 1)
    moved = np.empty(n_dirs, dtype=bool)
    chunk = nn.directions_per_pass(model.layers[:boundary], base.shape[0],
                                   pset.n)
    for start in range(0, n_dirs, chunk):
        stop = min(start + chunk, n_dirs)
        nn.apply_perturbation(model, pset.magnitude * directions[start:stop],
                              pset.tap)
        try:
            perturbed = nn.forward_to(model, xs, boundary)
        finally:
            nn.remove_perturbation(model)
        # the fresh (Kc, d, N) array under forward_to's transposed view
        block = perturbed.swapaxes(-1, -2)
        np.subtract(block, base.T, out=block)
        np.divide(block, pset.magnitude, out=block)
        moved[start:stop] = block.any(axis=(1, 2))
        by_direction[start:stop] = perturbed
    if not moved.all() and any(nn.jacobian(model, row, pset.tap).any()
                               for row in xs):
        raise InvalidStateError(
            f"noise.zeta {pset.zeta!r} times ||theta|| {pset.theta_norm!r} is below "
            f"float64 resolution: direction {int(np.argmin(moved))} leaves every "
            "output at the tap unchanged")
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
