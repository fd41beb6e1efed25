"""Parameter-noise deviation embeddings.

One cycle's noise is a shared set of K unit directions u and a scale equal to
zeta times the L2 norm of the scoped parameters. Each unlabeled example is
embedded by the concatenation of its K normalized output deviations, scaled by
sqrt(n/K); the embedding's length is the uncertainty score and its direction
drives diverse batch selection.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from . import nn
from .exceptions import ConfigError, DimensionError, InvalidStateError

_TAPS = (nn.TAP_FEATURE, nn.TAP_PREDICTIVE, nn.TAP_LOGITS)


@dataclass
class NoiseConfig:
    """Noise magnitude and sampling settings for one embedding pass.

    ``tap`` picks where deviations are read: the deep feature, the post-softmax
    predictive output (default for classification), or the pre-softmax logits.
    The parameter scope follows the tap: perturbing exactly the parameters that
    feed it (feature tap -> body only, output taps -> all parameters).
    """

    zeta: float = 1e-3
    samplings: int = 30
    seed: int = 0
    tap: str = nn.TAP_PREDICTIVE
    scope: str | None = None

    def __post_init__(self):
        if self.zeta <= 0:
            raise ConfigError("zeta must be > 0")
        if self.samplings < 1:
            raise ConfigError("samplings must be >= 1")
        if self.tap not in _TAPS:
            raise ConfigError(f"unknown tap {self.tap!r}")
        derived = nn.SCOPE_FEATURE if self.tap == nn.TAP_FEATURE else nn.SCOPE_ALL
        if self.scope is None:
            self.scope = derived
        elif self.scope != derived:
            raise ConfigError(
                f"tap {self.tap!r} requires scope {derived!r}, got {self.scope!r}"
            )


@dataclass
class PerturbationSet:
    """K unit directions plus (optionally) the shared scale zeta * ||theta||."""

    directions: np.ndarray  # (K, n), rows unit-norm
    n: int
    magnitude: float | None = None
    tap: str = nn.TAP_FEATURE
    scope: str = nn.SCOPE_FEATURE

    @property
    def samplings(self) -> int:
        return self.directions.shape[0]

    def delta(self, k) -> np.ndarray:
        if self.magnitude is None:
            raise InvalidStateError("perturbation set has no magnitude attached")
        return self.magnitude * self.directions[k]


@dataclass
class DeviationEmbedding:
    """K deviation blocks and their sqrt(n/K)-scaled concatenation."""

    blocks: np.ndarray  # (K, d)
    vector: np.ndarray  # (K*d,)

    @classmethod
    def from_blocks(cls, blocks, n):
        blocks = np.asarray(blocks, dtype=np.float64)
        k = blocks.shape[0]
        vector = np.sqrt(n / k) * blocks.reshape(-1)
        return cls(blocks=blocks, vector=vector)


def sample_directions(n, samplings, seed) -> PerturbationSet:
    """K independent directions, each a normalized standard Gaussian draw
    (uniform on the unit sphere); deterministic per seed."""
    if n < 1:
        raise ConfigError("direction dimension n must be >= 1")
    if samplings < 1:
        raise ConfigError("samplings must be >= 1")
    gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    t = gen.standard_normal((samplings, n))
    norms = np.linalg.norm(t, axis=1, keepdims=True)
    # a zero draw has probability zero; resample defensively if it happens
    while np.any(norms == 0.0):
        bad = norms[:, 0] == 0.0
        t[bad] = gen.standard_normal((int(bad.sum()), n))
        norms = np.linalg.norm(t, axis=1, keepdims=True)
    return PerturbationSet(directions=t / norms, n=n)


def perturbation_set(model, cfg: NoiseConfig) -> PerturbationSet:
    """Sample the cycle's directions and attach the scale from the current
    scoped parameter norm."""
    n = model.n_params(cfg.scope)
    pset = sample_directions(n, cfg.samplings, cfg.seed)
    theta_norm = float(np.linalg.norm(nn.flatten_params(model, cfg.scope)))
    if theta_norm == 0.0:
        raise InvalidStateError("scoped parameters have zero norm; cannot scale noise")
    pset.magnitude = cfg.zeta * theta_norm
    pset.tap = cfg.tap
    pset.scope = cfg.scope
    return pset


def deviation_block(model, x, pset: PerturbationSet, k) -> np.ndarray:
    """Normalized output deviation for direction k:
    (f(x; theta + delta) - f(x; theta)) / (zeta * ||theta||).

    Applies the perturbation, reads the tap, and restores the parameters
    bit-exactly before returning.
    """
    boundary = model.tap_boundary(pset.tap)
    base = nn.forward_to(model, x, boundary)
    nn.apply_perturbation(model, pset.delta(k), pset.scope)
    try:
        perturbed = nn.forward_to(model, x, boundary)
    finally:
        nn.remove_perturbation(model)
    return (perturbed - base) / pset.magnitude


def _pool_blocks(model, xs, pset):
    """(K, N, d) deviation blocks: one ``nn.forward_to`` over the whole pool
    for the base and one per direction."""
    boundary = model.tap_boundary(pset.tap)
    base = nn.forward_to(model, xs, boundary)
    out = np.empty((pset.samplings,) + base.shape)
    for k in range(pset.samplings):
        nn.apply_perturbation(model, pset.delta(k), pset.scope)
        try:
            perturbed = nn.forward_to(model, xs, boundary)
        finally:
            nn.remove_perturbation(model)
        out[k] = (perturbed - base) / pset.magnitude
    return out


def embedding(model, x, pset: PerturbationSet) -> DeviationEmbedding:
    """Deviation embedding of a single example under a prepared set."""
    xs = np.asarray(x, dtype=np.float64)
    if xs.ndim != 1:
        raise DimensionError("embedding expects a single example vector")
    blocks = _pool_blocks(model, xs[None, :], pset)[:, 0, :]
    return DeviationEmbedding.from_blocks(blocks, pset.n)


def uncertainty_score(emb: DeviationEmbedding) -> float:
    """Euclidean length of the embedding (the selection criterion)."""
    return float(np.linalg.norm(emb.vector))


def pool_embeddings(model, pool, cfg: NoiseConfig):
    """Embeddings for every example in the pool under one shared direction set.

    Directions are sampled once per call, so identical examples get identical
    embeddings, the result is order-equivariant, and an example's embedding
    does not depend on what else is in the pool (see ``nn.forward_to``).
    """
    xs = np.asarray(pool, dtype=np.float64)
    if xs.size == 0:
        return []
    if xs.ndim == 1:
        xs = xs[None, :]
    pset = perturbation_set(model, cfg)
    blocks = _pool_blocks(model.copy(), xs, pset)
    return [DeviationEmbedding.from_blocks(blocks[:, i, :], pset.n)
            for i in range(xs.shape[0])]


def dump_embeddings(path, embeddings, *, n, samplings, zeta, seed, tap):
    """CSV matrix of embedding vectors (rows follow pool order); the header
    comment records n, K, d, zeta, seed and tap for offline analysis."""
    d = 0 if not embeddings else embeddings[0].blocks.shape[1]
    with open(path, "w", newline="") as fh:
        fh.write(f"# n={n} K={samplings} d={d} zeta={zeta!r} seed={seed} tap={tap}\n")
        writer = csv.writer(fh)
        for emb in embeddings:
            writer.writerow([repr(float(v)) for v in emb.vector])
