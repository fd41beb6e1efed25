"""Reference query strategies: random, entropy, coreset-on-features, BADGE,
and Monte Carlo dropout BALD.

All strategies are pure given their inputs and seed. Scores use natural
logarithms throughout.
"""

from __future__ import annotations

import numpy as np

from . import nn, seeding
from .exceptions import ConfigError, DataError
from .selection import SelectionRequest, greedy_k_center, kmeans_pp, top_scores


def select_random(pool_size, budget, seed):
    """Uniform sample without replacement, deterministic per seed."""
    if budget > pool_size:
        raise ConfigError(f"budget {budget} exceeds pool size {pool_size}")
    gen = seeding.rng(seed)
    return [int(i) for i in gen.choice(pool_size, size=budget, replace=False)]


def entropy_rows(probs) -> np.ndarray:
    """Shannon entropy per distribution row, with 0*log(0) = 0; a NaN entry
    gives a NaN entropy."""
    probs = np.asarray(probs, dtype=np.float64)
    terms = probs * np.log(np.where(probs > 0.0, probs, 1.0))
    return -terms.sum(axis=1)


def select_entropy(probs, budget):
    """Highest predictive-entropy rows; ties broken toward the lowest index."""
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 2:
        raise DataError("probs must be an (N, C) matrix")
    if np.any(probs < 0.0):
        raise DataError("probability entries must be nonnegative")
    sums = probs.sum(axis=1)
    bad = np.flatnonzero(np.abs(sums - 1.0) > 1e-9)
    if bad.size:
        raise DataError(f"row {int(bad[0])} does not sum to 1 (sum={sums[bad[0]]!r})")
    if budget > probs.shape[0]:
        raise ConfigError(f"budget {budget} exceeds pool size {probs.shape[0]}")
    return top_scores(entropy_rows(probs), budget)


def select_coreset(features, labeled_features, budget):
    """Greedy k-center on raw feature vectors, seeded from labeled features."""
    req = SelectionRequest(embeddings=features, budget=budget,
                           seeds_from_labeled=labeled_features)
    return greedy_k_center(req)


def badge_embedding(feature, probs):
    """Pseudo-label gradient embedding: block i is (p_i - 1[yhat=i]) * z,
    blocks concatenated in class order (yhat = argmax p, ties to the lowest
    class)."""
    z = np.asarray(feature, dtype=np.float64)
    p = np.asarray(probs, dtype=np.float64)
    if z.ndim != 1 or p.ndim != 1:
        raise DataError("badge_embedding expects one feature vector and one distribution")
    return badge_embeddings(z[None, :], p[None, :])[0]


def badge_embeddings(features, probs):
    """badge_embedding of every (feature, distribution) row pair of a pool."""
    features = np.asarray(features, dtype=np.float64)
    probs = np.asarray(probs, dtype=np.float64)
    coeff = probs.copy()
    coeff[np.arange(coeff.shape[0]), np.argmax(probs, axis=1)] -= 1.0
    n, width = features.shape[0], probs.shape[1] * features.shape[1]
    return (coeff[:, :, None] * features[:, None, :]).reshape(n, width)


def select_badge(features, probs, budget, seed):
    """BADGE pairs the pseudo-label gradient embedding with kmeans++ seeding."""
    emb = badge_embeddings(features, probs)
    req = SelectionRequest(embeddings=emb, budget=budget, seed=seed,
                           method="kmeans_pp")
    return kmeans_pp(req)


def bald_scores(mc_probs) -> np.ndarray:
    """Mutual information H(mean_t p_t) - mean_t H(p_t) from (T, N, C) probs."""
    mc_probs = np.asarray(mc_probs, dtype=np.float64)
    mean_p = mc_probs.mean(axis=0)
    return entropy_rows(mean_p) - np.stack(
        [entropy_rows(p) for p in mc_probs]).mean(axis=0)


def select_bald_mcdropout(model, pool, mc_samples, budget, seed):
    """BALD acquisition with seeded Monte Carlo dropout masks.

    Runs ``mc_samples`` stochastic forward passes (dropout active, parameters
    untouched) and ranks by mutual information. A pool row holding a NaN or
    an infinity raises ``NonFiniteError`` naming it.
    """
    if not model.has_dropout():
        raise ConfigError("BALD via MC dropout needs a model with a dropout layer")
    if mc_samples < 2:
        raise ConfigError("mc_samples must be >= 2")
    pool = np.asarray(pool, dtype=np.float64)
    nn.check_finite_rows(pool, "pool")
    if budget > pool.shape[0]:
        raise ConfigError(f"budget {budget} exceeds pool size {pool.shape[0]}")
    probs = []
    for t in range(mc_samples):
        gen = seeding.rng(seed, t)
        out, _ = nn._forward_cached(model, pool, len(model.layers), True, gen)
        probs.append(out)
    return top_scores(bald_scores(np.stack(probs)), budget)
