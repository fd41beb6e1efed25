"""Batch subset selection over embedding vectors.

Greedy k-center (farthest-point traversal) is the primary selector; kmeans++
seeding, magnitude-only top-k, and direction-only (normalized) k-center cover
the swap study and the two degenerate ablation selectors. All selectors are
pure functions of their request and break ties toward the lowest index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import ConfigError, DimensionError, NonFiniteError

METHODS = ("k_center", "kmeans_pp", "top_magnitude", "k_center_normalized")
# the methods that start from ``seeds_from_labeled``; the others ignore it
SEEDED_METHODS = ("k_center", "k_center_normalized")


@dataclass
class SelectionRequest:
    embeddings: np.ndarray  # (N, L)
    budget: int
    seeds_from_labeled: np.ndarray | None = None  # (M, L)
    seed: int = 0
    method: str = "k_center"

    def __post_init__(self):
        self.embeddings = np.asarray(self.embeddings, dtype=np.float64)
        if self.embeddings.ndim != 2:
            raise DimensionError("embeddings must form an (N, L) matrix")
        if not np.isfinite(self.embeddings).all():
            raise NonFiniteError("embeddings contain NaN or infinite values")
        if self.seeds_from_labeled is not None:
            self.seeds_from_labeled = np.asarray(self.seeds_from_labeled, dtype=np.float64)
            if self.seeds_from_labeled.size == 0:
                self.seeds_from_labeled = None
            elif self.seeds_from_labeled.ndim != 2:
                raise DimensionError("labeled embeddings must form an (M, L) matrix")
            elif self.seeds_from_labeled.shape[1] != self.embeddings.shape[1]:
                raise DimensionError("labeled embeddings must match the pool embedding length")
            elif not np.isfinite(self.seeds_from_labeled).all():
                raise NonFiniteError("labeled embeddings contain NaN or infinite values")
        if not 0 <= self.budget <= self.embeddings.shape[0]:
            raise ConfigError(
                f"budget {self.budget} outside [0, {self.embeddings.shape[0]}]"
            )
        if self.method not in METHODS:
            raise ConfigError(f"unknown selection method {self.method!r}")


# float64 entries per block of differences (256 KiB): the block stays in cache
# while it is squared and summed, where one (N, L) difference matrix would not.
# Counting entries, not rows, gives narrow and wide embeddings alike blocks of
# that size.
_BLOCK_ENTRIES = 32768


class _Distances:
    """Euclidean distances from every row of an (N, L) matrix to a center.

    Owns a block of B = _BLOCK_ENTRIES // L difference rows and the (N,)
    result, so a selection call allocates them once, not on every pick. ``to``
    returns the result buffer, which its next call overwrites. Each row is
    squared, summed with ``np.add.reduce`` and square-rooted, which is how
    ``np.linalg.norm(d, axis=1)`` computes it, so the distances keep their
    bits whatever the block size.
    """

    def __init__(self, points):
        self.points = points
        width = max(1, points.shape[1])
        self.block = min(max(1, _BLOCK_ENTRIES // width), points.shape[0])
        self.diff = np.empty((self.block, points.shape[1]))
        self.out = np.empty(points.shape[0])

    def to(self, center):
        for start in range(0, self.points.shape[0], self.block):
            rows = self.points[start:start + self.block]
            d = self.diff[:rows.shape[0]]
            np.subtract(rows, center, out=d)
            np.multiply(d, d, out=d)
            np.add.reduce(d, axis=1, out=self.out[start:start + rows.shape[0]])
        return np.sqrt(self.out, out=self.out)


def greedy_k_center(req: SelectionRequest):
    """Farthest-point traversal with exact Euclidean distances.

    Seeded from the labeled embeddings when provided (every pick is then a
    farthest-point pick); otherwise the first pick is the maximum-norm
    embedding. Picked rows leave the argmax, so once every remaining
    distance is 0 (fewer distinct rows than the budget) each further pick is
    the lowest unpicked index. Returns distinct picks in selection order.
    """
    x = req.embeddings
    if req.budget == 0:
        return []
    dist = _Distances(x)
    picks = []
    if req.seeds_from_labeled is not None:
        min_dist = np.full(x.shape[0], np.inf)
        for center in req.seeds_from_labeled:
            np.minimum(min_dist, dist.to(center), out=min_dist)
    else:
        first = int(np.argmax(np.linalg.norm(x, axis=1)))
        picks.append(first)
        min_dist = dist.to(x[first]).copy()
        min_dist[first] = -np.inf
    while len(picks) < req.budget:
        nxt = int(np.argmax(min_dist))
        picks.append(nxt)
        np.minimum(min_dist, dist.to(x[nxt]), out=min_dist)
        min_dist[nxt] = -np.inf
    return picks


def kmeans_pp(req: SelectionRequest):
    """Standard D^2 seeding: uniform first center, then each next center drawn
    with probability proportional to squared distance to the nearest chosen
    one. Degenerate all-zero distances fall back to a uniform draw over the
    unchosen indices. Deterministic per seed."""
    x = req.embeddings
    if req.budget == 0:
        return []
    gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(req.seed)))
    n = x.shape[0]
    first = int(gen.integers(n))
    picks = [first]
    chosen = np.zeros(n, dtype=bool)
    chosen[first] = True
    dist = _Distances(x)
    d2 = dist.to(x[first]) ** 2
    while len(picks) < req.budget:
        total = d2.sum()
        if total <= 0.0:
            candidates = np.flatnonzero(~chosen)
            nxt = int(candidates[gen.integers(candidates.size)])
        else:
            nxt = int(gen.choice(n, p=d2 / total))
        picks.append(nxt)
        chosen[nxt] = True
        step = dist.to(x[nxt])
        np.minimum(d2, np.square(step, out=step), out=d2)
        d2[chosen] = 0.0
    return picks


def top_scores(scores, budget):
    """Indices of the ``budget`` largest scores, descending; ties broken
    toward the lowest index."""
    order = np.lexsort((np.arange(scores.size), -scores))
    return [int(i) for i in order[:budget]]


def top_magnitude(req: SelectionRequest):
    """Indices of the largest embedding norms, descending (magnitude-only
    ablation)."""
    return top_scores(np.linalg.norm(req.embeddings, axis=1), req.budget)


def k_center_normalized(req: SelectionRequest):
    """Direction-only ablation: embeddings scaled to unit norm before the
    k-center traversal. Zero-norm embeddings stay at the origin and are
    skipped until only they remain, then appended in index order."""
    x = req.embeddings
    if req.budget == 0:
        return []
    norms = np.linalg.norm(x, axis=1)
    nonzero = np.flatnonzero(norms > 0.0)
    unit = np.zeros_like(x)
    unit[nonzero] = x[nonzero] / norms[nonzero, None]
    seeds = req.seeds_from_labeled
    if seeds is not None:
        seed_norms = np.linalg.norm(seeds, axis=1)
        keep = seed_norms > 0.0
        seeds = seeds[keep] / seed_norms[keep, None] if np.any(keep) else None
    inner_budget = min(req.budget, nonzero.size)
    sub = SelectionRequest(embeddings=unit[nonzero], budget=inner_budget,
                           seeds_from_labeled=seeds, seed=req.seed)
    picks = [int(nonzero[i]) for i in greedy_k_center(sub)]
    if len(picks) < req.budget:
        zeros = np.flatnonzero(norms == 0.0)
        picks.extend(int(i) for i in zeros[: req.budget - len(picks)])
    return picks


def select(req: SelectionRequest):
    """Dispatch on ``req.method``."""
    if req.method == "k_center":
        return greedy_k_center(req)
    if req.method == "kmeans_pp":
        return kmeans_pp(req)
    if req.method == "top_magnitude":
        return top_magnitude(req)
    return k_center_normalized(req)
