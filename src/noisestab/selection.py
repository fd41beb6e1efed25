"""Batch subset selection over embedding vectors.

Greedy k-center (farthest-point traversal) is the primary selector; kmeans++
seeding, magnitude-only top-k, and direction-only (normalized) k-center cover
the swap study and the two degenerate ablation selectors. All selectors are
pure functions of their request and break ties toward the lowest index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import seeding
from .exceptions import ConfigError, DimensionError, NonFiniteError, all_finite

METHODS = ("k_center", "kmeans_pp", "top_magnitude", "k_center_normalized")


def check_budget(budget, pool_size):
    """ConfigError unless 0 <= budget <= pool_size: the one budget rule of
    every selector, a request's and the score and random pickers' alike."""
    if not 0 <= budget <= pool_size:
        raise ConfigError(f"budget {budget} outside [0, {pool_size}]")


@dataclass
class SelectionRequest:
    """One selection call. Only ``k_center`` reads ``seeds_from_labeled``;
    the other methods ignore it. NaN or infinite embeddings raise
    ``NonFiniteError``, found without an (N, L) temporary (``all_finite``)."""

    embeddings: np.ndarray  # (N, L)
    budget: int
    seeds_from_labeled: np.ndarray | None = None  # (M, L)
    seed: int = 0
    method: str = "k_center"

    def __post_init__(self):
        self.embeddings = np.asarray(self.embeddings, dtype=np.float64)
        if self.embeddings.ndim != 2:
            raise DimensionError("embeddings must form an (N, L) matrix")
        if not all_finite(self.embeddings):
            raise NonFiniteError("embeddings contain NaN or infinite values")
        if self.seeds_from_labeled is not None:
            self.seeds_from_labeled = np.asarray(self.seeds_from_labeled, dtype=np.float64)
            if self.seeds_from_labeled.size == 0:
                self.seeds_from_labeled = None
            elif self.seeds_from_labeled.ndim != 2:
                raise DimensionError("labeled embeddings must form an (M, L) matrix")
            elif self.seeds_from_labeled.shape[1] != self.embeddings.shape[1]:
                raise DimensionError("labeled embeddings must match the pool embedding length")
            elif not all_finite(self.seeds_from_labeled):
                raise NonFiniteError("labeled embeddings contain NaN or infinite values")
        check_budget(self.budget, self.embeddings.shape[0])
        if self.method not in METHODS:
            raise ConfigError(f"unknown selection method {self.method!r}")


# float64 entries per block of differences (256 KiB): the block stays in cache
# while it is squared and summed, where one (N, L) difference matrix would not.
# Counting entries, not rows, gives narrow and wide embeddings alike blocks of
# that size.
_BLOCK_ENTRIES = 32768


def _row_norms(x):
    """Every row's Euclidean norm, a block of ``_BLOCK_ENTRIES`` entries at a
    time, with no (N, L) temporary. Each row is squared, summed with
    ``np.add.reduce`` and square-rooted, the ops of
    ``np.linalg.norm(x, axis=1)``, so the norms keep its bits."""
    out = np.empty(x.shape[0])
    step = max(1, _BLOCK_ENTRIES // max(1, x.shape[1]))
    block = np.empty((min(step, x.shape[0]), x.shape[1]))
    for start in range(0, x.shape[0], step):
        rows = x[start:start + step]
        d = block[:rows.shape[0]]
        np.multiply(rows, rows, out=d)
        np.add.reduce(d, axis=1, out=out[start:start + rows.shape[0]])
    return np.sqrt(out, out=out)


class _Distances:
    """Euclidean distances from every row of an (N, L) matrix to a center.

    Owns a block of B = _BLOCK_ENTRIES // L difference rows, a block of as
    many center rows, the (N,) result and the squared row norms the Gram
    screen reads, so a selection call allocates them once, not on every pick.
    ``to`` returns the result buffer, which its next call overwrites. Each
    row is squared, summed with ``np.add.reduce`` and square-rooted, which is
    how ``np.linalg.norm(d, axis=1)`` computes it, so the distances keep
    their bits whatever the block size.
    """

    def __init__(self, points):
        self.points = points
        width = max(1, points.shape[1])
        self.block = min(max(1, _BLOCK_ENTRIES // width), points.shape[0])
        self.diff = np.empty((self.block, points.shape[1]))
        self.centers = np.empty_like(self.diff)
        self.out = np.empty(points.shape[0])
        with np.errstate(over="ignore"):
            self.sq = np.einsum("ij,ij->i", points, points)

    def to(self, center):
        for start in range(0, self.points.shape[0], self.block):
            rows = self.points[start:start + self.block]
            d = self.diff[:rows.shape[0]]
            np.subtract(rows, center, out=d)
            np.multiply(d, d, out=d)
            np.add.reduce(d, axis=1, out=self.out[start:start + rows.shape[0]])
        return np.sqrt(self.out, out=self.out)

    def squared(self, row_of, centers, center_of):
        """Exact squared distances of the pairs (``points[row_of[p]]``,
        ``centers[center_of[p]]``), with ``to``'s ops: the pair's rows are
        gathered into the block buffers (one center is tiled once), subtracted
        contiguously, squared and summed with ``np.add.reduce``."""
        sq = np.empty(row_of.size)
        tiled = centers.shape[0] == 1
        if tiled:
            self.centers[:min(self.block, row_of.size)] = centers
        for p in range(0, row_of.size, self.block):
            d = self.diff[:min(self.block, row_of.size - p)]
            c = self.centers[:len(d)]
            # mode="clip" writes straight into ``out``; the default buffers it
            np.take(self.points, row_of[p:p + len(d)], axis=0, out=d, mode="clip")
            if not tiled:
                np.take(centers, center_of[p:p + len(d)], axis=0, out=c,
                        mode="clip")
            np.subtract(d, c, out=d)
            np.multiply(d, d, out=d)
            np.add.reduce(d, axis=1, out=sq[p:p + len(d)])
        return sq


def _nearest_center_distances(dist, centers, min_dist=None):
    """Lower ``min_dist``, the distance from every row of ``dist.points`` to
    its nearest center so far (+inf by default), to the distance to its
    nearest row of ``centers`` where that is smaller; returns it, updated in
    place. A pick is one center against the current minimum; seeding is M
    centers against +inf.

    Each block of rows takes one BLAS product with the centers, and keeps a
    (row, center) pair only if the Gram estimate cannot rule the center out
    (see ``greedy_k_center``). The kept pairs get exact squared distances
    (``dist.squared``), the smallest per row is square-rooted, and ``sqrt``
    is monotone, so each entry has the bits of the minimum of ``dist.to(c)``
    over all centers c. No BLAS bit reaches the result. The screen's
    (rows, centers) temporaries hold about max(N, ``_BLOCK_ENTRIES``)
    entries: a pick screens every row at once, with (N,) temporaries like
    ``min_dist``.
    """
    x = dist.points
    n, width = x.shape
    if min_dist is None:
        min_dist = np.full(n, np.inf)
    block = max(1, max(n, _BLOCK_ENTRIES) // centers.shape[0])
    tol = 8.0 * (width + 8) * 2.0 ** -53
    with np.errstate(over="ignore"):
        center_sq = np.einsum("ij,ij->i", centers, centers)
    for start in range(0, n, block):
        current = min_dist[start:start + block]
        # overflow gives an infinity or a NaN, and such a pair is kept
        with np.errstate(over="ignore", invalid="ignore"):
            margin = dist.sq[start:start + block, None] + center_sq
            approx = x[start:start + block] @ centers.T
            approx *= -2.0
            approx += margin
            margin *= tol
            margin += 1e-300
            # the current minimum squared, rounded up; a picked row, at
            # -inf, gets -inf
            bound = np.abs(current)
            bound *= current
            bound *= 1.0 + 2.0 ** -50
            bound += 1e-300
            if centers.shape[0] > 1:
                # one center's own D + E never rules it out; a D + E that
                # overflowed to -inf bounds nothing, so its row keeps every pair
                reach = (approx + margin).min(axis=1)
                reach[np.isneginf(reach)] = np.nan
                np.minimum(bound, reach, out=bound)
            approx -= margin
            skip = approx > bound[:, None]
            skip &= approx < np.inf
        row_of, center_of = np.nonzero(~skip)
        kept = dist.squared(row_of + start, centers, center_of)
        np.minimum.at(current, row_of, np.sqrt(kept, out=kept))
    return min_dist


def greedy_k_center(req: SelectionRequest):
    """Farthest-point traversal with exact Euclidean distances.

    Seeded from the labeled embeddings when provided (every pick is then a
    farthest-point pick); otherwise the first pick is the maximum-norm
    embedding. Picked rows leave the argmax, so once every remaining
    distance is 0 (fewer distinct rows than the budget) each further pick is
    the lowest unpicked index. Returns distinct picks in selection order.

    The seeding and every pick screen their exact distances with a Gram
    estimate (``_nearest_center_distances``). Let u = 2^-53,
    γ_n = n·u/(1 − n·u), L the embedding width, P = |x|² + |c|² and
    T = |x − c|² ≤ 2P. The exact squared distance S (subtract, square, sum)
    has |S − T| ≤ γ_{L+2}·T ≤ 2γ_{L+2}·P. The screen's estimate
    D = (|x|² + |c|²) − 2·x·c takes each of |x|², |c|² and the BLAS dot x·c
    in any order, with or without FMA, to within γ_L times |x|², |c|² and
    Σ|x_k·c_k| ≤ P/2, and two more roundings, so |D − T| ≤ (2γ_L + 3u)·P.
    Hence |S − D| ≤ (4L + 7)·u·P to first order. The margin
    E = 8·(L + 8)·u·P + 1e-300 is over twice that, which covers the
    roundings of P, E and D ± E, and its absolute term covers underflow: at
    most 5L + 5 roundings of 2^-1075 each. So D − E ≤ S ≤ D + E.

    A pair is skipped when D − E exceeds the row's bound, the smaller of:
    - min_c (D + E), at least the nearest center's S; a center above it is
      not the nearest;
    - the row's current minimum m, squared and rounded up: fl(m·m) is at
      least m²·(1 − u), or m² − 2^-1075 once it underflows, so
      fl(fl(m·m)·(1 + 2^-50)) + 1e-300 is at least m². A center with S above
      m² has fl(sqrt(S)) ≥ fl(sqrt(m²)) = m and cannot lower it.
    An estimate that overflowed is an infinity or a NaN, never a finite
    value: a pair whose D − E is not finite is kept, and so is every pair of
    a row whose bound is a NaN or whose min_c (D + E) is -inf.
    """
    x = req.embeddings
    if req.budget == 0:
        return []
    dist = _Distances(x)
    if req.seeds_from_labeled is not None:
        return _farthest_first(
            dist, _nearest_center_distances(dist, req.seeds_from_labeled), [],
            req.budget)
    first = int(np.argmax(_row_norms(x)))
    return _farthest_first(dist, dist.to(x[first]).copy(), [first], req.budget)


def _farthest_first(dist, min_dist, picks, budget):
    """``picks`` extended to ``budget`` rows of ``dist.points``, each farthest
    from its nearest center (``min_dist``, updated in place; ties to the
    lowest index). Picked rows, and rows the caller sets, sit at -inf."""
    min_dist[picks] = -np.inf
    while len(picks) < budget:
        nxt = int(np.argmax(min_dist))
        picks.append(nxt)
        _nearest_center_distances(dist, dist.points[nxt:nxt + 1], min_dist)
        min_dist[nxt] = -np.inf
    return picks


def kmeans_pp(req: SelectionRequest):
    """Standard D^2 seeding: uniform first center, then each next center drawn
    with probability proportional to squared distance to the nearest chosen
    one. Degenerate all-zero distances fall back to a uniform draw over the
    unchosen indices. Deterministic per seed.

    The distances are kept as exact distances, screened as in
    ``greedy_k_center``, and squared for each draw; squaring is monotone on
    non-negatives, so the minimum of the squares has the same bits."""
    x = req.embeddings
    if req.budget == 0:
        return []
    gen = seeding.rng(req.seed)
    n = x.shape[0]
    first = int(gen.integers(n))
    picks = [first]
    chosen = np.zeros(n, dtype=bool)
    chosen[first] = True
    dist = _Distances(x)
    min_dist = dist.to(x[first]).copy()
    while len(picks) < req.budget:
        d2 = np.square(min_dist)
        d2[chosen] = 0.0
        total = d2.sum()
        if total <= 0.0:
            candidates = np.flatnonzero(~chosen)
            nxt = int(candidates[gen.integers(candidates.size)])
        else:
            nxt = int(gen.choice(n, p=d2 / total))
        picks.append(nxt)
        chosen[nxt] = True
        _nearest_center_distances(dist, x[nxt:nxt + 1], min_dist)
    return picks


def top_scores(scores, budget):
    """Indices of the ``budget`` largest scores, descending; ties broken
    toward the lowest index. A budget outside [0, N] raises ConfigError
    (``check_budget``), a NaN or infinite score NonFiniteError."""
    check_budget(budget, scores.size)
    bad = np.flatnonzero(~np.isfinite(scores))
    if bad.size:
        raise NonFiniteError(f"score of row {int(bad[0])} is {scores[bad[0]]!r}")
    order = np.lexsort((np.arange(scores.size), -scores))
    return [int(i) for i in order[:budget]]


def top_magnitude(req: SelectionRequest):
    """Indices of the largest embedding norms, descending (magnitude-only
    ablation)."""
    return top_scores(_row_norms(req.embeddings), req.budget)


def k_center_normalized(req: SelectionRequest):
    """Direction-only ablation: embeddings scaled to unit norm before the
    k-center traversal, which starts, unseeded, from the largest original
    norm. Zero-norm embeddings stay at the origin and are skipped until only
    they remain, then appended in index order: the traversal runs on the unit
    rows, its one (N, L) array, with the zero rows at -inf from the start."""
    x = req.embeddings
    norms = _row_norms(x)
    zeros = np.flatnonzero(norms == 0.0)
    budget = min(req.budget, x.shape[0] - zeros.size)
    picks = []
    if budget:
        unit = np.divide(x, norms[:, None], out=np.zeros_like(x),
                         where=norms[:, None] > 0.0)
        dist = _Distances(unit)
        first = int(np.argmax(norms))
        min_dist = dist.to(unit[first]).copy()
        min_dist[zeros] = -np.inf
        picks = _farthest_first(dist, min_dist, [first], budget)
    return picks + zeros[:req.budget - len(picks)].tolist()


def select(req: SelectionRequest):
    """Dispatch on ``req.method``."""
    if req.method == "k_center":
        return greedy_k_center(req)
    if req.method == "kmeans_pp":
        return kmeans_pp(req)
    if req.method == "top_magnitude":
        return top_magnitude(req)
    return k_center_normalized(req)
