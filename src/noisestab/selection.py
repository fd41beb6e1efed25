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
        self.tol = 8.0 * (points.shape[1] + 8) * 2.0 ** -53
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

    def estimate(self, rows, centers, center_sq, approx, margin):
        """The Gram estimate D = (|x|² + |c|²) − 2·x·c of the exact squared
        distance S from each of ``points[rows]`` to each row c of
        ``centers`` (|c|² given as ``center_sq``), and its margin E, written
        into the (rows, centers) arrays ``approx`` and ``margin``: one BLAS
        product. D − E ≤ S ≤ D + E unless the estimate overflowed, which
        leaves an infinity or a NaN in D or E (``greedy_k_center`` proves
        both)."""
        with np.errstate(over="ignore", invalid="ignore"):
            np.add(self.sq[rows, None], center_sq, out=margin)
            np.matmul(self.points[rows], centers.T, out=approx)
            approx *= -2.0
            approx += margin
            margin *= self.tol
            margin += 1e-300


def _nearest_center_distances(dist, centers, min_dist=None):
    """Lower ``min_dist``, the distance from every row of ``dist.points`` to
    its nearest center so far (+inf by default), to the distance to its
    nearest row of ``centers`` where that is smaller; returns it, updated in
    place. Seeding is M centers against +inf, a kmeans++ pick one center
    against the current minimum, and a farthest-first traversal's stale
    rows (their own ``dist``) the picks they may lack against their caches.

    Each block of rows takes one BLAS product with the centers
    (``dist.estimate``), and keeps a (row, center) pair only if the estimate
    cannot rule the center out (see ``greedy_k_center``). The kept pairs get
    exact squared distances (``dist.squared``), the smallest per row is
    square-rooted, and ``sqrt`` is monotone, so each entry has the bits of
    the minimum of ``dist.to(c)`` over all centers c. No BLAS bit reaches the
    result. The screen's (rows, centers) temporaries hold about
    max(N, ``_BLOCK_ENTRIES``) entries: one center screens every row at
    once, with (N,) temporaries like ``min_dist``.
    """
    n = dist.points.shape[0]
    if min_dist is None:
        min_dist = np.full(n, np.inf)
    block = max(1, max(n, _BLOCK_ENTRIES) // centers.shape[0])
    with np.errstate(over="ignore"):
        center_sq = np.einsum("ij,ij->i", centers, centers)
    # the screen's (rows, centers) arrays, allocated once: a new pair per
    # block made coreset's seeding about 20% slower (pages not reused)
    approx_block = np.empty((min(block, n), centers.shape[0]))
    margin_block = np.empty_like(approx_block)
    for start in range(0, n, block):
        current = min_dist[start:start + block]
        approx, margin = approx_block[:current.size], margin_block[:current.size]
        dist.estimate(slice(start, start + block), centers, center_sq, approx,
                      margin)
        # overflow gives an infinity or a NaN, and such a pair is kept
        with np.errstate(over="ignore", invalid="ignore"):
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
    estimate (``_Distances.estimate``). Let u = 2^-53,
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

    Seeding (``_nearest_center_distances``) skips a pair when D − E exceeds
    the row's bound, the smaller of:
    - min_c (D + E), at least the nearest center's S; a center above it is
      not the nearest;
    - the row's current minimum m, squared and rounded up: fl(m·m) is at
      least m²·(1 − u), or m² − 2^-1075 once it underflows, so
      fl(fl(m·m)·(1 + 2^-50)) + 1e-300 is at least m². A center with S above
      m² has fl(sqrt(S)) ≥ fl(sqrt(m²)) = m and cannot lower it.
    An estimate that overflowed is an infinity or a NaN, never a finite
    value: a pair whose D − E is not finite is kept, and so is every pair of
    a row whose bound is a NaN or whose min_c (D + E) is -inf.

    The picks (``_farthest_first``) keep bounds lo ≤ m ≤ hi on each row's
    exact nearest-center distance m = min_c fl(sqrt(S)), the value the
    argmax compares. fl∘sqrt is monotone, so a new center c gives
    lo_c = fl(sqrt(max(D − E, 0))) ≤ fl(sqrt(S)) ≤ fl(sqrt(D + E)) = hi_c,
    and min(lo, lo_c) ≤ min(m, fl(sqrt(S))) ≤ min(hi, hi_c). An overflowed
    estimate bounds nothing: a D − E that is not finite gives lo_c = 0, and
    a D + E that is a NaN or -inf leaves hi as it was, so no bound is ever a
    NaN. A row whose hi is below the largest lo among live rows has
    m ≤ hi < lo_r ≤ m_r for that row r, so it can neither win nor tie the
    farthest row, and the tie to the lowest index is decided among the
    others, the candidates, on exact values alone. Each row caches its exact
    minimum over the first ``folded`` picks (and the seeds). The cache
    survives a new center whose lo_c is at least the cached value e: then
    e ≤ lo_c ≤ fl(sqrt(S)), so min(e, fl(sqrt(S))) = e. It is then still
    e = lo = hi, while a center it does not survive leaves lo < e, so the
    cache is current exactly where lo equals it. A candidate whose cache is
    not current folds in only the picks since: pair by pair while those
    pairs fit one block of differences, else screened as seeding is, over
    the picks since the oldest stale cache (a pick a row already holds is at
    least its cache and cannot lower it). Either way the exact distances use
    ``dist.squared``'s ops, so the value has the bits of the minimum of
    ``dist.to(c)``; no BLAS bit reaches an argmax. Without the cache, a pool
    of few distinct rows, where every distance reaches 0 and every row is a
    candidate, folded in every pick again at every pick.
    """
    x = req.embeddings
    if req.budget == 0:
        return []
    dist = _Distances(x)
    if req.seeds_from_labeled is not None:
        return _farthest_first(
            dist, _nearest_center_distances(dist, req.seeds_from_labeled), None,
            req.budget)
    return _farthest_first(dist, np.full(x.shape[0], np.inf),
                           int(np.argmax(_row_norms(x))), req.budget)


class _Traversal:
    """A farthest-first traversal's state over the rows of ``dist.points``:
    the picks so far, and per row the bounds ``lo`` ≤ m ≤ ``hi`` on its
    exact nearest-center distance m and the cached exact minimum ``exact``
    over the first ``folded`` picks (see ``greedy_k_center``). Picked rows,
    and rows the caller sets, sit at -inf in all three and never enter the
    argmax."""

    def __init__(self, dist, min_dist, budget):
        self.dist = dist
        self.picks = []
        self.order = np.empty(budget, dtype=np.intp)
        self.exact = min_dist
        self.folded = np.zeros(min_dist.size, dtype=np.intp)
        self.lo = min_dist.copy()
        self.hi = min_dist.copy()
        # a pick's D, E and D + E, allocated once
        self.d = np.empty((min_dist.size, 1))
        self.e = np.empty_like(self.d)
        self.hi_c = np.empty(min_dist.size)

    def add(self, c):
        """Pick row ``c``; unless that fills the budget, screen every row
        against it: one BLAS product lowers ``lo`` and ``hi``, and a cache
        whose value ``lo`` still equals has survived it."""
        k = len(self.picks)
        self.picks.append(c)
        self.order[k] = c
        self.lo[c] = self.hi[c] = self.exact[c] = -np.inf
        if k + 1 == self.order.size:
            return
        self.dist.estimate(slice(None), self.dist.points[c:c + 1],
                           self.dist.sq[c:c + 1], self.d, self.e)
        d, e, hi_c = self.d[:, 0], self.e[:, 0], self.hi_c
        with np.errstate(over="ignore", invalid="ignore"):
            np.add(d, e, out=hi_c)
            d -= e
            # fmin skips the NaN of a D + E that overflowed (or was -inf)
            np.fmin(self.hi, np.sqrt(hi_c, out=hi_c), out=self.hi)
        # fmax sends a NaN or -inf D - E to 0, and an infinite one bounds
        # nothing either
        np.fmax(d, 0.0, out=d)
        d[d == np.inf] = 0.0
        np.minimum(self.lo, np.sqrt(d, out=d), out=self.lo)
        np.putmask(self.folded, self.lo == self.exact, k + 1)

    def farthest(self):
        """The next pick: the live row of largest m, the lowest index on
        ties. Only the candidates, rows whose ``hi`` reaches the largest
        ``lo``, can be it; those whose cache is stale fold in the picks
        they lack, and then ``lo``, ``hi`` and ``exact`` all hold m."""
        cand = np.flatnonzero(self.hi >= self.lo.max())
        k = len(self.picks)
        stale = cand[self.folded[cand] < k]
        if stale.size:
            since = self.folded[stale]
            points = self.dist.points
            if (k - since).sum() * points.shape[1] <= _BLOCK_ENTRIES:
                # one block of differences: every pair a row lacks, exactly
                row, at = np.nonzero(np.arange(k) >= since[:, None])
                sq = self.dist.squared(stale[row], points, self.order[at])
                np.minimum.at(self.exact, stale[row], np.sqrt(sq, out=sq))
            else:
                # more: screened as seeding is; a pick a row already holds
                # cannot lower its cache
                self.exact[stale] = _nearest_center_distances(
                    _Distances(points[stale]), points[self.order[since.min():k]],
                    self.exact[stale])
            self.folded[stale] = k
            self.lo[stale] = self.hi[stale] = self.exact[stale]
        return int(cand[np.argmax(self.exact[cand])])


def _farthest_first(dist, min_dist, first, budget):
    """``budget`` distinct rows of ``dist.points``, each farthest from its
    nearest center (ties to the lowest index). ``min_dist`` holds each row's
    exact distance to the seeds (+inf without), or -inf for a row the caller
    excludes; ``first``, if not None, is the first pick. Returns the picks in
    selection order; ``min_dist`` becomes the traversal's cache."""
    walk = _Traversal(dist, min_dist, budget)
    if first is not None:
        walk.add(first)
    while len(walk.picks) < budget:
        walk.add(walk.farthest())
    return walk.picks


def kmeans_pp(req: SelectionRequest):
    """Standard D^2 seeding: uniform first center, then each next center drawn
    with probability proportional to squared distance to the nearest chosen
    one. Degenerate all-zero distances fall back to a uniform draw over the
    unchosen indices. Deterministic per seed. A finite pool whose squared
    distances overflow raises ``NonFiniteError`` before a draw: the draw
    needs the sum of every row's squared distance.

    The draw reads every row's distance, so each pick updates them all
    exactly (``_nearest_center_distances``, screened as in
    ``greedy_k_center``), and they are squared for each draw; squaring is
    monotone on non-negatives, so the minimum of the squares has the same
    bits."""
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
        if not np.isfinite(total):
            raise NonFiniteError(
                f"kmeans_pp: the squared distances overflow (their sum is {total!r})")
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
        min_dist = np.full(x.shape[0], np.inf)
        min_dist[zeros] = -np.inf
        picks = _farthest_first(_Distances(unit), min_dist,
                                int(np.argmax(norms)), budget)
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
