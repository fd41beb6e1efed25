import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from noisestab import selection
from noisestab.exceptions import ConfigError, DimensionError, NonFiniteError
from noisestab.selection import (SelectionRequest, greedy_k_center,
                                 k_center_normalized, kmeans_pp, select,
                                 top_magnitude)


def reference_distances_to(points, center):
    return np.linalg.norm(points - center[None, :], axis=1)


def reference_greedy_k_center(req):
    """Greedy k-center as first written, one fresh difference matrix per
    pick; the buffered kernel must reproduce its picks exactly."""
    x = req.embeddings
    if req.budget == 0:
        return []
    picks = []
    if req.seeds_from_labeled is not None:
        min_dist = np.full(x.shape[0], np.inf)
        for center in req.seeds_from_labeled:
            np.minimum(min_dist, reference_distances_to(x, center), out=min_dist)
    else:
        first = int(np.argmax(np.linalg.norm(x, axis=1)))
        picks.append(first)
        min_dist = reference_distances_to(x, x[first])
    while len(picks) < req.budget:
        nxt = int(np.argmax(min_dist))
        picks.append(nxt)
        np.minimum(min_dist, reference_distances_to(x, x[nxt]), out=min_dist)
    return picks


def distinct_reference_k_center(req):
    """What greedy k-center returns given the reference's picks: those picks
    up to the first repeat, then the lowest unpicked indices in order. The
    reference repeats a pick only once every remaining distance is 0, and
    from then on every unpicked row ties at 0."""
    picks = []
    for i in reference_greedy_k_center(req):
        if i in picks:
            break
        picks.append(i)
    rest = [i for i in range(req.embeddings.shape[0]) if i not in picks]
    return picks + rest[:req.budget - len(picks)]


def reference_k_center_normalized(req):
    """The direction-only ablation as first written: the reference traversal
    over the nonzero rows other than the largest-norm one, scaled to unit
    norm and seeded from that row's unit vector; then the zero rows in index
    order."""
    x = req.embeddings
    if req.budget == 0:
        return []
    norms = np.linalg.norm(x, axis=1)
    unit = x / np.where(norms > 0.0, norms, 1.0)[:, None]
    nonzero = np.flatnonzero(norms > 0.0)
    picks = []
    if nonzero.size:
        picks.append(int(np.argmax(norms)))
        rest = nonzero[nonzero != picks[0]]
        sub = SelectionRequest(embeddings=unit[rest],
                               budget=min(req.budget - 1, rest.size),
                               seeds_from_labeled=unit[picks])
        picks += [int(rest[i]) for i in distinct_reference_k_center(sub)]
    zeros = np.flatnonzero(norms == 0.0)
    return picks + zeros[:req.budget - len(picks)].tolist()


def reference_kmeans_pp(req):
    """kmeans++ seeding as first written (see reference_greedy_k_center)."""
    x = req.embeddings
    if req.budget == 0:
        return []
    gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(req.seed)))
    n = x.shape[0]
    first = int(gen.integers(n))
    picks = [first]
    chosen = np.zeros(n, dtype=bool)
    chosen[first] = True
    d2 = reference_distances_to(x, x[first]) ** 2
    while len(picks) < req.budget:
        total = d2.sum()
        if total <= 0.0:
            candidates = np.flatnonzero(~chosen)
            nxt = int(candidates[gen.integers(candidates.size)])
        else:
            nxt = int(gen.choice(n, p=d2 / total))
        picks.append(nxt)
        chosen[nxt] = True
        np.minimum(d2, reference_distances_to(x, x[nxt]) ** 2, out=d2)
        d2[chosen] = 0.0
    return picks


def covering_radius(points, center_indices):
    centers = points[list(center_indices)]
    dists = np.linalg.norm(points[:, None, :] - centers[None, :, :], axis=2)
    return dists.min(axis=1).max()


def brute_force_optimal_radius(points, budget):
    """Exhaustive search over all center subsets (the 2-approximation oracle)."""
    best = np.inf
    for subset in itertools.combinations(range(len(points)), budget):
        best = min(best, covering_radius(points, subset))
    return best


def req(embeddings, budget, **kw):
    return SelectionRequest(embeddings=np.asarray(embeddings, dtype=float),
                            budget=budget, **kw)


class TestGreedyKCenter:
    def test_full_budget_returns_all_indices_in_pick_order(self):
        picks = greedy_k_center(req([[0.0], [1.0], [10.0]], 3))
        assert sorted(picks) == [0, 1, 2]
        assert len(set(picks)) == 3

    def test_line_instance_picks_and_radius(self):
        points = np.array([[0.0], [1.0], [10.0]])
        picks = greedy_k_center(req(points, 2))
        # max-norm start picks 10, farthest-point pick adds 0
        assert picks == [2, 0]
        radius = covering_radius(points, picks)
        assert radius == 1.0
        assert radius <= 2.0 * brute_force_optimal_radius(points, 2)

    def test_tied_farthest_points_resolve_to_lowest_index(self):
        points = np.array([[0.0, 0.0], [5.0, 0.0], [5.0, 0.0], [-1.0, 0.0]])
        picks = greedy_k_center(req(points, 2))
        assert picks[0] == 1  # tie between the two (5, 0) rows
        # farthest from (5,0) is (-1,0)
        assert picks[1] == 3

    def test_budget_above_pool_rejected(self):
        with pytest.raises(ConfigError):
            req([[1.0], [2.0]], 3)

    def test_zero_budget_selects_nothing(self):
        assert greedy_k_center(req([[1.0], [2.0]], 0)) == []

    def test_labeled_seeding_makes_every_pick_farthest(self):
        pool = np.array([[0.0], [4.0], [10.0]])
        labeled = np.array([[0.5]])
        picks = greedy_k_center(req(pool, 2, seeds_from_labeled=labeled))
        assert picks == [2, 1]

    def test_duplicate_of_labeled_point_chosen_last(self):
        pool = np.array([[0.5], [3.0], [7.0]])
        labeled = np.array([[0.5]])
        picks = greedy_k_center(req(pool, 3, seeds_from_labeled=labeled))
        assert picks[-1] == 0

    def test_fewer_distinct_rows_than_budget_gives_distinct_picks(self):
        points = np.zeros((6, 3))
        points[3] = 1.0
        assert greedy_k_center(req(points, 4)) == [3, 0, 1, 2]
        labeled = np.zeros((1, 3))
        assert greedy_k_center(req(points, 4, seeds_from_labeled=labeled)) == \
            [3, 0, 1, 2]

    @given(n=st.integers(1, 30), width=st.integers(1, 4),
           distinct=st.integers(1, 30), labeled=st.integers(0, 3),
           budget_frac=st.floats(0.0, 1.0), seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=60)
    def test_picks_equal_the_reference_until_it_repeats(
            self, n, width, distinct, labeled, budget_frac, seed):
        # the reference (the function before picked rows left the argmax)
        # repeats a pick once every distance is 0; until then the picks must
        # not change, and after it they are the lowest unpicked indices
        gen = np.random.default_rng(seed)
        base = gen.integers(-1, 2, size=(min(distinct, n), width)).astype(float)
        points = base[gen.integers(len(base), size=n)]
        seeds = base[gen.integers(len(base), size=labeled)] if labeled else None
        request = req(points, int(round(budget_frac * n)), seeds_from_labeled=seeds)
        picks = greedy_k_center(request)
        reference = reference_greedy_k_center(request)
        assert len(set(picks)) == len(picks) == request.budget
        if len(set(reference)) == len(reference):
            assert picks == reference
        assert picks == distinct_reference_k_center(request)

    def test_two_approximation_on_random_instances(self):
        gen = np.random.default_rng(42)
        for _ in range(60):
            n = int(gen.integers(3, 13))
            budget = int(gen.integers(1, min(n, 4) + 1))
            points = gen.normal(size=(n, int(gen.integers(1, 4))))
            picks = greedy_k_center(req(points, budget))
            assert covering_radius(points, picks) <= \
                2.0 * brute_force_optimal_radius(points, budget) + 1e-12

    def test_prefix_stability_of_pick_sequences(self):
        gen = np.random.default_rng(7)
        points = gen.normal(size=(20, 3))
        for budget in range(1, 10):
            shorter = greedy_k_center(req(points, budget))
            longer = greedy_k_center(req(points, budget + 1))
            assert longer[:budget] == shorter

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_permutation_equivariance(self, seed):
        # shuffling the pool shuffles the picks the same way. kmeans_pp is
        # left out: it draws its first center by index, so a shuffled pool
        # starts from another point
        gen = np.random.default_rng(seed)
        points = gen.normal(size=(9, 2))
        labeled = gen.normal(size=(3, 2))
        rows = np.vstack([points, labeled])
        # distinct distances and norms make tie-breaking irrelevant
        for x in (rows, rows / np.linalg.norm(rows, axis=1, keepdims=True)):
            dists = np.linalg.norm(x[:, None] - x[None, :], axis=2)
            iu = np.triu_indices(len(x), 1)
            if len(set(np.round(dists[iu], 12))) < iu[0].size:
                return
        if len(set(np.round(np.linalg.norm(points, axis=1), 12))) < 9:
            return
        perm = gen.permutation(9)
        for method, seeds in (("k_center", None), ("k_center", labeled),
                              ("k_center_normalized", None),
                              ("k_center_normalized", labeled),
                              ("top_magnitude", None)):
            base = select(req(points, 4, method=method,
                              seeds_from_labeled=seeds))
            shuffled = select(req(points[perm], 4, method=method,
                                  seeds_from_labeled=seeds))
            assert [int(perm[i]) for i in shuffled] == base, method

    def test_picks_skew_toward_large_norms(self):
        # diversity prefers large magnitudes on average, not per instance
        gen = np.random.default_rng(11)
        gaps = []
        for _ in range(120):
            norms = gen.lognormal(0.0, 1.0, size=30)
            dirs = gen.normal(size=(30, 4))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            points = norms[:, None] * dirs
            picks = greedy_k_center(req(points, 5))
            gaps.append(norms[picks].mean() - norms.mean())
        assert np.mean(gaps) > 0.0


class TestKmeansPP:
    def test_full_budget_returns_all_indices(self):
        picks = kmeans_pp(req([[0.0], [1.0], [2.0]], 3, seed=5))
        assert sorted(picks) == [0, 1, 2]

    def test_identical_points_still_produce_valid_deterministic_set(self):
        points = [[1.0, 1.0]] * 5
        a = kmeans_pp(req(points, 3, seed=9))
        b = kmeans_pp(req(points, 3, seed=9))
        assert a == b
        assert len(set(a)) == 3

    def test_squared_distance_law_on_far_point(self):
        # points {0, 0, 100}: whenever the first uniform pick is a near point,
        # the far point's squared distance dominates and must be picked next
        points = np.array([[0.0], [0.0], [100.0]])
        second_is_far = 0
        trials_with_near_start = 0
        for seed in range(10000):
            picks = kmeans_pp(req(points, 2, seed=seed))
            assert 2 in picks  # the far point always ends up selected
            if picks[0] != 2:
                trials_with_near_start += 1
                second_is_far += picks[1] == 2
        assert trials_with_near_start > 5000
        assert second_is_far / trials_with_near_start > 0.99

    def test_budget_above_pool_rejected(self):
        with pytest.raises(ConfigError):
            req([[1.0]], 2, seed=0)

    def test_squared_distances_that_overflow_raise_non_finite_error(self):
        # a finite pool: the draw's probabilities would be NaN, which numpy
        # reports as an untyped ValueError
        pool = np.random.default_rng(0).standard_normal((50, 4)) * 1e160
        with np.errstate(over="ignore"), \
                pytest.raises(NonFiniteError, match="overflow"):
            kmeans_pp(req(pool, 5))


class TestTopScores:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_score_raises_naming_the_row(self, bad):
        scores = np.array([0.3, 0.1, bad, 0.2])
        with pytest.raises(NonFiniteError, match="row 2"):
            selection.top_scores(scores, 2)

    @pytest.mark.parametrize("budget", [-2, 5])
    def test_budget_outside_the_pool_rejected(self, budget):
        # -2 took order[:-2], all but the last two rows
        scores = np.array([0.3, 0.1, 0.4, 0.2])
        with pytest.raises(ConfigError, match=rf"^budget {budget} outside \[0, 4\]$"):
            selection.top_scores(scores, budget)


class TestTopMagnitude:
    def test_descending_norms_with_index_ties(self):
        picks = top_magnitude(req([[3.0], [1.0], [2.0]], 2))
        assert picks == [0, 2]

    def test_zero_budget_is_empty(self):
        assert top_magnitude(req([[3.0], [1.0]], 0)) == []

    def test_matches_full_sort_oracle(self):
        gen = np.random.default_rng(3)
        points = gen.normal(size=(40, 6))
        norms = np.linalg.norm(points, axis=1)
        oracle = sorted(range(40), key=lambda i: (-norms[i], i))
        for budget in (1, 7, 40):
            assert top_magnitude(req(points, budget)) == oracle[:budget]

    def test_exact_ties_resolve_to_lowest_index(self):
        picks = top_magnitude(req([[1.0, 0.0], [0.0, 1.0], [2.0, 0.0]], 2))
        assert picks == [2, 0]


class TestKCenterNormalized:
    def test_unit_norm_input_matches_plain_k_center(self):
        gen = np.random.default_rng(13)
        points = gen.normal(size=(12, 3))
        points /= np.linalg.norm(points, axis=1, keepdims=True)
        assert k_center_normalized(req(points, 5)) == greedy_k_center(req(points, 5))

    def test_colinear_points_collapse(self):
        points = np.array([[1.0, 0.0], [5.0, 0.0], [0.0, 1.0]])
        picks = k_center_normalized(req(points, 2))
        assert len(picks) == 2
        assert 2 in picks  # the orthogonal direction must be covered
        assert not {0, 1} <= set(picks)  # colinear pair collapses to one point

    def test_unseeded_start_is_the_largest_original_norm(self):
        points = np.array([[1.0, 0.0], [0.0, 3.0], [-2.0, 0.1], [0.0, -3.0]])
        assert k_center_normalized(req(points, 1)) == [1]
        assert k_center_normalized(req(points, 4))[:2] == [1, 3]

    def test_all_zero_pool_selects_index_zero(self):
        assert k_center_normalized(req([[0.0, 0.0], [0.0, 0.0]], 1)) == [0]

    def test_zero_vectors_only_after_nonzero_exhausted(self):
        points = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0], [0.0, 0.0]])
        picks = k_center_normalized(req(points, 4))
        assert set(picks[:2]) == {1, 2}
        assert picks[2:] == [0, 3]


class TestBufferedDistances:
    @pytest.mark.parametrize("shape", [(1, 1), (5, 7), (9, 8), (40, 120),
                                       (3, 1000)])
    def test_norm_is_sqrt_of_row_reduce_bit_for_bit(self, shape):
        # the buffered kernel computes sqrt(add.reduce(d * d, axis=1)); it
        # keeps the reference's bits only because np.linalg.norm does too
        d = np.random.default_rng(shape[1]).normal(size=shape) * 1e3
        assert np.array_equal(np.linalg.norm(d, axis=1),
                              np.sqrt(np.add.reduce(d * d, axis=1)))

    @given(n=st.integers(1, 600), width=st.integers(1, 130),
           distinct=st.integers(1, 600), grid=st.booleans(),
           labeled=st.integers(0, 12),
           block=st.sampled_from(["1", "3", "default", "n"]),
           budget_frac=st.floats(0.0, 1.0), seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=25)
    # pools across the default block boundary, with ties and with seeds
    @example(n=600, width=130, distinct=40, grid=True, labeled=5,
             block="default", budget_frac=0.5, seed=1)
    @example(n=257, width=130, distinct=257, grid=False, labeled=0,
             block="default", budget_frac=1.0, seed=2)
    def test_picks_equal_the_reference_for_any_block(
            self, n, width, distinct, grid, labeled, block, budget_frac, seed):
        gen = np.random.default_rng(seed)
        distinct = min(distinct, n)
        # small-integer rows make exact distance ties; repeated rows make
        # zero distances
        base = (gen.integers(-2, 3, size=(distinct, width)).astype(float) if grid
                else gen.normal(size=(distinct, width)))
        points = base[gen.integers(distinct, size=n)]
        seeds = base[gen.integers(distinct, size=labeled)] if labeled else None
        budget = int(round(budget_frac * n))
        methods = ("k_center", "kmeans_pp", "k_center_normalized")
        requests = {m: req(points, budget, seeds_from_labeled=seeds, seed=seed,
                           method=m) for m in methods}
        # one entry per block still makes one-row blocks
        entries = {"1": 1, "3": 3 * width,
                   "n": (n + int(gen.integers(0, 3))) * width}.get(block)
        with pytest.MonkeyPatch.context() as mp:
            if entries is not None:
                mp.setattr(selection, "_BLOCK_ENTRIES", entries)
            center = points[int(gen.integers(n))]
            assert np.array_equal(selection._Distances(points).to(center),
                                  reference_distances_to(points, center))
            picks = {m: select(r) for m, r in requests.items()}
        assert picks == {
            "k_center": distinct_reference_k_center(requests["k_center"]),
            "kmeans_pp": reference_kmeans_pp(requests["kmeans_pp"]),
            "k_center_normalized": reference_k_center_normalized(
                requests["k_center_normalized"]),
        }


def reference_nearest_seed_distances(points, seeds):
    """Distance to the nearest seed, one fresh difference matrix per seed, as
    reference_greedy_k_center seeds its traversal."""
    min_dist = np.full(points.shape[0], np.inf)
    for center in seeds:
        np.minimum(min_dist, reference_distances_to(points, center), out=min_dist)
    return min_dist


@st.composite
def screen_case(draw):
    """(points, seeds, block entries) where a Gram estimate of the squared
    distances is least reliable: a large common offset cancels in
    |x|^2 + |c|^2 - 2 x.c, seeds repeat or sit one ulp apart, magnitudes
    near the squares' overflow and underflow, and 2 to 300 seeds across
    row blocks of every size."""
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, width = draw(st.integers(1, 120)), draw(st.integers(1, 40))
    m = draw(st.integers(2, 300))
    kind = draw(st.sampled_from(["plain", "offset", "duplicate", "ulp",
                                 "huge", "tiny"]))
    scale = {"huge": 1e150, "tiny": 1e-160}.get(kind, 1.0)
    base = scale * gen.normal(size=(n + m, width))
    if kind == "offset":
        base += 10.0 ** draw(st.floats(4.0, 8.0)) * gen.normal(size=width)
    points, seeds = base[:n], base[n:]
    if kind == "duplicate":
        seeds = seeds[gen.integers(max(1, m // 4), size=m)]
        points[: n // 2] = seeds[gen.integers(m, size=n // 2)]
    elif kind == "ulp":
        seeds[1::2] = np.nextafter(seeds[::2][: m // 2], np.inf)
        points[: n // 2] = seeds[gen.integers(m, size=n // 2)]
    entries = draw(st.sampled_from([1, width, 3 * width, m, 7 * m, None]))
    return points, seeds, entries


class TestSelectionMemory:
    # a 4,000 x 120 pool is 3.84 MB; np.linalg.norm's (N, L) square and
    # isfinite's (N, L) mask used to take more than the pool again. Together
    # these cases take about 0.15 s.
    @pytest.mark.parametrize("method", ["k_center", "top_magnitude"])
    def test_selection_allocates_under_a_quarter_of_the_pool(self, method):
        pool = np.random.default_rng(0).normal(size=(4000, 120))
        tracemalloc.start()
        try:
            picks = select(SelectionRequest(embeddings=pool, budget=50,
                                            method=method))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(picks) == 50
        assert peak < pool.nbytes / 4

    def test_normalized_k_center_holds_one_copy_of_the_pool(self):
        # the unit rows are the one (N, L) array; a fancy-indexed copy of
        # them, handed to a sub-request, used to put the peak at 2.25x
        pool = np.random.default_rng(0).normal(size=(4000, 120))
        request = SelectionRequest(embeddings=pool, budget=50,
                                   method="k_center_normalized")
        tracemalloc.start()
        try:
            picks = select(request)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(picks) == 50
        assert peak < 1.4 * pool.nbytes


class TestSeedScreen:
    @given(case=screen_case(), budget_frac=st.floats(0.0, 1.0))
    @settings(max_examples=120)
    def test_min_dist_and_picks_equal_the_reference_bit_for_bit(self, case,
                                                                 budget_frac):
        points, seeds, entries = case
        request = req(points, int(round(budget_frac * len(points))),
                      seeds_from_labeled=seeds)
        with pytest.MonkeyPatch.context() as mp:
            if entries is not None:
                mp.setattr(selection, "_BLOCK_ENTRIES", entries)
            min_dist = selection._nearest_center_distances(
                selection._Distances(points), seeds)
            picks = greedy_k_center(request)
        assert min_dist.tobytes() == \
            reference_nearest_seed_distances(points, seeds).tobytes()
        assert picks == distinct_reference_k_center(request)

    @pytest.mark.parametrize("entries", [None, 1, 64])
    def test_rows_whose_screen_overflows_keep_every_seed(self, entries):
        # |x|^2 overflows to inf, so the Gram estimate is inf - inf = NaN,
        # while the exact differences stay small
        gen = np.random.default_rng(5)
        points = 1e154 * (1.0 + 1e-9 * gen.normal(size=(50, 4)))
        seeds = 1e154 * (1.0 + 1e-9 * gen.normal(size=(30, 4)))
        with pytest.MonkeyPatch.context() as mp:
            if entries is not None:
                mp.setattr(selection, "_BLOCK_ENTRIES", entries)
            min_dist = selection._nearest_center_distances(
                selection._Distances(points), seeds)
        assert np.isfinite(min_dist).all()
        assert min_dist.tobytes() == \
            reference_nearest_seed_distances(points, seeds).tobytes()

    def test_separated_seeds_are_computed_exactly_for_few_pairs(self,
                                                                monkeypatch):
        # one exact difference per pool row and per seed that could be its
        # nearest, not one per (row, seed) pair
        gen = np.random.default_rng(3)
        centers = 50.0 * gen.normal(size=(40, 8))
        seeds = centers + gen.normal(size=(40, 8))
        points = centers[gen.integers(40, size=500)] + gen.normal(size=(500, 8))
        differences = []
        subtract = np.subtract
        monkeypatch.setattr(np, "subtract", lambda a, b, **kw: (
            differences.append(len(a)), subtract(a, b, **kw))[1])
        min_dist = selection._nearest_center_distances(
            selection._Distances(points), seeds)
        assert min_dist.tobytes() == \
            reference_nearest_seed_distances(points, seeds).tobytes()
        assert 500 <= sum(differences) < 2 * 500


def near_tie_case(kind, seed):
    """A screen_case value whose traversal meets near ties late: rows one
    ulp from their twin, or a common offset of 1e6 that the Gram estimate
    cancels."""
    gen = np.random.default_rng(seed)
    base = gen.normal(size=(60, 6))
    if kind == "ulp":
        base[1::2] = np.nextafter(base[::2], np.inf)
    else:
        base += 1e6 * gen.normal(size=6)
    return base[:30], base[30:], None


def traversal_steps(request):
    """``select(request)`` and, for each farthest-first pick, the state the
    traversal picked from: (points, picks so far, lo, hi, the pick, its
    exact distance)."""
    steps = []
    farthest = selection._Traversal.farthest

    def recording(walk):
        before = (walk.dist.points, list(walk.picks), walk.lo.copy(),
                  walk.hi.copy())
        nxt = farthest(walk)
        steps.append(before + (nxt, walk.exact[nxt]))
        return nxt

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(selection._Traversal, "farthest", recording)
        picks = select(request)
    return picks, steps


def assert_steps_follow_the_reference(steps, seeds):
    """Before each pick, every live row's bounds contain its reference
    nearest-center distance (to ``seeds`` and the picks so far), no bound is
    a NaN, the picks sit at -inf, and the pick is the lowest-index row of the
    reference maximum, whose bits its exact distance has."""
    expected, folded = None, 0
    for points, picks, lo, hi, nxt, exact in steps:
        if expected is None:
            expected = (np.full(len(points), np.inf) if seeds is None
                        else reference_nearest_seed_distances(points, seeds))
        for center in picks[folded:]:
            np.minimum(expected, reference_distances_to(points, points[center]),
                       out=expected)
        folded = len(picks)
        assert not np.isnan(lo).any() and not np.isnan(hi).any()
        assert (lo[picks] == -np.inf).all()
        live = lo > -np.inf
        assert (lo[live] <= expected[live]).all()
        assert (expected[live] <= hi[live]).all()
        reference = np.where(live, expected, -np.inf)
        assert nxt == int(np.argmax(reference))
        assert exact.tobytes() == reference.max().tobytes()


@st.composite
def few_distinct_case(draw):
    """A screen_case value of a few distinct small-integer rows, repeated:
    every distance reaches 0 long before a full traversal ends, with exact
    ties throughout. At 1e154 with a 1e-9 spread the squared norms overflow
    while the distances do not."""
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, width = draw(st.integers(1, 200)), draw(st.integers(1, 12))
    base = gen.integers(-2, 3, size=(draw(st.integers(1, 8)), width)) * 1.0
    if draw(st.booleans()):
        base = 1e154 * (1.0 + 1e-9 * base)
    points = base[gen.integers(len(base), size=n)]
    seeds = base[gen.integers(len(base), size=draw(st.integers(1, 4)))]
    entries = draw(st.sampled_from([1, width, None]))
    return points, seeds, entries


class TestScreenedTraversal:
    @given(case=screen_case(), budget_frac=st.floats(0.0, 1.0),
           seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=50)
    # full traversals, where the last picks decide between near ties
    @example(case=near_tie_case("ulp", 1), budget_frac=1.0, seed=0)
    @example(case=near_tie_case("offset", 4), budget_frac=1.0, seed=0)
    def test_picks_and_min_dist_equal_the_reference_bit_for_bit(
            self, case, budget_frac, seed):
        # every pick screens its exact distances; the pool holds the case's
        # points and seeds, so offsets, repeats, ulp pairs and extreme
        # magnitudes all meet the screen unseeded
        points, seeds, entries = case
        pool = np.vstack([points, seeds])
        budget = int(round(budget_frac * len(pool)))
        k_center = req(pool, budget)
        kmeans = req(pool, budget, seed=seed, method="kmeans_pp")
        with pytest.MonkeyPatch.context() as mp:
            if entries is not None:
                mp.setattr(selection, "_BLOCK_ENTRIES", entries)
            picks, steps = traversal_steps(k_center)
            assert kmeans_pp(kmeans) == reference_kmeans_pp(kmeans)
        assert picks == distinct_reference_k_center(k_center)
        # after each pick the bounds hold the reference minimum, and the next
        # pick's exact distance is the reference maximum, bit for bit
        assert_steps_follow_the_reference(steps, None)

    def test_separated_picks_are_computed_exactly_for_few_rows(self,
                                                               monkeypatch):
        # after the first pick's full pass, a pick computes exact distances
        # only for the rows it could bring nearer, not for the whole pool
        gen = np.random.default_rng(3)
        centers = 50.0 * gen.normal(size=(40, 8))
        points = centers[gen.integers(40, size=500)] + gen.normal(size=(500, 8))
        requests = [req(points, 40), req(points, 40, seed=4, method="kmeans_pp")]
        references = [distinct_reference_k_center(requests[0]),
                      reference_kmeans_pp(requests[1])]
        differences = []
        subtract = np.subtract
        monkeypatch.setattr(np, "subtract", lambda a, b, **kw: (
            differences.append(len(a)), subtract(a, b, **kw))[1])
        for request, reference in zip(requests, references):
            differences.clear()
            assert select(request) == reference
            # full passes would difference 40 * 500 rows; the screen keeps
            # about a tenth of them
            assert 500 <= sum(differences) < 40 * 500 // 4, request.method


class TestBoundedTraversal:
    @given(case=st.one_of(
               screen_case(), few_distinct_case(),
               st.builds(near_tie_case, st.sampled_from(["ulp", "offset"]),
                         st.integers(0, 2**31 - 1))),
           seeded=st.booleans(), budget_frac=st.floats(0.0, 1.0))
    @settings(max_examples=60)
    def test_bounds_contain_the_reference_after_every_pick(self, case, seeded,
                                                           budget_frac):
        # seeded and unseeded k-center and the normalized ablation, whose
        # zero rows (tiny cases) sit at -inf from the start; the squared
        # norms of huge rows overflow, which the reference's norms also meet
        points, seeds, entries = case
        pool = points if seeded else np.vstack([points, seeds])
        budget = int(round(budget_frac * len(pool)))
        k_center = req(pool, budget, seeds_from_labeled=seeds if seeded else None)
        normalized = req(pool, budget, method="k_center_normalized")
        with np.errstate(over="ignore"), pytest.MonkeyPatch.context() as mp:
            references = [distinct_reference_k_center(k_center),
                          reference_k_center_normalized(normalized)]
            if entries is not None:
                mp.setattr(selection, "_BLOCK_ENTRIES", entries)
            picks, steps = traversal_steps(k_center)
            normalized_picks, normalized_steps = traversal_steps(normalized)
        assert [picks, normalized_picks] == references
        assert_steps_follow_the_reference(steps, k_center.seeds_from_labeled)
        assert_steps_follow_the_reference(normalized_steps, None)

    def test_few_distinct_rows_cost_no_more_exact_pairs_than_before(
            self, exact_pairs):
        # 2,000 rows of 50 distinct at budget 300: after 50 picks every row
        # ties at 0, and every row must hold its exact value for the tie to
        # go to the lowest index. The traversal before the bounds computed
        # 19,412 exact pairs here (each pick's screened full pass); without
        # the cache of exact values every row folded in every pick again
        gen = np.random.default_rng(0)
        base = gen.normal(size=(50, 120))
        request = req(base[gen.integers(50, size=2000)], 300)
        reference = distinct_reference_k_center(request)
        exact_pairs[0] = 0
        assert greedy_k_center(request) == reference
        assert exact_pairs[0] <= 19412

    @pytest.mark.parametrize("seeded", [False, True])
    def test_exact_distances_that_overflow_still_raise(self, seeded):
        # phase select raises on overflow and turns this FloatingPointError
        # into NonFiniteError; the bounds must not hide the overflow
        pool = np.random.default_rng(0).standard_normal((50, 4)) * 1e160
        seeds = pool[:3] * 2.0 if seeded else None
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            greedy_k_center(req(pool, 5, seeds_from_labeled=seeds))


class TestDispatch:
    def test_select_routes_by_method(self):
        points = [[3.0], [1.0], [2.0]]
        assert select(req(points, 2, method="top_magnitude")) == [0, 2]
        assert select(req(points, 2, method="k_center")) == \
            greedy_k_center(req(points, 2))

    @pytest.mark.parametrize("method", selection.METHODS)
    def test_empty_pool_at_budget_zero_picks_nothing(self, method):
        # top_magnitude's norms run their blocks over zero rows
        assert select(req(np.zeros((0, 3)), 0, method=method)) == []

    def test_k_dpp_is_reserved_but_unsupported(self):
        with pytest.raises(ConfigError, match="k_dpp"):
            select(req([[1.0]], 1, method="k_dpp"))

    def test_unknown_method_rejected_at_request(self):
        with pytest.raises(ConfigError):
            req([[1.0]], 1, method="sorcery")

    def test_ragged_embeddings_rejected(self):
        with pytest.raises(Exception):
            SelectionRequest(embeddings=[[1.0], [1.0, 2.0]], budget=1)

    def test_one_dimensional_labeled_seeds_rejected(self):
        with pytest.raises(DimensionError, match="labeled"):
            SelectionRequest(embeddings=np.ones((3, 2)), budget=1,
                             seeds_from_labeled=np.ones(2))

    def test_finite_pool_whose_sum_overflows_is_accepted_and_picks_as_before(
            self):
        # the finiteness check sums every entry; +-1e308 rows overflow that
        # sum, which must not count against a finite pool, also where the
        # caller raises on overflow (as each phase of a cycle does)
        pool = np.array([[1e308, 1e308], [1.0, 2.0], [-1e308, -1e308],
                         [3.0, -4.0], [1e308, -1e308]])
        with np.errstate(over="raise", invalid="raise"):
            requests = {method: req(pool, 3, method=method, seed=1)
                        for method in ("k_center", "k_center_normalized")}
            req(pool[1:2], 1, seeds_from_labeled=pool)
        # the traversal itself meets infinite distances, as it always did
        with np.errstate(over="ignore", invalid="ignore"):
            picks = {method: select(r) for method, r in requests.items()}
        assert picks == {"k_center": [0, 1, 2], "k_center_normalized": [0, 3, 1]}

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_rejected_with_the_same_message(self, bad):
        with pytest.raises(NonFiniteError,
                           match="^embeddings contain NaN or infinite values$"):
            req([[1.0, 0.0], [bad, 2.0]], 1)
        with pytest.raises(NonFiniteError, match="^labeled embeddings contain "
                                                 "NaN or infinite values$"):
            req([[1.0, 0.0], [0.0, 2.0]], 1, seeds_from_labeled=[[bad, 0.0]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_embeddings_rejected(self, bad):
        with pytest.raises(NonFiniteError):
            req([[1.0, 0.0], [bad, 2.0]], 1)
        with pytest.raises(NonFiniteError):
            req([[1.0, 0.0], [0.0, 2.0]], 1, seeds_from_labeled=[[bad, 0.0]])
