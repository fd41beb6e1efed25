"""Statistical verification of the projected-gradient view of noise stability.

Checks cover: the unit-sphere second moment E[u u^T] = I/n; the identity
between the expected squared embedding norm and the squared Jacobian Frobenius
norm; the distance and inner-product equivalences between embeddings and
parameter gradients; Monte Carlo concentration trials for the magnitude,
distance, and normalized inner-product bounds; and a sweep measuring how the
required sampling count K grows with pool size.

Every check is deterministic per seed and returns a machine-readable
CheckReport. The absolute constants in the concentration bounds are unknown,
so pass thresholds are empirically calibrated, not theoretical.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import nn, seeding
from .stability import NoiseConfig, embedding, perturbation_set, sample_directions

DENOM_FLOOR = 1e-12
CONCENTRATION_BOUND_FORM = "1 - 2*exp(-c*eps^2*K), c unknown"

# default pass thresholds; tests may patch these to force failure paths
DEFAULT_THRESHOLDS = {
    "second_moment": 0.1,
    "second_moment_trace": 1e-12,
    "jacobian_norm": 0.05,
    "distance": 0.05,
    "inner_product": 0.05,
    "concentration": 0.05,
    "concentration_monotonic": -1e-12,
    "efficiency_ratio": 32.0,
}


@dataclass
class CheckReport:
    name: str
    trials: int
    statistic: float
    threshold: float
    passed: bool
    seed: int
    details: dict = field(default_factory=dict)

    @classmethod
    def make(cls, name, trials, statistic, threshold, seed, **details):
        return cls(name=name, trials=int(trials), statistic=float(statistic),
                   threshold=float(threshold),
                   passed=bool(statistic <= threshold), seed=int(seed),
                   details=details)

    def to_json(self) -> str:
        doc = {
            "name": self.name,
            "trials": self.trials,
            "statistic": self.statistic,
            "threshold": self.threshold,
            "passed": self.passed,
            "seed": self.seed,
        }
        if self.details:
            doc["details"] = self.details
        return json.dumps(doc)


def second_moment_matrix(n, samplings, seed) -> np.ndarray:
    """Empirical (1/K) sum of u u^T over K sampled unit directions."""
    u = sample_directions(n, samplings, seed)
    return (u.T @ u) / samplings


def check_second_moment(n, samplings, seed, threshold=None) -> CheckReport:
    """Relative Frobenius error of the empirical second moment against I/n."""
    if n < 2:
        raise ValueError("second-moment check needs n >= 2")
    if threshold is None:
        threshold = DEFAULT_THRESHOLDS["second_moment"]
    m = second_moment_matrix(n, samplings, seed)
    target = np.eye(n) / n
    stat = np.linalg.norm(m - target) / np.linalg.norm(target)
    return CheckReport.make("second_moment", samplings, stat, threshold, seed,
                            n=n, trace=float(np.trace(m)))


def check_second_moment_trace(n, samplings, seed, threshold=None) -> CheckReport:
    """Each u u^T has unit trace, so the empirical diagonal sums to 1 exactly
    up to rounding, for any K."""
    if threshold is None:
        threshold = DEFAULT_THRESHOLDS["second_moment_trace"]
    m = second_moment_matrix(n, samplings, seed)
    stat = abs(float(np.trace(m)) - 1.0)
    return CheckReport.make("second_moment_trace", samplings, stat, threshold, seed, n=n)


def check_jacobian_norm(model, x, samplings, seed, zeta=1e-4,
                        tap=nn.TAP_FEATURE, threshold=None) -> CheckReport:
    """Squared embedding norm against the squared Jacobian Frobenius norm.

    The embedding side goes through the actual network (apply noise, forward,
    restore), so a small zeta keeps the Taylor remainder below the Monte Carlo
    noise floor; the Jacobian side is analytic backprop.
    """
    if threshold is None:
        threshold = DEFAULT_THRESHOLDS["jacobian_norm"]
    cfg = NoiseConfig(zeta=zeta, samplings=samplings, seed=seed, tap=tap)
    jac = nn.jacobian(model, x, tap=tap)
    frob2 = float(np.sum(jac * jac))
    if frob2 == 0.0:
        return CheckReport.make("jacobian_norm", samplings, 0.0, threshold, seed,
                                degenerate=True)
    emb = embedding(model, np.asarray(x, dtype=np.float64), perturbation_set(model, cfg))
    emb_norm2 = float(np.add.reduce(emb * emb))
    stat = abs(emb_norm2 - frob2) / frob2
    return CheckReport.make("jacobian_norm", samplings, stat, threshold, seed,
                            embedding_norm2=emb_norm2, jacobian_frob2=frob2)


def _pair_embeddings(model, x_i, x_j, samplings, seed, zeta, tap):
    cfg = NoiseConfig(zeta=zeta, samplings=samplings, seed=seed, tap=tap)
    pset = perturbation_set(model, cfg)
    e_i = embedding(model, np.asarray(x_i, dtype=np.float64), pset)
    e_j = embedding(model, np.asarray(x_j, dtype=np.float64), pset)
    j_i = nn.jacobian(model, x_i, tap=tap)
    j_j = nn.jacobian(model, x_j, tap=tap)
    return e_i, e_j, j_i, j_j


def check_distance_equivalence(model, x_i, x_j, samplings, seed, zeta=1e-4,
                               tap=nn.TAP_FEATURE, threshold=None) -> CheckReport:
    """Squared embedding distance against squared gradient distance.

    Stated for a scalar tap; a vector-valued tap is handled coordinate-wise
    and summed, which the shared-direction construction makes exact.
    """
    if threshold is None:
        threshold = DEFAULT_THRESHOLDS["distance"]
    e_i, e_j, j_i, j_j = _pair_embeddings(model, x_i, x_j, samplings, seed, zeta, tap)
    lhs = float(np.sum((e_i - e_j) ** 2))
    rhs = float(np.sum((j_i - j_j) ** 2))
    stat = abs(lhs - rhs) / max(rhs, DENOM_FLOOR)
    return CheckReport.make("distance_equivalence", samplings, stat, threshold, seed,
                            projected=lhs, gradient=rhs)


def check_inner_product_equivalence(model, x_i, x_j, samplings, seed, zeta=1e-4,
                                    tap=nn.TAP_FEATURE, threshold=None) -> CheckReport:
    """Embedding inner product against gradient inner product, relative to the
    product of gradient norms."""
    if threshold is None:
        threshold = DEFAULT_THRESHOLDS["inner_product"]
    e_i, e_j, j_i, j_j = _pair_embeddings(model, x_i, x_j, samplings, seed, zeta, tap)
    lhs = float(np.add.reduce(e_i * e_j))
    rhs = float(np.sum(j_i * j_j))
    denom = float(np.sqrt(np.sum(j_i * j_i)) * np.sqrt(np.sum(j_j * j_j)))
    stat = abs(lhs - rhs) / max(denom, DENOM_FLOOR)
    return CheckReport.make("inner_product_equivalence", samplings, stat, threshold,
                            seed, projected=lhs, gradient=rhs)


def _projection_matrix(n, samplings, rng_k) -> np.ndarray:
    """Scale-preserved random projection: rows are sqrt(n/K) u^T."""
    t = rng_k.standard_normal((samplings, n))
    t /= np.linalg.norm(t, axis=1, keepdims=True)
    return np.sqrt(n / samplings) * t


CONCENTRATION_KINDS = ("magnitude", "distance", "inner_product")


def _check_trial_args(n, epsilon, trials):
    """ValueError naming the first argument no trial could use."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n!r}")
    if not (math.isfinite(epsilon) and epsilon > 0.0):
        raise ValueError(f"epsilon must be finite and > 0, got {epsilon!r}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials!r}")


def _check_concentration_args(kind, n, samplings, epsilon, trials):
    if kind not in CONCENTRATION_KINDS:
        raise ValueError(f"unknown concentration kind {kind!r}")
    _check_trial_args(n, epsilon, trials)
    if samplings < 1:
        raise ValueError(f"samplings must be >= 1, got {samplings!r}")
    if kind == "inner_product" and not epsilon < 1.0:
        raise ValueError("inner_product bound needs epsilon in (0, 1)")


# Reduced samplers draw trials and pool vectors in arrays of at most this
# many doubles.
_BLOCK_DOUBLES = 2 ** 17


def _chisquare(gen, df, size):
    """Chi-square draws; zero degrees of freedom is the constant 0."""
    return gen.chisquare(df, size) if df > 0 else np.zeros(size)


def _sphere_coords(gen, n, coords, size):
    """The first ``coords`` coordinates of ``size`` points uniform on the unit
    sphere in R^n: (z_1..z_c) / sqrt(z_1^2 + ... + z_c^2 + chi^2_{n-c})."""
    z = gen.standard_normal(size + (coords,))
    rest = _chisquare(gen, n - coords, size)
    return z / np.sqrt(np.add.reduce(z * z, axis=-1) + rest)[..., None]


def _reduced_violations(kind, gen, n, samplings, epsilon, size) -> np.ndarray:
    """Violation flags of ``size`` trials, sampled in the coordinates the
    statistic depends on.

    The rows of Q are sqrt(n/K) u_r with u_r i.i.d. uniform on the sphere and
    independent of the gradients, and that law is invariant under rotation.
    - magnitude: ||Qg|| / ||g|| = sqrt(n/K) ||a|| with a_r = u_r . g_hat, the
      first coordinate of a uniform point: K normals and K chi^2_{n-1} draws.
    - distance: g_i - g_j ~ N(0, 2I) is again an isotropic Gaussian, so the
      ratio has the same law; the kind draws from its own stream.
    - inner_product: in the frame (g_hat_i, g_hat_j) row r reads
      (a_r1, c a_r1 + s a_r2), where (a_r1, a_r2) are the first two
      coordinates of u_r, c = g_hat_i . g_hat_j is itself a first coordinate
      and s = sqrt(1 - c^2). The sqrt(n/K) scale cancels in the cosine.
    """
    if kind == "inner_product":
        c = _sphere_coords(gen, n, 1, (size,))[:, 0]
        a = _sphere_coords(gen, n, 2, (size, samplings))
        p_i = a[..., 0]
        p_j = c[:, None] * p_i + np.sqrt(1.0 - c * c)[:, None] * a[..., 1]
        cos_hat = np.add.reduce(p_i * p_j, axis=1) / np.sqrt(
            np.add.reduce(p_i * p_i, axis=1) * np.add.reduce(p_j * p_j, axis=1))
        lo = (c - epsilon) / (1.0 + epsilon) ** 2
        hi = (c + epsilon) / (1.0 - epsilon) ** 2
        return (cos_hat < lo) | (cos_hat > hi)
    a = _sphere_coords(gen, n, 1, (size, samplings))[..., 0]
    ratio = np.sqrt(n / samplings * np.add.reduce(a * a, axis=1))
    return np.abs(ratio - 1.0) > epsilon


def reduced_failure_fraction(kind, n, samplings, epsilon, trials, seed) -> float:
    """Fraction of trials violating the stated concentration bound, sampled
    exactly in law from low-dimensional coordinates (see
    ``_reduced_violations``), vectorised over blocks of trials; one stream per
    (seed, kind). The direct reference simulation, which draws each trial's
    n-dimensional gradients and K x n projection, lives in
    ``tests/oracles.py``."""
    _check_concentration_args(kind, n, samplings, epsilon, trials)
    if kind == "inner_product" and n < 2:
        raise ValueError("inner_product bound needs n >= 2")
    streams = seeding.seed_sequence(seed).spawn(len(CONCENTRATION_KINDS))
    gen = np.random.Generator(np.random.PCG64(streams[CONCENTRATION_KINDS.index(kind)]))
    rows = max(1, _BLOCK_DOUBLES // (2 * samplings))
    violations = 0
    for start in range(0, trials, rows):
        size = min(rows, trials - start)
        violations += int(np.count_nonzero(
            _reduced_violations(kind, gen, n, samplings, epsilon, size)))
    return violations / trials


def concentration_trial(kind, n, samplings, epsilon, trials, seed,
                        threshold=None) -> CheckReport:
    """CheckReport wrapper around reduced_failure_fraction for one bound kind."""
    if threshold is None:
        threshold = DEFAULT_THRESHOLDS["concentration"]
    frac = reduced_failure_fraction(kind, n, samplings, epsilon, trials, seed)
    return CheckReport.make(f"concentration_{kind}", trials, frac, threshold, seed,
                            n=n, samplings=samplings, epsilon=epsilon,
                            bound_form=CONCENTRATION_BOUND_FORM)


def concentration_monotonicity(kind, n, samplings_grid, epsilon, trials, seeds,
                               threshold=None) -> CheckReport:
    """Mean failure fraction must strictly decrease along a doubling K grid.

    The grid should sit where failures are non-degenerate (strictly positive),
    otherwise consecutive zeros cannot strictly decrease. The statistic is the
    worst consecutive difference; negative means monotone decrease.
    """
    if threshold is None:
        threshold = DEFAULT_THRESHOLDS["concentration_monotonic"]
    if len(samplings_grid) < 2:
        raise ValueError("samplings_grid must have at least 2 entries, got "
                         f"{list(samplings_grid)!r}")
    if len(seeds) < 1:
        raise ValueError("seeds must name at least one seed")
    for k in samplings_grid:
        _check_concentration_args(kind, n, k, epsilon, trials)
    means = []
    for k in samplings_grid:
        fracs = [reduced_failure_fraction(kind, n, k, epsilon, trials, s)
                 for s in seeds]
        means.append(float(np.mean(fracs)))
    deltas = np.diff(means)
    stat = float(deltas.max()) if deltas.size else 0.0
    return CheckReport.make(f"concentration_monotonic_{kind}", trials * len(seeds),
                            stat, threshold, seeds[0], samplings_grid=list(samplings_grid),
                            epsilon=epsilon, mean_fractions=means)


def _projection_spectrum(n, samplings, gen) -> np.ndarray:
    """The m = min(K, n) squared singular values of a projection drawn like
    ``_projection_matrix``.

    For K <= n, Q Q^T = (n/K) D^-1/2 W D^-1/2, where W = G G^T is the Gram
    matrix of the Gaussian rows and D its diagonal. W ~ Wishart_K(n, I) is
    drawn by the Bartlett decomposition W = L L^T (L lower triangular,
    L_ii^2 ~ chi^2_{n-i}, i = 0..K-1, and N(0, 1) below the diagonal), which
    needs about K^2 draws instead of K n. For K > n, Q itself is drawn and the
    eigenvalues of Q^T Q are used. Gram matrices are summed by ``np.einsum``,
    which runs its own loops rather than BLAS, so the spectrum does not depend
    on the BLAS thread count.
    """
    if samplings > n:
        q = _projection_matrix(n, samplings, gen)
        return np.linalg.eigvalsh(np.einsum("ki,kj->ij", q, q))
    lower = np.tril(gen.standard_normal((samplings, samplings)), -1)
    lower += np.diag(np.sqrt(gen.chisquare(n - np.arange(samplings))))
    w = np.einsum("ik,jk->ij", lower, lower)
    scale = 1.0 / np.sqrt(np.diag(w))
    return np.linalg.eigvalsh(n / samplings * (w * scale[:, None] * scale[None, :]))


def simultaneous_failures(n, pool_size, samplings, epsilon, trials, seed):
    """Per trial, whether any of ``pool_size`` gradient vectors violates the
    magnitude bound under one shared projection Q.

    Exact in law without the pool's n-dimensional vectors: with lambda the
    squared singular values of Q (``_projection_spectrum``) and
    m = min(K, n), rotating g ~ N(0, I_n) into Q's right singular basis gives
    ||Qg||^2 = sum_i lambda_i y_i^2 and ||g||^2 = sum_i y_i^2 + chi^2_{n-m},
    with y ~ N(0, I_m). Pool vectors are drawn in blocks, and a trial stops at
    its first violating block. Each trial has its own derived stream.
    """
    m = min(samplings, n)
    rows = max(1, _BLOCK_DOUBLES // m)
    for t in range(trials):
        gen = seeding.rng(seed, t)
        lam = _projection_spectrum(n, samplings, gen)
        failed = False
        for start in range(0, pool_size, rows):
            size = min(rows, pool_size - start)
            y2 = np.square(gen.standard_normal((size, m)))
            g_norm = np.sqrt(np.add.reduce(y2, axis=1) + _chisquare(gen, n - m, size))
            y2 *= lam
            z_norm = np.sqrt(np.add.reduce(y2, axis=1))
            if np.any(np.abs(z_norm - g_norm) > epsilon * g_norm):
                failed = True
                break
        yield failed


def _check_sweep_args(n, pool_sizes, epsilon, target, trials):
    _check_trial_args(n, epsilon, trials)
    if not 0.0 < target < 1.0:
        raise ValueError(f"target must be in (0, 1), got {target!r}")
    if not pool_sizes:
        raise ValueError("pool_sizes must not be empty")
    if min(pool_sizes) < 1:
        raise ValueError(f"pool sizes must be >= 1, got {min(pool_sizes)!r}")


def required_samplings(n, pool_size, epsilon, seed, target, trials) -> int:
    """Smallest K found to keep the simultaneous failure fraction of
    ``pool_size`` vectors below ``target``.

    The search starts at K=1: K doubles until it passes, then the last
    failing and first passing K are bisected. Each (N, K) evaluation draws
    from its own stream, seeded by (seed, N, K), so the answer depends only
    on the arguments.
    """
    _check_sweep_args(n, [pool_size], epsilon, target, trials)

    def fails(k):
        eval_seed = seeding.seed_sequence(seed, pool_size, k).generate_state(1)[0]
        failures = 0
        outcomes = simultaneous_failures(n, pool_size, k, epsilon, trials,
                                         int(eval_seed))
        # stop as soon as the remaining trials cannot change the verdict
        for done, failed in enumerate(outcomes, start=1):
            failures += failed
            if failures / trials >= target:
                return True
            if (failures + trials - done) / trials < target:
                return False
        return False

    lo, hi = 0, 1  # lo: largest K seen to fail (K=0 always does)
    while fails(hi):
        lo = hi
        hi *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if fails(mid):
            lo = mid
        else:
            hi = mid
    return hi


def _usable_cpus() -> int:
    """CPUs this process may run on; the CPU count where affinity is unknown."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


class EfficiencySearches:
    """The efficiency sweep's per-pool ``required_samplings`` searches, started
    on entry so that other work can run while they do.

    On entry the arguments are checked and, when more than one CPU is usable,
    one search per pool size is submitted to worker processes (up to one per
    usable CPU), the largest pool first because its search takes longest.
    ``table()`` collects the answers in ``pool_sizes`` order; with one usable
    CPU it runs the searches there, in this process. On exit the workers are
    joined, and first terminated if a search is unfinished (the block raised).
    A search reads no state that another search writes, and draws only from
    streams seeded by (seed, N, K), so neither the number of workers nor the
    order in which they finish changes a bit of the table.
    """

    def __init__(self, n, pool_sizes, epsilon, seed, target=0.05, trials=200):
        self.args = (n, list(pool_sizes), epsilon, seed, target, trials)
        self._executor = None
        self._futures = {}

    def _search_args(self, i):
        n, pool_sizes, epsilon, seed, target, trials = self.args
        return n, pool_sizes[i], epsilon, seed, target, trials

    def __enter__(self):
        n, pool_sizes, epsilon, _, target, trials = self.args
        _check_sweep_args(n, pool_sizes, epsilon, target, trials)
        workers = min(len(pool_sizes), _usable_cpus())
        if workers > 1:
            from concurrent.futures import ProcessPoolExecutor
            self._executor = ProcessPoolExecutor(workers)
            try:
                for i in sorted(range(len(pool_sizes)), key=lambda i: -pool_sizes[i]):
                    self._futures[i] = self._executor.submit(required_samplings,
                                                             *self._search_args(i))
            except BaseException:
                self.__exit__()
                raise
        return self

    def __exit__(self, *exc):
        if self._executor is not None:
            if not all(f.done() for f in self._futures.values()):
                for process in list(self._executor._processes.values()):
                    process.terminate()
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None
        return False

    def table(self):
        """{"pool_size", "required_samplings"} rows in ``pool_sizes`` order."""
        pool_sizes = self.args[1]
        ks = [self._futures[i].result() if self._futures
              else required_samplings(*self._search_args(i))
              for i in range(len(pool_sizes))]
        return [{"pool_size": int(pool_size), "required_samplings": int(k)}
                for pool_size, k in zip(pool_sizes, ks)]


def sampling_efficiency_sweep(n, pool_sizes, epsilon, seed, target=0.05,
                              trials=200):
    """Smallest K keeping the simultaneous failure probability below target,
    per pool size.

    Each pool size is searched on its own from K=1 by ``required_samplings``.
    No answer is carried over from a smaller pool, so a table that rises with
    N is a measured result, not an artefact of the search. The searches run as
    ``EfficiencySearches`` runs them: in worker processes when more than one
    CPU is usable, and the table's bits do not depend on that. Returns a list
    of {"pool_size", "required_samplings"} rows; sub-linear growth shows as K
    ratios far below pool-size ratios.
    """
    with EfficiencySearches(n, pool_sizes, epsilon, seed, target, trials) as searches:
        return searches.table()


def efficiency_report(n, pool_sizes, epsilon, seed, target=0.05, trials=200,
                      threshold=None, searches=None) -> CheckReport:
    """Summary report: K growth ratio across the sweep against the pool-size
    ratio (sub-linear growth passes).

    ``searches``, an entered ``EfficiencySearches`` over the same arguments,
    supplies a table whose searches are already running; without it the sweep
    runs here.
    """
    if threshold is None:
        threshold = DEFAULT_THRESHOLDS["efficiency_ratio"]
    args = (n, list(pool_sizes), epsilon, seed, target, trials)
    if searches is None:
        table = sampling_efficiency_sweep(*args)
    elif searches.args != args:
        raise ValueError(f"searches were started for {searches.args!r}, "
                         f"not {args!r}")
    else:
        table = searches.table()
    k_first = table[0]["required_samplings"]
    k_last = table[-1]["required_samplings"]
    stat = k_last / max(k_first, 1)
    return CheckReport.make("sampling_efficiency", trials, stat, threshold, seed,
                            table=table, epsilon=epsilon,
                            pool_ratio=pool_sizes[-1] / pool_sizes[0])
