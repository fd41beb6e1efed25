"""Fixed-size kernel timings under the active-learning cycle.

Sizes follow the ROADMAP: a pool of N=2000 examples with dim 8, an MLP with
hidden [24] and 4 classes, K=30 noise directions, and greedy k-center over
L=120-wide embeddings with budget 20. Each round times every kernel once;
rounds repeat until the time budget is spent, and each kernel reports the
median, the sample count and the interquartile range of its rounds.

Only public noisestab API is called, with the inputs the ROADMAP keeps:
``nn.train`` gets the ``(X, y)`` pair, no seed, scope or worker count is set,
and the result of ``pool_embeddings`` is used only through ``len``.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

POOL = 2000
DIM = 8
HIDDEN = [24]
CLASSES = 4
SAMPLINGS = 30
K_CENTER_WIDTH = 120
K_CENTER_BUDGET = 20
PERTURB_REPEATS = 200

KERNELS = ("forward_rowwise_s", "forward_batched_s", "perturb_roundtrip_s",
           "pool_embeddings_s", "k_center_s", "train_epoch_s")


class KernelBench:
    """Inputs for one seed; ``round()`` times each kernel once and checks
    its output, returning the timings and the names of failed checks."""

    def __init__(self, ns, seed):
        self.ns = ns
        gen = np.random.Generator(np.random.PCG64(seed))
        self.pool = gen.normal(0.0, 2.0, size=(POOL, DIM))
        self.labels = gen.integers(CLASSES, size=POOL)
        self.model = ns.nn.build_mlp(DIM, HIDDEN, CLASSES, seed=seed)
        self.boundary = self.model.tap_boundary(ns.nn.TAP_PREDICTIVE)
        n_params = ns.nn.flatten_params(self.model).size
        delta = gen.standard_normal(n_params)
        self.delta = 1e-3 * delta / np.linalg.norm(delta)
        self.centers = gen.standard_normal((POOL, K_CENTER_WIDTH))
        self.noise = ns.stability.NoiseConfig(zeta=1e-3, samplings=SAMPLINGS)
        self.train_cfg = ns.nn.TrainConfig(optimizer="adam", lr=0.01, epochs=1,
                                           batch_size=32)

    def round(self):
        nn = self.ns.nn
        times, failed = {}, []

        start = time.perf_counter()
        rows = np.empty((POOL, CLASSES))
        for i in range(POOL):
            rows[i] = nn.forward_to(self.model, self.pool[i:i + 1], self.boundary)[0]
        times["forward_rowwise_s"] = time.perf_counter() - start

        start = time.perf_counter()
        batched = nn.forward_to(self.model, self.pool, self.boundary)
        times["forward_batched_s"] = time.perf_counter() - start
        if batched.shape != rows.shape or not np.allclose(batched, rows, rtol=1e-9,
                                                          atol=1e-12):
            failed.append("forward")

        before = nn.flatten_params(self.model)
        start = time.perf_counter()
        for _ in range(PERTURB_REPEATS):
            nn.apply_perturbation(self.model, self.delta)
            nn.remove_perturbation(self.model)
        times["perturb_roundtrip_s"] = (time.perf_counter() - start) / PERTURB_REPEATS
        if not np.array_equal(nn.flatten_params(self.model), before):
            failed.append("perturb_roundtrip")

        start = time.perf_counter()
        embs = self.ns.stability.pool_embeddings(self.model, self.pool, self.noise)
        times["pool_embeddings_s"] = time.perf_counter() - start
        if len(embs) != POOL:
            failed.append("pool_embeddings")

        req = self.ns.selection.SelectionRequest(embeddings=self.centers,
                                                 budget=K_CENTER_BUDGET)
        start = time.perf_counter()
        picks = self.ns.selection.greedy_k_center(req)
        times["k_center_s"] = time.perf_counter() - start
        if len(set(picks)) != K_CENTER_BUDGET or not all(0 <= p < POOL for p in picks):
            failed.append("k_center")

        model = self.model.copy()
        start = time.perf_counter()
        curve = nn.train(model, (self.pool, self.labels), self.train_cfg)
        times["train_epoch_s"] = time.perf_counter() - start
        if len(curve) != 1 or not np.isfinite(curve[0]):
            failed.append("train_epoch")
        return times, failed


def summarize(samples):
    """Median, count and interquartile range of one kernel's timings (at
    least two)."""
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return {"median": statistics.median(samples), "n": len(samples), "iqr": q3 - q1}
