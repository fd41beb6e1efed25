"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``. Monte Carlo criteria use
frozen seeds; dataset and training settings for the end-to-end comparisons are
pinned here and in configs/blobs_accept.json.
"""

import itertools
import json
import subprocess
import sys
import time

import numpy as np
import pytest

from noisestab import baselines, cli, nn, theory
from noisestab.config import experiment_from_dict
from noisestab.loop import aggregate_runs, run_active_learning
from noisestab.stability import NoiseConfig, perturbation_set
from oracles import (deviation_block, failure_fraction, finite_diff_jacobian,
                     loss_gradient)

pytestmark = pytest.mark.acceptance

ACCEPT_DATASET = {
    "kind": "blobs", "n_per_class": 750, "classes": 4, "dim": 8,
    "centers_seed": 7, "noise_std": 2.0, "center_scale": 3.0,
    "test_fraction": 1 / 3,
}
ACCEPT_EXPERIMENT = {
    "dataset": ACCEPT_DATASET,
    "model": {"hidden": [24]},
    "strategy": "noise_stability",
    "cycles": 8, "budget": 20, "initial_labeled": 20,
    "noise": {"zeta": 1e-3, "samplings": 30},
    "train": {"optimizer": "adam", "lr": 0.01, "epochs": 60, "batch_size": 32},
    "seeds": [0, 1, 2, 3, 4],
}


def report_line(number, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] criterion {number:02d}: {detail}")
    assert passed, f"criterion {number:02d} failed: {detail}"


def test_criterion_01_jacobian_norm_identity():
    model = nn.build_mlp(2, [8], 3, task="classification", seed=202)
    x = np.array([0.5, -1.0])
    start = time.perf_counter()
    jac = nn.jacobian(model, x, tap=nn.TAP_PREDICTIVE)
    fd = finite_diff_jacobian(model, x, tap=nn.TAP_PREDICTIVE, h=1e-5)
    oracle_gap = float(np.abs(jac - fd).max())
    check = theory.check_jacobian_norm(model, x, 5000, seed=11, zeta=1e-4,
                                       tap=nn.TAP_PREDICTIVE, threshold=0.05)
    elapsed = time.perf_counter() - start
    report_line(
        1, check.statistic < 0.05 and oracle_gap < 1e-6 and elapsed < 30.0,
        f"embedding norm vs Jacobian Frobenius rel err {check.statistic:.4f} "
        f"(< 0.05), analytic-vs-FD gap {oracle_gap:.2e}, {elapsed:.1f}s (< 30s)")


def test_criterion_02_linear_model_exactness():
    model = nn.MlpModel([nn.Linear(np.array([[0.6, -0.8, 0.3, 0.5]]))], 1)
    x = np.array([0.06, 0.08, 0.0, 0.0])
    worst = 0.0
    for zeta in (1e-6, 1e-3, 1.0):
        cfg = NoiseConfig(zeta=zeta, samplings=16, seed=5, tap=nn.TAP_FEATURE)
        pset = perturbation_set(model, cfg)
        for k in range(16):
            block = deviation_block(model, x, pset, k)
            worst = max(worst, abs(float(block[0]) - float(pset.directions[k] @ x)))
    report_line(2, worst < 1e-10,
                f"max |block - u.x| = {worst:.2e} over zeta in "
                "{1e-6, 1e-3, 1} (< 1e-10)")


def test_criterion_03_distance_and_inner_product_equivalence():
    model = nn.build_mlp(3, [8], 1, task="regression", seed=203)
    model.feature_tap = len(model.layers)  # scalar tap over the whole stack
    x_i = np.array([0.4, -1.1, 0.6])
    x_j = np.array([-0.8, 0.3, 1.2])
    dist = theory.check_distance_equivalence(model, x_i, x_j, 5000, seed=21,
                                             threshold=0.05)
    inner = theory.check_inner_product_equivalence(model, x_i, x_j, 5000,
                                                   seed=21, threshold=0.05)
    report_line(3, dist.passed and inner.passed,
                f"distance rel err {dist.statistic:.4f}, inner-product rel err "
                f"{inner.statistic:.4f} (both < 0.05, K=5000)")


def test_criterion_04_unit_sphere_second_moment():
    moment = theory.check_second_moment(10, 100000, seed=0, threshold=0.1)
    worst_trace = max(
        theory.check_second_moment_trace(10, k, seed=3).statistic
        for k in (1, 23, 1000))
    report_line(4, moment.passed and worst_trace <= 1e-12,
                f"Frobenius rel err {moment.statistic:.4f} (< 0.1, K=100000), "
                f"trace gap {worst_trace:.1e} (<= 1e-12 for any K)")


def test_criterion_05_concentration_bounds():
    fracs = {}
    for kind in ("magnitude", "distance", "inner_product"):
        fracs[kind] = failure_fraction(kind, 200, 64, 0.5, 1000, seed=2)
    bounded = all(f < 0.05 for f in fracs.values())
    monotone = True
    deltas = {}
    for kind in ("magnitude", "distance", "inner_product"):
        # strict decrease needs a regime with non-degenerate failure rates;
        # at K=64 / eps=0.5 the fractions are already ~0
        rep = theory.concentration_monotonicity(
            kind, 200, [4, 8, 16, 32], 0.25, 400, seeds=list(range(10)))
        monotone = monotone and rep.passed
        deltas[kind] = rep.details["mean_fractions"]
    report_line(
        5, bounded and monotone,
        "failure fractions " + ", ".join(f"{k}={v:.3f}" for k, v in fracs.items())
        + " (< 0.05 at K=64, eps=0.5); K-doubling strictly decreases the "
        f"10-seed means, e.g. magnitude {deltas['magnitude']}")


def test_criterion_06_sampling_efficiency_sublinear():
    rep = theory.efficiency_report(200, [32, 64, 128, 256, 512, 1024], 0.5,
                                   seed=0, threshold=32.0)
    table = rep.details["table"]
    ks = [row["required_samplings"] for row in table]
    report_line(6, rep.statistic < 32.0 and ks == sorted(ks),
                f"required K over N=32..1024: {ks}; K(1024)/K(32) = "
                f"{rep.statistic:.2f} (< 32)")


def test_criterion_07_greedy_k_center_two_approximation():
    from noisestab.selection import SelectionRequest, greedy_k_center

    def radius(points, centers):
        d = np.linalg.norm(points[:, None, :] - points[list(centers)][None], axis=2)
        return d.min(axis=1).max()

    gen = np.random.default_rng(77)
    violations = 0
    for _ in range(200):
        n = int(gen.integers(2, 13))
        budget = int(gen.integers(1, min(n, 4) + 1))
        points = gen.normal(size=(n, int(gen.integers(1, 4))))
        picks = greedy_k_center(SelectionRequest(embeddings=points, budget=budget))
        optimal = min(radius(points, c)
                      for c in itertools.combinations(range(n), budget))
        if radius(points, picks) > 2.0 * optimal + 1e-12:
            violations += 1
    report_line(7, violations == 0,
                f"{violations} violations of the 2-approximation over 200 "
                "brute-forced instances (need 0)")


def test_criterion_08_badge_matches_autodiff_gradient():
    gen = np.random.default_rng(88)
    worst = 0.0
    for _ in range(100):
        d, c = int(gen.integers(2, 8)), int(gen.integers(2, 6))
        z = gen.normal(size=d)
        head = nn.MlpModel([nn.Linear(gen.normal(size=(c, d)) * 0.7),
                            nn.Softmax()], 1)
        _, p = nn.forward(head, z)
        grad, _ = loss_gradient(head, z, np.array([int(np.argmax(p))]))
        worst = max(worst, float(np.abs(
            baselines.badge_embeddings(z[None], p[None])[0] - grad).max()))
    one_hot = baselines.badge_embeddings(np.array([[1.0, -2.0]]),
                                         np.array([[0.0, 1.0, 0.0]]))[0]
    report_line(8, worst < 1e-10 and np.array_equal(one_hot, np.zeros(6)),
                f"max |badge - autodiff| = {worst:.2e} over 100 pairs "
                "(< 1e-10); one-hot-confident embeds to the zero vector")


def test_criterion_09_noise_stability_vs_random_end_to_end():
    start = time.perf_counter()
    curves = {}
    for strategy in ("noise_stability", "random"):
        cfg = experiment_from_dict({**ACCEPT_EXPERIMENT, "strategy": strategy})
        per_seed = run_active_learning(cfg)
        # pool invariants are also asserted inside every cycle; re-check the
        # reports here: no index is ever selected twice
        for reports in per_seed:
            picked = [i for r in reports for i in r.selected]
            assert len(picked) == len(set(picked))
            assert [r.labeled_size for r in reports] == \
                [20 + 20 * c for c in range(8)]
        curves[strategy] = [row["metric_mean"]
                            for row in aggregate_runs(per_seed)]
    elapsed = time.perf_counter() - start
    ns = np.array(curves["noise_stability"][2:8])
    rnd = np.array(curves["random"][2:8])
    wins = int((ns >= rnd).sum())
    report_line(9, wins >= 4 and elapsed < 600.0,
                f"noise_stability >= random at {wins}/6 of cycles 3-8 "
                f"(need >= 4); pool invariants held; {elapsed:.0f}s (< 600s); "
                f"ns={np.round(ns, 4).tolist()} rnd={np.round(rnd, 4).tolist()}")


def test_criterion_10_zeta_sensitivity_shape(tmp_path):
    doc = {**ACCEPT_EXPERIMENT, "cycles": 2, "seeds": [0, 1, 2]}
    path = tmp_path / "zeta.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "sweep"
    code = cli.main(["sweep", str(path), "--param", "zeta",
                     "--values", "1e-6,1e-4,1e-2,1,10", "--out", str(out)])
    assert code == 0
    cycle2 = {}
    for line in (out / "sweep.csv").read_text().splitlines()[1:]:
        fields = line.split(",")
        if fields[2] == "2":
            cycle2[float(fields[1])] = float(fields[5])
    band_best = max(cycle2[1e-4], cycle2[1e-2])
    report_line(10, len(cycle2) == 5 and cycle2[10.0] < band_best,
                f"5-arm grid; cycle-2 accuracy at zeta=10 is {cycle2[10.0]:.4f} "
                f"< best band arm {band_best:.4f}")


def test_criterion_11_run_reports_are_byte_identical(tmp_path):
    doc = {**ACCEPT_EXPERIMENT, "cycles": 3, "seeds": [0, 1]}
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(doc))
    for out in ("first", "second"):
        proc = subprocess.run(
            [sys.executable, "-m", "noisestab", "run", str(path),
             "--out", str(tmp_path / out)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
    first = (tmp_path / "first" / "reports.jsonl").read_bytes()
    second = (tmp_path / "second" / "reports.jsonl").read_bytes()
    report_line(11, first == second,
                f"reports.jsonl identical across reruns ({len(first)} bytes)")
