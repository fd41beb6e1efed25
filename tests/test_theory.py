import concurrent.futures
import json
import math
import multiprocessing
import subprocess
import sys
import time

import numpy as np
import pytest

from noisestab import cli, nn, seeding, theory
from noisestab.stability import NoiseConfig, embedding, perturbation_set
from oracles import failure_fraction


@pytest.fixture
def scalar_mlp():
    """Scalar-output net tapped at its final output (empty head)."""
    model = nn.build_mlp(3, [8], 1, task="regression", seed=31)
    model.feature_tap = len(model.layers)
    return model


class TestSecondMoment:
    def test_trace_is_one_for_any_sampling_count(self):
        for k in (1, 17, 301):
            report = theory.check_second_moment_trace(12, k, seed=4)
            assert report.passed
            assert report.statistic < 1e-12

    def test_single_sample_cannot_average_out(self):
        report = theory.check_second_moment(10, 1, seed=0)
        # one u u^T is nowhere near isotropic; the report records the miss
        assert report.statistic > 0.5
        assert not report.passed

    def test_large_sample_statistic_shrinks(self):
        small = theory.check_second_moment(10, 500, seed=1)
        large = theory.check_second_moment(10, 50000, seed=1)
        assert large.statistic < small.statistic
        assert large.passed

    def test_dimension_below_two_rejected(self):
        with pytest.raises(ValueError):
            theory.check_second_moment(1, 10, seed=0)


class TestJacobianNorm:
    def test_dead_network_reports_degenerate_zero(self):
        # the ReLU is dead at this input, so the zero-weight head gives a
        # fully zero Jacobian while the parameters themselves are not all zero
        frozen = nn.MlpModel([nn.Linear(np.array([[1.0, 0.0]])), nn.ReLU(),
                              nn.Linear(np.array([[0.0]]))], 3)
        report = theory.check_jacobian_norm(frozen, np.array([-1.0, 0.0]), 50,
                                            seed=2, tap=nn.TAP_FEATURE)
        assert report.details["degenerate"] is True
        assert report.statistic == 0.0
        assert report.passed

    def test_linear_model_matches_input_norm(self):
        model = nn.MlpModel([nn.Linear(np.array([[0.6, -0.8, 0.3, 0.5]]))], 1)
        x = np.array([0.9, -0.4, 0.2, 0.7])
        report = theory.check_jacobian_norm(model, x, 4000, seed=5)
        assert report.details["jacobian_frob2"] == pytest.approx(x @ x)
        assert report.statistic < 0.05
        assert report.passed

    def test_small_mlp_statistic_under_threshold(self, scalar_mlp):
        report = theory.check_jacobian_norm(scalar_mlp, np.array([0.4, -1.1, 0.6]),
                                            4000, seed=6)
        assert report.passed

    def test_vector_tap_equals_sum_of_coordinate_taps(self):
        # shared directions make the vector-valued check exactly the sum of
        # per-coordinate scalar checks
        model = nn.build_mlp(2, [5], 3, task="regression", seed=8)
        x = np.array([0.7, -0.3])
        cfg = NoiseConfig(zeta=1e-4, samplings=64, seed=9, tap=nn.TAP_PREDICTIVE)
        emb = embedding(model, x, perturbation_set(model, cfg))
        total = float(emb @ emb)
        scaled_blocks = emb.reshape(cfg.samplings, -1)
        per_coord = 0.0
        for c in range(scaled_blocks.shape[1]):
            coord_vec = scaled_blocks[:, c]
            per_coord += float(coord_vec @ coord_vec)
        assert total == pytest.approx(per_coord, rel=1e-12)


class TestEquivalences:
    def test_identical_examples_have_zero_distance(self, scalar_mlp):
        x = np.array([0.5, 0.1, -0.2])
        report = theory.check_distance_equivalence(scalar_mlp, x, x, 100, seed=3)
        assert report.details["projected"] == 0.0
        assert report.details["gradient"] == 0.0
        assert report.passed

    def test_linear_model_distance_closed_form(self):
        model = nn.MlpModel([nn.Linear(np.array([[0.6, -0.8, 0.3, 0.5]]))], 1)
        x_i = np.array([0.9, -0.4, 0.2, 0.7])
        x_j = np.array([-0.3, 0.5, 0.8, -0.1])
        report = theory.check_distance_equivalence(model, x_i, x_j, 4000, seed=7)
        # gradients of theta @ x are the inputs themselves
        assert report.details["gradient"] == pytest.approx(
            float(np.sum((x_i - x_j) ** 2)))
        assert report.passed

    def test_mlp_distance_statistic_under_threshold(self, scalar_mlp):
        report = theory.check_distance_equivalence(
            scalar_mlp, np.array([0.4, -1.1, 0.6]), np.array([-0.8, 0.3, 1.2]),
            4000, seed=8)
        assert report.passed

    def test_zero_gradient_inner_product_is_degenerate_zero(self):
        model = nn.MlpModel([nn.Linear(np.array([[0.6, -0.8]]))], 1)
        report = theory.check_inner_product_equivalence(
            model, np.array([0.5, 0.2]), np.zeros(2), 200, seed=9)
        assert report.details["gradient"] == 0.0
        assert report.statistic < 0.05

    def test_self_inner_product_reduces_to_norm_check(self, scalar_mlp):
        x = np.array([0.4, -1.1, 0.6])
        inner = theory.check_inner_product_equivalence(scalar_mlp, x, x, 2000,
                                                       seed=10)
        norm = theory.check_jacobian_norm(scalar_mlp, x, 2000, seed=10)
        assert inner.details["projected"] == pytest.approx(
            norm.details["embedding_norm2"], rel=1e-9)

    def test_linear_model_inner_product_closed_form(self):
        model = nn.MlpModel([nn.Linear(np.array([[0.6, -0.8, 0.3, 0.5]]))], 1)
        x_i = np.array([0.9, -0.4, 0.2, 0.7])
        x_j = np.array([-0.3, 0.5, 0.8, -0.1])
        report = theory.check_inner_product_equivalence(model, x_i, x_j, 4000,
                                                        seed=11)
        assert report.details["gradient"] == pytest.approx(float(x_i @ x_j))
        assert report.passed


class TestConcentration:
    def test_loose_epsilon_rarely_fails(self):
        for kind in ("magnitude", "distance"):
            report = theory.concentration_trial(kind, 50, 8, 0.99, 400, seed=1)
            assert report.statistic < 0.01

    def test_acceptance_scale_parameters_pass(self):
        report = theory.concentration_trial("magnitude", 200, 64, 0.5, 500, seed=2)
        assert report.passed

    def test_doubling_k_strictly_decreases_mean_failure(self):
        report = theory.concentration_monotonicity(
            "magnitude", 200, [4, 8, 16], 0.25, 200, seeds=list(range(10)))
        assert report.passed
        fracs = report.details["mean_fractions"]
        assert fracs[0] > fracs[1] > fracs[2] > 0.0

    def test_deterministic_per_seed(self):
        a = failure_fraction("inner_product", 100, 16, 0.4, 200, seed=3)
        b = failure_fraction("inner_product", 100, 16, 0.4, 200, seed=3)
        assert a == b

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            failure_fraction("volume", 10, 4, 0.5, 10, seed=0)

    def test_report_cites_bound_form(self):
        report = theory.concentration_trial("magnitude", 50, 16, 0.5, 50, seed=4)
        assert "exp(-c*eps^2*K)" in report.details["bound_form"]


def direct_simultaneous_failure(n, pool_size, samplings, epsilon, trials, seed):
    """Reference for the sweep: fraction of trials in which any of
    ``pool_size`` n-dimensional Gaussian vectors violates the magnitude bound
    under one shared, explicitly drawn projection."""
    failures = 0
    for t in range(trials):
        gen = seeding.rng(seed, t)
        q = theory._projection_matrix(n, samplings, gen)
        g = gen.standard_normal((pool_size, n))
        z = g @ q.T
        g_norm = np.linalg.norm(g, axis=1)
        z_norm = np.linalg.norm(z, axis=1)
        failures += bool(np.any(np.abs(z_norm - g_norm) > epsilon * g_norm))
    return failures / trials


def assert_same_rate(p_a, n_a, p_b, n_b):
    # two independent estimates of one rate agree within 4 combined standard
    # errors; a sampler with the wrong law misses by far more at these sizes
    se = np.sqrt(p_a * (1 - p_a) / n_a + p_b * (1 - p_b) / n_b)
    assert abs(p_a - p_b) <= 4 * se, (p_a, p_b, se)


class TestReducedSamplers:
    @pytest.mark.parametrize("kind, n, samplings, epsilon", [
        ("magnitude", 50, 8, 0.25),     # rate ~0.31
        ("magnitude", 3, 6, 0.3),       # ~0.11, chi^2 with two degrees of freedom
        ("distance", 30, 16, 0.25),     # ~0.14
        ("inner_product", 40, 8, 0.25),  # ~0.45
        ("inner_product", 2, 8, 0.3),   # ~0.44, no chi^2 term left
    ])
    def test_matches_direct_failure_fraction(self, kind, n, samplings, epsilon):
        direct = failure_fraction(kind, n, samplings, epsilon, 3000, seed=31)
        reduced = theory.reduced_failure_fraction(kind, n, samplings, epsilon,
                                                  12000, seed=32)
        assert 0.05 < reduced < 0.5
        assert_same_rate(direct, 3000, reduced, 12000)

    @pytest.mark.parametrize("n, pool_size, samplings, epsilon", [
        (40, 16, 12, 0.5),  # K < n, rate ~0.14
        (3, 2, 3, 0.5),     # K = n, small Bartlett degrees of freedom, ~0.16
        (6, 8, 10, 0.3),    # K > n, rate ~0.52
    ])
    def test_sweep_sampler_matches_direct_loop(self, n, pool_size, samplings,
                                              epsilon):
        direct = direct_simultaneous_failure(n, pool_size, samplings, epsilon,
                                             1500, seed=33)
        reduced = float(np.mean(list(theory.simultaneous_failures(
            n, pool_size, samplings, epsilon, 1500, seed=34))))
        assert 0.05 < reduced < 0.6
        assert_same_rate(direct, 1500, reduced, 1500)

    @pytest.mark.parametrize("n, samplings", [(200, 24), (12, 12), (5, 9)])
    def test_projection_spectrum_sums_to_n(self, n, samplings):
        # trace(Q Q^T) = (n/K) * K exactly, for the Bartlett and direct paths
        lam = theory._projection_spectrum(n, samplings, seeding.rng(3, 0))
        assert lam.shape == (min(n, samplings),)
        assert lam.sum() == pytest.approx(n, rel=1e-12)
        assert lam.min() > -1e-12

    def test_magnitude_and_distance_use_their_own_streams(self):
        args = (50, 8, 0.25, 2000, 5)
        assert (theory.reduced_failure_fraction("magnitude", *args)
                != theory.reduced_failure_fraction("distance", *args))

    def test_deterministic_per_seed(self):
        a = theory.reduced_failure_fraction("inner_product", 100, 16, 0.4, 3000, 3)
        b = theory.reduced_failure_fraction("inner_product", 100, 16, 0.4, 3000, 3)
        assert a == b

    def test_inner_product_needs_two_dimensions(self):
        with pytest.raises(ValueError):
            theory.reduced_failure_fraction("inner_product", 1, 4, 0.5, 10, 0)


class TestCheckSuiteSeeds:
    """Seeds at which the suite used to fail by chance, with 5000 samplings
    for the embedding checks and 2000 concentration trials."""

    def test_jacobian_suite_passes_at_seed_1000113(self):
        assert all(r.passed for r in cli.run_check_suite("jacobian", 1000113))

    @pytest.mark.parametrize("seed", [111, 116])
    def test_concentration_suite_passes(self, seed):
        assert all(r.passed for r in cli.run_check_suite("concentration", seed))


class TestEfficiencySweep:
    def test_unit_pool_needs_the_smallest_k(self):
        table = theory.efficiency_report(100, [1, 16, 64], 0.5, seed=5,
                                         trials=120).details["table"]
        ks = [row["required_samplings"] for row in table]
        assert ks[0] == min(ks)
        assert ks == sorted(ks)

    def test_growth_is_sublinear_in_pool_size(self):
        report = theory.efficiency_report(100, [8, 64], 0.5, seed=6, trials=120)
        assert report.statistic < 8.0
        assert report.passed

    def test_each_pool_size_is_searched_from_k_one(self):
        # check seed 102: per-K verdicts are Monte Carlo and not monotone in K
        # (26 passes at pool 256, 27 fails), so starting each search at the
        # previous pool size's answer read [24, 28, 32] here
        table = theory.efficiency_report(200, [128, 256, 512], 0.5,
                                         seed=102).details["table"]
        assert [row["required_samplings"] for row in table] == [24, 26, 30]

    def test_sweep_is_deterministic(self):
        a = theory.efficiency_report(100, [4, 32], 0.5, seed=7, trials=100)
        b = theory.efficiency_report(100, [4, 32], 0.5, seed=7, trials=100)
        assert a.details["table"] == b.details["table"]


def refuse_workers(*args, **kwargs):
    raise AssertionError("a worker pool was started")


def refuse_trials(*args, **kwargs):
    raise AssertionError("a trial was run")


def fail_in_worker(*args, **kwargs):
    raise FloatingPointError("raised inside a search")


class TestParallelSweep:
    """The sweep searches its pool sizes in worker processes; the table must
    not depend on how many there are or on the order in which they finish."""

    @pytest.mark.parametrize("n, pool_sizes, seed", [
        (50, [4, 16, 64], 0),
        (50, [64, 4, 16], 1),     # not ascending: the table keeps this order
        (30, [8, 8, 2, 32], 2),   # a repeated pool size
        (80, [1, 128], 3),
        (20, [16], 4),            # one pool size: one worker, run inline
    ])
    def test_parallel_and_inline_tables_are_equal(self, monkeypatch, n,
                                                  pool_sizes, seed):
        monkeypatch.setattr(theory, "_usable_cpus", lambda: 3)
        parallel = theory.efficiency_report(n, pool_sizes, 0.5, seed,
                                            trials=60).details["table"]
        monkeypatch.setattr(theory, "_usable_cpus", lambda: 1)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            refuse_workers)
        inline = theory.efficiency_report(n, pool_sizes, 0.5, seed,
                                          trials=60).details["table"]
        assert parallel == inline
        assert [row["pool_size"] for row in parallel] == pool_sizes
        assert [row["required_samplings"] for row in parallel] == [
            theory.required_samplings(n, p, 0.5, seed, 0.05, 60)
            for p in pool_sizes]

    def test_no_worker_outlives_the_call(self):
        theory.efficiency_report(50, [4, 16], 0.5, seed=5, trials=40)
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="a patched function reaches workers only by fork")
    def test_worker_error_reaches_the_caller_with_its_type(self, monkeypatch):
        monkeypatch.setattr(theory, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(theory, "simultaneous_failures", fail_in_worker)
        with pytest.raises(FloatingPointError, match="raised inside a search"):
            theory.efficiency_report(50, [4, 16], 0.5, seed=5, trials=40)
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="a patched function reaches workers only by fork")
    def test_a_killed_worker_raises_instead_of_hanging(self):
        # in a child interpreter with a deadline, so a hang fails the test
        # rather than stopping the suite
        proc = subprocess.run([sys.executable, "-c", KILLED_WORKER],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "BrokenProcessPool []\n"


KILLED_WORKER = """
import multiprocessing, os, signal
from concurrent.futures.process import BrokenProcessPool
from noisestab import theory
theory._usable_cpus = lambda: 2
theory.simultaneous_failures = lambda *a, **k: os.kill(os.getpid(), signal.SIGKILL)
try:
    theory.efficiency_report(50, [4, 16], 0.5, seed=5, trials=40)
except BrokenProcessPool:
    print("BrokenProcessPool", multiprocessing.active_children())
"""


SUITE_ORDER = (["second_moment", "second_moment_trace", "jacobian_norm",
                "jacobian_norm", "distance_equivalence",
                "inner_product_equivalence"]
               + [name for kind in theory.CONCENTRATION_KINDS
                  for name in (f"concentration_{kind}",
                               f"concentration_monotonic_{kind}")]
               + ["sampling_efficiency"])


def fail_in_parent(*args, **kwargs):
    raise FloatingPointError("raised in a parent-side check")


class TestOverlappedCheckSuite:
    """``run_check_suite`` starts the efficiency searches before the other
    checks and collects them last; neither the overlap nor the worker count
    may show in its reports, and no worker may outlive the call."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_reports_do_not_depend_on_the_cpu_count(self, monkeypatch, seed):
        monkeypatch.setattr(theory, "_usable_cpus", lambda: 3)
        parallel = [r.to_json() for r in cli.run_check_suite("all", seed)]
        assert multiprocessing.active_children() == []
        monkeypatch.setattr(theory, "_usable_cpus", lambda: 1)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            refuse_workers)
        inline = [r.to_json() for r in cli.run_check_suite("all", seed)]
        assert parallel == inline
        assert [json.loads(line)["name"] for line in parallel] == SUITE_ORDER

    def test_no_worker_outlives_a_raise_in_a_parent_check(self, monkeypatch):
        monkeypatch.setattr(theory, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(theory, "check_second_moment", fail_in_parent)
        with pytest.raises(FloatingPointError, match="parent-side check"):
            cli.run_check_suite("all", 0)
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="a patched function reaches workers only by fork")
    def test_a_raise_stops_running_searches_without_waiting(self, monkeypatch):
        # the workers used to be shut down by waiting for every search that
        # had started, so a parent-side raise came out only once they ended
        monkeypatch.setattr(theory, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(theory, "simultaneous_failures",
                            lambda *args, **kwargs: time.sleep(20))
        monkeypatch.setattr(theory, "check_second_moment", fail_in_parent)
        start = time.monotonic()
        with pytest.raises(FloatingPointError, match="parent-side check"):
            cli.run_check_suite("all", 0)
        assert time.monotonic() - start < 5
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="a patched function reaches workers only by fork")
    def test_worker_error_reaches_the_caller_with_its_type(self, monkeypatch):
        monkeypatch.setattr(theory, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(theory, "simultaneous_failures", fail_in_worker)
        with pytest.raises(FloatingPointError, match="raised inside a search"):
            cli.run_check_suite("all", 0)
        assert multiprocessing.active_children() == []

    def test_report_refuses_searches_for_other_arguments(self, monkeypatch):
        monkeypatch.setattr(theory, "_usable_cpus", lambda: 1)
        with theory.EfficiencySearches(50, [4, 16], 0.5, 5, trials=40) as searches:
            with pytest.raises(ValueError, match="searches were started for"):
                theory.efficiency_report(50, [4, 16], 0.5, 6, trials=40,
                                         searches=searches)
            report = theory.efficiency_report(50, [4, 16], 0.5, 5, trials=40,
                                              searches=searches)
        assert report.details["table"] == theory.efficiency_report(
            50, [4, 16], 0.5, 5, trials=40).details["table"]

    def test_bad_arguments_fail_on_entry_before_any_worker(self, monkeypatch):
        monkeypatch.setattr(theory, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            refuse_workers)
        with pytest.raises(ValueError, match="target must be in"):
            with theory.EfficiencySearches(50, [4, 16], 0.5, 5, target=1.5):
                pass


class TestTrialInputs:
    """Arguments no trial could use are rejected before the first trial or
    worker starts. A NaN epsilon used to pass a concentration check, and a
    zero epsilon or target made the sweep double K until memory ran out."""

    @pytest.mark.parametrize("change, name", [
        ({"epsilon": 0.0}, "epsilon"), ({"epsilon": -0.5}, "epsilon"),
        ({"epsilon": math.nan}, "epsilon"), ({"epsilon": math.inf}, "epsilon"),
        ({"target": 0.0}, "target"), ({"target": 1.0}, "target"),
        ({"target": math.nan}, "target"), ({"trials": 0}, "trials"),
        ({"n": 0}, "n"), ({"pool_sizes": [8, 0]}, "pool sizes"),
        ({"pool_sizes": []}, "pool_sizes")])
    def test_sweep_rejects(self, monkeypatch, change, name):
        monkeypatch.setattr(theory, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            refuse_workers)
        monkeypatch.setattr(theory, "simultaneous_failures", refuse_workers)
        args = {"n": 50, "pool_sizes": [4, 8], "epsilon": 0.5, "seed": 0,
                "target": 0.05, "trials": 20, **change}
        with pytest.raises(ValueError, match=f"^{name} must"):
            theory.efficiency_report(**args)
        if "pool_sizes" not in change:
            args["pool_size"] = args.pop("pool_sizes")[0]
            with pytest.raises(ValueError, match=f"^{name} must"):
                theory.required_samplings(**args)

    @pytest.mark.parametrize("kind", theory.CONCENTRATION_KINDS)
    @pytest.mark.parametrize("change, name", [
        ({"epsilon": math.nan}, "epsilon"), ({"epsilon": math.inf}, "epsilon"),
        ({"epsilon": 0.0}, "epsilon"), ({"epsilon": -1.0}, "epsilon"),
        ({"trials": 0}, "trials"), ({"n": 0}, "n"), ({"samplings": 0}, "samplings")])
    def test_concentration_rejects(self, kind, change, name):
        args = {"n": 200, "samplings": 64, "epsilon": 0.5, "trials": 100,
                "seed": 0, **change}
        for check in (failure_fraction, theory.reduced_failure_fraction,
                      theory.concentration_trial):
            with pytest.raises(ValueError, match=f"^{name} must"):
                check(kind, **args)

    @pytest.mark.parametrize("change, name", [
        ({"seeds": []}, "seeds"), ({"samplings_grid": []}, "samplings_grid"),
        ({"samplings_grid": [8]}, "samplings_grid"),
        ({"samplings_grid": [8, 0]}, "samplings"), ({"kind": "volume"}, "unknown"),
        ({"epsilon": math.nan}, "epsilon"), ({"trials": 0}, "trials"),
        ({"n": 0}, "n")])
    def test_monotonicity_rejects_before_the_first_trial(self, monkeypatch,
                                                         change, name):
        # an empty seed list used to end in a bare IndexError, and a grid of
        # fewer than 2 entries in a failed report with statistic 0.0
        monkeypatch.setattr(theory, "reduced_failure_fraction", refuse_trials)
        args = {"kind": "magnitude", "n": 200, "samplings_grid": [4, 8],
                "epsilon": 0.25, "trials": 100, "seeds": [0, 1], **change}
        with pytest.raises(ValueError, match=f"^{name} "):
            theory.concentration_monotonicity(**args)


class TestCheckReport:
    def test_passed_mirrors_threshold_comparison(self):
        good = theory.CheckReport.make("demo", 10, 0.01, 0.05, seed=1)
        bad = theory.CheckReport.make("demo", 10, 0.06, 0.05, seed=1)
        assert good.passed and not bad.passed

    @pytest.mark.parametrize("details, extra", [({}, []), ({"n": 3}, ["details"])],
                             ids=["without_details", "with_details"])
    def test_json_keys_run_in_field_order(self, details, extra):
        report = theory.CheckReport.make("demo", 10, 0.01, 0.05, seed=1, **details)
        assert list(json.loads(report.to_json())) == [
            "name", "trials", "statistic", "threshold", "passed", "seed", *extra]

    def test_json_roundtrip_holds_all_fields(self):
        report = theory.CheckReport.make("demo", 10, 0.01, 0.05, seed=1, n=3)
        doc = json.loads(report.to_json())
        assert doc == {"name": "demo", "trials": 10, "statistic": 0.01,
                       "threshold": 0.05, "passed": True, "seed": 1,
                       "details": {"n": 3}}
