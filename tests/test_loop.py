import json
from pathlib import Path

import numpy as np
import pytest

from noisestab import nn
from noisestab.config import experiment_from_dict
from noisestab.exceptions import (ConfigError, DataError, InvalidStateError,
                                  NonFiniteError)
from noisestab.loop import (CycleReport, PoolState, aggregate_runs, evaluate,
                            run_active_learning, run_single_seed)


def blob_config(**overrides):
    doc = {
        "dataset": {"kind": "blobs", "n_per_class": 40, "classes": 3, "dim": 3,
                    "centers_seed": 5, "noise_std": 1.0, "test_fraction": 0.25},
        "model": {"hidden": [8]},
        "strategy": "random",
        "cycles": 3,
        "budget": 6,
        "initial_labeled": 9,
        "noise": {"zeta": 1e-3, "samplings": 6},
        "train": {"optimizer": "adam", "lr": 0.01, "epochs": 8,
                  "batch_size": 16},
        "seeds": [0],
    }
    doc.update(overrides)
    return experiment_from_dict(doc)


class TestPoolState:
    def test_acquire_moves_indices_and_records_history(self):
        pool = PoolState(labeled=[0, 1], unlabeled=[2, 3, 4])
        pool.acquire([3])
        assert pool.labeled == [0, 1, 3]
        assert pool.unlabeled == [2, 4]
        assert pool.history == [[3]]
        pool.check_invariants(5)

    def test_acquiring_labeled_index_rejected(self):
        pool = PoolState(labeled=[0], unlabeled=[1, 2])
        with pytest.raises(InvalidStateError):
            pool.acquire([0])

    def test_duplicate_picks_rejected(self):
        pool = PoolState(labeled=[], unlabeled=[1, 2])
        with pytest.raises(InvalidStateError):
            pool.acquire([1, 1])


class TestRunActiveLearning:
    def test_zero_budget_keeps_labeled_pool_constant(self):
        reports = run_single_seed(blob_config(budget=0), 0)
        assert [r.labeled_size for r in reports] == [9, 9, 9]
        assert all(r.selected == [] for r in reports)
        assert all(np.isfinite(r.metric) for r in reports)

    def test_exhausting_budget_empties_unlabeled_pool(self):
        cfg = blob_config(cycles=2, budget=90 - 9)
        reports = run_single_seed(cfg, 0)
        # (40 * 3) * 0.75 = 90 pool examples; cycle 1 takes all 81 remaining
        assert reports[0].labeled_size == 9
        assert len(reports[0].selected) == 81
        assert reports[1].labeled_size == 90
        assert reports[1].selected == []
        assert "clamped" in reports[1].warnings[0]

    def test_pool_invariants_hold_across_random_configs(self):
        gen = np.random.default_rng(1)
        for _ in range(15):
            cfg = blob_config(
                cycles=int(gen.integers(1, 4)),
                budget=int(gen.integers(0, 12)),
                initial_labeled=int(gen.integers(3, 12)),
                strategy=str(gen.choice(["random", "entropy",
                                         "noise_stability"])),
                train={"optimizer": "adam", "lr": 0.01, "epochs": 2,
                       "batch_size": 16},
            )
            reports = run_single_seed(cfg, int(gen.integers(100)))
            picked = [i for r in reports for i in r.selected]
            assert len(picked) == len(set(picked))  # no re-selection
            sizes = [r.labeled_size for r in reports]
            assert sizes == sorted(sizes)

    def test_strategy_change_leaves_split_and_initial_pool_alone(self):
        metrics = {}
        for strategy in ("random", "noise_stability"):
            reports = run_single_seed(blob_config(strategy=strategy), 3)
            metrics[strategy] = reports[0]
        # cycle 1 trains on the same initial pool regardless of strategy
        assert metrics["random"].metric == metrics["noise_stability"].metric
        assert metrics["random"].loss_curve == metrics["noise_stability"].loss_curve
        assert metrics["random"].selected != metrics["noise_stability"].selected

    def test_every_strategy_runs_end_to_end(self):
        for strategy in ("random", "entropy", "coreset", "badge",
                         "noise_stability", "noise_stability_m",
                         "noise_stability_d"):
            reports = run_single_seed(blob_config(strategy=strategy, cycles=2), 1)
            assert len(reports) == 2
            assert len(reports[0].selected) == 6
        reports = run_single_seed(
            blob_config(strategy="bald_mcdropout", cycles=2,
                        model={"hidden": [8], "dropout": 0.25},
                        bald_samples=10), 1)
        assert len(reports[0].selected) == 6

    def test_selected_indices_come_from_previous_unlabeled_pool(self):
        reports = run_single_seed(blob_config(strategy="noise_stability"), 5)
        seen = set()
        for r in reports:
            assert not (set(r.selected) & seen)
            seen |= set(r.selected)

    def test_runs_are_deterministic(self):
        cfg = blob_config(strategy="noise_stability", seeds=[2, 7])
        a = run_active_learning(cfg)
        b = run_active_learning(cfg)
        for ra, rb in zip(a, b):
            assert [r.to_record() for r in ra] == [r.to_record() for r in rb]

    def test_warm_start_differs_from_scratch(self):
        scratch = run_single_seed(blob_config(retrain_mode="from_scratch"), 11)
        warm = run_single_seed(blob_config(retrain_mode="warm_start"), 11)
        assert scratch[0].metric == warm[0].metric  # same first training
        assert scratch[1].loss_curve != warm[1].loss_curve


class TestEvaluate:
    def test_perfect_classifier_scores_one(self):
        from noisestab.data import Dataset
        model = nn.MlpModel([nn.Linear(np.array([[1.0, 0.0], [0.0, 1.0]])),
                             nn.Softmax()], 1)
        test = Dataset(inputs=np.array([[2.0, 0.0], [0.0, 2.0]]),
                       targets=[0, 1], task="classification")
        assert evaluate(model, test, "classification") == 1.0

    def test_constant_classifier_on_balanced_pair_scores_half(self):
        from noisestab.data import Dataset
        model = nn.MlpModel([nn.Linear(np.zeros((2, 2)),
                                       np.array([1.0, 0.0])), nn.Softmax()], 1)
        test = Dataset(inputs=np.random.default_rng(0).normal(size=(10, 2)),
                       targets=[0, 1] * 5, task="classification")
        assert evaluate(model, test, "classification") == 0.5

    def test_mean_absolute_error_hand_computed(self):
        from noisestab.data import Dataset
        model = nn.MlpModel([nn.Linear(np.array([[1.0]]))], 1)
        test = Dataset(inputs=np.array([[1.0], [2.0], [3.0], [4.0]]),
                       targets=[2.0, 4.0, 6.0, 8.0], task="regression")
        # predictions (1,2,3,4) against (2,4,6,8): errors (1,2,3,4), MAE 2.5
        assert evaluate(model, test, "regression") == 2.5

    def test_empty_test_set_rejected(self):
        from noisestab.data import Dataset
        model = nn.MlpModel([nn.Linear(np.eye(2)), nn.Softmax()], 1)
        empty = Dataset(inputs=np.zeros((0, 2)), targets=np.zeros(0),
                        task="classification", n_classes=2)
        with pytest.raises(DataError):
            evaluate(model, empty, "classification")


def report(cycle, metric, seed, labeled=10):
    return CycleReport(cycle=cycle, labeled_size=labeled, selected=[],
                       metric=metric, metric_kind="accuracy", loss_curve=[],
                       wall_time=0.0, seed=seed)


class TestAggregateRuns:
    def test_single_seed_has_zero_std(self):
        rows = aggregate_runs([[report(1, 0.8, 0)]])
        assert rows[0]["metric_std"] == 0.0
        assert rows[0]["n_seeds"] == 1

    def test_two_seed_mean(self):
        rows = aggregate_runs([[report(1, 0.4, 0)], [report(1, 0.6, 1)]])
        assert rows[0]["metric_mean"] == pytest.approx(0.5)

    def test_grid_matches_independent_recompute(self):
        gen = np.random.default_rng(3)
        grid = gen.uniform(0.5, 1.0, size=(3, 8))
        runs = [[report(c + 1, grid[s, c], s) for c in range(8)]
                for s in range(3)]
        rows = aggregate_runs(runs)
        for c in range(8):
            column = grid[:, c]
            assert rows[c]["metric_mean"] == pytest.approx(column.sum() / 3)
            spread = float(np.sqrt(((column - column.mean()) ** 2).sum() / 3))
            assert rows[c]["metric_std"] == pytest.approx(spread)

    def test_mismatched_cycle_counts_rejected(self):
        with pytest.raises(DataError):
            aggregate_runs([[report(1, 0.5, 0)],
                            [report(1, 0.5, 1), report(2, 0.6, 1)]])


class TestConfigValidation:
    def test_empty_initial_pool_with_training_rejected(self):
        with pytest.raises(ConfigError):
            blob_config(initial_labeled=0)

    def test_wall_time_not_serialized(self):
        record = report(1, 0.9, 0).to_record()
        assert "wall_time" not in record
        assert record["metric"] == 0.9


class TestNonFiniteGuard:
    @staticmethod
    def diverging_config(**overrides):
        # SGD at lr=1e6 drives the parameters to NaN in the first cycle
        path = Path(__file__).resolve().parent.parent / "configs" / "blobs_demo.json"
        doc = json.loads(path.read_text())
        doc["train"].update(optimizer="sgd", lr=1e6)
        doc.update(overrides)
        return experiment_from_dict(doc)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverged_training_stops_before_selection(self):
        # the NaN embeddings used to reach k-center and surface as a duplicate
        # pick; training is now checked first
        with pytest.raises(NonFiniteError, match="seed 0, cycle 1, phase train"):
            run_single_seed(self.diverging_config(), 0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverged_training_stops_a_strategy_that_never_embeds(self):
        # random selection never embeds, so this run used to finish every
        # cycle with a NaN loss curve
        with pytest.raises(NonFiniteError, match="seed 0, cycle 1, phase train"):
            run_single_seed(self.diverging_config(strategy="random"), 0)
