import json
import struct
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisestab import baselines, loop, nn, stability
from noisestab.config import experiment_from_dict
from noisestab.exceptions import (ConfigError, DataError, InvalidStateError,
                                  NonFiniteError)
from noisestab.loop import (CycleReport, PoolState, aggregate_runs, evaluate,
                            run_active_learning, run_single_seed)

BLOBS_DEMO = Path(__file__).resolve().parent.parent / "configs" / "blobs_demo.json"


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
    def test_acquire_labels_the_rows_at_the_positions(self):
        pool = PoolState(np.array([True, True, False, False, False]))
        assert pool.acquire([1]) == [3]
        assert pool.labeled.tolist() == [0, 1, 3]
        assert pool.unlabeled.tolist() == [2, 4]

    @pytest.mark.parametrize("position", [-1, 2])
    def test_position_outside_the_unlabeled_rows_rejected(self, position):
        pool = PoolState(np.array([True, False, False]))
        with pytest.raises(InvalidStateError, match="unlabeled pool"):
            pool.acquire([position])
        assert pool.is_labeled.tolist() == [True, False, False]

    def test_duplicate_picks_rejected(self):
        pool = PoolState(np.array([False, False, False]))
        with pytest.raises(InvalidStateError, match="distinct"):
            pool.acquire([1, 1])

    @pytest.mark.parametrize("size", [-1, 6])
    def test_initial_size_outside_the_pool_rejected(self, size):
        with pytest.raises(ConfigError, match=f"^initial_labeled {size} not in"):
            PoolState.initial(5, size, np.random.default_rng(0))

    @given(pool_size=st.integers(1, 40), initial=st.integers(0, 40),
           steps=st.lists(st.tuples(st.sampled_from(["valid", "repeat", "outside"]),
                                    st.integers(0, 8), st.integers(0, 2**31 - 1)),
                          max_size=12))
    @settings(max_examples=60)
    def test_random_acquire_sequences_keep_the_invariants(self, pool_size,
                                                          initial, steps):
        pool = PoolState.initial(pool_size, min(initial, pool_size),
                                 np.random.default_rng(pool_size))
        for kind, size, seed in steps:
            gen = np.random.default_rng(seed)
            free = len(pool.unlabeled)
            positions = [int(p) for p in gen.permutation(free)[:min(size, free)]]
            if kind == "repeat" and positions:
                positions.append(positions[int(gen.integers(len(positions)))])
            elif kind == "outside":
                positions.append(int(gen.choice([-1, free, free + 7])))
            else:
                kind = "valid"
            before = pool.is_labeled.copy()
            if kind == "valid":
                rows = [int(pool.unlabeled[p]) for p in positions]
                picks = pool.acquire(positions)
                assert picks == rows and all(type(i) is int for i in picks)
                after = before.copy()
                after[rows] = True
                assert np.array_equal(pool.is_labeled, after)
            else:
                with pytest.raises(InvalidStateError):
                    pool.acquire(positions)
                assert np.array_equal(pool.is_labeled, before)
            labeled, unlabeled = pool.labeled.tolist(), pool.unlabeled.tolist()
            assert labeled == sorted(labeled)
            assert unlabeled == sorted(unlabeled)
            assert not set(labeled) & set(unlabeled)
            assert sorted(labeled + unlabeled) == list(range(pool_size))


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
        for strategy in loop.STRATEGIES:
            # BALD samples dropout masks, so it needs a dropout model
            model = {"hidden": [8], "dropout": 0.25 if strategy == "bald_mcdropout"
                     else 0.0}
            reports = run_single_seed(blob_config(strategy=strategy, cycles=2,
                                                  model=model), 1)
            assert len(reports) == 2
            assert len(reports[0].selected) == 6
            # the picks come out of a numpy index array; json.dumps and the
            # benchmark's report check need Python ints
            assert all(type(i) is int for r in reports for i in r.selected)
            json.dumps([r.to_record() for r in reports])

    def test_record_keys_are_the_report_fields_in_declared_order(self):
        # reports.jsonl's bytes hang on this order, and to_record names no
        # field itself
        names = [f.name for f in fields(CycleReport) if f.name != "wall_time"]
        assert names == ["seed", "cycle", "labeled_size", "selected", "metric",
                         "metric_kind", "loss_curve", "warnings"]
        cfg = blob_config(cycles=2, budget=90 - 9)  # cycle 2 warns it clamped
        for strategy in ("random", "noise_stability"):
            reports = run_single_seed(replace(cfg, strategy=strategy), 4)
            assert reports[1].warnings
            for report in reports:
                assert list(report.to_record()) == names

    def test_every_cycle_trains_from_the_same_init(self, monkeypatch):
        # one training recipe: each cycle builds the model afresh from the
        # run's init seed, never from the last cycle's weights
        train = nn.train
        starts = []

        def recording_train(model, labeled, cfg):
            starts.append(nn.flatten_params(model))
            return train(model, labeled, cfg)

        monkeypatch.setattr(nn, "train", recording_train)
        run_single_seed(blob_config(), 11)
        assert len(starts) == 3
        assert all(np.array_equal(start, starts[0]) for start in starts)

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


class TestFileDatasetsThroughTheLoop:
    """The idx and csv kinds run a whole loop, not only their loaders."""

    @staticmethod
    def idx_dataset(tmp_path):
        # 3 classes of six 2x2 images; the default split keeps 4 per class
        gen = np.random.default_rng(4)
        labels = np.repeat(np.arange(3, dtype=np.uint8), 6)
        images = gen.integers(0, 256, size=(18, 2, 2), dtype=np.uint8)
        images_path, labels_path = tmp_path / "images.idx", tmp_path / "labels.idx"
        images_path.write_bytes(struct.pack(">IIII", 0x803, 18, 2, 2)
                                + images.tobytes())
        labels_path.write_bytes(struct.pack(">II", 0x801, 18) + labels.tobytes())
        return {"kind": "idx", "images": str(images_path),
                "labels": str(labels_path)}

    @staticmethod
    def csv_dataset(tmp_path):
        # two numeric columns on different scales, one categorical, a target
        gen = np.random.default_rng(5)
        lines = ["a,b,color,y"] + [
            f"{gen.normal(3.0, 2.0)!r},{gen.normal(-50.0, 10.0)!r},"
            f"{gen.choice(['red', 'green', 'blue'])},{gen.normal()!r}"
            for _ in range(20)]
        path = tmp_path / "table.csv"
        path.write_text("\n".join(lines) + "\n")
        return {"kind": "csv", "path": str(path), "test_fraction": 0.25,
                "schema": {"a": "numeric", "b": "numeric",
                           "color": "categorical", "y": "target"}}

    @pytest.mark.parametrize("strategy", ["random", "noise_stability"])
    @pytest.mark.parametrize("kind", ["idx", "csv"])
    def test_labeled_pool_grows_by_the_budget(self, tmp_path, kind, strategy):
        dataset = getattr(self, f"{kind}_dataset")(tmp_path)
        cfg = blob_config(dataset=dataset, strategy=strategy, cycles=2, budget=2,
                          initial_labeled=3, seeds=[0, 1],
                          model={"hidden": [4]}, noise={"samplings": 4})
        for reports in run_active_learning(cfg):
            assert [r.labeled_size for r in reports] == [3, 5]
            assert all(len(r.selected) == 2 for r in reports)
            assert all(np.isfinite(r.metric) for r in reports)

    def test_csv_numeric_columns_scaled_by_the_training_split(self, tmp_path):
        cfg = blob_config(dataset=self.csv_dataset(tmp_path))
        train_pool, test = loop.build_dataset(cfg.dataset, 0)
        assert (len(train_pool), len(test)) == (15, 5)
        columns = train_pool.numeric_columns
        assert len(columns) == 2
        numeric = train_pool.inputs[:, columns]
        np.testing.assert_allclose(numeric.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(numeric.std(axis=0), 1.0, rtol=1e-12)
        # scaled after the split: the test rows are not in the statistics
        both = np.vstack([numeric, test.inputs[:, columns]])
        assert np.all(np.abs(both.mean(axis=0)) > 1e-3)

class TestNoiseStabilityPicks:
    @pytest.mark.parametrize("selector", ["k_center", "k_center_normalized",
                                          "kmeans_pp", "top_magnitude"])
    def test_one_pool_embeddings_call_per_cycle(self, monkeypatch, selector):
        calls = []
        real = stability.pool_embeddings

        def counting(model, pool, cfg):
            calls.append(len(pool))
            return real(model, pool, cfg)

        monkeypatch.setattr(stability, "pool_embeddings", counting)
        cfg = blob_config(strategy="noise_stability", selector=selector)
        run_single_seed(cfg, 0)
        # one call per cycle, over the unlabeled rows only
        pool_size = 90
        assert calls == [pool_size - 9 - 6 * c for c in range(cfg.cycles)]


class TestEvaluate:
    def test_perfect_classifier_scores_one(self):
        from noisestab.data import Dataset
        model = nn.MlpModel([nn.Linear(np.array([[1.0, 0.0], [0.0, 1.0]])),
                             nn.Softmax()], 1)
        test = Dataset(inputs=np.array([[2.0, 0.0], [0.0, 2.0]]),
                       targets=[0, 1], task="classification")
        assert evaluate(model, test) == 1.0

    def test_constant_classifier_on_balanced_pair_scores_half(self):
        from noisestab.data import Dataset
        model = nn.MlpModel([nn.Linear(np.zeros((2, 2)),
                                       np.array([1.0, 0.0])), nn.Softmax()], 1)
        test = Dataset(inputs=np.random.default_rng(0).normal(size=(10, 2)),
                       targets=[0, 1] * 5, task="classification")
        assert evaluate(model, test) == 0.5

    def test_mean_absolute_error_hand_computed(self):
        from noisestab.data import Dataset
        model = nn.MlpModel([nn.Linear(np.array([[1.0]]))], 1)
        test = Dataset(inputs=np.array([[1.0], [2.0], [3.0], [4.0]]),
                       targets=[2.0, 4.0, 6.0, 8.0], task="regression")
        # predictions (1,2,3,4) against (2,4,6,8): errors (1,2,3,4), MAE 2.5
        assert evaluate(model, test) == 2.5

    def test_empty_test_set_rejected(self):
        from noisestab.data import Dataset
        model = nn.MlpModel([nn.Linear(np.eye(2)), nn.Softmax()], 1)
        empty = Dataset(inputs=np.zeros((0, 2)), targets=np.zeros(0),
                        task="classification", n_classes=2)
        with pytest.raises(DataError):
            evaluate(model, empty)


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

    @pytest.mark.parametrize("change,match", [
        ({"dataset": {"kind": "cifar"}}, "unknown dataset kind"),
        ({"selector": "k_dpp"}, "k_dpp"),
        ({"strategy": "bald_mcdropout"}, "dropout"),
        ({"seeds": []}, "seeds")])
    def test_replace_gets_the_load_checks(self, change, match):
        # overrides go through dataclasses.replace, which never sees config.py
        with pytest.raises(ConfigError, match=match):
            replace(blob_config(), **change)

    @pytest.mark.parametrize("dataset, total", [
        # 0.01 of 40 rounds to no example, per class and over the whole set
        ({"kind": "blobs", "n_per_class": 40, "classes": 3, "dim": 3,
          "noise_std": 1.0}, 120),
        ({"kind": "two_moons", "n": 40, "noise_std": 0.1}, 40),
        ({"kind": "linear_regression", "n": 40, "dim": 3, "noise_std": 0.1}, 40)],
        ids=["blobs", "two_moons", "linear_regression"])
    @pytest.mark.parametrize("seeds", [[0], [5, 6]])
    def test_empty_test_split_found_before_the_run(self, dataset, total, seeds):
        cfg = blob_config(dataset={**dataset, "test_fraction": 0.01}, seeds=seeds)
        with pytest.raises(ConfigError, match=f"dataset.test_fraction 0.01 leaves "
                                              f"no test example out of {total}"):
            loop.check_initial_pool(cfg)
        loop.check_initial_pool(replace(cfg, dataset={**dataset,
                                                      "test_fraction": 0.05}))

    def test_wall_time_not_serialized(self):
        record = report(1, 0.9, 0).to_record()
        assert "wall_time" not in record
        assert record["metric"] == 0.9


class TestStrategyNames:
    def test_known_names_accepted(self):
        for name in loop.STRATEGIES:
            cfg = blob_config(strategy=name, model={"hidden": [8], "dropout": 0.25})
            assert cfg.strategy == name

    @pytest.mark.parametrize("name", ["qbc", "noise_stability_m",
                                      "noise_stability_d"])
    def test_unknown_name_lists_valid_strategies(self, name):
        valid = "random, entropy, coreset, badge, bald_mcdropout, noise_stability"
        with pytest.raises(ConfigError, match=f"{name}'; valid strategies: {valid}$"):
            blob_config(strategy=name)
        with pytest.raises(ConfigError, match=valid):
            replace(blob_config(), strategy=name)


class TestNonFiniteGuard:
    @staticmethod
    def diverging_config(**overrides):
        # Adam's steps are about lr in size, so lr=1e300 drives the
        # parameters to infinity and NaN in the first cycle
        doc = json.loads(BLOBS_DEMO.read_text())
        doc["train"].update(lr=1e300)
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

    @pytest.mark.parametrize("phase,module,target,strategy", [
        ("evaluate", loop, "evaluate", "random"),
        ("embed", stability, "pool_embeddings", "noise_stability"),
        ("select", loop, "select", "noise_stability"),
        ("select", baselines, "select_coreset", "coreset")],
        ids=["evaluate", "embed", "select-k-center", "select-coreset"])
    def test_overflow_stops_the_phase_it_arises_in(self, monkeypatch, phase,
                                                   module, target, strategy):
        # each phase runs with numpy's overflow raising, so the overflow stops
        # the run instead of passing an infinity on; a selector's overflow
        # used to be reported as phase embed, which ran the strategy whole
        monkeypatch.setattr(module, target,
                            lambda *args: np.float64(1e300) * np.float64(1e300))
        with pytest.raises(NonFiniteError, match=f"^seed 0, cycle 1, phase {phase}: "
                                                 "overflow encountered in"):
            run_single_seed(blob_config(strategy=strategy), 0)

    @pytest.mark.parametrize("strategy,dropout", [
        ("noise_stability", 0.0), ("entropy", 0.0), ("bald_mcdropout", 0.3)])
    def test_non_finite_pool_row_stops_the_embed_phase(self, monkeypatch,
                                                       strategy, dropout):
        # the loaders reject NaN, so put one into an unlabeled pool row after
        # loading; ReLU maps it to 0.0 and the row used to be scored normally
        cfg = blob_config(strategy=strategy, model={"hidden": [8], "dropout": dropout})
        build = loop.build_dataset

        def with_nan_row(spec, run_seed):
            train_pool, test = build(spec, run_seed)
            state = PoolState.initial(len(train_pool), cfg.initial_labeled,
                                      loop.rng(run_seed, "init-pool"))
            train_pool.inputs[state.unlabeled[4], 1] = np.nan
            return train_pool, test

        monkeypatch.setattr(loop, "build_dataset", with_nan_row)
        with pytest.raises(NonFiniteError,
                           match="seed 0, cycle 1, phase embed: .*row 4 "):
            run_single_seed(cfg, 0)


class TestSelectPhase:
    def test_pool_of_few_distinct_rows_selects_distinct_indices(self):
        # with no point noise the pool holds one row per class, fewer distinct
        # embeddings than the budget; k-center used to repeat an index
        dataset = {"kind": "blobs", "n_per_class": 40, "classes": 3, "dim": 3,
                   "centers_seed": 5, "noise_std": 0.0, "test_fraction": 0.25}
        cfg = blob_config(dataset=dataset, strategy="noise_stability", cycles=2)
        reports = run_single_seed(cfg, 0)
        picks = [i for r in reports for i in r.selected]
        assert len(picks) == len(set(picks)) == 2 * cfg.budget

    def test_invalid_picks_name_seed_cycle_and_phase(self, monkeypatch):
        monkeypatch.setattr(loop, "_embed", lambda *args: lambda: [0, 0])
        with pytest.raises(InvalidStateError,
                           match="seed 3, cycle 1, phase select: .*distinct"):
            run_single_seed(blob_config(), 3)

    def test_negative_position_is_not_wrapped_to_the_last_row(self, monkeypatch):
        # positions used to be mapped with list indexing, so -1 labeled the
        # last unlabeled row
        monkeypatch.setattr(loop, "_embed", lambda *args: lambda: [-1])
        with pytest.raises(InvalidStateError,
                           match="seed 3, cycle 1, phase select: .*unlabeled pool"):
            run_single_seed(blob_config(), 3)
