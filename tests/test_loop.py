import json
import struct
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisestab import cli, loop, nn, stability
from noisestab.config import experiment_from_dict
from noisestab.exceptions import (ConfigError, DataError, InvalidStateError,
                                  NonFiniteError)
from noisestab.loop import (CycleReport, PoolState, aggregate_runs, evaluate,
                            run_active_learning, run_single_seed)
from noisestab.selection import SelectionRequest, select

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

    @given(pool_size=st.integers(1, 40), initial=st.integers(0, 40),
           steps=st.lists(st.tuples(st.sampled_from(["valid", "labeled",
                                                     "repeat", "outside"]),
                                    st.integers(0, 8), st.integers(0, 2**31 - 1)),
                          max_size=12))
    @settings(max_examples=60)
    def test_random_acquire_sequences_keep_the_invariants(self, pool_size,
                                                          initial, steps):
        pool = PoolState.initial(pool_size, min(initial, pool_size),
                                 np.random.default_rng(pool_size))
        for kind, size, seed in steps:
            gen = np.random.default_rng(seed)
            free = pool.unlabeled
            picks = [int(i) for i in
                     gen.permutation(free)[:min(size, len(free))]]
            if kind == "labeled" and pool.labeled:
                picks.append(int(gen.choice(pool.labeled)))
            elif kind == "repeat" and picks:
                picks.append(picks[int(gen.integers(len(picks)))])
            elif kind == "outside":
                picks.append(int(gen.choice([-1, pool_size, pool_size + 7])))
            else:
                kind = "valid"
            before = (list(pool.labeled), list(pool.unlabeled), len(pool.history))
            if kind == "valid":
                pool.acquire(picks)
                assert pool.history[-1] == picks
            else:
                with pytest.raises(InvalidStateError):
                    pool.acquire(picks)
                assert (pool.labeled, pool.unlabeled, len(pool.history)) == before
            pool.check_invariants(pool_size)
            assert pool.labeled == sorted(pool.labeled)
            assert pool.unlabeled == sorted(pool.unlabeled)
            assert not set(pool.labeled) & set(pool.unlabeled)


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

def separate_calls_picks(cfg, model, pool_x, labeled_x, budget, noise_seed,
                         strategy_seed):
    """``loop._noise_strategy_picks`` as first written: the labeled set is
    embedded by a second ``pool_embeddings`` call."""
    noise_cfg = replace(cfg.noise, seed=noise_seed)
    matrix = stability.pool_embeddings(model, pool_x, noise_cfg)
    seeds = None
    if cfg.seed_from_labeled and len(labeled_x):
        seeds = stability.pool_embeddings(model, labeled_x, noise_cfg)
    return select(SelectionRequest(embeddings=matrix, budget=budget,
                                   seeds_from_labeled=seeds, seed=strategy_seed,
                                   method=cfg.selector))


class TestSeedFromLabeled:
    @pytest.mark.parametrize("selector,seeded", [("k_center", True),
                                                 ("k_center_normalized", True),
                                                 ("kmeans_pp", False),
                                                 ("top_magnitude", False)])
    def test_one_pool_embeddings_call_per_cycle(self, monkeypatch, selector,
                                                seeded):
        calls = []
        real = stability.pool_embeddings

        def counting(model, pool, cfg):
            calls.append(len(pool))
            return real(model, pool, cfg)

        monkeypatch.setattr(stability, "pool_embeddings", counting)
        cfg = blob_config(strategy="noise_stability", seed_from_labeled=True,
                          selector=selector)
        run_single_seed(cfg, 0)
        # the labeled rows ride along only for the selectors that use them
        pool_size = 90
        unlabeled = [pool_size - 9 - 6 * c for c in range(cfg.cycles)]
        assert calls == ([pool_size] * cfg.cycles if seeded else unlabeled)

    def test_reports_equal_separate_embedding_calls_byte_for_byte(
            self, monkeypatch, tmp_path):
        doc = json.loads(BLOBS_DEMO.read_text())
        doc["seed_from_labeled"] = True
        config = tmp_path / "seeded.json"
        config.write_text(json.dumps(doc))
        argv = ["run", str(config), "--seeds", "0", "--out"]
        assert cli.main(argv + [str(tmp_path / "stacked")]) == 0
        monkeypatch.setattr(loop, "_noise_strategy_picks", separate_calls_picks)
        assert cli.main(argv + [str(tmp_path / "separate")]) == 0
        stacked = (tmp_path / "stacked" / "reports.jsonl").read_bytes()
        assert stacked == (tmp_path / "separate" / "reports.jsonl").read_bytes()


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
        monkeypatch.setattr(loop, "_strategy_picks", lambda *args: [0, 0])
        with pytest.raises(InvalidStateError,
                           match="seed 3, cycle 1, phase select: .*distinct"):
            run_single_seed(blob_config(), 3)
