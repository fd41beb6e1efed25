import hashlib
import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

from noisestab import cli, theory

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

TINY_CONFIG = {
    "dataset": {"kind": "blobs", "n_per_class": 30, "classes": 3, "dim": 3,
                "centers_seed": 5, "noise_std": 1.2, "test_fraction": 0.25},
    "model": {"hidden": [8]},
    "strategy": "noise_stability",
    "cycles": 2,
    "budget": 5,
    "initial_labeled": 8,
    "noise": {"zeta": 1e-3, "samplings": 5},
    "train": {"optimizer": "adam", "lr": 0.01, "epochs": 5, "batch_size": 16},
    "seeds": [0, 1, 2],
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(TINY_CONFIG))
    return path


def run_cli(*argv):
    return cli.main(list(argv))


class TestRun:
    def test_two_invocations_write_identical_reports(self, config_path, tmp_path):
        # subprocesses exercise the real entry point end to end
        for out in ("a", "b"):
            proc = subprocess.run(
                [sys.executable, "-m", "noisestab", "run", str(config_path),
                 "--out", str(tmp_path / out)],
                capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "a" / "reports.jsonl").read_bytes() == \
            (tmp_path / "b" / "reports.jsonl").read_bytes()

    def test_unknown_strategy_exits_2_and_lists_names(self, config_path,
                                                      tmp_path, capsys):
        code = run_cli("run", str(config_path), "--out", str(tmp_path / "o"),
                       "--strategy", "nosuch")
        captured = capsys.readouterr()
        assert code == 2
        assert "noise_stability" in captured.err
        assert "random" in captured.err

    def test_curve_csv_schema(self, config_path, tmp_path):
        out = tmp_path / "out"
        assert run_cli("run", str(config_path), "--out", str(out)) == 0
        lines = (out / "curve.csv").read_text().splitlines()
        assert lines[0] == "cycle,labeled_size,strategy,metric_mean,metric_std,n_seeds"
        assert len(lines) == 1 + TINY_CONFIG["cycles"]
        first = lines[1].split(",")
        assert first[0] == "1"
        assert first[2] == "noise_stability"
        assert first[5] == "3"

    def test_manifest_records_resolved_config_and_hash(self, config_path,
                                                       tmp_path):
        out = tmp_path / "out"
        run_cli("run", str(config_path), "--out", str(out))
        doc = json.loads((out / "manifest.json").read_text())
        assert doc["config"]["strategy"] == "noise_stability"
        assert doc["config"]["noise"]["samplings"] == 5
        assert len(doc["config_sha256"]) == 64
        assert doc["finished_at"] is not None

    def test_seed_override_changes_report_count(self, config_path, tmp_path):
        out = tmp_path / "out"
        run_cli("run", str(config_path), "--out", str(out), "--seeds", "7")
        lines = (out / "reports.jsonl").read_text().splitlines()
        assert len(lines) == TINY_CONFIG["cycles"]
        assert json.loads(lines[0])["seed"] == 7

    def test_output_root_env_var_rebases_relative_out(self, config_path,
                                                      tmp_path, monkeypatch):
        monkeypatch.setenv("NOISESTAB_OUT_ROOT", str(tmp_path))
        run_cli("run", str(config_path), "--out", "nested/run1")
        assert (tmp_path / "nested" / "run1" / "curve.csv").exists()

    def test_missing_config_exits_2(self, tmp_path, capsys):
        assert run_cli("run", str(tmp_path / "absent.json")) == 2

    @pytest.mark.parametrize("seeds", ["1,,2", "a"])
    def test_malformed_seeds_exit_2_naming_the_flag(self, config_path, tmp_path,
                                                     capsys, seeds):
        out = tmp_path / "o"
        assert run_cli("run", str(config_path), "--out", str(out),
                       "--seeds", seeds) == 2
        assert "--seeds" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("dataset,strategy,needs", [
        ({"kind": "linear_regression", "n": 60, "dim": 3, "noise_std": 0.1},
         "entropy", "classification"),
        (TINY_CONFIG["dataset"], "bald_mcdropout", "dropout")],
        ids=["entropy-on-regression", "bald-without-dropout"])
    def test_strategy_override_checked_before_anything_is_written(
            self, tmp_path, capsys, dataset, strategy, needs):
        # the override used to skip the load checks and fail after training
        path = tmp_path / "c.json"
        path.write_text(json.dumps(dict(TINY_CONFIG, dataset=dataset)))
        out = tmp_path / "o"
        assert run_cli("run", str(path), "--out", str(out),
                       "--strategy", strategy) == 2
        assert needs in capsys.readouterr().err
        assert not (out / "manifest.json").exists()


    @pytest.mark.parametrize("section,key,literal,message", [
        ("noise", "zeta", "NaN", "noise.zeta must be a finite number"),
        ("train", "lr", "Infinity", "train.lr must be a finite number"),
        ("dataset", "n_per_class", "-3", "dataset.n_per_class must be >= 1"),
        ("dataset", "test_fraction", "1.5", "dataset.test_fraction must be in"),
        ("model", "dropout", "1.5", "model.dropout must be in"),
        ("dataset", "classes", "1", "dataset.classes must be >= 2"),
        ("dataset", "noise_std", "-1", "dataset.noise_std must be >= 0"),
        ("dataset", "centers_seed", "-1", "dataset.centers_seed must be >= 0"),
        ("train", "beta1", "1.0", "beta1 must be in [0, 1)"),
        ("train", "eps", "0", "eps must be > 0"),
        ("train", "weight_decay", "0.5", "weight_decay applies only to optimizer 'sgd'")])
    def test_bad_value_exits_2_before_the_manifest(self, tmp_path, capsys,
                                                   section, key, literal,
                                                   message):
        doc = json.loads(json.dumps(TINY_CONFIG))
        doc[section][key] = "PLACEHOLDER"
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc).replace('"PLACEHOLDER"', literal))
        out = tmp_path / "o"
        assert run_cli("run", str(path), "--out", str(out)) == 2
        assert message in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("dataset,key", [
        ({"kind": "idx", "images": "absent-images", "labels": "absent-labels"},
         "images"),
        ({"kind": "csv", "path": "absent.csv", "schema": {"y": "target"}}, "path")],
        ids=["idx", "csv"])
    def test_missing_dataset_file_exits_2_before_the_manifest(
            self, tmp_path, capsys, dataset, key):
        dataset = {k: str(tmp_path / v) if k in ("images", "labels", "path") else v
                   for k, v in dataset.items()}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(dict(TINY_CONFIG, dataset=dataset)))
        out = tmp_path / "o"
        assert run_cli("run", str(path), "--out", str(out)) == 2
        assert f"dataset.{key} names no file" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("command", ["run", "sweep", "ablate"])
    def test_initial_labeled_beyond_the_pool_exits_2_before_any_output(
            self, tmp_path, capsys, command):
        # three classes of 30 keep 22 each after the 0.25 split: a pool of 66;
        # the check used to run inside the first seed, after the manifest
        path = tmp_path / "c.json"
        path.write_text(json.dumps(dict(TINY_CONFIG, initial_labeled=100000)))
        out = tmp_path / "o"
        extra = ("--param", "zeta", "--values", "1e-3") if command == "sweep" else ()
        assert run_cli(command, str(path), "--out", str(out), *extra) == 2
        assert ("initial_labeled 100000 exceeds the pool of 66 examples"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "sweep", "ablate"])
    @pytest.mark.parametrize("dataset,loss", [
        (TINY_CONFIG["dataset"], "squared_error"),
        ({"kind": "linear_regression", "n": 60, "dim": 3, "noise_std": 0.1},
         "cross_entropy")],
        ids=["squared-error-on-classification", "cross-entropy-on-regression"])
    def test_loss_that_does_not_fit_the_task_exits_2_before_any_output(
            self, tmp_path, capsys, command, dataset, loss):
        # squared error used to train on probs - class index, below chance;
        # cross entropy on regression targets died with a bare IndexError
        # after the manifest was written
        doc = dict(TINY_CONFIG, dataset=dataset,
                   train=dict(TINY_CONFIG["train"], loss=loss))
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "o"
        extra = ("--param", "zeta", "--values", "1e-3") if command == "sweep" else ()
        assert run_cli(command, str(path), "--out", str(out), *extra) == 2
        assert f"train.loss {loss!r} does not fit" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("config,reports_sha256,curve_sha256", [
        ("blobs_demo",
         "039898bb85c098fe408477784c2d49c4561dde6df6825d72963b51c5066b6dcd",
         "844a3394293a2c7292c9cf37f7f021abb6b11c5d0d15ebed5da11d303a73ade1"),
        ("regression_demo",
         "ee6dc4a6d5cb3c6e3673b98351bae83a15ed93723b68a7a1e495ebb0476ea131",
         "f6b841318469603a0833ad902f8ad9dc584b1ec8b24accab7e73a4e80dd1f1e9")])
    def test_shipped_config_output_is_pinned(self, tmp_path, config,
                                             reports_sha256, curve_sha256):
        # the sha256 of each file as written before the unused checkpoint,
        # embedding-dump and provenance code was deleted
        out = tmp_path / "o"
        assert run_cli("run", str(CONFIGS / f"{config}.json"), "--out", str(out),
                       "--seeds", "0") == 0
        for name, expected in (("reports.jsonl", reports_sha256),
                               ("curve.csv", curve_sha256)):
            digest = hashlib.sha256((out / name).read_bytes()).hexdigest()
            assert digest == expected, name

    def test_initial_labeled_equal_to_the_pool_runs(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(dict(TINY_CONFIG, initial_labeled=66, budget=0,
                                        cycles=1, seeds=[0])))
        out = tmp_path / "o"
        assert run_cli("run", str(path), "--out", str(out)) == 0
        record = json.loads((out / "reports.jsonl").read_text())
        assert record["labeled_size"] == 66


class TestCheck:
    def test_suite_filter_emits_only_matching_reports(self, capsys):
        code = run_cli("check", "--suite", "second_moment", "--seed", "1")
        out = capsys.readouterr().out
        docs = [json.loads(line) for line in out.splitlines()]
        assert code == 0
        assert {d["name"] for d in docs} == {"second_moment",
                                             "second_moment_trace"}
        assert all(d["passed"] for d in docs)

    def test_stdout_is_newline_delimited_json_only(self, capsys):
        run_cli("check", "--suite", "jacobian", "--seed", "0")
        out = capsys.readouterr().out
        for line in out.splitlines():
            json.loads(line)

    def test_forced_threshold_failure_exits_nonzero(self, capsys, monkeypatch):
        monkeypatch.setitem(theory.DEFAULT_THRESHOLDS, "second_moment", 0.0)
        code = run_cli("check", "--suite", "second_moment", "--seed", "1")
        docs = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert code == 1
        assert any(not d["passed"] for d in docs)

    def test_output_does_not_depend_on_blas_threads(self):
        # the embedding vectors are long enough for BLAS to thread a dot
        # product, which would change the statistics in their last bits
        procs = {
            (suite, threads): subprocess.Popen(
                [sys.executable, "-m", "noisestab", "check", "--suite", suite,
                 "--seed", "101"],
                env={**os.environ, "OPENBLAS_NUM_THREADS": threads},
                stdout=subprocess.PIPE, text=True)
            for suite in ("jacobian", "inner") for threads in ("1", "2")}
        outs = {key: proc.communicate(timeout=300)[0]
                for key, proc in procs.items()}
        assert all(proc.returncode == 0 for proc in procs.values())
        for suite in ("jacobian", "inner"):
            assert outs[suite, "1"] == outs[suite, "2"]
            assert outs[suite, "1"].strip()

    def test_full_suite_output_is_pinned(self, capsys):
        # the sha256 of `check --suite all --seed 0` stdout as it read before
        # the efficiency sweep ran its pool sizes in worker processes
        assert run_cli("check", "--suite", "all", "--seed", "0") == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "c4c2cc7969fb6b9c6f33dfd6b6726bb44c276e7049ad94c4852c55216d63e4a3")
        table = json.loads(out.splitlines()[-1])["details"]["table"]
        assert [row["required_samplings"] for row in table] == [20, 22, 24, 27, 30, 32]
        assert multiprocessing.active_children() == []

    def test_unknown_suite_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("check", "--suite", "nosuch")
        assert exc.value.code == 2


class TestSweep:
    def test_zeta_grid_produces_five_arms(self, config_path, tmp_path):
        out = tmp_path / "sweep"
        code = run_cli("sweep", str(config_path), "--param", "zeta",
                       "--values", "1e-6,1e-4,1e-2,1,10",
                       "--out", str(out), "--seeds", "0")
        assert code == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0].startswith("param,value,cycle,")
        values = {line.split(",")[1] for line in lines[1:]}
        assert len(values) == 5
        assert len(lines) == 1 + 5 * TINY_CONFIG["cycles"]

    def test_k_grid_runs(self, config_path, tmp_path):
        out = tmp_path / "sweep"
        code = run_cli("sweep", str(config_path), "--param", "K",
                       "--values", "1,3", "--out", str(out), "--seeds", "0")
        assert code == 0
        assert (out / "K=1" / "curve.csv").exists()
        assert (out / "K=3" / "curve.csv").exists()

    def test_selector_swap_runs(self, config_path, tmp_path):
        out = tmp_path / "sweep"
        code = run_cli("sweep", str(config_path), "--param", "selector",
                       "--values", "k_center,kmeans_pp", "--out", str(out),
                       "--seeds", "0")
        assert code == 0

    def test_empty_values_exit_2(self, config_path, tmp_path, capsys):
        assert run_cli("sweep", str(config_path), "--param", "zeta",
                       "--values", "", "--out", str(tmp_path / "s")) == 2

    def test_non_numeric_value_exits_2(self, config_path, tmp_path, capsys):
        assert run_cli("sweep", str(config_path), "--param", "zeta",
                       "--values", "small", "--out", str(tmp_path / "s")) == 2

    @pytest.mark.parametrize("param,values", [("K", "2,0"), ("zeta", "1e-3,-1"),
                                              ("selector", "k_center,k_dpp")])
    def test_bad_arm_exits_2_before_any_arm_runs(self, config_path, tmp_path,
                                                 capsys, param, values):
        out = tmp_path / "s"
        assert run_cli("sweep", str(config_path), "--param", param,
                       "--values", values, "--out", str(out), "--seeds", "0") == 2
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_zeta_exits_2_before_any_arm_runs(
            self, config_path, tmp_path, capsys, value):
        out = tmp_path / "s"
        assert run_cli("sweep", str(config_path), "--param", "zeta",
                       "--values", f"1e-3,{value}", "--out", str(out)) == 2
        assert "zeta must be a finite number" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_on_non_noise_strategy_exits_2(self, tmp_path, capsys):
        doc = dict(TINY_CONFIG, strategy="random")
        path = tmp_path / "r.json"
        path.write_text(json.dumps(doc))
        assert run_cli("sweep", str(path), "--param", "zeta",
                       "--values", "1e-3", "--out", str(tmp_path / "s")) == 2


class TestAblate:
    def test_merged_csv_has_exactly_three_strategy_columns(self, config_path,
                                                           tmp_path):
        out = tmp_path / "abl"
        code = run_cli("ablate", str(config_path), "--out", str(out),
                       "--seeds", "0,1")
        assert code == 0
        lines = (out / "ablation.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header == ["cycle", "labeled_size", "noise_stability",
                          "noise_stability_m", "noise_stability_d"]
        assert len(lines) == 1 + TINY_CONFIG["cycles"]

    def test_arms_share_cycle_one_training(self, config_path, tmp_path):
        out = tmp_path / "abl"
        run_cli("ablate", str(config_path), "--out", str(out), "--seeds", "0,1")
        first = (out / "ablation.csv").read_text().splitlines()[1].split(",")
        # identical initial pools and training seeds make cycle-1 metrics equal
        assert first[2] == first[3] == first[4]

    def test_single_sample_mode_pins_sampling_counts(self, tmp_path):
        doc = dict(TINY_CONFIG, model={"hidden": [8], "dropout": 0.2},
                   seeds=[0], cycles=2)
        path = tmp_path / "d.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "abl"
        code = run_cli("ablate", str(path), "--out", str(out), "--single-sample")
        assert code == 0
        lines = (out / "single_sample.csv").read_text().splitlines()
        assert lines[0] == "cycle,labeled_size,noise_stability,bald_mcdropout"
        ns_manifest = json.loads(
            (out / "single_sample_noise_stability" / "manifest.json").read_text())
        bald_manifest = json.loads(
            (out / "single_sample_bald_mcdropout" / "manifest.json").read_text())
        assert ns_manifest["config"]["noise"]["samplings"] == 50
        assert ns_manifest["config"]["budget"] == 1
        assert bald_manifest["config"]["bald_samples"] == 50


    def test_single_sample_without_dropout_exits_2_before_any_arm_runs(
            self, config_path, tmp_path, capsys):
        out = tmp_path / "abl"
        assert run_cli("ablate", str(config_path), "--out", str(out),
                       "--single-sample") == 2
        assert "dropout" in capsys.readouterr().err
        assert not out.exists()


class TestUsageErrors:
    def test_unknown_flag_exits_2(self, config_path):
        with pytest.raises(SystemExit) as exc:
            run_cli("run", str(config_path), "--frobnicate")
        assert exc.value.code == 2

    def test_version_flag_prints_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("--version")
        assert exc.value.code == 0
