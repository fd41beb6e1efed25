import hashlib
import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from noisestab import baselines, cli, loop, theory

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


# the commands whose pre-output checks are tested: a run, a one-arm zeta
# sweep, and the selector sweep that runs the magnitude/direction ablation
COMMAND_ARGS = {
    "run": ("run", ()),
    "sweep": ("sweep", ("--param", "zeta", "--values", "1e-3")),
    "selector_sweep": ("sweep", ("--param", "selector", "--values",
                                 "k_center,top_magnitude,k_center_normalized"))}


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

    # noise_stability_d is now the k_center_normalized selector, not a strategy
    @pytest.mark.parametrize("name", ["nosuch", "noise_stability_d"])
    def test_unknown_strategy_exits_2_and_lists_names(self, config_path,
                                                      tmp_path, capsys, name):
        out = tmp_path / "o"
        code = run_cli("run", str(config_path), "--out", str(out),
                       "--strategy", name)
        assert code == 2
        assert f"{name!r}; valid strategies: random, entropy, coreset, badge, " \
            "bald_mcdropout, noise_stability\n" in capsys.readouterr().err
        assert not out.exists()

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

    def test_manifest_keeps_the_start_time(self, config_path, tmp_path,
                                           monkeypatch):
        # the finished manifest used to take a second fresh stamp as started_at
        stamps = iter(["start", "finish"])
        monkeypatch.setattr(cli, "_timestamp", lambda: next(stamps))
        out = tmp_path / "out"
        assert run_cli("run", str(config_path), "--out", str(out),
                       "--seeds", "0") == 0
        doc = json.loads((out / "manifest.json").read_text())
        assert (doc["started_at"], doc["finished_at"]) == ("start", "finish")

    def test_manifest_records_the_numeric_environment(self, config_path,
                                                      tmp_path):
        out = tmp_path / "out"
        run_cli("run", str(config_path), "--out", str(out), "--seeds", "0")
        env = json.loads((out / "manifest.json").read_text())["environment"]
        assert set(env) == {"numpy_version", "simd_extensions", "openblas_core"}
        assert env["numpy_version"] == np.__version__
        assert env["simd_extensions"] == \
            np.show_config(mode="dicts")["SIMD Extensions"]

    def test_numpy_without_show_config_mode_records_null_simd(
            self, config_path, tmp_path, monkeypatch):
        def show_config(*args):  # numpy < 1.26 takes no mode argument
            raise AssertionError("show_config called without mode")
        monkeypatch.setattr(np, "show_config", show_config)
        cli._environment.cache_clear()
        try:
            out = tmp_path / "out"
            run_cli("run", str(config_path), "--out", str(out), "--seeds", "0")
        finally:
            cli._environment.cache_clear()
        env = json.loads((out / "manifest.json").read_text())["environment"]
        assert env["simd_extensions"] is None
        assert env["numpy_version"] == np.__version__

    def test_manifest_names_the_openblas_core_in_use(self, config_path, tmp_path):
        if cli._environment()["openblas_core"] is None:
            pytest.skip("numpy here does not bundle scipy-openblas")
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "noisestab", "run", str(config_path),
             "--out", str(out), "--seeds", "0"],
            capture_output=True, text=True,
            env={**os.environ, "OPENBLAS_CORETYPE": "Haswell"})
        assert proc.returncode == 0, proc.stderr
        env = json.loads((out / "manifest.json").read_text())["environment"]
        assert env["openblas_core"] == "Haswell"

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

    def test_output_root_env_var_leaves_absolute_out(self, config_path,
                                                     tmp_path, monkeypatch):
        monkeypatch.setenv("NOISESTAB_OUT_ROOT", str(tmp_path / "root"))
        assert run_cli("run", str(config_path), "--out",
                       str(tmp_path / "abs")) == 0
        assert (tmp_path / "abs" / "curve.csv").exists()
        assert not (tmp_path / "root").exists()

    def test_missing_config_exits_2(self, tmp_path, capsys):
        assert run_cli("run", str(tmp_path / "absent.json")) == 2

    @pytest.mark.parametrize("kind,message", [
        ("directory", "error: cannot read config file {}: "),
        ("utf16", "error: config file {} is not UTF-8 text")],
        ids=["directory", "utf16"])
    def test_unreadable_config_exits_2_before_any_output(self, tmp_path, capsys,
                                                         monkeypatch, kind, message):
        # each used to exit 1 with a bare IsADirectoryError or
        # UnicodeDecodeError traceback
        path = tmp_path / "c.json"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(b"\xff\xfe{")
        monkeypatch.chdir(tmp_path)
        assert run_cli("run", str(path)) == 2
        assert capsys.readouterr().err.startswith(message.format(path))
        assert [p.name for p in tmp_path.iterdir()] == ["c.json"]

    @pytest.mark.parametrize("seeds", ["1,,2", "a"])
    def test_malformed_seeds_exit_2_naming_the_flag(self, config_path, tmp_path,
                                                     capsys, seeds):
        out = tmp_path / "o"
        assert run_cli("run", str(config_path), "--out", str(out),
                       "--seeds", seeds) == 2
        assert "--seeds" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("seeds,message", [
        ("-1", "seeds[0] must be in [0, 2**64)"),
        ("0,18446744073709551616", "seeds[1] must be in [0, 2**64)"),
        ("1,0,1", "seeds[2] repeats seed 1")],
        ids=["negative", "2**64", "repeat"])
    def test_aliased_or_repeated_seeds_exit_2_before_any_output(
            self, config_path, tmp_path, capsys, seeds, message):
        # -1 used to run as 18446744073709551615, and a repeated seed was
        # counted twice in n_seeds
        out = tmp_path / "o"
        assert run_cli("run", str(config_path), "--out", str(out),
                       "--seeds", seeds) == 2
        assert message in capsys.readouterr().err
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

    @pytest.mark.parametrize("command,flag,message", [
        ("run", "--strategy", "unknown strategy ''"),
        ("run", "--seeds", "--seeds must be comma-separated integers, got ''"),
        ("sweep", "--seeds", "--seeds must be comma-separated integers, got ''"),
        ("selector_sweep", "--seeds",
         "--seeds must be comma-separated integers, got ''")])
    def test_empty_override_exits_2_before_any_output(self, config_path, tmp_path,
                                                      capsys, command, flag,
                                                      message):
        # an empty value used to be taken for no flag: the config's own
        # strategy or seeds ran, and the command exited 0
        out = tmp_path / "o"
        command, extra = COMMAND_ARGS[command]
        assert run_cli(command, str(config_path), "--out", str(out), *extra,
                       flag, "") == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_empty_out_exits_2_before_any_output(self, config_path, tmp_path,
                                                 capsys, monkeypatch, command):
        # an empty --out used to be taken for no flag: the command wrote
        # <config>-<command> under the output root and exited 0
        root = tmp_path / "root"
        monkeypatch.setenv("NOISESTAB_OUT_ROOT", str(root))
        command, extra = COMMAND_ARGS[command]
        assert run_cli(command, str(config_path), "--out", "", *extra,
                       "--seeds", "0") == 2
        captured = capsys.readouterr()
        assert "--out must name a directory, got ''" in captured.err
        assert captured.out == ""
        assert not root.exists()

    def test_out_naming_a_file_exits_2_before_the_manifest(self, config_path,
                                                           tmp_path, capsys):
        # mkdir used to die with a bare FileExistsError traceback, exit 1
        out = tmp_path / "o"
        out.write_text("")
        assert run_cli("run", str(config_path), "--out", str(out)) == 2
        assert f"cannot make output directory {out}" in capsys.readouterr().err
        assert out.read_text() == ""
        assert not (tmp_path / "manifest.json").exists()

    def test_unknown_csv_schema_kind_exits_2_before_any_output(self, tmp_path,
                                                               capsys):
        # a mistyped kind used to drop the column from the layout and die in
        # the load with a bare "'2' is not in list", exit 1
        table = tmp_path / "t.csv"
        table.write_text("x,y\n" + "".join(f"{i},{i / 2}\n" for i in range(20)))
        dataset = {"kind": "csv", "path": str(table),
                   "schema": {"x": "numerc", "y": "target"}}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(dict(TINY_CONFIG, dataset=dataset)))
        out = tmp_path / "o"
        assert run_cli("run", str(path), "--out", str(out)) == 2
        assert ("dataset.schema['x'] must be one of numeric, categorical, "
                "target, got 'numerc'") in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("section,key,literal,message", [
        ("noise", "zeta", "NaN", "noise.zeta must be a finite number"),
        ("train", "lr", "Infinity", "train.lr must be a finite number"),
        ("dataset", "n_per_class", "-3", "dataset.n_per_class must be >= 2"),
        ("dataset", "n_per_class", "1", "dataset.n_per_class must be >= 2"),
        ("dataset", "test_fraction", "1.5", "dataset.test_fraction must be in"),
        ("model", "dropout", "1.5", "model.dropout must be in"),
        ("dataset", "classes", "1", "dataset.classes must be >= 2"),
        ("dataset", "noise_std", "-1", "dataset.noise_std must be >= 0"),
        ("dataset", "centers_seed", "-1", "dataset.centers_seed must be >= 0"),
        ("train", "optimizer", '"sgd"', "unknown optimizer 'sgd'")])
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

    @pytest.mark.parametrize("command", ["run", "sweep", "selector_sweep"])
    def test_initial_labeled_beyond_the_pool_exits_2_before_any_output(
            self, tmp_path, capsys, command):
        # three classes of 30 keep 22 each after the 0.25 split: a pool of 66;
        # the check used to run inside the first seed, after the manifest
        path = tmp_path / "c.json"
        path.write_text(json.dumps(dict(TINY_CONFIG, initial_labeled=100000)))
        out = tmp_path / "o"
        command, extra = COMMAND_ARGS[command]
        assert run_cli(command, str(path), "--out", str(out), *extra) == 2
        assert ("initial_labeled 100000 exceeds the pool of 66 examples"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_negative_initial_labeled_exits_2_with_one_error_line(self, tmp_path,
                                                                  capsys):
        # with no training it used to write the manifest and die in the first
        # seed with numpy's bare ValueError and a traceback
        train = dict(TINY_CONFIG["train"], epochs=0)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(dict(TINY_CONFIG, initial_labeled=-5, train=train)))
        out = tmp_path / "o"
        assert run_cli("run", str(path), "--out", str(out)) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: initial_labeled must be >= 0, got -5"]
        assert not out.exists()

    @pytest.mark.parametrize("section, key, first, last", [
        (None, "cycles", 5, 1), ("noise", "zeta", 1e-3, 1e-2)])
    def test_repeated_key_exits_2_with_one_error_line(self, tmp_path, capsys,
                                                      section, key, first, last):
        # json keeps the last value of a repeated key, so such a file used to
        # run with it silently
        doc = json.loads(json.dumps(TINY_CONFIG))
        (doc[section] if section else doc)[key] = "PLACEHOLDER"
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc).replace(
            '"PLACEHOLDER"', f'{json.dumps(first)}, "{key}": {json.dumps(last)}'))
        out = tmp_path / "o"
        assert run_cli("run", str(path), "--out", str(out)) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: config file {path} repeats key '{key}'"]
        assert not out.exists()

    def test_integer_too_large_for_a_float_exits_2_naming_the_key(self, tmp_path,
                                                                  capsys):
        # a 400-digit lr used to write the manifest and die in the first Adam
        # step with a bare OverflowError
        train = dict(TINY_CONFIG["train"], lr=10 ** 399)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(dict(TINY_CONFIG, train=train)))
        out = tmp_path / "o"
        assert run_cli("run", str(path), "--out", str(out)) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: train.lr must be a finite number, got an integer too large "
            "for a float"]
        assert not out.exists()

    @pytest.mark.parametrize("section,key,value,name", [
        ("dataset", "dim", 10 ** 20, "dataset.dim"),
        ("model", "hidden", [10 ** 20], "model.hidden[0]"),
        ("noise", "samplings", 10 ** 20, "noise.samplings")],
        ids=["dim", "hidden", "samplings"])
    def test_size_numpy_cannot_shape_exits_2_before_any_output(
            self, tmp_path, capsys, section, key, value, name):
        # each used to exit 1 with numpy's bare "Maximum allowed dimension
        # exceeded": dim before any output, hidden and samplings after the
        # manifest and cycle 1's training
        doc = json.loads((CONFIGS / "blobs_demo.json").read_text())
        doc[section][key] = value
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "o"
        assert run_cli("run", str(path), "--out", str(out)) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {name} must be <= 2**63 - 1, the largest array dimension "
            f"numpy takes, got {10 ** 20}"]
        assert not out.exists()

    def test_dropout_without_a_hidden_layer_exits_2_with_one_error_line(self, tmp_path,
                                                                        capsys):
        # it used to write the manifest and train cycle 1 before BALD found no
        # Dropout layer to sample
        path = tmp_path / "c.json"
        path.write_text(json.dumps(dict(TINY_CONFIG, strategy="bald_mcdropout",
                                        model={"hidden": [], "dropout": 0.25})))
        out = tmp_path / "o"
        assert run_cli("run", str(path), "--out", str(out)) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: model.dropout must be 0 with no hidden layer (Dropout follows "
            "each hidden ReLU), got 0.25"]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "sweep", "selector_sweep"])
    def test_empty_test_split_exits_2_before_any_output(self, tmp_path, capsys,
                                                        command):
        # 0.01 of each class of 30 rounds to no test example; the run used to
        # write its manifest and train cycle 1 before finding that
        doc = json.loads(json.dumps(TINY_CONFIG))
        doc["dataset"]["test_fraction"] = 0.01
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "o"
        command, extra = COMMAND_ARGS[command]
        assert run_cli(command, str(path), "--out", str(out), *extra) == 2
        captured = capsys.readouterr()
        assert ("dataset.test_fraction 0.01 leaves no test example out of 90"
                in captured.err)
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "sweep", "selector_sweep"])
    @pytest.mark.parametrize("section,key,value,message", [
        ("train", "loss", "cross_entropy", "unknown key(s) in train: ['loss']"),
        ("train", "loss", "squared_error", "unknown key(s) in train: ['loss']"),
        ("train", "momentum", 0.0, "unknown key(s) in train: ['momentum']"),
        ("train", "weight_decay", 0.0, "unknown key(s) in train: ['weight_decay']"),
        ("train", "beta1", 0.9, "unknown key(s) in train: ['beta1']"),
        ("train", "beta2", 0.999, "unknown key(s) in train: ['beta2']"),
        ("train", "eps", 1e-8, "unknown key(s) in train: ['eps']"),
        ("train", "optimizer", "sgd", "unknown optimizer 'sgd'"),
        (None, "retrain_mode", "from_scratch",
         "unknown key(s) in config: ['retrain_mode']"),
        (None, "bald_samples", 1, "unknown key(s) in config: ['bald_samples']"),
        ("noise", "tap", "feature", "unknown key(s) in noise: ['tap']"),
        ("noise", "tap", "logits", "unknown key(s) in noise: ['tap']"),
        (None, "seed_from_labeled", False,
         "unknown key(s) in config: ['seed_from_labeled']")])
    def test_removed_key_exits_2_before_any_output(self, tmp_path, capsys,
                                                   command, section, key, value,
                                                   message):
        # the loss follows the model's head, the noise tap the dataset's task,
        # training is always Adam, retrained from scratch, and selection is
        # never seeded from the labeled pool, so these keys are gone (at
        # their old defaults too); an old config naming one must not load
        # with the value ignored. bald_samples 1 used to fail only after
        # cycle 1.
        doc = json.loads(json.dumps(TINY_CONFIG))
        (doc[section] if section else doc)[key] = value
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "o"
        command, extra = COMMAND_ARGS[command]
        assert run_cli(command, str(path), "--out", str(out), *extra) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("config,reports_sha256,curve_sha256", [
        ("blobs_demo",
         "039898bb85c098fe408477784c2d49c4561dde6df6825d72963b51c5066b6dcd",
         "844a3394293a2c7292c9cf37f7f021abb6b11c5d0d15ebed5da11d303a73ade1"),
        ("regression_demo",
         "0290d8a97a2924d55ad7fc88cde5b08a1a0b570ccdc3d6062e277ee1328736fa",
         "114a5c107781affb56d704526d046c1e6c38540ad1caf14d44debd585e468140")])
    def test_shipped_config_output_is_pinned(self, tmp_path, config,
                                             reports_sha256, curve_sha256):
        # the sha256 of each file as written before the unused checkpoint,
        # embedding-dump and provenance code was deleted; regression_demo's
        # as written once evaluate ran the fixed-order eval forward, which
        # moved the last bits of its MAE
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

    def test_baseline_reports_do_not_depend_on_blas_threads(self, config_path,
                                                            tmp_path):
        # entropy, coreset and BADGE score rows from the eval forward, whose
        # rows hold the same bits whatever GEMM kernel BLAS would pick
        strategies = ("entropy", "coreset", "badge")
        procs = {
            (strategy, threads): subprocess.Popen(
                [sys.executable, "-m", "noisestab", "run", str(config_path),
                 "--strategy", strategy,
                 "--out", str(tmp_path / f"{strategy}-{threads}")],
                env={**os.environ, "OPENBLAS_NUM_THREADS": threads},
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
            for strategy in strategies for threads in ("1", "2")}
        assert all(proc.wait(timeout=300) == 0 for proc in procs.values())
        for strategy in strategies:
            one, two = ((tmp_path / f"{strategy}-{threads}" / "reports.jsonl")
                        .read_bytes() for threads in ("1", "2"))
            assert one == two and one.strip(), strategy


class TestRuntimeFailure:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverged_run_exits_1_with_one_json_line(self, tmp_path, capsys):
        # Adam's steps are about lr in size, so lr=1e300 drives the
        # parameters to infinity and NaN in the first cycle
        doc = json.loads((CONFIGS / "blobs_demo.json").read_text())
        doc["train"]["lr"] = 1e300
        doc["seeds"] = [0]
        path = tmp_path / "diverging.json"
        path.write_text(json.dumps(doc))
        assert run_cli("run", str(path), "--out", str(tmp_path / "out")) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err.splitlines()[-1]) == {
            "error": "NonFiniteError",
            "message": "seed 0, cycle 1, phase train: "
                       "loss or parameters are NaN or infinite"}

    def test_noise_below_float64_resolution_exits_1_with_one_json_line(
            self, tmp_path, capsys):
        # at zeta 1e-20 every embedding used to be exactly zero, so the run
        # exited 0 and greedy k-center picked rows 0, 1, ..., 14 by index
        doc = json.loads((CONFIGS / "blobs_demo.json").read_text())
        doc.update(seeds=[0], cycles=2)
        doc["noise"]["zeta"] = 1e-20
        path = tmp_path / "tiny_zeta.json"
        path.write_text(json.dumps(doc))
        assert run_cli("run", str(path), "--out", str(tmp_path / "out")) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        error = json.loads(captured.err.splitlines()[-1])
        assert error["error"] == "InvalidStateError"
        assert error["message"].startswith(
            "seed 0, cycle 1, phase embed: noise.zeta 1e-20 times ||theta|| ")
        assert error["message"].endswith(
            " is below float64 resolution: direction 0 leaves every output at "
            "the tap unchanged")

    def test_untrained_zero_biases_below_output_resolution_exit_1(
            self, tmp_path, capsys):
        # with no training the biases stay 0, so the parameter check passes;
        # every embedding used to be exactly zero and the run exited 0
        doc = json.loads((CONFIGS / "blobs_demo.json").read_text())
        doc.update(seeds=[0], cycles=1)
        doc["noise"]["zeta"] = 1e-20
        doc["train"]["epochs"] = 0
        path = tmp_path / "untrained.json"
        path.write_text(json.dumps(doc))
        assert run_cli("run", str(path), "--out", str(tmp_path / "out")) == 1
        error = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert error["error"] == "InvalidStateError"
        assert error["message"].startswith(
            "seed 0, cycle 1, phase embed: noise.zeta 1e-20 times ||theta|| ")
        assert error["message"].endswith(
            " is below float64 resolution: direction 0 leaves every output at "
            "the tap unchanged")

    def test_overflow_in_a_phase_exits_1_naming_seed_cycle_and_phase(
            self, tmp_path, capsys):
        # inputs near 1e300 overflow Adam's step; the run used to exit 0 with
        # lowest-index coreset picks
        doc = json.loads((CONFIGS / "blobs_demo.json").read_text())
        doc.update(seeds=[0], cycles=2, strategy="coreset")
        doc["dataset"]["center_scale"] = 1e300
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        assert run_cli("run", str(path), "--out", str(tmp_path / "out")) == 1
        assert json.loads(capsys.readouterr().err.splitlines()[-1]) == {
            "error": "NonFiniteError",
            "message": "seed 0, cycle 1, phase train: "
                       "loss or parameters are NaN or infinite"}

    def test_out_of_memory_exits_1_naming_seed_cycle_and_phase(self, tmp_path,
                                                               capsys):
        # 10**12 directions load; numpy refuses the (K, n) array without
        # allocating it, which used to end the run in a bare traceback
        doc = json.loads((CONFIGS / "blobs_demo.json").read_text())
        doc.update(seeds=[0], cycles=1)
        doc["noise"]["samplings"] = 10 ** 12
        path = tmp_path / "huge_k.json"
        path.write_text(json.dumps(doc))
        assert run_cli("run", str(path), "--out", str(tmp_path / "out")) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])
        assert error["error"] == "OutOfMemoryError"
        assert error["message"].startswith(
            "seed 0, cycle 1, phase embed: Unable to allocate ")
        assert "(1000000000000, 316)" in error["message"]

    def test_csv_that_is_not_utf8_exits_1_before_any_output(self, tmp_path,
                                                            capsys):
        # the dataset check used to die with a bare UnicodeDecodeError
        table = tmp_path / "t.csv"
        table.write_bytes(b"x,y\n" + b"".join(f"{i},{i / 2}\n".encode()
                                              for i in range(20)) + b"\xff,1\n")
        dataset = {"kind": "csv", "path": str(table),
                   "schema": {"x": "numeric", "y": "target"}}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(dict(TINY_CONFIG, dataset=dataset)))
        out = tmp_path / "o"
        assert run_cli("run", str(path), "--out", str(out)) == 1
        assert json.loads(capsys.readouterr().err.splitlines()[-1]) == {
            "error": "FormatError", "message": f"{table}: not UTF-8 text"}
        assert not out.exists()


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

    @pytest.mark.parametrize("seed", ["-1", "x", "18446744073709551616"])
    def test_bad_seed_exits_2_naming_the_flag(self, capsys, seed):
        # a negative seed used to exit 1 with SeedSequence's ValueError
        # traceback, once the first check had started; 2**64 ran seed 0's
        # concentration trials under another label
        with pytest.raises(SystemExit) as exc:
            run_cli("check", "--suite", "second_moment", "--seed", seed)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "argument --seed:" in captured.err
        assert captured.out == ""


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

    def test_picks_do_not_depend_on_blas_threads(self, tmp_path):
        # the selection screens' BLAS products may round differently with
        # another thread count; the picks may not
        procs = {
            threads: subprocess.Popen(
                [sys.executable, "-m", "noisestab", "sweep",
                 str(CONFIGS / "blobs_demo.json"), "--param", "strategy",
                 "--values", "coreset,badge,noise_stability", "--seeds", "0",
                 "--out", str(tmp_path / threads)],
                env={**os.environ, "OPENBLAS_NUM_THREADS": threads},
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
            for threads in ("1", "2")}
        assert all(proc.wait(timeout=300) == 0 for proc in procs.values())
        for strategy in ("coreset", "badge", "noise_stability"):
            one, two = ((tmp_path / threads / f"strategy={strategy}" /
                         "reports.jsonl").read_bytes() for threads in ("1", "2"))
            assert one == two and one.strip(), strategy

    def test_empty_values_exit_2(self, config_path, tmp_path, capsys):
        assert run_cli("sweep", str(config_path), "--param", "zeta",
                       "--values", "", "--out", str(tmp_path / "s")) == 2

    def test_non_numeric_value_exits_2(self, config_path, tmp_path, capsys):
        assert run_cli("sweep", str(config_path), "--param", "zeta",
                       "--values", "small", "--out", str(tmp_path / "s")) == 2

    @pytest.mark.parametrize("param,values,message", [
        ("zeta", "1e-3,,1e-2", "--values item 2 is empty"),
        ("selector", "k_center, ,top_magnitude,", "--values item 2 is empty"),
        ("selector", "k_center,top_magnitude,", "--values item 3 is empty"),
        ("K", "3.0", "--values item 1 '3.0' is not an integer")],
        ids=["zeta-empty", "selector-blank", "selector-trailing", "K-3.0"])
    def test_empty_or_mistyped_item_exits_2_naming_it(
            self, config_path, tmp_path, capsys, param, values, message):
        # an empty item used to be dropped, so the sweep ran fewer arms than
        # it was given and exited 0
        out = tmp_path / "s"
        assert run_cli("sweep", str(config_path), "--param", param,
                       "--values", values, "--out", str(out), "--seeds", "0") == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("param,values", [("K", "2,0"), ("zeta", "1e-3,-1"),
                                              ("selector", "k_center,k_dpp"),
                                              ("strategy", "random,nosuch")])
    def test_bad_arm_exits_2_before_any_arm_runs(self, config_path, tmp_path,
                                                 capsys, param, values):
        out = tmp_path / "s"
        assert run_cli("sweep", str(config_path), "--param", param,
                       "--values", values, "--out", str(out), "--seeds", "0") == 2
        assert not out.exists()

    @pytest.mark.parametrize("param,values,message", [
        ("zeta", "1e-3,0.001", "sweep value '0.001' repeats '1e-3'"),
        ("zeta", "1e-3,2e-3,1E-3", "sweep value '1E-3' repeats '1e-3'"),
        ("K", "30,30", "sweep value '30' repeats '30'"),
        ("K", "5,05", "sweep value '05' repeats '5'"),
        ("selector", "k_center,kmeans_pp,k_center",
         "sweep value 'k_center' repeats 'k_center'"),
        ("strategy", "random,entropy,random",
         "sweep value 'random' repeats 'random'")],
        ids=["zeta-1e-3,0.001", "zeta-1E-3", "K-30,30", "K-05", "selector",
             "strategy"])
    def test_repeated_value_exits_2_before_any_arm_runs(
            self, config_path, tmp_path, capsys, param, values, message):
        # equal values share one arm directory: the second arm used to
        # overwrite the first and add its rows to sweep.csv a second time
        out = tmp_path / "s"
        assert run_cli("sweep", str(config_path), "--param", param,
                       "--values", values, "--out", str(out), "--seeds", "0") == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_zeta_exits_2_before_any_arm_runs(
            self, config_path, tmp_path, capsys, value):
        out = tmp_path / "s"
        assert run_cli("sweep", str(config_path), "--param", "zeta",
                       "--values", f"1e-3,{value}", "--out", str(out)) == 2
        assert "zeta must be a finite number" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_samplings_exits_2_naming_the_key(self, config_path, tmp_path,
                                                    capsys):
        out = tmp_path / "s"
        assert run_cli("sweep", str(config_path), "--param", "K",
                       "--values", "3,0", "--out", str(out)) == 2
        assert "noise.samplings must be >= 1, got 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("param,values", [("zeta", "1e-3"), ("K", "3"),
                                              ("selector", "kmeans_pp")])
    def test_sweep_on_non_noise_strategy_exits_2(self, tmp_path, capsys, param,
                                                 values):
        doc = dict(TINY_CONFIG, strategy="random")
        path = tmp_path / "r.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "s"
        assert run_cli("sweep", str(path), "--param", param,
                       "--values", values, "--out", str(out)) == 2
        assert (f"sweep parameter {param!r} applies to the noise_stability "
                "strategy only") in capsys.readouterr().err
        assert not out.exists()

    def test_arm_directory_that_cannot_be_made_exits_2_before_any_arm_runs(
            self, config_path, tmp_path, capsys):
        # the second arm's mkdir used to die with a bare FileExistsError
        # traceback, exit 1, after the first arm had run and written its files
        out = tmp_path / "o2"
        out.mkdir()
        (out / "zeta=0.001").write_text("")
        assert run_cli("sweep", str(config_path), "--param", "zeta",
                       "--values", "1e-4,1e-3", "--out", str(out),
                       "--seeds", "0") == 2
        assert (f"cannot make output directory {out / 'zeta=0.001'}"
                in capsys.readouterr().err)
        assert [p for p in out.rglob("*")
                if p.name in ("manifest.json", "reports.jsonl")] == []

    def test_strategy_sweep_labels_each_arm_with_its_strategy(
            self, config_path, tmp_path):
        # the arms differ in their strategy only, so sweep.csv's strategy
        # column repeats the swept value
        out = tmp_path / "sweep"
        assert run_cli("sweep", str(config_path), "--param", "strategy",
                       "--values", "random,noise_stability", "--out", str(out),
                       "--seeds", "0") == 0
        rows = [line.split(",") for line in
                (out / "sweep.csv").read_text().splitlines()[1:]]
        assert [row[:2] for row in rows] == [["strategy", "random"]] * 2 + \
            [["strategy", "noise_stability"]] * 2
        assert all(row[1] == row[4] for row in rows)
        for strategy in ("random", "noise_stability"):
            manifest = json.loads(
                (out / f"strategy={strategy}" / "manifest.json").read_text())
            assert manifest["config"]["strategy"] == strategy

    @pytest.mark.parametrize("dataset,values,needs", [
        ({"kind": "linear_regression", "n": 60, "dim": 3, "noise_std": 0.1},
         "random,entropy", "strategy 'entropy' needs a classification task"),
        (TINY_CONFIG["dataset"], "noise_stability,bald_mcdropout",
         "strategy 'bald_mcdropout' needs model.dropout > 0")],
        ids=["entropy-on-regression", "bald-without-dropout"])
    def test_strategy_that_does_not_fit_exits_2_before_any_arm_runs(
            self, tmp_path, capsys, dataset, values, needs):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(dict(TINY_CONFIG, dataset=dataset)))
        out = tmp_path / "s"
        assert run_cli("sweep", str(path), "--param", "strategy",
                       "--values", values, "--out", str(out)) == 2
        assert needs in capsys.readouterr().err
        assert not out.exists()

    def test_bald_arm_draws_the_fixed_monte_carlo_passes(self, tmp_path,
                                                         monkeypatch):
        doc = dict(TINY_CONFIG, model={"hidden": [8], "dropout": 0.2},
                   seeds=[0], cycles=2)
        path = tmp_path / "d.json"
        path.write_text(json.dumps(doc))
        passes = baselines.mc_dropout_probs
        mc_samples = []

        def recording_passes(model, pool, samples, seed):
            mc_samples.append(samples)
            return passes(model, pool, samples, seed)

        monkeypatch.setattr(baselines, "mc_dropout_probs", recording_passes)
        assert run_cli("sweep", str(path), "--param", "strategy",
                       "--values", "bald_mcdropout", "--out", str(tmp_path / "s")) == 0
        assert mc_samples == [loop.BALD_SAMPLES] * 2

    def test_every_strategy_of_a_seed_shares_cycle_one(self, tmp_path):
        # paired per-seed comparisons of strategies are exact only if the
        # data, split, initial pool and training are shared
        doc = dict(TINY_CONFIG, model={"hidden": [8], "dropout": 0.2},
                   cycles=1, seeds=[0, 1])
        path = tmp_path / "d.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "s"
        assert run_cli("sweep", str(path), "--param", "strategy",
                       "--values", ",".join(loop.STRATEGIES),
                       "--out", str(out)) == 0
        firsts = []
        for strategy in loop.STRATEGIES:
            records = [json.loads(line) for line in
                       (out / f"strategy={strategy}" / "reports.jsonl")
                       .read_text().splitlines()]
            firsts.append([(r["seed"], r["labeled_size"], r["metric"],
                            r["loss_curve"]) for r in records if r["cycle"] == 1])
        assert len(firsts) == 6 and len(firsts[0]) == 2
        assert all(first == firsts[0] for first in firsts)


class TestArmRunner:
    """run and sweep write each arm through one runner, so an arm's files are
    those of a run of its config, and sweep.csv repeats the arms' curve
    rows."""

    @pytest.mark.parametrize("param,values,written", [
        ("zeta", "1e-4,1e-2", ["0.0001", "0.01"]),
        ("selector", "k_center,k_center_normalized,kmeans_pp,top_magnitude",
         ["k_center", "k_center_normalized", "kmeans_pp", "top_magnitude"])])
    def test_sweep_rows_are_the_arms_curve_rows(self, config_path, tmp_path,
                                                param, values, written):
        out = tmp_path / "sweep"
        assert run_cli("sweep", str(config_path), "--param", param,
                       "--values", values, "--out", str(out), "--seeds", "0") == 0
        assert sorted(d.name for d in out.iterdir() if d.is_dir()) == \
            [f"{param}={value}" for value in written]
        expected = [f"{param},{value},{line}" for value in written
                    for line in (out / f"{param}={value}" / "curve.csv")
                    .read_text().splitlines()[1:]]
        assert expected
        assert (out / "sweep.csv").read_text().splitlines()[1:] == expected

    def test_strategy_sweep_arms_equal_runs_of_their_configs(self, tmp_path):
        # the budget-1 comparison against MC-dropout BALD: as many noise
        # samplings as BALD's Monte Carlo passes
        doc = dict(TINY_CONFIG, model={"hidden": [8], "dropout": 0.2},
                   seeds=[0], budget=1,
                   noise=dict(TINY_CONFIG["noise"], samplings=loop.BALD_SAMPLES))
        path = tmp_path / "d.json"
        path.write_text(json.dumps(doc))
        assert run_cli("sweep", str(path), "--param", "strategy", "--values",
                       "noise_stability,bald_mcdropout",
                       "--out", str(tmp_path / "s")) == 0
        for strategy in ("noise_stability", "bald_mcdropout"):
            run = tmp_path / f"run-{strategy}"
            assert run_cli("run", str(path), "--out", str(run),
                           "--strategy", strategy) == 0
            arm = tmp_path / "s" / f"strategy={strategy}"
            for name in ("reports.jsonl", "curve.csv"):
                assert (arm / name).read_bytes() == (run / name).read_bytes()

    def test_selector_sweep_arms_equal_runs_with_their_selector(self, tmp_path):
        # the magnitude/direction ablation: top_magnitude keeps only large
        # gradients and k_center_normalized only diverse ones, each against
        # the noise_stability strategy's own k_center
        selectors = ("k_center", "top_magnitude", "k_center_normalized")
        doc = dict(TINY_CONFIG, seeds=[0, 1])
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(doc))
        assert run_cli("sweep", str(path), "--param", "selector",
                       "--values", ",".join(selectors),
                       "--out", str(tmp_path / "s")) == 0
        firsts = []
        for selector in selectors:
            arm = tmp_path / "s" / f"selector={selector}"
            path.write_text(json.dumps(dict(doc, selector=selector)))
            run = tmp_path / f"run-{selector}"
            assert run_cli("run", str(path), "--out", str(run)) == 0
            assert (arm / "reports.jsonl").read_bytes() == \
                (run / "reports.jsonl").read_bytes()
            config = json.loads((arm / "manifest.json").read_text())["config"]
            assert (config["strategy"], config["selector"]) == \
                ("noise_stability", selector)
            assert [line.split(",")[2] for line in
                    (arm / "curve.csv").read_text().splitlines()[1:]] == \
                ["noise_stability"] * TINY_CONFIG["cycles"]
            # identical initial pools and training seeds share cycle 1
            records = [json.loads(line) for line in
                       (arm / "reports.jsonl").read_text().splitlines()]
            firsts.append([(r["seed"], r["metric"], r["loss_curve"])
                           for r in records if r["cycle"] == 1])
        assert len(firsts[0]) == 2
        assert all(first == firsts[0] for first in firsts)


class TestOutputFiles:
    @pytest.mark.parametrize("umask", [0o022, 0o027], ids=["022", "027"])
    def test_every_output_file_has_the_umasks_mode(self, config_path, tmp_path,
                                                   umask):
        # files used to be written through mkstemp, so they stayed 0o600
        # whatever the umask
        previous = os.umask(umask)
        try:
            assert run_cli("run", str(config_path), "--out",
                           str(tmp_path / "run"), "--seeds", "0") == 0
            assert run_cli("sweep", str(config_path), "--param", "zeta",
                           "--values", "1e-3,1e-2", "--out",
                           str(tmp_path / "sweep"), "--seeds", "0") == 0
        finally:
            os.umask(previous)
        files = sorted(p for p in tmp_path.rglob("*")
                       if p.is_file() and p != config_path)
        assert {p.name for p in files} == {"manifest.json", "reports.jsonl",
                                           "curve.csv", "sweep.csv"}
        assert len(files) == 3 + 3 * 2 + 1
        for path in files:
            assert path.stat().st_mode & 0o777 == 0o666 & ~umask, path

    def test_a_write_that_raises_leaves_no_file(self, tmp_path, monkeypatch):
        def refuse(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="disk full"):
            cli._write_atomic(tmp_path / "out.csv", ["a,b"])
        assert list(tmp_path.iterdir()) == []


class TestRemovedStrategyAliases:
    @pytest.mark.parametrize("argv", [("run",),
                                      ("sweep", "--param", "selector", "--values",
                                       "k_center,top_magnitude,k_center_normalized"),
                                      ("sweep", "--param", "selector",
                                       "--values", "k_center")])
    def test_alias_in_a_config_file_exits_2_before_any_output(
            self, tmp_path, capsys, argv):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(dict(TINY_CONFIG, strategy="noise_stability_m")))
        out = tmp_path / "o"
        assert run_cli(argv[0], str(path), *argv[1:], "--out", str(out)) == 2
        assert "'noise_stability_m'; valid strategies: random, entropy, coreset, " \
            "badge, bald_mcdropout, noise_stability\n" in capsys.readouterr().err
        assert not out.exists()

    def test_alias_as_a_strategy_sweep_value_exits_2_before_any_output(
            self, config_path, tmp_path, capsys):
        out = tmp_path / "o"
        assert run_cli("sweep", str(config_path), "--param", "strategy",
                       "--values", "random,noise_stability_m",
                       "--out", str(out)) == 2
        assert "'noise_stability_m'; valid strategies: random, entropy, coreset, " \
            "badge, bald_mcdropout, noise_stability\n" in capsys.readouterr().err
        assert not out.exists()


class TestUsageErrors:
    def test_unknown_flag_exits_2(self, config_path):
        with pytest.raises(SystemExit) as exc:
            run_cli("run", str(config_path), "--frobnicate")
        assert exc.value.code == 2

    def test_removed_ablate_command_exits_2_and_writes_nothing(
            self, tmp_path, capsys, monkeypatch):
        # its arms are a selector sweep now
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("NOISESTAB_OUT_ROOT", str(tmp_path))
        with pytest.raises(SystemExit) as exc:
            run_cli("ablate", str(CONFIGS / "blobs_demo.json"))
        assert exc.value.code == 2
        assert "invalid choice: 'ablate'" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_version_flag_prints_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("--version")
        assert exc.value.code == 0
