import dataclasses
import json
import re
from pathlib import Path

import pytest

from noisestab.config import (config_hash, experiment_from_dict,
                              load_experiment_config, resolved_dict)
from noisestab.exceptions import ConfigError
from noisestab.loop import ExperimentConfig
from noisestab.nn import TrainConfig

ROOT = Path(__file__).resolve().parents[1]
MINIMAL = {
    "dataset": {"kind": "blobs", "n_per_class": 10, "classes": 2, "dim": 2,
                "noise_std": 1.0},
    "model": {"hidden": [4]},
    "strategy": "random",
    "cycles": 2,
    "budget": 3,
    "initial_labeled": 4,
    "seeds": [0],
}
REGRESSION = dict(MINIMAL, dataset={"kind": "linear_regression", "n": 20,
                                    "dim": 2, "noise_std": 0.1})
NO_MODEL = {key: value for key, value in MINIMAL.items() if key != "model"}


class TestParsing:
    def test_minimal_config_fills_defaults(self):
        cfg = experiment_from_dict(MINIMAL)
        assert cfg.noise.zeta == 1e-3
        assert cfg.noise.samplings == 30
        assert cfg.noise.tap == "predictive"
        assert cfg.selector == "k_center"
        assert cfg.train == TrainConfig()

    def test_regression_dataset_defaults_to_feature_tap(self):
        cfg = experiment_from_dict(REGRESSION)
        assert cfg.noise.tap == "feature"
        assert cfg.train == TrainConfig()

    @pytest.mark.parametrize("before,after,tap", [
        (MINIMAL, REGRESSION, "feature"), (REGRESSION, MINIMAL, "predictive")],
        ids=["to-regression", "to-classification"])
    def test_tap_follows_the_task_when_replace_moves_the_dataset(
            self, before, after, tap):
        # the regression tap used to be set by the JSON loader alone, so a
        # replace-built regression config read the predictive output
        cfg = dataclasses.replace(experiment_from_dict(before),
                                  dataset=after["dataset"])
        assert cfg.noise.tap == tap
        assert cfg == experiment_from_dict(after)

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            experiment_from_dict(dict(MINIMAL, gpu=True))

    def test_unknown_dataset_kind_lists_valid_kinds(self):
        doc = dict(MINIMAL, dataset={"kind": "cifar"})
        with pytest.raises(ConfigError, match="blobs"):
            experiment_from_dict(doc)
        with pytest.raises(ConfigError, match="unknown dataset kind"):
            experiment_from_dict(dict(MINIMAL, dataset={"kind": ["blobs"]}))

    def test_missing_dataset_key_rejected(self):
        # used to load, write the manifest and then die with a KeyError
        dataset = {k: v for k, v in MINIMAL["dataset"].items() if k != "dim"}
        with pytest.raises(ConfigError,
                           match="^dataset is missing required key 'dim'"):
            experiment_from_dict(dict(MINIMAL, dataset=dataset))

    def test_probability_strategies_need_classification(self):
        doc = dict(MINIMAL,
                   dataset={"kind": "linear_regression", "n": 20, "dim": 2,
                            "noise_std": 0.1},
                   strategy="entropy")
        with pytest.raises(ConfigError, match="classification"):
            experiment_from_dict(doc)

    def test_missing_file_and_bad_json_are_config_errors(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_experiment_config(tmp_path / "nope.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        with pytest.raises(ConfigError, match="valid JSON"):
            load_experiment_config(bad)
        # each used to raise a bare IsADirectoryError or UnicodeDecodeError
        with pytest.raises(ConfigError,
                           match=f"^cannot read config file {re.escape(str(tmp_path))}: "):
            load_experiment_config(tmp_path)
        utf16 = tmp_path / "utf16.json"
        utf16.write_bytes(b"\xff\xfe{")
        with pytest.raises(ConfigError,
                           match=f"^config file {re.escape(str(utf16))} is not UTF-8"):
            load_experiment_config(utf16)

    def test_k_dpp_selector_rejected_at_load(self, tmp_path):
        path = tmp_path / "k_dpp.json"
        path.write_text(json.dumps(dict(MINIMAL, selector="k_dpp")))
        with pytest.raises(ConfigError, match="k_dpp"):
            load_experiment_config(path)

    @pytest.mark.parametrize("section,key,value", [("noise", "seed", 3),
                                                   ("noise", "scope", "all"),
                                                   ("noise", "tap", "predictive"),
                                                   ("train", "seed", 3)],
                             ids=["noise.seed", "noise.scope", "noise.tap",
                                  "train.seed"])
    def test_derived_seed_and_scope_keys_rejected(self, tmp_path, section, key,
                                                  value):
        # loop derives both seeds per run seed and cycle, the tap follows the
        # task and the scope the tap, so a value here could never change the
        # output
        path = tmp_path / "derived.json"
        path.write_text(json.dumps(dict(MINIMAL, **{section: {key: value}})))
        with pytest.raises(ConfigError, match=f"unknown key.* in {section}: "
                                              f"\\['{key}'\\]"):
            load_experiment_config(path)

    @pytest.mark.parametrize("path,value", [
        ("cycles", 2.7), ("budget", "15"), ("initial_labeled", True),
        ("seeds.0", 1.0), ("noise.samplings", 30.5),
        ("train.epochs", 2.5), ("train.batch_size", "32"),
        ("noise.zeta", "1e-3"), ("train.lr", "0.01"),
        ("dataset.n_per_class", 20.5), ("dataset.noise_std", "2"),
        ("dataset.test_fraction", "0.3"), ("model.hidden", 24),
        ("model.hidden.0", 24.5), ("model.dropout", "0.1")])
    def test_mistyped_number_or_flag_rejected_naming_the_key(self, path, value):
        # each of these used to load as another value, or to fail only once
        # the run reached training or embedding
        doc = json.loads(json.dumps(MINIMAL))
        *parents, key = path.split(".")
        target = doc
        for name in parents:
            target = target.setdefault(name, {})
        target[int(key) if key.isdigit() else key] = value
        name = path.replace(".0", "[0]")
        with pytest.raises(ConfigError, match=f"^{re.escape(name)} must be a JSON"):
            experiment_from_dict(doc)

    @pytest.mark.parametrize("section,key,literal", [
        ("noise", "zeta", "NaN"), ("train", "lr", "Infinity"),
        ("train", "lr", "-Infinity"), ("dataset", "noise_std", "NaN"),
        ("dataset", "test_fraction", "NaN"), ("model", "dropout", "NaN")])
    def test_non_finite_number_rejected_naming_the_key(self, tmp_path, section,
                                                       key, literal):
        # json reads these literals as floats; zeta NaN used to load and stop
        # the run only at its first embedding
        doc = json.loads(json.dumps(MINIMAL))
        doc.setdefault(section, {})[key] = "PLACEHOLDER"
        path = tmp_path / "nonfinite.json"
        path.write_text(json.dumps(doc).replace('"PLACEHOLDER"', literal))
        with pytest.raises(ConfigError,
                           match=f"^{section}.{key} must be a finite number"):
            load_experiment_config(path)

    @pytest.mark.parametrize("section,key,value,message", [
        ("dataset", "n_per_class", -3, "dataset.n_per_class must be >= 1"),
        ("dataset", "n_per_class", 1, "dataset.n_per_class must be >= 2"),
        ("dataset", "classes", 0, "dataset.classes must be >= 2"),
        ("dataset", "dim", 0, "dataset.dim must be >= 1"),
        ("dataset", "test_fraction", 1.5, "dataset.test_fraction must be in"),
        ("dataset", "test_fraction", 0, "dataset.test_fraction must be in"),
        ("dataset", "test_fraction", 1.0, "dataset.test_fraction must be in"),
        ("model", "dropout", 1.5, "model.dropout must be in"),
        ("model", "dropout", 1.0, "model.dropout must be in"),
        ("model", "dropout", -0.1, "model.dropout must be in"),
        ("model", "hidden", [4, 0], re.escape("model.hidden[1] must be >= 1")),
        ("dataset", "classes", 1, "dataset.classes must be >= 2"),
        ("dataset", "noise_std", -1.0, "dataset.noise_std must be >= 0"),
        ("dataset", "centers_seed", -1, "dataset.centers_seed must be >= 0"),
        ("dataset", "center_scale", -1.0, "dataset.center_scale must be >= 0")])
    def test_out_of_range_dataset_and_model_values_rejected(self, section, key,
                                                            value, message):
        # each used to load and fail only once the run had started
        doc = json.loads(json.dumps(MINIMAL))
        doc[section][key] = value
        with pytest.raises(ConfigError, match=f"^{message}"):
            experiment_from_dict(doc)

    def test_size_keys_of_other_dataset_kinds_range_checked(self):
        doc = dict(MINIMAL, dataset={"kind": "two_moons", "n": 0, "noise_std": 0.1})
        with pytest.raises(ConfigError, match="^dataset.n must be >= 1"):
            experiment_from_dict(doc)
        # the edges of each range load
        edges = dict(MINIMAL, dataset=dict(MINIMAL["dataset"], dim=1,
                                           test_fraction=0.5, classes=2,
                                           noise_std=0.0, centers_seed=0),
                     model={"hidden": [1], "dropout": 0.0})
        experiment_from_dict(edges)

    @pytest.mark.parametrize("kind,key", [("idx", "images"), ("idx", "labels"),
                                          ("csv", "path")])
    def test_dataset_file_that_is_not_there_rejected_naming_the_key(
            self, tmp_path, kind, key):
        # a missing file used to load, write the manifest and then die with a
        # bare FileNotFoundError
        present = tmp_path / "present"
        present.write_bytes(b"")
        dataset = ({"kind": "idx", "images": str(present), "labels": str(present)}
                   if kind == "idx" else
                   {"kind": "csv", "path": str(present), "schema": {"y": "target"}})
        experiment_from_dict(dict(MINIMAL, dataset=dataset))
        for absent in (tmp_path / "absent", tmp_path):
            dataset[key] = str(absent)
            message = f"dataset.{key} names no file: '{absent}'"
            with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
                experiment_from_dict(dict(MINIMAL, dataset=dataset))

    @pytest.mark.parametrize("kind", ["numerc", "Numeric", "", 1, None])
    def test_unknown_csv_schema_kind_rejected_naming_column_and_kind(
            self, tmp_path, kind):
        table = tmp_path / "t.csv"
        table.write_text("x,y\n1,2\n")
        dataset = {"kind": "csv", "path": str(table),
                   "schema": {"x": kind, "y": "target"}}
        message = ("dataset.schema['x'] must be one of numeric, categorical, "
                   f"target, got {kind!r}")
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            experiment_from_dict(dict(MINIMAL, dataset=dataset))

    @pytest.mark.parametrize("dataset,message", [
        ({"kind": "linear_regression", "n": 20, "dim": 2, "noise_std": 0.1,
          "weight_seed": -1}, "dataset.weight_seed must be >= 0"),
        ({"kind": "linear_regression", "n": 20, "dim": 2, "noise_std": -0.1},
         "dataset.noise_std must be >= 0"),
        ({"kind": "two_moons", "n": 20, "noise_std": -0.5},
         "dataset.noise_std must be >= 0"),
        ({"kind": "two_moons", "n": 1, "noise_std": 0.1}, "dataset.n must be >= 4"),
        ({"kind": "two_moons", "n": 3, "noise_std": 0.1}, "dataset.n must be >= 4")])
    def test_seeds_and_noise_of_other_dataset_kinds_range_checked(self, dataset,
                                                                  message):
        # a negative seed used to die in SeedSequence with a bare ValueError,
        # a negative noise_std in the generator, both after the manifest
        with pytest.raises(ConfigError, match=f"^{message}"):
            experiment_from_dict(dict(MINIMAL, dataset=dataset))

    @pytest.mark.parametrize("optimizer", ["sgd", "Adam"])
    def test_optimizer_other_than_adam_rejected(self, optimizer):
        # training is one fixed Adam recipe; the removed keys of other
        # recipes are checked in tests/test_cli.py
        message = f"unknown optimizer '{optimizer}'; the only optimizer is 'adam'"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            experiment_from_dict(dict(MINIMAL, train={"optimizer": optimizer}))

    def test_adam_named_or_left_out_loads_the_same(self):
        named = experiment_from_dict(dict(MINIMAL, train={"optimizer": "adam"}))
        assert named == experiment_from_dict(MINIMAL)
        assert named.train == TrainConfig()

    def test_seeds_must_be_a_list(self):
        with pytest.raises(ConfigError, match="seeds must be a JSON list"):
            experiment_from_dict(dict(MINIMAL, seeds=5))

    @pytest.mark.parametrize("seeds,message", [
        ([0, -1], r"seeds[1] must be in [0, 2**64), got -1"),
        ([2 ** 64], r"seeds[0] must be in [0, 2**64), got 18446744073709551616"),
        ([3, 0, 3], "seeds[2] repeats seed 3"),
        ([0, 0], "seeds[1] repeats seed 0")],
        ids=["negative", "2**64", "repeat", "repeated-zero"])
    def test_seeds_outside_64_bits_or_repeated_rejected(self, seeds, message):
        # streams are seeded by the seed modulo 2**64, so -1 and 2**64 - 1 ran
        # the same experiment, and a repeat was counted twice in n_seeds
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            experiment_from_dict(dict(MINIMAL, seeds=seeds))
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            dataclasses.replace(experiment_from_dict(MINIMAL), seeds=seeds)

    def test_largest_64_bit_seed_loads(self):
        assert experiment_from_dict(dict(MINIMAL, seeds=[0, 2 ** 64 - 1])).seeds == [
            0, 2 ** 64 - 1]

    def test_readme_example_loads(self):
        readme = (ROOT / "README.md").read_text()
        example = re.search(r"```jsonc\n(.*?)```", readme, re.S).group(1)
        doc = json.loads(re.sub(r"//.*", "", example))
        snapshot = resolved_dict(experiment_from_dict(doc))
        # every value the example gives loads as itself; noise and train
        # also hold the keys the example leaves out
        for key, value in doc.items():
            partial = key in ("noise", "train")
            assert snapshot[key] == ({**snapshot[key], **value} if partial
                                     else value)
        # and it names every top-level key, so a key added or removed without
        # a README change fails here
        assert sorted(doc) == sorted(field.name for field in
                                     dataclasses.fields(ExperimentConfig))


class TestManifestRoundtrip:
    @pytest.mark.parametrize("name", ["minimal", "blobs_accept", "blobs_demo",
                                      "regression_demo"])
    def test_resolved_snapshot_reparses_to_the_same_config(self, name):
        cfg = (experiment_from_dict(MINIMAL) if name == "minimal" else
               load_experiment_config(ROOT / "configs" / f"{name}.json"))
        snapshot = resolved_dict(cfg)
        # the derived keys stay out of the snapshot, which must load
        assert not {"seed", "tap"} & set(snapshot["noise"])
        assert "seed" not in snapshot["train"]
        # the manifest snapshot alone must reproduce the run
        reparsed = experiment_from_dict(json.loads(json.dumps(snapshot)))
        assert resolved_dict(reparsed) == snapshot
        assert config_hash(reparsed) == config_hash(cfg)

    def test_hash_tracks_content_not_key_order(self):
        cfg_a = experiment_from_dict(MINIMAL)
        reordered = dict(reversed(list(MINIMAL.items())))
        cfg_b = experiment_from_dict(reordered)
        assert config_hash(cfg_a) == config_hash(cfg_b)

    @pytest.mark.parametrize("name,digest", [
        ("blobs_accept",
         "9cac57d2345e182b30d74febe52744bf8d919c51912a224dc71bd9ca1f09ed6a"),
        ("blobs_demo",
         "47645d4bead7229cd38bd972fe1078db2f8e513786d76f36ea88ad5a6c789368"),
        ("regression_demo",
         "6db708bc67a36b34c7aa30b31042116901b75e4ea4c16e6b3db6533fbc9b7bec")])
    def test_shipped_config_hashes_are_pinned(self, name, digest):
        # the hash names a run's config in its manifest; reading the schema
        # another way must not move it. Pinned once the fixed training recipe
        # took Adam's constants, momentum, weight_decay, retrain_mode and
        # bald_samples out of the resolved config, moved once the resolved
        # config took in the dataset and model defaults, and once more when
        # noise.tap and seed_from_labeled left it.
        cfg = load_experiment_config(ROOT / "configs" / f"{name}.json")
        assert config_hash(cfg) == digest

    @pytest.mark.parametrize("base,section,value", [
        (MINIMAL, "model", {"hidden": [4], "dropout": 0.0}),
        (NO_MODEL, "model", {"hidden": [16], "dropout": 0.0}),
        (MINIMAL, "dataset", dict(MINIMAL["dataset"], test_fraction=0.3)),
        (MINIMAL, "dataset", dict(MINIMAL["dataset"], centers_seed=0)),
        (MINIMAL, "dataset", dict(MINIMAL["dataset"], center_scale=4.0)),
        (REGRESSION, "dataset", dict(REGRESSION["dataset"], weight_seed=0))],
        ids=["model.dropout", "model", "test_fraction", "centers_seed",
             "center_scale", "weight_seed"])
    def test_spelled_out_default_hashes_as_left_out(self, base, section, value):
        # a run that writes the same bytes is named by the same config
        left_out = experiment_from_dict(base)
        spelled = experiment_from_dict(dict(base, **{section: value}))
        assert resolved_dict(spelled) == resolved_dict(left_out)
        assert config_hash(spelled) == config_hash(left_out)

    def test_hash_changes_with_content(self):
        cfg_a = experiment_from_dict(MINIMAL)
        cfg_b = experiment_from_dict(dict(MINIMAL, budget=4))
        assert config_hash(cfg_a) != config_hash(cfg_b)
