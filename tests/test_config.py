import dataclasses
import json
import math
import re
import typing
from pathlib import Path

import pytest

from noisestab.config import (config_hash, experiment_from_dict,
                              load_experiment_config, resolved_dict)
from noisestab.exceptions import ConfigError
from noisestab.loop import ExperimentConfig
from noisestab.nn import TrainConfig
from noisestab.stability import NoiseConfig

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
        ("dataset", "n_per_class", -3, "dataset.n_per_class must be >= 2"),
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
        ("model", "hidden", [4, 2 ** 63], re.escape(
            "model.hidden[1] must be <= 2**63 - 1, the largest array dimension")),
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
        with pytest.raises(ConfigError, match="^dataset.n must be >= 4"):
            experiment_from_dict(doc)
        # the edges of each range load
        edges = dict(MINIMAL, dataset=dict(MINIMAL["dataset"], dim=1,
                                           test_fraction=0.5, classes=2,
                                           noise_std=0.0, centers_seed=0),
                     model={"hidden": [1, 2 ** 63 - 1], "dropout": 0.0},
                     noise={"samplings": 2 ** 63 - 1})
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


# each dataset kind's least value of every key that has one, and the default
# of every key that may be left out, written out here rather than read from
# loop.DATASETS, so a change to the declaration shows up as a failure
LEAST = {
    "blobs": {"n_per_class": 2, "classes": 2, "dim": 1, "centers_seed": 0,
              "noise_std": 0, "center_scale": 0},
    "two_moons": {"n": 4, "noise_std": 0},
    "linear_regression": {"n": 1, "dim": 1, "weight_seed": 0, "noise_std": 0},
}
DEFAULTS = {
    "blobs": {"test_fraction": 0.3, "centers_seed": 0, "center_scale": 4.0},
    "two_moons": {"test_fraction": 0.3},
    "linear_regression": {"test_fraction": 0.3, "weight_seed": 0},
    "idx": {"test_fraction": 0.3},
    "csv": {"test_fraction": 0.3},
}


# a config with the given dataset, built by the loader and by replace
BUILDERS = {
    "load": lambda dataset: experiment_from_dict(dict(MINIMAL, dataset=dataset)),
    "replace": lambda dataset: dataclasses.replace(experiment_from_dict(MINIMAL),
                                                   dataset=dataset),
}


class TestReplaceGetsTheLoadChecks:
    @pytest.mark.parametrize("field,value,message", [
        ("seeds", [1.5], "seeds[0] must be a JSON integer, got 1.5"),
        ("cycles", 2.5, "cycles must be a JSON integer, got 2.5"),
        ("budget", "3", "budget must be a JSON integer, got '3'")])
    def test_mistyped_top_level_field_rejected_naming_it(self, field, value,
                                                         message):
        # seeds [1.5] used to run seed 1 and record "seed": 1.5; cycles 2.5
        # and budget "3" raised a TypeError partway through the run
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            dataclasses.replace(experiment_from_dict(MINIMAL), **{field: value})

    @pytest.mark.parametrize("epochs", [0, 8])
    def test_negative_initial_labeled_rejected_at_construction(self, epochs):
        # with no training it used to build, and the run died in
        # PoolState.initial with numpy's bare ValueError
        message = "initial_labeled must be >= 0, got -5"
        train = {"epochs": epochs}
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            experiment_from_dict(dict(MINIMAL, initial_labeled=-5, train=train))
        cfg = experiment_from_dict(dict(MINIMAL, train=train))
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            dataclasses.replace(cfg, initial_labeled=-5)

    def test_dropout_without_a_hidden_layer_rejected_at_construction(self):
        # it used to load: the rate did nothing, and bald_mcdropout trained
        # cycle 1 before failing for want of a Dropout layer
        message = ("model.dropout must be 0 with no hidden layer (Dropout "
                   "follows each hidden ReLU), got 0.25")
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            experiment_from_dict(dict(MINIMAL, model={"hidden": [], "dropout": 0.25}))
        cfg = experiment_from_dict(dict(MINIMAL, model={"hidden": [4], "dropout": 0.25}))
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            dataclasses.replace(cfg, model=dataclasses.replace(cfg.model, hidden=[]))
        assert experiment_from_dict(dict(MINIMAL, model={"hidden": []})).model.hidden == []

    @pytest.mark.parametrize("change,message", [
        ({"n_per_clas": 10}, "unknown key(s) in dataset: ['n_per_clas']"),
        ({"n_per_class": "10"}, "dataset.n_per_class must be a JSON integer"),
        ({"n_per_class": 10.5}, "dataset.n_per_class must be a JSON integer")],
        ids=["misspelled", "string", "float"])
    def test_bad_dataset_key_rejected_naming_it(self, change, message):
        # each used to build and die mid-run with a KeyError or a TypeError
        cfg = load_experiment_config(ROOT / "configs" / "blobs_demo.json")
        dataset = {key: value for key, value in cfg.dataset.items()
                   if key != "n_per_class"}
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
            dataclasses.replace(cfg, dataset={**dataset, **change})

    @pytest.mark.parametrize("build", BUILDERS.values(), ids=BUILDERS)
    @pytest.mark.parametrize("kind,key", [
        (kind, key) for kind, least in LEAST.items() for key in least])
    def test_each_least_value_loads_and_one_below_is_rejected(self, build, kind,
                                                              key):
        dataset = {"kind": kind, **LEAST[kind]}
        assert build(dataset).dataset == {**DEFAULTS[kind], **dataset}
        message = f"dataset.{key} must be >= {LEAST[kind][key]}"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}\\b"):
            build(dict(dataset, **{key: LEAST[kind][key] - 1}))

    @pytest.mark.parametrize("build", BUILDERS.values(), ids=BUILDERS)
    @pytest.mark.parametrize("kind,key", [
        ("blobs", "n_per_class"), ("blobs", "classes"), ("blobs", "dim"),
        ("two_moons", "n"), ("linear_regression", "n"), ("linear_regression", "dim")])
    def test_each_dimension_key_takes_the_int64_maximum_and_no_more(self, build,
                                                                   kind, key):
        # 10**20 used to load and die mid-run with numpy's bare "Maximum
        # allowed dimension exceeded"
        dataset = {"kind": kind, **LEAST[kind]}
        assert build(dict(dataset, **{key: 2 ** 63 - 1})).dataset[key] == 2 ** 63 - 1
        message = (f"dataset.{key} must be <= 2**63 - 1, the largest array "
                   f"dimension numpy takes, got {2 ** 63}")
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            build(dict(dataset, **{key: 2 ** 63}))

    @pytest.mark.parametrize("build", BUILDERS.values(), ids=BUILDERS)
    @pytest.mark.parametrize("kind,key", [
        (kind, key) for kind, defaults in DEFAULTS.items() for key in defaults])
    def test_each_left_out_key_takes_its_default(self, tmp_path, build, kind, key):
        present = tmp_path / "present"
        present.write_bytes(b"")
        files = {"idx": {"images": str(present), "labels": str(present)},
                 "csv": {"path": str(present), "schema": {"y": "target"}}}
        dataset = {"kind": kind, **LEAST.get(kind, {}), **files.get(kind, {})}
        dataset.pop(key, None)
        cfg = build(dataset)
        assert cfg.dataset[key] == DEFAULTS[kind][key]
        # the entry's own keys keep their order, and the defaults follow
        assert list(cfg.dataset) == list(dataset) + [
            name for name in DEFAULTS[kind] if name not in dataset]


def _wrong_values(kind):
    """(value, suffix) pairs of the wrong JSON type for a field declared
    ``kind``: a bool, a string for a number, a float for an integer and NaN
    for a number; a list's entries get the wrong values of its item type,
    and the message names the entry by the suffix."""
    base = typing.get_origin(kind) or kind
    if base is list:
        return [(True, "")] + [([value], "[0]") for value, _ in
                               _wrong_values(typing.get_args(kind)[0])]
    values = [True] + (["1"] if base in (int, float) else [])
    values += [2.5] if base is int else [math.nan] if base is float else []
    return [(value, "") for value in values]


# every settable field of the four config dataclasses, read from their
# declarations (the derived seed and tap left out), as (section, field,
# wrong value, the key the message names); section is None at the top.
# get_type_hints reads an annotation as a class whether or not it is postponed
SECTIONS = {name: kind for name, kind in
            typing.get_type_hints(ExperimentConfig).items()
            if dataclasses.is_dataclass(kind)}
DECLARED = [
    (section, name, value, f"{section}.{name}{suffix}" if section
     else name + suffix)
    for section, cls in [(None, ExperimentConfig), *SECTIONS.items()]
    for name, kind in typing.get_type_hints(cls).items()
    if name not in ("seed", "tap", *SECTIONS)
    for value, suffix in _wrong_values(kind)]


class TestEveryFieldIsTypeChecked:
    @pytest.mark.parametrize("section,key,value,name", DECLARED,
                             ids=[f"{name}={value!r}"
                                  for _, _, value, name in DECLARED])
    def test_wrong_json_type_rejected_naming_the_key(self, section, key,
                                                     value, name):
        # a replaced section used to build with samplings 2.5 or lr NaN and
        # fail only once the run was under way; a string for a number
        # raised a bare TypeError
        pattern = f"^{re.escape(name)} must be a "
        doc = json.loads(json.dumps(MINIMAL))
        (doc.setdefault(section, {}) if section else doc)[key] = value
        with pytest.raises(ConfigError, match=pattern):
            experiment_from_dict(doc)
        cfg = experiment_from_dict(MINIMAL)
        with pytest.raises(ConfigError, match=pattern):
            if section:
                dataclasses.replace(cfg, **{section: dataclasses.replace(
                    getattr(cfg, section), **{key: value})})
            else:
                dataclasses.replace(cfg, **{key: value})

    @pytest.mark.parametrize("section,change,message", [
        ("noise", {"samplings": 2.5}, "noise.samplings must be a JSON integer, got 2.5"),
        ("train", {"epochs": 2.5}, "train.epochs must be a JSON integer, got 2.5"),
        ("train", {"lr": math.nan}, "train.lr must be a finite number, got nan"),
        ("model", {"hidden": [8.5]}, "model.hidden[0] must be a JSON integer, got 8.5"),
        ("noise", {"zeta": "1"}, "noise.zeta must be a JSON number, got '1'"),
        ("model", {"hidden": 8}, "model.hidden must be a JSON list, got 8")],
        ids=["samplings", "epochs", "lr", "hidden-entry", "zeta", "hidden"])
    def test_replaced_section_value_rejected_at_construction(self, section,
                                                             change, message):
        # each used to build and raise a TypeError inside the run, or, for
        # zeta and hidden, a bare TypeError at construction
        cfg = load_experiment_config(ROOT / "configs" / "blobs_demo.json")
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            dataclasses.replace(cfg, **{section: dataclasses.replace(
                getattr(cfg, section), **change)})

    @pytest.mark.parametrize("section,value,message", [
        ("model", {"hidden": [8]},
         "model must be a model section (ModelConfig), got {'hidden': [8]}"),
        ("noise", None, "noise must be a noise section (NoiseConfig), got None"),
        ("train", NoiseConfig(),
         "train must be a train section (TrainConfig), got NoiseConfig(")],
        ids=["model-dict", "noise-None", "train-NoiseConfig"])
    def test_section_that_is_not_its_dataclass_rejected(self, section, value,
                                                        message):
        # a dict for the model section used to build and die in build_model
        cfg = load_experiment_config(ROOT / "configs" / "blobs_demo.json")
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
            dataclasses.replace(cfg, **{section: value})

    @pytest.mark.parametrize("section,key,value,message", [
        ("noise", "zeta", 0.0, "noise.zeta must be > 0, got 0.0"),
        ("noise", "zeta", -1e-3, "noise.zeta must be > 0, got -0.001"),
        ("noise", "samplings", 0, "noise.samplings must be >= 1, got 0"),
        ("noise", "samplings", 2 ** 63, "noise.samplings must be <= 2**63 - 1, the "
         f"largest array dimension numpy takes, got {2 ** 63}"),
        ("train", "lr", -0.5, "train.lr must be >= 0, got -0.5"),
        ("train", "epochs", -1, "train.epochs must be >= 0, got -1"),
        ("train", "batch_size", 0, "train.batch_size must be >= 1, got 0")],
        ids=["zeta-0", "zeta-negative", "samplings", "samplings-past-int64", "lr",
             "epochs", "batch_size"])
    def test_out_of_range_noise_and_train_values_name_the_key(
            self, section, key, value, message):
        doc = dict(MINIMAL, **{section: {key: value}})
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            experiment_from_dict(doc)
        cfg = experiment_from_dict(MINIMAL)
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            dataclasses.replace(getattr(cfg, section), **{key: value})


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

    @pytest.mark.parametrize("section, key, integer", [
        ("train", "lr", 1), ("dataset", "noise_std", 2)])
    def test_integer_value_of_a_float_key_loads_as_the_float(self, section, key,
                                                             integer):
        # 1 used to stay an int, so the same run hashed apart from 1.0
        def load(value):
            doc = json.loads(json.dumps(MINIMAL))
            doc.setdefault(section, {})[key] = value
            return experiment_from_dict(doc)

        as_int, as_float = load(integer), load(float(integer))
        assert config_hash(as_int) == config_hash(as_float)
        value = resolved_dict(as_int)[section][key]
        assert type(value) is float and value == integer
        replaced = dataclasses.replace(as_float.train, lr=integer)
        assert type(replaced.lr) is float

    def test_hash_changes_with_content(self):
        cfg_a = experiment_from_dict(MINIMAL)
        cfg_b = experiment_from_dict(dict(MINIMAL, budget=4))
        assert config_hash(cfg_a) != config_hash(cfg_b)
