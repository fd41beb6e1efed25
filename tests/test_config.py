import json

import pytest

from noisestab.config import (config_hash, experiment_from_dict,
                              load_experiment_config, resolved_dict)
from noisestab.exceptions import ConfigError

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


class TestParsing:
    def test_minimal_config_fills_defaults(self):
        cfg = experiment_from_dict(MINIMAL)
        assert cfg.noise.zeta == 1e-3
        assert cfg.noise.samplings == 30
        assert cfg.noise.tap == "predictive"
        assert cfg.train.loss == "cross_entropy"
        assert cfg.retrain_mode == "from_scratch"

    def test_regression_dataset_defaults_to_feature_tap(self):
        doc = dict(MINIMAL, dataset={"kind": "linear_regression", "n": 20,
                                     "dim": 2, "noise_std": 0.1})
        cfg = experiment_from_dict(doc)
        assert cfg.noise.tap == "feature"
        assert cfg.train.loss == "squared_error"

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            experiment_from_dict(dict(MINIMAL, gpu=True))

    def test_unknown_dataset_kind_lists_valid_kinds(self):
        doc = dict(MINIMAL, dataset={"kind": "cifar"})
        with pytest.raises(ConfigError, match="blobs"):
            experiment_from_dict(doc)

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

    def test_k_dpp_selector_rejected_at_load(self, tmp_path):
        path = tmp_path / "k_dpp.json"
        path.write_text(json.dumps(dict(MINIMAL, selector="k_dpp")))
        with pytest.raises(ConfigError, match="k_dpp"):
            load_experiment_config(path)


class TestManifestRoundtrip:
    def test_resolved_snapshot_reparses_to_the_same_config(self):
        cfg = experiment_from_dict(MINIMAL)
        snapshot = resolved_dict(cfg)
        # the manifest snapshot alone must reproduce the run
        reparsed = experiment_from_dict(json.loads(json.dumps(snapshot)))
        assert resolved_dict(reparsed) == snapshot
        assert config_hash(reparsed) == config_hash(cfg)

    def test_hash_tracks_content_not_key_order(self):
        cfg_a = experiment_from_dict(MINIMAL)
        reordered = dict(reversed(list(MINIMAL.items())))
        cfg_b = experiment_from_dict(reordered)
        assert config_hash(cfg_a) == config_hash(cfg_b)

    def test_hash_changes_with_content(self):
        cfg_a = experiment_from_dict(MINIMAL)
        cfg_b = experiment_from_dict(dict(MINIMAL, budget=4))
        assert config_hash(cfg_a) != config_hash(cfg_b)
