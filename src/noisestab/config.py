"""Experiment configuration: one JSON document per run.

The file is the reproducibility unit: its resolved snapshot (defaults filled
in) plus the tool version determine every byte of the run's outputs. Flags may
override fields but never extend the schema; unknown keys are rejected.
"""

from __future__ import annotations

import hashlib
import json

from .baselines import validate_strategy
from .exceptions import ConfigError
from .loop import ExperimentConfig
from .nn import TrainConfig
from .selection import METHODS
from .stability import NoiseConfig

_DATASET_KEYS = {
    "blobs": {"kind", "n_per_class", "classes", "dim", "centers_seed",
              "noise_std", "center_scale", "test_fraction"},
    "two_moons": {"kind", "n", "noise_std", "test_fraction"},
    "linear_regression": {"kind", "n", "dim", "weight_seed", "noise_std",
                          "test_fraction"},
    "idx": {"kind", "images", "labels", "test_fraction"},
    "csv": {"kind", "path", "schema", "test_fraction"},
}
_REGRESSION_KINDS = ("linear_regression", "csv")

_TOP_KEYS = {"dataset", "model", "strategy", "cycles", "budget",
             "initial_labeled", "noise", "train", "seeds", "retrain_mode",
             "selector", "seed_from_labeled", "bald_samples"}
_MODEL_KEYS = {"hidden", "dropout"}
_NOISE_KEYS = {"zeta", "samplings", "seed", "tap", "scope"}
_TRAIN_KEYS = {"optimizer", "lr", "momentum", "weight_decay", "beta1", "beta2",
               "eps", "epochs", "batch_size", "loss", "seed"}


def _check_keys(doc, allowed, where):
    unknown = set(doc) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {sorted(unknown)}")


def experiment_from_dict(doc: dict) -> ExperimentConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    _check_keys(doc, _TOP_KEYS, "config")
    for key in ("dataset", "model", "strategy", "cycles", "budget",
                "initial_labeled", "seeds"):
        if key not in doc:
            raise ConfigError(f"config is missing required key {key!r}")

    dataset = dict(doc["dataset"])
    kind = dataset.get("kind")
    if kind not in _DATASET_KEYS:
        raise ConfigError(f"unknown dataset kind {kind!r}; "
                          f"valid kinds: {sorted(_DATASET_KEYS)}")
    _check_keys(dataset, _DATASET_KEYS[kind], f"dataset ({kind})")
    task = "regression" if kind in _REGRESSION_KINDS else "classification"

    model = dict(doc["model"])
    _check_keys(model, _MODEL_KEYS, "model")

    noise_doc = dict(doc.get("noise", {}))
    _check_keys(noise_doc, _NOISE_KEYS, "noise")
    if "tap" not in noise_doc:
        noise_doc["tap"] = "predictive" if task == "classification" else "feature"
    noise = NoiseConfig(**noise_doc)

    train_doc = dict(doc.get("train", {}))
    _check_keys(train_doc, _TRAIN_KEYS, "train")
    if "loss" not in train_doc:
        train_doc["loss"] = ("cross_entropy" if task == "classification"
                             else "squared_error")
    train = TrainConfig(**train_doc)

    strategy = validate_strategy(doc["strategy"])
    selector = doc.get("selector", "k_center")
    if selector not in METHODS:
        raise ConfigError(f"unknown selector {selector!r}; valid: {METHODS}")
    if strategy in ("entropy", "badge", "bald_mcdropout") and task != "classification":
        raise ConfigError(f"strategy {strategy!r} needs a classification task")

    seeds = list(doc["seeds"])
    if not seeds:
        raise ConfigError("seeds list must not be empty")

    return ExperimentConfig(
        dataset=dataset,
        model=model,
        strategy=strategy,
        cycles=int(doc["cycles"]),
        budget=int(doc["budget"]),
        initial_labeled=int(doc["initial_labeled"]),
        noise=noise,
        train=train,
        seeds=[int(s) for s in seeds],
        retrain_mode=doc.get("retrain_mode", "from_scratch"),
        selector=selector,
        seed_from_labeled=bool(doc.get("seed_from_labeled", False)),
        bald_samples=int(doc.get("bald_samples", 50)),
    )


def load_experiment_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    return experiment_from_dict(doc)


def resolved_dict(cfg: ExperimentConfig) -> dict:
    """Full config snapshot with every default filled in (JSON-ready)."""
    return {
        "dataset": dict(cfg.dataset),
        "model": dict(cfg.model),
        "strategy": cfg.strategy,
        "cycles": cfg.cycles,
        "budget": cfg.budget,
        "initial_labeled": cfg.initial_labeled,
        "noise": {"zeta": cfg.noise.zeta, "samplings": cfg.noise.samplings,
                  "seed": cfg.noise.seed, "tap": cfg.noise.tap,
                  "scope": cfg.noise.scope},
        "train": {"optimizer": cfg.train.optimizer, "lr": cfg.train.lr,
                  "momentum": cfg.train.momentum,
                  "weight_decay": cfg.train.weight_decay,
                  "beta1": cfg.train.beta1, "beta2": cfg.train.beta2,
                  "eps": cfg.train.eps, "epochs": cfg.train.epochs,
                  "batch_size": cfg.train.batch_size, "loss": cfg.train.loss,
                  "seed": cfg.train.seed},
        "seeds": list(cfg.seeds),
        "retrain_mode": cfg.retrain_mode,
        "selector": cfg.selector,
        "seed_from_labeled": cfg.seed_from_labeled,
        "bald_samples": cfg.bald_samples,
    }


def canonical_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def config_hash(cfg: ExperimentConfig) -> str:
    return hashlib.sha256(canonical_json(resolved_dict(cfg)).encode()).hexdigest()
