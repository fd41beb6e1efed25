"""Experiment configuration: one JSON document per run.

The file is the reproducibility unit: its resolved snapshot (defaults filled
in) plus the tool version determine every byte of the run's outputs. Flags may
override fields but never extend the schema; unknown keys are rejected.

Keys and defaults are read from the ``ExperimentConfig``, ``ModelConfig``,
``NoiseConfig`` and ``TrainConfig`` fields and from ``loop.DATASETS``;
nothing here declares them again. The loader checks only the keys of the
document and of its sections; each config dataclass checks the JSON types
and ranges of its own fields when it is built, and ``ExperimentConfig`` the
dataset, so a ``dataclasses.replace``d config is checked as a load is.
"""

import copy
import dataclasses
import hashlib
import json

from .exceptions import ConfigError, check_keys
from .loop import ExperimentConfig

# noise and training seeds are derived per run seed and cycle, and the noise
# tap follows the dataset's task, so none of them is settable
_DERIVED = ("seed", "tap")


def _keys(cls):
    """A dataclass's settable keys, and its required keys: those without a
    default or default factory, except the sections (model, noise, train),
    whose keys all have defaults."""
    fields = [f for f in dataclasses.fields(cls) if f.name not in _DERIVED]
    return ([f.name for f in fields],
            [f.name for f in fields if f.default is dataclasses.MISSING
             and f.default_factory is dataclasses.MISSING
             and not dataclasses.is_dataclass(f.type)])


_TOP_KEYS, _TOP_REQUIRED = _keys(ExperimentConfig)
# a dataclass section is a JSON object of its own dataclass's keys
_SECTIONS = {f.name: f.type for f in dataclasses.fields(ExperimentConfig)
             if dataclasses.is_dataclass(f.type)}


def experiment_from_dict(doc: dict) -> ExperimentConfig:
    check_keys(doc, _TOP_KEYS, _TOP_REQUIRED, "config")
    doc = copy.deepcopy(doc)
    for name, section in _SECTIONS.items():
        fields = doc.get(name, {})
        check_keys(fields, *_keys(section), name)
        doc[name] = section(**fields)
    return ExperimentConfig(**doc)


def load_experiment_config(path) -> ExperimentConfig:
    def unique_keys(pairs):
        # ``json`` keeps the last of a repeated key; a config must not repeat one
        doc = {}
        for key, value in pairs:
            if key in doc:
                raise ConfigError(f"config file {path} repeats key {key!r}")
            doc[key] = value
        return doc

    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh, object_pairs_hook=unique_keys)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except OSError as exc:  # a directory, say, or a file it may not read
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise ConfigError(f"config file {path} is not UTF-8 text") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    return experiment_from_dict(doc)


def resolved_dict(cfg: ExperimentConfig) -> dict:
    """Full config snapshot with every default filled in (JSON-ready)."""
    doc = dataclasses.asdict(cfg)
    for name in _SECTIONS:
        for key in _DERIVED:
            doc[name].pop(key, None)
    return doc


def config_hash(cfg: ExperimentConfig) -> str:
    canonical = json.dumps(resolved_dict(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()
