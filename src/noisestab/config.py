"""Experiment configuration: one JSON document per run.

The file is the reproducibility unit: its resolved snapshot (defaults filled
in) plus the tool version determine every byte of the run's outputs. Flags may
override fields but never extend the schema; unknown keys are rejected.

Keys, JSON types and defaults are read from the ``ExperimentConfig``,
``ModelConfig``, ``NoiseConfig`` and ``TrainConfig`` fields; only the dataset
is still a table, ``DATASETS`` in ``loop``. Nothing here declares them again.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
import math
import typing

from .exceptions import ConfigError
from .loop import (DATASET_COMMON_KEYS, DATASET_DEFAULTS, DATASETS,
                   ExperimentConfig, dataset_task)

# noise and training seeds are derived per run seed and cycle, and the noise
# tap follows the dataset's task, so none of them is settable
_DERIVED = ("seed", "tap")
_JSON_NAMES = {int: "integer", float: "number", str: "string", list: "list",
               dict: "object"}


def _schema(cls):
    """A dataclass's settable keys with their types, and its required keys:
    those without a default or default factory, except the sections (model,
    noise, train), whose keys all have defaults."""
    hints = typing.get_type_hints(cls)
    fields = [f for f in dataclasses.fields(cls) if f.name not in _DERIVED]
    return ({f.name: hints[f.name] for f in fields},
            [f.name for f in fields if f.default is dataclasses.MISSING
             and f.default_factory is dataclasses.MISSING
             and not dataclasses.is_dataclass(hints[f.name])])


_TOP_SCHEMA, _TOP_REQUIRED = _schema(ExperimentConfig)
# a dataclass section is a JSON object, checked against its own dataclass
_SECTIONS = {name: kind for name, kind in _TOP_SCHEMA.items()
             if dataclasses.is_dataclass(kind)}
_TOP_SCHEMA.update(dict.fromkeys(_SECTIONS, dict))


def _check_type(value, kind, name):
    """Reject a value that is not of its declared JSON type, so "15", 2.7 or
    true never load as a different value. A float key takes any finite
    JSON number (``json`` reads NaN and Infinity too), no key takes a bool
    (nor reads one as a number), and ``list[int]`` checks each entry."""
    base = typing.get_origin(kind) or kind
    ok = isinstance(value, (int, float) if base is float else base)
    if not ok or isinstance(value, bool):
        raise ConfigError(f"{name} must be a JSON {_JSON_NAMES[base]}, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    for item_kind in typing.get_args(kind):
        for i, item in enumerate(value):
            _check_type(item, item_kind, f"{name}[{i}]")


def _check_section(doc, schema, required, where):
    """Reject a section with an unknown or missing key, or a mistyped value."""
    _check_type(doc, dict, where)
    unknown = set(doc) - set(schema)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {sorted(unknown)}")
    for key in required:
        if key not in doc:
            raise ConfigError(f"{where} is missing required key {key!r}")
    for key, value in doc.items():
        _check_type(value, schema[key], key if where == "config" else f"{where}.{key}")


def experiment_from_dict(doc: dict) -> ExperimentConfig:
    _check_section(doc, _TOP_SCHEMA, _TOP_REQUIRED, "config")
    doc = copy.deepcopy(doc)
    dataset = doc["dataset"]
    dataset_task(dataset)  # ConfigError for an unknown kind
    keys = DATASETS[dataset["kind"]][1]
    _check_section(dataset, {**DATASET_COMMON_KEYS, **keys},
                   [key for key in keys if key not in DATASET_DEFAULTS], "dataset")
    for name, section in _SECTIONS.items():
        fields = doc.get(name, {})
        _check_section(fields, *_schema(section), name)
        doc[name] = section(**fields)
    return ExperimentConfig(**doc)


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
    doc = dataclasses.asdict(cfg)
    for name in _SECTIONS:
        for key in _DERIVED:
            doc[name].pop(key, None)
    return doc


def canonical_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def config_hash(cfg: ExperimentConfig) -> str:
    return hashlib.sha256(canonical_json(resolved_dict(cfg)).encode()).hexdigest()
