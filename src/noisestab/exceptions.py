"""Exception types shared across the package, and the JSON type checks of
config values, which every config dataclass runs on its own fields."""

import math
import typing
from dataclasses import fields

import numpy as np


class NoiseStabError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(NoiseStabError, ValueError):
    """Shape or length of an array does not match what an operation requires."""


class InvalidStateError(NoiseStabError, RuntimeError):
    """An operation was called on an object in a state that cannot support it."""


class DataError(NoiseStabError, ValueError):
    """A dataset, file, or value fails a content-level validation."""


class NonFiniteError(DataError):
    """A computed value is NaN or infinite, e.g. after training diverged."""


class FormatError(DataError):
    """A binary or text file does not conform to its declared format."""


class ConfigError(NoiseStabError, ValueError):
    """An experiment configuration or request is invalid."""


class OutOfMemoryError(NoiseStabError, MemoryError):
    """An array a run needs could not be allocated."""


def all_finite(a):
    """Whether every entry of the float array ``a`` is finite, told by one
    ``np.add.reduce`` over all entries, with no temporary of ``a``'s shape: a
    NaN or an infinity always makes that sum non-finite. Only when it is not
    finite does the entrywise ``np.isfinite`` check run, which tells a finite
    array whose sum overflows apart. Overflow is ignored here, also under a
    caller's ``np.errstate`` that raises on it."""
    with np.errstate(over="ignore", invalid="ignore"):
        total = np.add.reduce(a, axis=None)
    return bool(np.isfinite(total)) or bool(np.isfinite(a).all())


_JSON_NAMES = {int: "JSON integer", float: "JSON number", str: "JSON string",
               list: "JSON list", dict: "JSON object"}


def check_type(value, kind, name):
    """The value, checked against its declared JSON type, so "15", 2.7 or
    true never load as a different value. A float takes any finite JSON
    number (``json`` reads NaN and Infinity too) and returns it as a float,
    so 1 and 1.0 load alike; nothing takes a bool, ``list[int]`` checks each
    entry, and a section only its dataclass."""
    base = typing.get_origin(kind) or kind
    ok = isinstance(value, (int, float) if base is float else base)
    if not ok or isinstance(value, bool):
        what = _JSON_NAMES.get(base) or f"{name} section ({base.__name__})"
        raise ConfigError(f"{name} must be a {what}, got {value!r}")
    if base is float:
        try:
            value = float(value)
        except OverflowError:
            raise ConfigError(f"{name} must be a finite number, got an integer "
                              "too large for a float") from None
        if not math.isfinite(value):
            raise ConfigError(f"{name} must be a finite number, got {value!r}")
    for item_kind in typing.get_args(kind):
        value = [check_type(item, item_kind, f"{name}[{i}]")
                 for i, item in enumerate(value)]
    return value


def check_dimension(value, name):
    """Reject a size above 2**63 - 1, the int64 maximum and so the largest
    array dimension numpy takes, so that it fails at load rather than
    mid-run. A size within the bound can still be too large to allocate."""
    if value > 2 ** 63 - 1:
        raise ConfigError(f"{name} must be <= 2**63 - 1, the largest array "
                          f"dimension numpy takes, got {value!r}")


def check_fields(config, prefix=""):
    """``check_type`` each field of a config dataclass, named ``prefix`` + its
    name, against its annotation (a class: annotations are not postponed),
    and store the value it returns."""
    for f in fields(config):
        setattr(config, f.name,
                check_type(getattr(config, f.name), f.type, prefix + f.name))


def check_keys(doc, known, required, where):
    """Reject a section that is not a JSON object, or that has a key not in
    ``known`` or lacks one in ``required``."""
    check_type(doc, dict, where)
    unknown = set(doc) - set(known)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {sorted(unknown)}")
    for key in required:
        if key not in doc:
            raise ConfigError(f"{where} is missing required key {key!r}")
