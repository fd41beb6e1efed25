"""A config that builds either runs to the end with finite records or stops
with a typed error.

The configs are drawn from the declarations themselves: the generator kinds
of ``loop.DATASETS`` with their keys' least values, and the fields of
``ModelConfig``, ``NoiseConfig``, ``TrainConfig`` and ``ExperimentConfig``.
Sizes are tiny (pools of at most 40 rows, at most 2 cycles and 5 epochs), and
up to two keys take an edge value: 0, the least value, 1e-300 or 1e300 for a
number, a string no field takes, an empty list. A RuntimeWarning fails the
test too: the suite turns warnings into errors.
"""

import dataclasses
import json
import typing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisestab import config, loop, selection
from noisestab.config import experiment_from_dict
from noisestab.exceptions import ConfigError, NoiseStabError

# the generator kinds; idx and csv read files, which their own tests cover
GENERATED = ("blobs", "two_moons", "linear_regression")
EDGES = (0, 1e-300, 1e300)
# the largest in-range draw of each size, so a pool holds at most 40 rows:
# blobs 4 classes of 10, the other kinds n of 40
TINY = {"n_per_class": 10, "classes": 4, "n": 40, "dim": 3, "hidden": 4,
        "samplings": 6, "epochs": 5, "batch_size": 40, "cycles": 2,
        "budget": 12, "initial_labeled": 12, "seeds": 3}
# the valid values of each string field; NOT_A_CHOICE is valid for none
CHOICES = {"strategy": loop.STRATEGIES, "selector": selection.METHODS,
           "optimizer": ("adam",)}
NOT_A_CHOICE = "none"


def in_range(kind, name, least):
    """Tiny in-range draws of a declared type: ints from 1 (or a larger least
    value) up to ``TINY[name]``, floats strictly between 0 (or the least
    value) and 1, strings from ``CHOICES``, and lists of one or two distinct
    such items. Zero, the least value and an empty list are edges."""
    if typing.get_origin(kind) is list:
        (item,) = typing.get_args(kind)
        return st.lists(in_range(item, name, least), min_size=1, max_size=2,
                        unique=True)
    if kind is str:
        return st.sampled_from(CHOICES[name])
    if kind is int:
        low = max(1, least or 0)
        return st.integers(low, max(low, TINY.get(name, 3)))
    return st.floats(least or 0, 1, exclude_min=True, exclude_max=True)


def edges(kind, least):
    """The edge values of a declared type: 0, 1e-300, 1e300 and the least
    value for a number, a string no field takes, for a list the empty list
    and a list of one edge."""
    if typing.get_origin(kind) is list:
        return [[]] + [[value] for value in edges(typing.get_args(kind)[0], least)]
    if kind is str:
        return [NOT_A_CHOICE]
    return list(EDGES) + ([] if least is None else [least])


@st.composite
def experiment(draw, strategy, selector):
    """A config document for ``strategy`` and ``selector``: a generator
    kind, then each other declared key of the dataset and of
    ``ExperimentConfig`` and its sections left out where it has a default or
    drawn in range, then up to two keys set to an edge value, so that most
    drawn configs build."""
    generator = draw(st.sampled_from(GENERATED))
    # (section or None, key) -> (declared type, least value, has a default)
    slots = {("dataset", name): (key.type, key.least,
                                 key.default is not dataclasses.MISSING)
             for name, key in {**loop._COMMON_KEYS,
                               **loop.DATASETS[generator].keys}.items()
             if name != "kind"}
    for f in dataclasses.fields(loop.ExperimentConfig):
        if not dataclasses.is_dataclass(f.type):
            if f.name != "dataset":
                slots[None, f.name] = (f.type, None, f.default is not
                                       dataclasses.MISSING)
            continue
        for g in dataclasses.fields(f.type):
            if g.name not in config._DERIVED:
                slots[f.name, g.name] = (g.type, None, True)
    values = {(None, "strategy"): strategy, (None, "selector"): selector}
    for slot, (kind, least, optional) in slots.items():
        if slot in values:
            continue
        if not optional or draw(st.booleans()):
            values[slot] = draw(in_range(kind, slot[1], least))
    for slot in draw(st.lists(st.sampled_from(sorted(slots, key=str)),
                              max_size=2, unique=True)):
        kind, least, _ = slots[slot]
        values[slot] = draw(st.sampled_from(edges(kind, least)))
    doc = {"dataset": {"kind": generator}}
    for (where, name), value in values.items():
        if where is None:
            doc[name] = value
        else:
            doc.setdefault(where, {})[name] = value
    return doc


def run(doc):
    """What ``noisestab run`` does with a config document, without the files:
    build it (ConfigError), check the initial pool, run every seed and
    aggregate the curve. Returns each record and curve row as JSON that
    refuses a NaN or an infinity."""
    cfg = experiment_from_dict(doc)
    loop.check_initial_pool(cfg)
    per_seed = loop.run_active_learning(cfg)
    return ([json.dumps(r.to_record(), allow_nan=False)
             for reports in per_seed for r in reports]
            + [json.dumps(row, allow_nan=False)
               for row in loop.aggregate_runs(per_seed)])


# every baseline at the default selector, and the paper's method at each
ARMS = ([(strategy, "k_center") for strategy in loop.STRATEGIES
         if strategy != "noise_stability"]
        + [("noise_stability", selector) for selector in selection.METHODS])


class TestDrawnConfigs:
    @pytest.mark.parametrize("strategy,selector", ARMS)
    @given(data=st.data())
    @settings(max_examples=50)
    def test_builds_and_runs_cleanly_or_raises_a_typed_error(self, strategy,
                                                              selector, data):
        doc = data.draw(experiment(strategy, selector))
        try:
            experiment_from_dict(doc)
        except ConfigError:
            return
        try:
            lines = run(doc)
        except NoiseStabError:
            return
        # a record per seed and cycle, and a curve row per cycle
        assert len(lines) == (len(doc["seeds"]) + 1) * doc["cycles"]
