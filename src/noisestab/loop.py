"""Cycle orchestration: retrain, score, select, annotate, evaluate.

One run executes C cycles for one seed: train on the labeled pool, embed or
score the unlabeled pool with the configured strategy, move the selected batch
into the labeled pool, and evaluate on the held-out test split. Data split,
model init, training, and strategy randomness use independently derived
streams, so switching strategies never perturbs the data or the initial pool.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import baselines, data, nn, stability
from .exceptions import ConfigError, DataError, InvalidStateError, NonFiniteError
from .seeding import derive_seed, rng
from .selection import METHODS, SEEDED_METHODS, SelectionRequest, select

RETRAIN_MODES = ("from_scratch", "warm_start")


@dataclass
class PoolState:
    """Disjoint labeled/unlabeled index sets plus the per-cycle pick history."""

    labeled: list
    unlabeled: list
    history: list = field(default_factory=list)

    @classmethod
    def initial(cls, pool_size, initial_labeled, gen) -> "PoolState":
        if initial_labeled > pool_size:
            raise ConfigError("initial labeled size exceeds the pool")
        picks = sorted(int(i) for i in
                       gen.choice(pool_size, size=initial_labeled, replace=False))
        rest = sorted(set(range(pool_size)) - set(picks))
        return cls(labeled=picks, unlabeled=rest)

    def acquire(self, picks):
        picks = [int(i) for i in picks]
        unlabeled = set(self.unlabeled)
        if not set(picks) <= unlabeled:
            raise InvalidStateError("selected indices must come from the unlabeled pool")
        if len(set(picks)) != len(picks):
            raise InvalidStateError("selected indices must be distinct")
        self.history.append(picks)
        self.labeled = sorted(set(self.labeled) | set(picks))
        self.unlabeled = sorted(unlabeled - set(picks))

    def check_invariants(self, pool_size):
        labeled, unlabeled = set(self.labeled), set(self.unlabeled)
        assert not labeled & unlabeled, "labeled and unlabeled pools overlap"
        assert labeled | unlabeled == set(range(pool_size)), "pools do not cover the data"
        seen = [i for picks in self.history for i in picks]
        assert len(seen) == len(set(seen)), "an index was selected twice"


@dataclass
class CycleReport:
    cycle: int
    labeled_size: int
    selected: list
    metric: float
    metric_kind: str
    loss_curve: list
    wall_time: float
    seed: int
    warnings: list = field(default_factory=list)

    def to_record(self) -> dict:
        """Serialized form for reports.jsonl.

        wall_time is deliberately omitted: the on-disk report must be
        byte-identical across reruns of the same config and seeds.
        """
        return {
            "seed": self.seed,
            "cycle": self.cycle,
            "labeled_size": self.labeled_size,
            "selected": list(self.selected),
            "metric": self.metric,
            "metric_kind": self.metric_kind,
            "loss_curve": list(self.loss_curve),
            "warnings": list(self.warnings),
        }


@dataclass
class ExperimentConfig:
    """One experiment. The fields are the config schema: their names are the
    top-level keys, their annotations the JSON types, and their defaults the
    values of keys left out (a left-out noise or train section takes its own
    dataclass's defaults). ``__post_init__`` holds every rule that spans
    fields, so a ``dataclasses.replace`` override is checked as a load is."""

    dataset: dict
    model: dict
    strategy: str
    cycles: int
    budget: int
    initial_labeled: int
    noise: stability.NoiseConfig
    train: nn.TrainConfig
    seeds: list[int]
    retrain_mode: str = "from_scratch"
    selector: str = "k_center"
    seed_from_labeled: bool = False
    bald_samples: int = 50

    def __post_init__(self):
        baselines.validate_strategy(self.strategy)
        if self.selector not in METHODS:
            raise ConfigError(f"unknown selector {self.selector!r}; valid: {METHODS}")
        if self.retrain_mode not in RETRAIN_MODES:
            raise ConfigError(f"retrain_mode must be one of {RETRAIN_MODES}")
        task = dataset_task(self.dataset)
        if (self.strategy in ("entropy", "badge", "bald_mcdropout")
                and task != "classification"):
            raise ConfigError(f"strategy {self.strategy!r} needs a classification task")
        loss = "cross_entropy" if task == "classification" else "squared_error"
        if self.train.loss != loss:
            raise ConfigError(f"train.loss {self.train.loss!r} does not fit a "
                              f"{task} task; use {loss!r}")
        if (self.strategy == "bald_mcdropout"
                and not {**MODEL_DEFAULTS, **self.model}["dropout"] > 0):
            raise ConfigError("strategy 'bald_mcdropout' needs model.dropout > 0")
        if not self.seeds:
            raise ConfigError("seeds list must not be empty")
        if self.cycles < 1:
            raise ConfigError("cycles must be >= 1")
        if self.budget < 0:
            raise ConfigError("budget must be >= 0")
        if self.initial_labeled < 1 and self.train.epochs > 0:
            raise ConfigError("initial_labeled must be >= 1 when training runs")
        check_ranges(self.dataset, self.model)


# each dataset kind's task and its own keys, with their JSON types
DATASETS = {
    "blobs": ("classification", {"n_per_class": int, "classes": int, "dim": int,
                                 "centers_seed": int, "noise_std": float,
                                 "center_scale": float}),
    "two_moons": ("classification", {"n": int, "noise_std": float}),
    "linear_regression": ("regression", {"n": int, "dim": int, "weight_seed": int,
                                         "noise_std": float}),
    "idx": ("classification", {"images": str, "labels": str}),
    "csv": ("regression", {"path": str, "schema": dict}),
}
# the keys every kind takes
DATASET_COMMON_KEYS = {"kind": str, "test_fraction": float}
# values of the optional dataset keys; every other key is required
DATASET_DEFAULTS = {"test_fraction": 0.3, "centers_seed": 0, "center_scale": 4.0,
                    "weight_seed": 0}


def dataset_task(spec: dict) -> str:
    """The task of a dataset entry's kind; ConfigError for an unknown kind."""
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in DATASETS:
        raise ConfigError(f"unknown dataset kind {kind!r}; "
                          f"valid kinds: {sorted(DATASETS)}")
    return DATASETS[kind][0]


def build_dataset(spec: dict, run_seed: int):
    """Materialize (train_pool, test) for one run.

    Generator noise and the split are derived from the run seed; geometry
    seeds (cluster centers, true regression weights) come from the dataset
    entry itself, so the task stays fixed across repeats.
    """
    spec = {**DATASET_DEFAULTS, **spec}
    kind = spec["kind"]
    gen_seed = derive_seed(run_seed, "data")
    split_seed = derive_seed(run_seed, "split")
    if kind == "blobs":
        ds = data.gen_blobs(spec["n_per_class"], spec["classes"], spec["dim"],
                            spec["centers_seed"], spec["noise_std"], gen_seed,
                            center_scale=spec["center_scale"])
    elif kind == "two_moons":
        ds = data.gen_two_moons(spec["n"], spec["noise_std"], gen_seed)
    elif kind == "linear_regression":
        ds = data.gen_linear_regression(spec["n"], spec["dim"], spec["weight_seed"],
                                        spec["noise_std"], gen_seed)
    elif kind == "idx":
        ds = data.load_idx(spec["images"], spec["labels"])
    else:  # csv: ExperimentConfig admits only the kinds in DATASETS
        ds = data.load_csv_tabular(spec["path"], spec["schema"])
    train_pool, test = data.split(ds, spec["test_fraction"], split_seed)
    if kind == "csv":
        train_pool, test, _ = data.standardize(train_pool, test)
    return train_pool, test


# model keys with their JSON types, and the values of keys left out
MODEL_KEYS = {"hidden": list[int], "dropout": float}
MODEL_DEFAULTS = {"hidden": [16], "dropout": 0.0}


# the least value of each dataset key that has one: counts of examples and
# input dims, classes, scales and geometry seeds
DATASET_MINIMA = {"n_per_class": 1, "classes": 2, "dim": 1, "n": 1,
                  "noise_std": 0, "center_scale": 0, "centers_seed": 0,
                  "weight_seed": 0}
# the dataset keys that name an input file (idx images and labels, csv path)
DATASET_FILE_KEYS = ("images", "labels", "path")


def check_ranges(dataset: dict, model: dict):
    """Reject dataset and model values the run could not use, at load rather
    than once the run has started: out of range, or naming no file."""
    for key, least in DATASET_MINIMA.items():
        if dataset.get(key, least) < least:
            raise ConfigError(f"dataset.{key} must be >= {least}, got {dataset[key]!r}")
    for key in DATASET_FILE_KEYS:
        if key in dataset and not os.path.isfile(dataset[key]):
            raise ConfigError(f"dataset.{key} names no file: {dataset[key]!r}")
    fraction = {**DATASET_DEFAULTS, **dataset}["test_fraction"]
    if not 0 < fraction < 1:
        raise ConfigError(f"dataset.test_fraction must be in (0, 1), got {fraction!r}")
    model = {**MODEL_DEFAULTS, **model}
    for i, width in enumerate(model["hidden"]):
        if width < 1:
            raise ConfigError(f"model.hidden[{i}] must be >= 1, got {width!r}")
    if not 0 <= model["dropout"] < 1:
        raise ConfigError(f"model.dropout must be in [0, 1), got {model['dropout']!r}")


def check_initial_pool(cfg: ExperimentConfig):
    """ConfigError when initial_labeled exceeds the training pool, found
    before a run writes anything. The pool size follows from the dataset's
    class counts and test fraction, not from the run seed, so the first
    seed's split answers for every seed."""
    train_pool, _ = build_dataset(cfg.dataset, cfg.seeds[0])
    if cfg.initial_labeled > len(train_pool):
        raise ConfigError(f"initial_labeled {cfg.initial_labeled} exceeds the "
                          f"pool of {len(train_pool)} examples")


def build_model(spec: dict, input_dim, task, n_classes, seed) -> nn.MlpModel:
    spec = {**MODEL_DEFAULTS, **spec}
    output_dim = n_classes if task == "classification" else 1
    return nn.build_mlp(input_dim, list(spec["hidden"]), output_dim,
                        task=task, dropout=spec["dropout"], seed=seed)


def evaluate(model, test: data.Dataset, task) -> float:
    """Accuracy (argmax, ties to the lowest class) or mean absolute error."""
    if len(test) == 0:
        raise DataError("test set is empty")
    _, out = nn.forward(model, test.inputs)
    if task == "classification":
        pred = np.argmax(out, axis=1)
        return float(np.mean(pred == test.targets))
    if task == "regression":
        return float(np.mean(np.abs(out[:, 0] - test.targets)))
    raise ConfigError(f"unknown task {task!r}")


def _noise_strategy_picks(cfg, model, pool_x, labeled_x, budget, noise_seed,
                          strategy_seed):
    method = {"noise_stability": cfg.selector,
              "noise_stability_m": "top_magnitude",
              "noise_stability_d": "k_center_normalized"}[cfg.strategy]
    seeded = (cfg.seed_from_labeled and cfg.strategy == "noise_stability"
              and method in SEEDED_METHODS and len(labeled_x) > 0)
    # a row does not depend on the other rows of the call, so embedding the
    # labeled rows below the pool gives the bytes of a separate call
    rows = np.vstack([pool_x, labeled_x]) if seeded else pool_x
    matrix = stability.pool_embeddings(model, rows, replace(cfg.noise, seed=noise_seed))
    n = len(pool_x)
    req = SelectionRequest(embeddings=matrix[:n], budget=budget,
                           seeds_from_labeled=matrix[n:] if seeded else None,
                           seed=strategy_seed, method=method)
    return select(req)


def _strategy_picks(cfg, model, train_pool, pool_state, budget, run_seed, cycle):
    """Positions into the unlabeled list, mapped to global indices by caller."""
    strategy_seed = derive_seed(run_seed, "strategy", cycle)
    x_u = train_pool.inputs[pool_state.unlabeled]
    if cfg.strategy == "random":
        return baselines.select_random(len(pool_state.unlabeled), budget, strategy_seed)
    if cfg.strategy == "entropy":
        _, probs = nn.forward(model, x_u)
        return baselines.select_entropy(probs, budget)
    if cfg.strategy == "coreset":
        feats, _ = nn.forward(model, x_u)
        labeled_feats, _ = nn.forward(model, train_pool.inputs[pool_state.labeled])
        return baselines.select_coreset(feats, labeled_feats, budget, strategy_seed)
    if cfg.strategy == "badge":
        feats, probs = nn.forward(model, x_u)
        return baselines.select_badge(feats, probs, budget, strategy_seed)
    if cfg.strategy == "bald_mcdropout":
        return baselines.select_bald_mcdropout(model, x_u, cfg.bald_samples,
                                               budget, strategy_seed)
    noise_seed = derive_seed(run_seed, "noise", cycle)
    return _noise_strategy_picks(cfg, model, x_u,
                                 train_pool.inputs[pool_state.labeled],
                                 budget, noise_seed, strategy_seed)


def run_single_seed(cfg: ExperimentConfig, run_seed: int):
    """All cycles for one seed; returns the per-cycle reports."""
    train_pool, test = build_dataset(cfg.dataset, run_seed)
    pool_state = PoolState.initial(len(train_pool), cfg.initial_labeled,
                                   rng(run_seed, "init-pool"))
    init_seed = derive_seed(run_seed, "model-init")
    model = None
    reports = []
    for cycle in range(1, cfg.cycles + 1):
        start = time.perf_counter()
        warnings = []
        if not pool_state.labeled and cfg.train.epochs > 0:
            raise ConfigError("labeled pool is empty at training time")
        if model is None or cfg.retrain_mode == "from_scratch":
            model = build_model(cfg.model, train_pool.inputs.shape[1],
                                train_pool.task, train_pool.n_classes, init_seed)
        labeled_size = len(pool_state.labeled)
        train_cfg = replace(cfg.train, seed=derive_seed(run_seed, "train", cycle))
        curve = nn.train(model, (train_pool.inputs[pool_state.labeled],
                                 train_pool.targets[pool_state.labeled]), train_cfg)
        if not (np.all(np.isfinite(curve))
                and np.all(np.isfinite(nn.flatten_params(model)))):
            raise NonFiniteError(f"seed {run_seed}, cycle {cycle}, phase train: "
                                 "loss or parameters are NaN or infinite")
        metric_kind = "accuracy" if train_pool.task == "classification" else "mae"
        metric = evaluate(model, test, train_pool.task)
        budget = cfg.budget
        if budget > len(pool_state.unlabeled):
            budget = len(pool_state.unlabeled)
            warnings.append(f"budget clamped to {budget} remaining unlabeled examples")
        if budget > 0:
            try:
                positions = _strategy_picks(cfg, model, train_pool, pool_state,
                                            budget, run_seed, cycle)
            except NonFiniteError as exc:
                raise NonFiniteError(
                    f"seed {run_seed}, cycle {cycle}, phase embed: {exc}") from exc
            picks = [pool_state.unlabeled[p] for p in positions]
        else:
            picks = []
        try:
            pool_state.acquire(picks)
        except InvalidStateError as exc:
            raise InvalidStateError(
                f"seed {run_seed}, cycle {cycle}, phase select: {exc}") from exc
        pool_state.check_invariants(len(train_pool))
        reports.append(CycleReport(
            cycle=cycle, labeled_size=labeled_size, selected=picks,
            metric=metric, metric_kind=metric_kind, loss_curve=curve,
            wall_time=time.perf_counter() - start, seed=run_seed,
            warnings=warnings))
    return reports


def run_active_learning(cfg: ExperimentConfig):
    """Runs every configured seed sequentially; returns a list of per-seed
    report lists (seeds are independent and could run as separate processes)."""
    return [run_single_seed(cfg, seed) for seed in cfg.seeds]


def aggregate_runs(per_seed_reports):
    """Per-cycle mean and population standard deviation of the metric."""
    if not per_seed_reports:
        raise DataError("no runs to aggregate")
    cycle_counts = {len(reports) for reports in per_seed_reports}
    if len(cycle_counts) != 1:
        raise DataError(f"runs disagree on cycle count: {sorted(cycle_counts)}")
    rows = []
    for i in range(cycle_counts.pop()):
        cycle_reports = [reports[i] for reports in per_seed_reports]
        labeled_sizes = {r.labeled_size for r in cycle_reports}
        if len(labeled_sizes) != 1:
            raise DataError("runs disagree on labeled pool size per cycle")
        metrics = np.asarray([r.metric for r in cycle_reports])
        rows.append({
            "cycle": cycle_reports[0].cycle,
            "labeled_size": cycle_reports[0].labeled_size,
            "metric_mean": float(metrics.mean()),
            "metric_std": float(metrics.std()),
            "n_seeds": len(cycle_reports),
        })
    return rows
