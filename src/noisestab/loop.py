"""Cycle orchestration: retrain, score, select, annotate, evaluate.

One run executes C cycles for one seed: train a model built afresh from the
run's init seed on the labeled pool, embed or score the unlabeled pool with
the configured strategy, move the selected batch into the labeled pool, and
evaluate on the held-out test split. Data split,
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
from .selection import METHODS, SelectionRequest, select

# the baselines, then the paper's method, whose picking rule is ``selector``
STRATEGIES = ("random", "entropy", "coreset", "badge", "bald_mcdropout",
              "noise_stability")
# Monte Carlo dropout passes per bald_mcdropout selection
BALD_SAMPLES = 50


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
class ModelConfig:
    """The MLP's hidden widths and its dropout rate, one Dropout after each
    hidden ReLU when the rate is above 0."""

    hidden: list[int] = field(default_factory=lambda: [16])
    dropout: float = 0.0

    def __post_init__(self):
        for i, width in enumerate(self.hidden):
            if width < 1:
                raise ConfigError(f"model.hidden[{i}] must be >= 1, got {width!r}")
        if not 0 <= self.dropout < 1:
            raise ConfigError(f"model.dropout must be in [0, 1), got {self.dropout!r}")


@dataclass
class ExperimentConfig:
    """One experiment. The fields are the config schema: their names are the
    top-level keys, their annotations the JSON types, and their defaults the
    values of keys left out (a left-out model, noise or train section takes
    its own dataclass's defaults; only the dataset is still a table).
    ``__post_init__`` fills in the dataset defaults, sets the noise tap from
    the dataset's task (the predictive output for classification, the deep
    feature for regression) and holds every rule that spans fields, so a
    ``dataclasses.replace`` override is filled and checked as a load is."""

    dataset: dict
    model: ModelConfig
    strategy: str
    cycles: int
    budget: int
    initial_labeled: int
    noise: stability.NoiseConfig
    train: nn.TrainConfig
    seeds: list[int]
    selector: str = "k_center"

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"unknown strategy {self.strategy!r}; "
                              f"valid strategies: {', '.join(STRATEGIES)}")
        if self.selector not in METHODS:
            raise ConfigError(f"unknown selector {self.selector!r}; valid: {METHODS}")
        task = dataset_task(self.dataset)
        # the file's keys in their order, then the defaults of the ones left out
        own = {**DATASET_COMMON_KEYS, **DATASETS[self.dataset["kind"]][1]}
        self.dataset = {**self.dataset, **{
            key: value for key, value in DATASET_DEFAULTS.items()
            if key in own and key not in self.dataset}}
        tap = nn.TAP_PREDICTIVE if task == "classification" else nn.TAP_FEATURE
        self.noise = replace(self.noise, tap=tap)
        if (self.strategy in ("entropy", "badge", "bald_mcdropout")
                and task != "classification"):
            raise ConfigError(f"strategy {self.strategy!r} needs a classification task")
        if self.strategy == "bald_mcdropout" and not self.model.dropout > 0:
            raise ConfigError("strategy 'bald_mcdropout' needs model.dropout > 0")
        if not self.seeds:
            raise ConfigError("seeds list must not be empty")
        # ``seeding`` takes a seed as it is (numpy rejects a negative one), and
        # a repeat would run a seed twice and count it twice
        for i, seed in enumerate(self.seeds):
            if not 0 <= seed < 2 ** 64:
                raise ConfigError(f"seeds[{i}] must be in [0, 2**64), got {seed!r}")
            if seed in self.seeds[:i]:
                raise ConfigError(f"seeds[{i}] repeats seed {seed!r}")
        if self.cycles < 1:
            raise ConfigError("cycles must be >= 1")
        if self.budget < 0:
            raise ConfigError("budget must be >= 0")
        if self.initial_labeled < 1 and self.train.epochs > 0:
            raise ConfigError("initial_labeled must be >= 1 when training runs")
        check_ranges(self.dataset)


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
        train_pool, test = data.standardize(train_pool, test)
    return train_pool, test


# the least value of each dataset key that has one: counts of examples and
# input dims, classes, scales and geometry seeds
DATASET_MINIMA = {"n_per_class": 1, "classes": 2, "dim": 1, "n": 1,
                  "noise_std": 0, "center_scale": 0, "centers_seed": 0,
                  "weight_seed": 0}
# a stratified split needs two members of each class: blobs have
# n_per_class of each, and two_moons puts n // 2 in its smaller class
DATASET_SPLIT_MINIMA = {"blobs": {"n_per_class": 2}, "two_moons": {"n": 4}}
# the dataset keys that name an input file (idx images and labels, csv path)
DATASET_FILE_KEYS = ("images", "labels", "path")


def check_ranges(dataset: dict):
    """Reject dataset values the run could not use, at load rather than once
    the run has started: out of range, naming no file, or a CSV column of an
    unknown kind."""
    for key, least in DATASET_MINIMA.items():
        if dataset.get(key, least) < least:
            raise ConfigError(f"dataset.{key} must be >= {least}, got {dataset[key]!r}")
    for key, least in DATASET_SPLIT_MINIMA.get(dataset["kind"], {}).items():
        if dataset.get(key, least) < least:
            raise ConfigError(f"dataset.{key} must be >= {least} so that each "
                              f"class can be split, got {dataset[key]!r}")
    for key in DATASET_FILE_KEYS:
        if key in dataset and not os.path.isfile(dataset[key]):
            raise ConfigError(f"dataset.{key} names no file: {dataset[key]!r}")
    for column, kind in dataset.get("schema", {}).items():
        if kind not in data.SCHEMA_KINDS:
            raise ConfigError(f"dataset.schema[{column!r}] must be one of "
                              f"{', '.join(data.SCHEMA_KINDS)}, got {kind!r}")
    fraction = dataset["test_fraction"]
    if not 0 < fraction < 1:
        raise ConfigError(f"dataset.test_fraction must be in (0, 1), got {fraction!r}")


def check_initial_pool(cfg: ExperimentConfig):
    """ConfigError, found before a run writes anything, when initial_labeled
    exceeds the training pool or the test split is empty. Neither size depends
    on the run seed, so the first seed's split answers for every seed."""
    train_pool, test = build_dataset(cfg.dataset, cfg.seeds[0])
    if len(test) == 0:
        fraction = cfg.dataset["test_fraction"]
        raise ConfigError(f"dataset.test_fraction {fraction!r} leaves no test "
                          f"example out of {len(train_pool)}")
    if cfg.initial_labeled > len(train_pool):
        raise ConfigError(f"initial_labeled {cfg.initial_labeled} exceeds the "
                          f"pool of {len(train_pool)} examples")


def build_model(spec: ModelConfig, input_dim, task, n_classes, seed) -> nn.MlpModel:
    output_dim = n_classes if task == "classification" else 1
    return nn.build_mlp(input_dim, spec.hidden, output_dim,
                        task=task, dropout=spec.dropout, seed=seed)


def evaluate(model, test: data.Dataset) -> float:
    """Accuracy (argmax, ties to the lowest class) on a classification test
    set, mean absolute error on a regression one."""
    if len(test) == 0:
        raise DataError("test set is empty")
    _, out = nn.forward(model, test.inputs)
    if test.task == "classification":
        pred = np.argmax(out, axis=1)
        return float(np.mean(pred == test.targets))
    return float(np.mean(np.abs(out[:, 0] - test.targets)))


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
        x_l = train_pool.inputs[pool_state.labeled]
        feats, _ = nn.forward(model, np.vstack([x_u, x_l]))
        n = len(x_u)
        return baselines.select_coreset(feats[:n], feats[n:], budget)
    if cfg.strategy == "badge":
        feats, probs = nn.forward(model, x_u)
        return baselines.select_badge(feats, probs, budget, strategy_seed)
    if cfg.strategy == "bald_mcdropout":
        return baselines.select_bald_mcdropout(model, x_u, BALD_SAMPLES,
                                               budget, strategy_seed)
    noise_cfg = replace(cfg.noise, seed=derive_seed(run_seed, "noise", cycle))
    return select(SelectionRequest(
        embeddings=stability.pool_embeddings(model, x_u, noise_cfg),
        budget=budget, seed=strategy_seed, method=cfg.selector))


def run_single_seed(cfg: ExperimentConfig, run_seed: int):
    """All cycles for one seed; returns the per-cycle reports."""
    train_pool, test = build_dataset(cfg.dataset, run_seed)
    pool_state = PoolState.initial(len(train_pool), cfg.initial_labeled,
                                   rng(run_seed, "init-pool"))
    init_seed = derive_seed(run_seed, "model-init")
    reports = []
    for cycle in range(1, cfg.cycles + 1):
        start = time.perf_counter()
        warnings = []
        if not pool_state.labeled and cfg.train.epochs > 0:
            raise ConfigError("labeled pool is empty at training time")
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
        metric = evaluate(model, test)
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
