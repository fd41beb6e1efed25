"""Cycle orchestration: retrain, score, select, annotate, evaluate.

One run executes C cycles for one seed: train a model built afresh from the
run's init seed on the labeled pool, embed or score the unlabeled pool with
the configured strategy, move the selected batch into the labeled pool, and
evaluate on the held-out test split. Data split,
model init, training, and strategy randomness use independently derived
streams, so switching strategies never perturbs the data or the initial pool.
"""

import contextlib
import os
import time
import typing
from dataclasses import MISSING, asdict, dataclass, field, replace

import numpy as np

from . import baselines, data, nn, stability
from .exceptions import (ConfigError, DataError, InvalidStateError, NonFiniteError,
                         OutOfMemoryError, check_dimension, check_fields,
                         check_keys, check_type)
from .seeding import derive_seed, rng
from .selection import METHODS, SelectionRequest, select, top_scores

# the baselines, then the paper's method, whose picking rule is ``selector``
STRATEGIES = ("random", "entropy", "coreset", "badge", "bald_mcdropout",
              "noise_stability")
# Monte Carlo dropout passes per bald_mcdropout selection
BALD_SAMPLES = 50


@dataclass
class PoolState:
    """Which training-pool rows are labeled, as one mask. ``labeled`` and
    ``unlabeled`` are its index views: a partition of the pool by construction."""

    is_labeled: np.ndarray

    @classmethod
    def initial(cls, pool_size, initial_labeled, gen) -> "PoolState":
        if not 0 <= initial_labeled <= pool_size:
            raise ConfigError(f"initial_labeled {initial_labeled} not in [0, {pool_size}]")
        is_labeled = np.zeros(pool_size, dtype=bool)
        is_labeled[gen.choice(pool_size, size=initial_labeled, replace=False)] = True
        return cls(is_labeled)

    @property
    def labeled(self) -> np.ndarray:
        return np.flatnonzero(self.is_labeled)

    @property
    def unlabeled(self) -> np.ndarray:
        return np.flatnonzero(~self.is_labeled)

    def acquire(self, positions) -> list:
        """Labels ``unlabeled[positions]``; returns those rows as Python ints."""
        unlabeled = self.unlabeled
        positions = np.asarray(positions, dtype=np.intp)
        if np.any((positions < 0) | (positions >= len(unlabeled))):
            raise InvalidStateError("selected indices must come from the unlabeled pool")
        if len(set(positions.tolist())) != len(positions):
            raise InvalidStateError("selected indices must be distinct")
        picks = unlabeled[positions]
        self.is_labeled[picks] = True
        return picks.tolist()


@dataclass
class CycleReport:
    seed: int
    cycle: int
    labeled_size: int
    selected: list
    metric: float
    metric_kind: str
    loss_curve: list
    wall_time: float
    warnings: list = field(default_factory=list)

    def to_record(self) -> dict:
        """Serialized form for reports.jsonl: the fields in declared order are
        its keys in that order. wall_time is left out, so that the on-disk
        report is byte-identical across reruns of the same config and seeds."""
        record = asdict(self)
        del record["wall_time"]
        return record


@dataclass
class ModelConfig:
    """The MLP's hidden widths and its dropout rate, one Dropout after each
    hidden ReLU when the rate is above 0, so a rate above 0 needs a hidden
    layer."""

    hidden: list[int] = field(default_factory=lambda: [16])
    dropout: float = 0.0

    def __post_init__(self):
        check_fields(self, "model.")
        for i, width in enumerate(self.hidden):
            if width < 1:
                raise ConfigError(f"model.hidden[{i}] must be >= 1, got {width!r}")
            check_dimension(width, f"model.hidden[{i}]")
        if not 0 <= self.dropout < 1:
            raise ConfigError(f"model.dropout must be in [0, 1), got {self.dropout!r}")
        if self.dropout > 0 and not self.hidden:
            raise ConfigError("model.dropout must be 0 with no hidden layer (Dropout "
                              f"follows each hidden ReLU), got {self.dropout!r}")


@dataclass
class ExperimentConfig:
    """One experiment. The fields are the config schema: their names are the
    top-level keys, their annotations the JSON types, and their defaults the
    values of keys left out (a left-out model, noise or train section takes
    its own dataclass's defaults; ``DATASETS`` declares the dataset's keys).
    ``__post_init__`` checks each field's type (a section's by its class; it
    checks its own fields) and the whole dataset, fills in the dataset's
    defaults, sets the noise tap from the dataset's task (the predictive
    output for classification, the deep feature for regression) and holds
    every rule that spans fields, so a ``dataclasses.replace`` override is
    filled and checked as a load is."""

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
        check_fields(self)
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"unknown strategy {self.strategy!r}; "
                              f"valid strategies: {', '.join(STRATEGIES)}")
        if self.selector not in METHODS:
            raise ConfigError(f"unknown selector {self.selector!r}; valid: {METHODS}")
        self.dataset = check_dataset(self.dataset)
        task = DATASETS[self.dataset["kind"]].task
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
        if self.initial_labeled < 0:
            raise ConfigError(f"initial_labeled must be >= 0, got {self.initial_labeled!r}")
        if self.initial_labeled < 1 and self.train.epochs > 0:
            raise ConfigError("initial_labeled must be >= 1 when training runs")


class Key(typing.NamedTuple):
    """A dataset key: its JSON type, its default (``MISSING`` if required),
    its least value and why, whether it names a file that must exist, and
    whether numpy takes it as an array dimension."""

    type: type
    default: object = MISSING
    least: float | None = None
    why: str = ""
    file: bool = False
    dimension: bool = False


class DatasetKind(typing.NamedTuple):
    """A dataset kind: its task, its own keys in order, and the call that
    makes its examples from the dataset entry and a generator seed."""

    task: str
    keys: dict
    make: typing.Callable


# a stratified split needs two members of each class: blobs have
# n_per_class of each, and two_moons puts n // 2 in its smaller class
_SPLIT = " so that each class can be split"
_FILE = Key(str, file=True)
# the keys every kind takes, before its own
_COMMON_KEYS = {"kind": Key(str), "test_fraction": Key(float, 0.3)}
DATASETS = {
    "blobs": DatasetKind("classification", {
        "n_per_class": Key(int, least=2, why=_SPLIT, dimension=True),
        "classes": Key(int, least=2, dimension=True),
        "dim": Key(int, least=1, dimension=True), "centers_seed": Key(int, 0, least=0),
        "noise_std": Key(float, least=0), "center_scale": Key(float, 4.0, least=0)},
        lambda d, seed: data.gen_blobs(d["n_per_class"], d["classes"], d["dim"],
                                       d["centers_seed"], d["noise_std"], seed,
                                       center_scale=d["center_scale"])),
    "two_moons": DatasetKind("classification", {
        "n": Key(int, least=4, why=_SPLIT, dimension=True),
        "noise_std": Key(float, least=0)},
        lambda d, seed: data.gen_two_moons(d["n"], d["noise_std"], seed)),
    "linear_regression": DatasetKind("regression", {
        "n": Key(int, least=1, dimension=True),
        "dim": Key(int, least=1, dimension=True),
        "weight_seed": Key(int, 0, least=0), "noise_std": Key(float, least=0)},
        lambda d, seed: data.gen_linear_regression(d["n"], d["dim"], d["weight_seed"],
                                                   d["noise_std"], seed)),
    "idx": DatasetKind("classification", {"images": _FILE, "labels": _FILE},
                       lambda d, seed: data.load_idx(d["images"], d["labels"])),
    "csv": DatasetKind("regression", {"path": _FILE, "schema": Key(dict)},
                       lambda d, seed: data.load_csv_tabular(d["path"], d["schema"])),
}


def check_dataset(spec: dict) -> dict:
    """The dataset entry with its left-out keys' defaults appended; at load
    rather than once the run has started, ConfigError for an unknown kind, an
    unknown, missing or mistyped key, or a value the run could not use: out of
    range, naming no file, or a CSV column of an unknown kind."""
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in DATASETS:
        raise ConfigError(f"unknown dataset kind {kind!r}; "
                          f"valid kinds: {sorted(DATASETS)}")
    keys = {**_COMMON_KEYS, **DATASETS[kind].keys}
    check_keys(spec, keys, [name for name, key in keys.items()
                            if key.default is MISSING], "dataset")
    # the entry's keys in their order, then the defaults of the ones left out
    spec = {**spec, **{name: key.default for name, key in keys.items()
                       if name not in spec}}
    for name, key in keys.items():
        spec[name] = check_type(spec[name], key.type, f"dataset.{name}")
        if key.least is not None and spec[name] < key.least:
            raise ConfigError(f"dataset.{name} must be >= {key.least}{key.why}, "
                              f"got {spec[name]!r}")
        if key.dimension:
            check_dimension(spec[name], f"dataset.{name}")
        if key.file and not os.path.isfile(spec[name]):
            raise ConfigError(f"dataset.{name} names no file: {spec[name]!r}")
    for column, column_kind in spec.get("schema", {}).items():
        if column_kind not in data.SCHEMA_KINDS:
            raise ConfigError(f"dataset.schema[{column!r}] must be one of "
                              f"{', '.join(data.SCHEMA_KINDS)}, got {column_kind!r}")
    fraction = spec["test_fraction"]
    if not 0 < fraction < 1:
        raise ConfigError(f"dataset.test_fraction must be in (0, 1), got {fraction!r}")
    return spec


def build_dataset(spec: dict, run_seed: int):
    """Materialize (train_pool, test) for one run, CSV numeric columns z-scored.

    Generator noise and the split are derived from the run seed; geometry
    seeds (cluster centers, true regression weights) come from the dataset
    entry itself, so the task stays fixed across repeats.
    """
    ds = DATASETS[spec["kind"]].make(spec, derive_seed(run_seed, "data"))
    return data.standardize(*data.split(ds, spec["test_fraction"],
                                        derive_seed(run_seed, "split")))


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


def _embed(cfg, model, train_pool, pool_state, budget, run_seed, cycle):
    """Every model pass of the strategy over the unlabeled rows (phase embed):
    the noise-stability embedding, one forward pass's features or
    probabilities, or BALD's dropout passes; random runs none. Returns the
    select step bound to those outputs, a call that runs no model and returns
    the budget's picks as positions into ``pool_state.unlabeled``."""
    strategy_seed = derive_seed(run_seed, "strategy", cycle)
    if cfg.strategy == "random":
        n = len(pool_state.unlabeled)
        return lambda: baselines.select_random(n, budget, strategy_seed)
    x_u = train_pool.inputs[pool_state.unlabeled]
    if cfg.strategy == "entropy":
        _, probs = nn.forward(model, x_u)
        return lambda: baselines.select_entropy(probs, budget)
    if cfg.strategy == "coreset":
        x_l = train_pool.inputs[pool_state.labeled]
        feats, _ = nn.forward(model, np.vstack([x_u, x_l]))
        n = len(x_u)
        return lambda: baselines.select_coreset(feats[:n], feats[n:], budget)
    if cfg.strategy == "badge":
        feats, probs = nn.forward(model, x_u)
        return lambda: baselines.select_badge(feats, probs, budget, strategy_seed)
    if cfg.strategy == "bald_mcdropout":
        mc_probs = baselines.mc_dropout_probs(model, x_u, BALD_SAMPLES, strategy_seed)
        return lambda: top_scores(baselines.bald_scores(mc_probs), budget)
    noise_cfg = replace(cfg.noise, seed=derive_seed(run_seed, "noise", cycle))
    embeddings = stability.pool_embeddings(model, x_u, noise_cfg)
    return lambda: select(SelectionRequest(embeddings=embeddings, budget=budget,
                                           seed=strategy_seed, method=cfg.selector))


# what a non-finite value in training means; the after-training check says
# the same, so the phase reads alike however the value was caught
_TRAIN_NON_FINITE = "loss or parameters are NaN or infinite"


@contextlib.contextmanager
def _phase(run_seed, cycle, name, non_finite=None):
    """Run one phase of a cycle (train, evaluate, embed: the strategy's model
    passes, select: the picking on their outputs and ``acquire``) with
    numpy's overflow, invalid-operation and divide-by-zero raising, so a
    non-finite value stops the run where it arises. A ``FloatingPointError``
    becomes ``NonFiniteError`` (saying ``non_finite`` if given, else numpy's
    message), a ``MemoryError`` becomes ``OutOfMemoryError`` with numpy's
    message, and a ``NonFiniteError`` or ``InvalidStateError`` keeps its
    type; each is prefixed with "seed S, cycle C, phase P: ". Underflow
    stays ignored, and the selection screens and finiteness checks, which
    tolerate overflow by design, set their own state."""
    prefix = f"seed {run_seed}, cycle {cycle}, phase {name}: "
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            yield
    except FloatingPointError as exc:
        raise NonFiniteError(prefix + (non_finite or str(exc))) from exc
    except (NonFiniteError, InvalidStateError) as exc:
        raise type(exc)(prefix + str(exc)) from exc
    except MemoryError as exc:
        raise OutOfMemoryError(prefix + str(exc)) from exc


def run_single_seed(cfg: ExperimentConfig, run_seed: int):
    """All cycles for one seed; returns the per-cycle reports, picks as pool
    indices. Each phase runs under ``_phase``; ``_embed`` runs in embed and
    the select step it returns in select, so an error names the step it
    arose in."""
    train_pool, test = build_dataset(cfg.dataset, run_seed)
    pool_state = PoolState.initial(len(train_pool), cfg.initial_labeled,
                                   rng(run_seed, "init-pool"))
    init_seed = derive_seed(run_seed, "model-init")
    reports = []
    for cycle in range(1, cfg.cycles + 1):
        start = time.perf_counter()
        warnings = []
        model = build_model(cfg.model, train_pool.inputs.shape[1],
                            train_pool.task, train_pool.n_classes, init_seed)
        labeled_size = len(pool_state.labeled)
        train_cfg = replace(cfg.train, seed=derive_seed(run_seed, "train", cycle))
        with _phase(run_seed, cycle, "train", _TRAIN_NON_FINITE):
            curve = nn.train(model, (train_pool.inputs[pool_state.labeled],
                                     train_pool.targets[pool_state.labeled]),
                             train_cfg)
            if not (np.all(np.isfinite(curve))
                    and np.all(np.isfinite(nn.flatten_params(model)))):
                raise NonFiniteError(_TRAIN_NON_FINITE)
        metric_kind = "accuracy" if train_pool.task == "classification" else "mae"
        with _phase(run_seed, cycle, "evaluate"):
            metric = evaluate(model, test)
        budget = cfg.budget
        if budget > len(pool_state.unlabeled):
            budget = len(pool_state.unlabeled)
            warnings.append(f"budget clamped to {budget} remaining unlabeled examples")
        pick = list  # a zero budget runs no model pass and picks nothing
        if budget > 0:
            with _phase(run_seed, cycle, "embed"):
                pick = _embed(cfg, model, train_pool, pool_state, budget,
                              run_seed, cycle)
        with _phase(run_seed, cycle, "select"):
            picks = pool_state.acquire(pick())
        reports.append(CycleReport(
            seed=run_seed, cycle=cycle, labeled_size=labeled_size, selected=picks,
            metric=metric, metric_kind=metric_kind, loss_curve=curve,
            wall_time=time.perf_counter() - start, warnings=warnings))
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
