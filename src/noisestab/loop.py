"""Cycle orchestration: retrain, score, select, annotate, evaluate.

One run executes C cycles for one seed: train on the labeled pool, embed or
score the unlabeled pool with the configured strategy, move the selected batch
into the labeled pool, and evaluate on the held-out test split. Data split,
model init, training, and strategy randomness use independently derived
streams, so switching strategies never perturbs the data or the initial pool.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import baselines, data, nn, stability
from .exceptions import ConfigError, DataError, InvalidStateError, NonFiniteError
from .seeding import derive_seed, rng
from .selection import SelectionRequest, select

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
    dataset: dict
    model: dict
    strategy: str
    cycles: int
    budget: int
    initial_labeled: int
    noise: stability.NoiseConfig
    train: nn.TrainConfig
    seeds: list
    retrain_mode: str = "from_scratch"
    selector: str = "k_center"
    seed_from_labeled: bool = False
    bald_samples: int = 50

    def __post_init__(self):
        baselines.validate_strategy(self.strategy)
        if self.cycles < 1:
            raise ConfigError("cycles must be >= 1")
        if self.budget < 0:
            raise ConfigError("budget must be >= 0")
        if self.initial_labeled < 1 and self.train.epochs > 0:
            raise ConfigError("initial_labeled must be >= 1 when training runs")
        if self.retrain_mode not in RETRAIN_MODES:
            raise ConfigError(f"retrain_mode must be one of {RETRAIN_MODES}")


def build_dataset(spec: dict, run_seed: int):
    """Materialize (train_pool, test) for one run.

    Generator noise and the split are derived from the run seed; geometry
    seeds (cluster centers, true regression weights) come from the dataset
    entry itself, so the task stays fixed across repeats.
    """
    kind = spec.get("kind")
    gen_seed = derive_seed(run_seed, "data")
    split_seed = derive_seed(run_seed, "split")
    test_fraction = spec.get("test_fraction", 0.3)
    if kind == "blobs":
        ds = data.gen_blobs(spec["n_per_class"], spec["classes"], spec["dim"],
                            spec.get("centers_seed", 0), spec["noise_std"], gen_seed,
                            center_scale=spec.get("center_scale", 4.0))
    elif kind == "two_moons":
        ds = data.gen_two_moons(spec["n"], spec["noise_std"], gen_seed)
    elif kind == "linear_regression":
        ds = data.gen_linear_regression(spec["n"], spec["dim"],
                                        spec.get("weight_seed", 0),
                                        spec["noise_std"], gen_seed)
    elif kind == "idx":
        ds = data.load_idx(spec["images"], spec["labels"])
    elif kind == "csv":
        ds = data.load_csv_tabular(spec["path"], spec["schema"])
    else:
        raise ConfigError(f"unknown dataset kind {kind!r}")
    train_pool, test = data.split(ds, test_fraction, split_seed)
    if kind == "csv":
        train_pool, test, _ = data.standardize(train_pool, test)
    return train_pool, test


def build_model(spec: dict, input_dim, task, n_classes, seed) -> nn.MlpModel:
    output_dim = n_classes if task == "classification" else 1
    return nn.build_mlp(input_dim, list(spec.get("hidden", [16])), output_dim,
                        task=task, dropout=spec.get("dropout", 0.0), seed=seed)


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
    noise_cfg = replace(cfg.noise, seed=noise_seed)
    embs = stability.pool_embeddings(model, pool_x, noise_cfg)
    matrix = np.vstack([e.vector for e in embs])
    seeds = None
    if cfg.seed_from_labeled and cfg.strategy == "noise_stability" and len(labeled_x):
        labeled_embs = stability.pool_embeddings(model, labeled_x, noise_cfg)
        seeds = np.vstack([e.vector for e in labeled_embs])
    method = {"noise_stability": cfg.selector,
              "noise_stability_m": "top_magnitude",
              "noise_stability_d": "k_center_normalized"}[cfg.strategy]
    req = SelectionRequest(embeddings=matrix, budget=budget,
                           seeds_from_labeled=seeds, seed=strategy_seed,
                           method=method)
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
        pool_state.acquire(picks)
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
