"""Dataset synthesis and ingestion.

Seeded generators (Gaussian blobs, two moons, noisy linear regression),
IDX-format image loading, CSV tabular loading with one-hot encoding, stratified
splitting, and train-statistics standardization. Every loader and generator is
deterministic per seed.
"""

from __future__ import annotations

import csv
import math
import struct
from dataclasses import dataclass, replace

import numpy as np

from . import seeding
from .exceptions import DataError, FormatError

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801
# the kinds a CSV schema gives a column
SCHEMA_KINDS = ("numeric", "categorical", "target")


@dataclass
class Dataset:
    inputs: np.ndarray  # (N, D) float64
    targets: np.ndarray  # (N,) int64 class indices or float64 values
    task: str  # "classification" | "regression"
    n_classes: int | None = None
    numeric_columns: list | None = None  # set by the tabular loader

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        if self.task == "classification":
            self.targets = np.asarray(self.targets, dtype=np.int64)
        else:
            self.targets = np.asarray(self.targets, dtype=np.float64)
        if self.inputs.shape[0] != self.targets.shape[0]:
            raise DataError("inputs and targets must have the same length")
        if self.task == "classification":
            if self.n_classes is None:
                self.n_classes = int(self.targets.max()) + 1 if self.targets.size else 0
            if self.targets.size and (self.targets.min() < 0
                                      or self.targets.max() >= self.n_classes):
                raise DataError("class indices must lie in [0, n_classes)")

    def __len__(self):
        return self.inputs.shape[0]

    def subset(self, indices) -> "Dataset":
        indices = np.asarray(indices, dtype=np.int64)
        return Dataset(inputs=self.inputs[indices], targets=self.targets[indices],
                       task=self.task, n_classes=self.n_classes,
                       numeric_columns=self.numeric_columns)


def gen_blobs(n_per_class, n_classes, dim, centers_seed, noise_std, seed,
              center_scale=4.0) -> Dataset:
    """Balanced Gaussian clusters; centers drawn once from centers_seed, point
    noise from seed."""
    if n_classes < 2 or dim < 1 or noise_std < 0:
        raise DataError("need n_classes >= 2, dim >= 1, noise_std >= 0")
    centers = seeding.rng(centers_seed).normal(0.0, center_scale, size=(n_classes, dim))
    gen = seeding.rng(seed)
    inputs = np.vstack([
        centers[c] + gen.normal(0.0, noise_std, size=(n_per_class, dim))
        for c in range(n_classes)
    ])
    targets = np.repeat(np.arange(n_classes), n_per_class)
    return Dataset(inputs=inputs, targets=targets, task="classification",
                   n_classes=n_classes)


def gen_two_moons(n, noise_std, seed) -> Dataset:
    """Two interleaved half circles: class 0 on the upper unit half circle
    around (0, 0), class 1 on the lower one around (1, 0.5)."""
    if noise_std < 0:
        raise DataError("noise_std must be >= 0")
    gen = seeding.rng(seed)
    n0 = n // 2 + n % 2
    n1 = n // 2
    t0 = np.linspace(0.0, np.pi, n0)
    t1 = np.linspace(0.0, np.pi, n1)
    pts0 = np.column_stack([np.cos(t0), np.sin(t0)])
    pts1 = np.column_stack([1.0 - np.cos(t1), 0.5 - np.sin(t1)])
    inputs = np.vstack([pts0, pts1]) + gen.normal(0.0, noise_std, size=(n, 2))
    targets = np.concatenate([np.zeros(n0, dtype=np.int64),
                              np.ones(n1, dtype=np.int64)])
    return Dataset(inputs=inputs, targets=targets, task="classification",
                   n_classes=2)


def gen_linear_regression(n, dim, weight_seed, noise_std, seed) -> Dataset:
    """y = w*ᵀx + eps with Gaussian inputs and noise; w* drawn from
    weight_seed."""
    if noise_std < 0:
        raise DataError("noise_std must be >= 0")
    w_star = seeding.rng(weight_seed).normal(0.0, 1.0, size=dim)
    gen = seeding.rng(seed)
    inputs = gen.normal(0.0, 1.0, size=(n, dim))
    targets = inputs @ w_star + gen.normal(0.0, noise_std, size=n)
    return Dataset(inputs=inputs, targets=targets, task="regression")


def _read_be32(buf, offset, what, path):
    if offset + 4 > len(buf):
        raise FormatError(f"{path}: truncated while reading {what}")
    return struct.unpack_from(">I", buf, offset)[0], offset + 4


def load_idx(images_path, labels_path) -> Dataset:
    """MNIST-style IDX pair: big-endian magic-numbered binaries. Pixels are
    scaled to [0, 1]; any structural problem fails closed with the offending
    field named."""
    with open(images_path, "rb") as fh:
        img_buf = fh.read()
    with open(labels_path, "rb") as fh:
        lbl_buf = fh.read()

    magic, off = _read_be32(img_buf, 0, "image magic", images_path)
    if magic != IDX_IMAGE_MAGIC:
        raise FormatError(f"{images_path}: bad image magic 0x{magic:08x}")
    count, off = _read_be32(img_buf, off, "image count", images_path)
    rows, off = _read_be32(img_buf, off, "row count", images_path)
    cols, off = _read_be32(img_buf, off, "column count", images_path)
    expected = off + count * rows * cols
    if len(img_buf) != expected:
        raise FormatError(
            f"{images_path}: pixel payload is {len(img_buf) - off} bytes, "
            f"expected {count * rows * cols}"
        )
    pixels = np.frombuffer(img_buf, dtype=np.uint8, offset=off)

    magic, loff = _read_be32(lbl_buf, 0, "label magic", labels_path)
    if magic != IDX_LABEL_MAGIC:
        raise FormatError(f"{labels_path}: bad label magic 0x{magic:08x}")
    lbl_count, loff = _read_be32(lbl_buf, loff, "label count", labels_path)
    if len(lbl_buf) - loff != lbl_count:
        raise FormatError(
            f"{labels_path}: label payload is {len(lbl_buf) - loff} bytes, "
            f"expected {lbl_count}"
        )
    if lbl_count != count:
        raise FormatError(
            f"image count {count} does not match label count {lbl_count}"
        )
    labels = np.frombuffer(lbl_buf, dtype=np.uint8, offset=loff).astype(np.int64)
    inputs = pixels.reshape(count, rows * cols).astype(np.float64) / 255.0
    return Dataset(inputs=inputs, targets=labels, task="classification",
                   n_classes=int(labels.max()) + 1 if count else 0)


def load_csv_tabular(path, schema) -> Dataset:
    """Comma-delimited UTF-8 file with a header row; a leading byte-order
    mark, as Excel's "CSV UTF-8" writes, is skipped.

    ``schema`` maps every column name to "numeric", "categorical", or "target"
    (exactly one target). Categorical columns expand to one-hot blocks in
    first-appearance order; numeric columns are kept raw here, with their
    output positions recorded so standardize() can z-score them from training
    statistics after the split.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            rows = list(reader)
    except UnicodeDecodeError:
        raise FormatError(f"{path}: not UTF-8 text") from None
    if header is None:
        raise FormatError(f"{path}: empty file, expected a header row")
    # each row is read as a dict keyed by the header, which would keep only
    # the last of two same-named columns
    repeated = sorted({c for c in header if header.count(c) > 1})
    if repeated:
        raise DataError(f"header repeats columns: {repeated}")
    missing = [c for c in header if c not in schema]
    if missing:
        raise DataError(f"schema does not cover columns: {missing}")
    unknown = [c for c in schema if c not in header]
    if unknown:
        raise DataError(f"schema names columns not in the header: {unknown}")
    for c, kind in schema.items():
        if kind not in SCHEMA_KINDS:
            raise DataError(f"schema kind {kind!r} of column {c!r} is not one "
                            f"of {', '.join(SCHEMA_KINDS)}")
    targets_cols = [c for c in header if schema[c] == "target"]
    if len(targets_cols) != 1:
        raise DataError(f"schema must mark exactly one target column, got {targets_cols}")

    cats = {c: [] for c in header}
    col_kind = {c: schema[c] for c in header}
    for r, row in enumerate(rows):
        if len(row) != len(header):
            raise FormatError(f"{path}: row {r} has {len(row)} fields, expected {len(header)}")
        for c, value in zip(header, row):
            if col_kind[c] == "categorical" and value not in cats[c]:
                cats[c].append(value)

    feature_values = []
    target_values = []
    numeric_positions = []
    pos = 0
    layout = []  # (column, kind, width) in header order, target excluded
    for c in header:
        kind = col_kind[c]
        if kind == "target":
            continue
        width = 1 if kind == "numeric" else len(cats[c])
        if kind == "numeric":
            numeric_positions.append(pos)
        layout.append((c, kind, width))
        pos += width

    def parse_number(value, r, c):
        try:
            number = float(value)
        except ValueError:
            raise DataError(
                f"non-numeric value {value!r} in numeric column {c!r} at row {r}"
            ) from None
        # float() also reads "nan" and "inf", which standardize() would
        # spread over the whole column
        if not math.isfinite(number):
            raise DataError(f"non-finite value {value!r} in column {c!r} at row {r}")
        return number

    for r, row in enumerate(rows):
        values = dict(zip(header, row))
        feats = np.zeros(pos)
        cursor = 0
        for c, kind, width in layout:
            if kind == "numeric":
                feats[cursor] = parse_number(values[c], r, c)
            else:
                feats[cursor + cats[c].index(values[c])] = 1.0
            cursor += width
        feature_values.append(feats)
        target_values.append(parse_number(values[targets_cols[0]], r, targets_cols[0]))

    inputs = np.vstack(feature_values) if feature_values else np.zeros((0, pos))
    return Dataset(inputs=inputs, targets=np.asarray(target_values),
                   task="regression", numeric_columns=numeric_positions)


def split(dataset: Dataset, test_fraction, seed):
    """Seeded shuffle-and-cut into (train_pool, test); stratified per class for
    classification."""
    if not 0.0 < test_fraction < 1.0:
        raise DataError("test_fraction must be in (0, 1)")
    gen = seeding.rng(seed)
    n = len(dataset)
    if dataset.task == "classification":
        test_idx = []
        train_idx = []
        for c in range(dataset.n_classes):
            members = np.flatnonzero(dataset.targets == c)
            if members.size < 2:
                raise DataError(f"class {c} has {members.size} member(s); "
                                "cannot stratify a split")
            members = members[gen.permutation(members.size)]
            cut = int(round(members.size * test_fraction))
            test_idx.extend(members[:cut])
            train_idx.extend(members[cut:])
        train_idx = np.sort(np.asarray(train_idx))
        test_idx = np.sort(np.asarray(test_idx))
    else:
        order = gen.permutation(n)
        cut = int(round(n * test_fraction))
        test_idx = np.sort(order[:cut])
        train_idx = np.sort(order[cut:])
    return dataset.subset(train_idx), dataset.subset(test_idx)


def standardize(train: Dataset, test: Dataset):
    """Z-score the loader-recorded numeric columns using statistics of the
    training split only. Zero-variance columns are centered but not divided,
    and a dataset with no recorded column (a generator's) is left as it is.
    """
    if not train.numeric_columns:
        return train, test
    columns = np.asarray(train.numeric_columns, dtype=np.int64)
    mean = train.inputs[:, columns].mean(axis=0)
    std = train.inputs[:, columns].std(axis=0)
    safe = np.where(std > 0.0, std, 1.0)

    def apply(ds):
        inputs = ds.inputs.copy()
        inputs[:, columns] = (inputs[:, columns] - mean) / safe
        return replace(ds, inputs=inputs)

    return apply(train), apply(test)
