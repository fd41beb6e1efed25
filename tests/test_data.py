import re
import struct

import numpy as np
import pytest

from noisestab import data, nn, seeding
from noisestab.exceptions import DataError, FormatError


class TestBlobs:
    def test_zero_noise_puts_points_on_centers(self):
        ds = data.gen_blobs(5, 3, 2, centers_seed=1, noise_std=0.0, seed=2)
        for c in range(3):
            cluster = ds.inputs[ds.targets == c]
            assert np.all(cluster == cluster[0])

    def test_labels_are_balanced(self):
        ds = data.gen_blobs(7, 4, 3, centers_seed=1, noise_std=1.0, seed=2)
        counts = np.bincount(ds.targets)
        assert np.array_equal(counts, [7, 7, 7, 7])

    def test_same_seeds_reproduce_matrices(self):
        a = data.gen_blobs(6, 2, 4, centers_seed=3, noise_std=0.5, seed=4)
        b = data.gen_blobs(6, 2, 4, centers_seed=3, noise_std=0.5, seed=4)
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.targets, b.targets)


class TestTwoMoons:
    def test_zero_noise_points_sit_on_unit_half_circles(self):
        ds = data.gen_two_moons(80, noise_std=0.0, seed=5)
        upper = ds.inputs[ds.targets == 0]
        lower = ds.inputs[ds.targets == 1]
        assert np.abs(np.linalg.norm(upper, axis=1) - 1.0).max() < 1e-9
        assert np.abs(np.linalg.norm(lower - [1.0, 0.5], axis=1) - 1.0).max() < 1e-9

    def test_even_n_gives_balanced_classes(self):
        ds = data.gen_two_moons(50, noise_std=0.1, seed=6)
        assert np.bincount(ds.targets).tolist() == [25, 25]

    def test_mlp_beats_linear_classifier(self):
        # interleaved moons are not linearly separable
        ds = data.gen_two_moons(2000, noise_std=0.12, seed=7)
        train_pool, test = data.split(ds, 0.5, seed=8)
        cfg = nn.TrainConfig(optimizer="adam", lr=0.01, epochs=60,
                             batch_size=64, seed=9)
        linear = nn.build_mlp(2, [], 2, task="classification", seed=10)
        mlp = nn.build_mlp(2, [16], 2, task="classification", seed=10)
        from noisestab.loop import evaluate
        nn.train(linear, (train_pool.inputs, train_pool.targets), cfg)
        nn.train(mlp, (train_pool.inputs, train_pool.targets), cfg)
        assert evaluate(linear, test) < evaluate(mlp, test)


class TestLinearRegression:
    def test_zero_noise_is_exactly_linear(self):
        ds = data.gen_linear_regression(50, 4, weight_seed=1, noise_std=0.0, seed=2)
        w, *_ = np.linalg.lstsq(ds.inputs, ds.targets, rcond=None)
        assert np.abs(ds.inputs @ w - ds.targets).max() < 1e-10

    def test_ols_recovers_true_weights_within_noise(self):
        ds = data.gen_linear_regression(5000, 3, weight_seed=3, noise_std=0.1,
                                        seed=4)
        w_star = seeding.rng(3).normal(0.0, 1.0, size=3)
        w, *_ = np.linalg.lstsq(ds.inputs, ds.targets, rcond=None)
        # estimator std is about noise_std / sqrt(n)
        assert np.abs(w - w_star).max() < 5 * 0.1 / np.sqrt(5000)

    def test_seed_determinism(self):
        a = data.gen_linear_regression(10, 2, weight_seed=5, noise_std=0.2, seed=6)
        b = data.gen_linear_regression(10, 2, weight_seed=5, noise_std=0.2, seed=6)
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.targets, b.targets)


def write_idx_pair(tmp_path, images, labels):
    images = np.asarray(images, dtype=np.uint8)
    labels = np.asarray(labels, dtype=np.uint8)
    n, rows, cols = images.shape
    img_path = tmp_path / "images.idx"
    lbl_path = tmp_path / "labels.idx"
    img_path.write_bytes(struct.pack(">IIII", 0x803, n, rows, cols)
                         + images.tobytes())
    lbl_path.write_bytes(struct.pack(">II", 0x801, n) + labels.tobytes())
    return img_path, lbl_path


class TestIdxLoader:
    def test_two_image_fixture_roundtrips(self, tmp_path):
        images = np.zeros((2, 28, 28), dtype=np.uint8)
        images[0, 0, 0] = 255
        images[1, 13, 7] = 128
        img, lbl = write_idx_pair(tmp_path, images, [3, 9])
        ds = data.load_idx(img, lbl)
        assert ds.inputs.shape == (2, 784)
        assert ds.inputs[0, 0] == 1.0  # 255 scales to exactly 1.0
        assert ds.inputs[1, 13 * 28 + 7] == pytest.approx(128 / 255)
        assert ds.targets.tolist() == [3, 9]

    def test_truncated_file_fails_closed(self, tmp_path):
        images = np.zeros((2, 4, 4), dtype=np.uint8)
        img, lbl = write_idx_pair(tmp_path, images, [0, 1])
        img.write_bytes(img.read_bytes()[:-5])
        with pytest.raises(FormatError, match="payload"):
            data.load_idx(img, lbl)

    def test_bad_magic_names_the_file(self, tmp_path):
        images = np.zeros((1, 2, 2), dtype=np.uint8)
        img, lbl = write_idx_pair(tmp_path, images, [0])
        img.write_bytes(struct.pack(">IIII", 0x9999, 1, 2, 2) + b"\x00" * 4)
        with pytest.raises(FormatError, match="magic"):
            data.load_idx(img, lbl)

    def test_count_mismatch_rejected(self, tmp_path):
        images = np.zeros((2, 2, 2), dtype=np.uint8)
        img, _ = write_idx_pair(tmp_path, images, [0, 1])
        lbl = tmp_path / "short.idx"
        lbl.write_bytes(struct.pack(">II", 0x801, 1) + b"\x00")
        with pytest.raises(FormatError, match="count"):
            data.load_idx(img, lbl)


CSV_FIXTURE = """color,width,price
red,1.5,10.0
blue,2.0,12.5
red,3.5,9.0
"""


class TestCsvLoader:
    @pytest.fixture
    def csv_path(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text(CSV_FIXTURE)
        return path

    SCHEMA = {"color": "categorical", "width": "numeric", "price": "target"}

    def test_categorical_column_expands_one_hot(self, csv_path):
        ds = data.load_csv_tabular(csv_path, self.SCHEMA)
        # 2 observed colors -> 2 one-hot columns, plus 1 numeric = 3 features
        assert ds.inputs.shape == (3, 3)
        # one-hot blocks in first-appearance order: red, then blue
        assert np.array_equal(ds.inputs[:, :2], [[1, 0], [0, 1], [1, 0]])

    def test_fixture_feature_layout_and_values(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("cat,num,y\na,1.0,0.1\nb,2.0,0.2\nc,3.0,0.3\n")
        ds = data.load_csv_tabular(path, {"cat": "categorical",
                                          "num": "numeric", "y": "target"})
        assert ds.inputs.shape == (3, 4)  # 3 one-hot + 1 numeric
        assert np.array_equal(ds.inputs[:, :3], np.eye(3))
        assert np.array_equal(ds.inputs[:, 3], [1.0, 2.0, 3.0])
        assert np.array_equal(ds.targets, [0.1, 0.2, 0.3])

    def test_standardized_numeric_mean_is_zero_on_train(self, tmp_path):
        gen = np.random.default_rng(0)
        rows = "\n".join(f"x{gen.integers(2)},{gen.normal():.6f},{gen.normal():.6f}"
                         for _ in range(40))
        path = tmp_path / "wide.csv"
        path.write_text("cat,num,y\n" + rows + "\n")
        ds = data.load_csv_tabular(path, {"cat": "categorical",
                                          "num": "numeric", "y": "target"})
        train, test = data.split(ds, 0.25, seed=3)
        train_std, test_std = data.standardize(train, test)
        col = train_std.numeric_columns[0]
        assert abs(train_std.inputs[:, col].mean()) < 1e-9
        # test columns use train statistics, so their mean is generally nonzero
        assert test_std.inputs.shape == test.inputs.shape

    def test_non_numeric_value_names_row_and_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("num,y\n1.0,2.0\noops,3.0\n")
        with pytest.raises(DataError, match="row 1"):
            data.load_csv_tabular(path, {"num": "numeric", "y": "target"})

    @pytest.mark.parametrize("value", ["nan", "NaN", "inf", "-Infinity"])
    @pytest.mark.parametrize("column", ["num", "y"])
    def test_non_finite_value_names_value_row_and_column(self, tmp_path, value,
                                                         column):
        # float() parses these; standardize() would spread a NaN over the
        # whole column, so the load rejects them
        row = {"num": "1.5", "y": "2.0", column: value}
        path = tmp_path / "nonfinite.csv"
        path.write_text(f"num,y\n1.0,2.0\n0.5,1.0\n{row['num']},{row['y']}\n")
        with pytest.raises(DataError, match=f"non-finite value '{value}' in "
                                            f"column '{column}' at row 2"):
            data.load_csv_tabular(path, {"num": "numeric", "y": "target"})

    def test_repeated_header_column_rejected(self, tmp_path):
        # the rows used to load as inputs [[10, 10], [20, 20]]: each row was
        # a dict keyed by the header, so the last "a" replaced the first
        path = tmp_path / "dup.csv"
        path.write_text("a,a,y\n1,10,0.5\n2,20,0.7\n")
        with pytest.raises(DataError, match=r"header repeats columns: \['a'\]"):
            data.load_csv_tabular(path, {"a": "numeric", "y": "target"})

    def test_file_that_is_not_utf8_names_the_path(self, tmp_path):
        # used to raise a bare UnicodeDecodeError
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"a,y\n1,0.5\n\xff,0.7\n")
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: not UTF-8"):
            data.load_csv_tabular(path, {"a": "numeric", "y": "target"})

    def test_utf8_byte_order_mark_is_skipped(self, tmp_path):
        # Excel's "CSV UTF-8" starts with one; it used to stick to the first
        # column name and fail with "schema does not cover columns: ['\ufeffa']"
        plain, marked = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_bytes(b"a,y\n1,0.5\n2,0.7\n")
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        schema = {"a": "numeric", "y": "target"}
        expected = data.load_csv_tabular(plain, schema)
        got = data.load_csv_tabular(marked, schema)
        assert np.array_equal(got.inputs, expected.inputs)
        assert np.array_equal(got.targets, expected.targets)

    def test_schema_must_cover_all_columns(self, csv_path):
        with pytest.raises(DataError, match="cover"):
            data.load_csv_tabular(csv_path, {"color": "categorical",
                                             "price": "target"})

    def test_schema_column_not_in_the_header_rejected(self, csv_path):
        # such a key used to be ignored
        with pytest.raises(DataError, match=r"not in the header: \['weight'\]"):
            data.load_csv_tabular(csv_path, dict(self.SCHEMA, weight="numeric"))

    def test_unknown_schema_kind_names_column_and_kind(self, csv_path):
        # a mistyped kind used to drop the column from the layout, and the
        # load died with a bare "'2' is not in list"
        with pytest.raises(DataError, match="schema kind 'numerc' of column "
                                            "'width' is not one of numeric, "
                                            "categorical, target"):
            data.load_csv_tabular(csv_path, dict(self.SCHEMA, width="numerc"))


class TestSplit:
    def test_stratified_even_split_is_balanced(self):
        ds = data.gen_blobs(50, 2, 2, centers_seed=1, noise_std=1.0, seed=2)
        train, test = data.split(ds, 0.5, seed=3)
        assert len(train) == len(test) == 50
        assert np.bincount(train.targets).tolist() == [25, 25]
        assert np.bincount(test.targets).tolist() == [25, 25]

    def test_split_is_seed_deterministic(self):
        ds = data.gen_blobs(20, 2, 2, centers_seed=1, noise_std=1.0, seed=2)
        a = data.split(ds, 0.3, seed=4)
        b = data.split(ds, 0.3, seed=4)
        assert np.array_equal(a[0].inputs, b[0].inputs)
        assert np.array_equal(a[1].inputs, b[1].inputs)

    def test_splits_partition_the_data(self):
        ds = data.gen_linear_regression(33, 2, weight_seed=1, noise_std=0.1,
                                        seed=2)
        train, test = data.split(ds, 0.4, seed=5)
        combined = np.vstack([train.inputs, test.inputs])
        assert combined.shape[0] == 33
        # every original row appears exactly once across the two splits
        original = {tuple(row) for row in ds.inputs}
        recombined = {tuple(row) for row in combined}
        assert original == recombined

    def test_tiny_class_cannot_stratify(self):
        ds = data.Dataset(inputs=np.zeros((3, 2)), targets=[0, 0, 1],
                          task="classification")
        with pytest.raises(DataError, match="class 1"):
            data.split(ds, 0.5, seed=1)

    def test_fraction_bounds_enforced(self):
        ds = data.gen_blobs(5, 2, 2, centers_seed=1, noise_std=1.0, seed=2)
        with pytest.raises(DataError):
            data.split(ds, 1.0, seed=0)
