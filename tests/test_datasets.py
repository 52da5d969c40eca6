import copy
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import fresh_forward
from noisyfl import rng
from noisyfl.datasets import (
    LabeledDataset,
    _blob_means,
    class_histogram,
    load_csv,
    load_npy,
    make_synthetic_blobs,
    save_csv,
    save_npy,
)
from noisyfl.config import validate_config
from noisyfl.errors import ConfigError, ParseError
from noisyfl.localtrain import TrainerConfig, train_local
from noisyfl.models import Layout, init_params
from test_config import SYNTHETIC


class TestMakeSyntheticBlobs:
    def test_balanced_construction(self):
        ds = make_synthetic_blobs(2, 5, 2, 10.0, seed=7)
        assert len(ds) == 10
        assert class_histogram(ds, np.arange(len(ds))).tolist() == [5, 5]
        assert np.array_equal(ds.true_labels, ds.labels)

    def test_determinism(self):
        a = make_synthetic_blobs(3, 50, 4, 2.5, seed=13)
        b = make_synthetic_blobs(3, 50, 4, 2.5, seed=13)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    @pytest.mark.parametrize("dim", [1, 5])
    def test_bit_equal_to_means_plus_noise(self, dim):
        # the in-place shift gives the bits of the plain sum means[labels] + noise
        ds = make_synthetic_blobs(4, 30, dim, 2.0, seed=3)
        noise = rng.stream(3, "blobs").standard_normal((120, dim))
        assert np.array_equal(ds.features, _blob_means(4, dim, 2.0)[ds.labels] + noise)

    def test_different_seed_differs(self):
        a = make_synthetic_blobs(3, 50, 4, 2.5, seed=13)
        b = make_synthetic_blobs(3, 50, 4, 2.5, seed=14)
        assert not np.array_equal(a.features, b.features)

    def test_separation_controls_mean_distance(self):
        ds = make_synthetic_blobs(4, 2000, 2, 6.0, seed=0)
        centroids = np.stack([ds.features[ds.labels == c].mean(axis=0) for c in range(4)])
        adjacent = np.linalg.norm(centroids[0] - centroids[1])
        assert adjacent == pytest.approx(6.0, abs=0.2)

    def test_linearly_separable_blobs_are_learnable(self):
        # oracle for the >= 95% centralized-accuracy threshold: actually train
        ds = make_synthetic_blobs(4, 1000, 2, 6.0, seed=1).as_float32()
        params = init_params(Layout(dim=2, num_classes=4), seed=0)
        cfg = TrainerConfig(method="ce", lr=0.1, epochs=5, batch_size=128)
        trained, _ = train_local(ds, params, cfg, seed=0)
        accuracy = (fresh_forward(trained, ds.features).argmax(axis=1) == ds.labels).mean()
        assert accuracy >= 0.95

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(num_classes=1, per_class=5, dim=2, separation=1.0, seed=0),
            dict(num_classes=3, per_class=0, dim=2, separation=1.0, seed=0),
            dict(num_classes=3, per_class=5, dim=0, separation=1.0, seed=0),
            dict(num_classes=3, per_class=5, dim=2, separation=0.0, seed=0),
        ],
    )
    def test_invalid_arguments(self, kwargs):
        """make_synthetic_blobs takes the arguments the config checked where they entered."""
        doc = copy.deepcopy(SYNTHETIC)
        doc["dataset"]["synthetic"].update(kwargs)
        with pytest.raises(ConfigError) as err:
            validate_config(doc)
        assert err.value.field.removeprefix("dataset.synthetic.") in kwargs

    def test_one_dimensional_blobs(self):
        ds = make_synthetic_blobs(3, 10, 1, 4.0, seed=0)
        assert ds.features.shape == (30, 1)


class TestDatasetInvariants:
    def test_label_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            LabeledDataset(features=np.zeros((2, 1)), labels=[0, 3], num_classes=2)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            LabeledDataset(features=np.zeros((3, 1)), labels=[0, 1], num_classes=2)

    def test_single_class_count_rejected(self):
        with pytest.raises(ValueError):
            LabeledDataset(features=np.zeros((2, 1)), labels=[0, 0], num_classes=1)

    def test_true_labels_validated(self):
        with pytest.raises(ValueError):
            LabeledDataset(features=np.zeros((2, 1)), labels=[0, 1], num_classes=2, true_labels=[0, 5])

    def test_features_must_be_2d(self):
        with pytest.raises(ValueError, match=r"features must be 2-D, got shape \(2,\)"):
            LabeledDataset(features=np.zeros(2), labels=[0, 1], num_classes=2)

    def test_true_labels_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="true_labels length must match labels length"):
            LabeledDataset(features=np.zeros((2, 1)), labels=[0, 1], num_classes=2, true_labels=[0, 1, 1])


class TestCsv:
    def test_small_file(self, tmp_path):
        path = tmp_path / "small.csv"
        path.write_text("x0,x1,label\n0.5,1.0,0\n-1.25,2.0,1\n3.5,0.0,0\n")
        ds = load_csv(str(path), "label")
        assert len(ds) == 3
        assert ds.num_classes == 2
        assert ds.labels.tolist() == [0, 1, 0]
        assert ds.features[1].tolist() == [-1.25, 2.0]

    def test_noncontiguous_labels_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x0,label\n1.0,5\n2.0,0\n")
        with pytest.raises(ParseError, match="not contiguous from 0"):
            load_csv(str(path), "label")

    @pytest.mark.parametrize(
        "rows, match",
        [
            ("1.0,0\n2.0,3\n3.0,3\n4.0,0\n", r"missing \[1, 2\]"),
            ("1.0,0\n2.0,-1\n3.0,1\n", "negative"),
            ("1.0,0\n2.0,0\n", "two classes"),
            ("1.0,0\n2.0,1000000000000000\n", r"label 1000000000000000 among 2 labels"),
        ],
        ids=["gap", "negative", "one-class", "huge-label"],
    )
    def test_bad_label_set_rejected(self, tmp_path, rows, match):
        path = tmp_path / "bad.csv"
        path.write_text("x0,label\n" + rows)
        with pytest.raises(ParseError, match=match):
            load_csv(str(path), "label")

    @pytest.mark.parametrize(
        "rows, match",
        [("1.0,0,0\n2.0,0,2\n3.0,0,0\n", r"missing \[1\]"), ("1.0,0,-2\n2.0,1,1\n", "negative")],
        ids=["gap", "negative"],
    )
    def test_true_labels_join_the_contiguity_check(self, tmp_path, rows, match):
        path = tmp_path / "bad.csv"
        path.write_text("x0,label,true_label\n" + rows)
        with pytest.raises(ParseError, match=match):
            load_csv(str(path), "label")

    def test_round_trip(self, tmp_path):
        ds = make_synthetic_blobs(5, 20, 3, 3.0, seed=11)
        path = tmp_path / "out.csv"
        save_csv(ds, str(path))
        back = load_csv(str(path), "label")
        assert np.array_equal(back.features, ds.features)
        assert np.array_equal(back.labels, ds.labels)
        assert np.array_equal(back.true_labels, ds.true_labels)
        assert back.num_classes == ds.num_classes

    def test_round_trip_bytes_stable(self, tmp_path):
        ds = make_synthetic_blobs(3, 40, 2, 2.0, seed=4)
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        save_csv(ds, str(first))
        save_csv(load_csv(str(first), "label"), str(second))
        assert first.read_bytes() == second.read_bytes()

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_csv(str(tmp_path / "nope.csv"), "label")

    def test_parse_error_reports_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x0,label\n1.0,0\nnot_a_number,1\n")
        with pytest.raises(ParseError) as err:
            load_csv(str(path), "label")
        assert err.value.row == 3

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_feature_rejected(self, tmp_path, bad):
        path = tmp_path / "bad.csv"
        path.write_text(f"x0,label,x1\n1.0,0,2.0\n3.0,1,{bad}\n")
        with pytest.raises(ParseError) as err:
            load_csv(str(path), "label")
        assert (err.value.row, err.value.column) == (3, "x1")

    def test_missing_label_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x0,x1\n1.0,2.0\n")
        with pytest.raises(ParseError):
            load_csv(str(path), "label")

    def test_without_true_labels(self, tmp_path):
        path = tmp_path / "plain.csv"
        path.write_text("x0,label\n1.0,0\n2.0,1\n")
        ds = load_csv(str(path), "label")
        assert ds.true_labels is None


@st.composite
def datasets(draw):
    """Small datasets; with few rows some of the classes are often absent from the labels."""
    n = draw(st.integers(0, 6))
    dim = draw(st.integers(1, 3))
    num_classes = draw(st.integers(2, 6))
    labels = hnp.arrays(np.int64, n, elements=st.integers(0, num_classes - 1))
    return LabeledDataset(
        features=draw(hnp.arrays(np.float64, (n, dim), elements=st.floats(allow_nan=False, allow_infinity=False))),
        labels=draw(labels),
        num_classes=num_classes,
        true_labels=draw(st.none() | labels),
    )


def write_arrays(path, *arrays, allow_pickle=False):
    with open(path, "wb") as fh:
        for arr in arrays:
            np.save(fh, arr, allow_pickle=allow_pickle)


def npy_arrays(features=((0.5, 1.0), (2.0, -1.0)), labels=(0, 1), true=((1, 1),), num_classes=2):
    """The four arrays of a save_npy file, for building malformed ones."""
    return (
        np.array(features, dtype=np.float64),
        np.array(labels, dtype=np.int64),
        np.array(true, dtype=np.int64).reshape(-1, len(labels)),
        np.array(num_classes, dtype=np.int64),
    )


class TestNpy:
    @settings(max_examples=200, deadline=None)
    @given(ds=datasets())
    @example(ds=LabeledDataset(features=[[1.0]], labels=[0], num_classes=5))  # 4 classes absent
    @example(ds=LabeledDataset(features=np.zeros((0, 2)), labels=[], num_classes=2, true_labels=[]))
    @example(ds=LabeledDataset(features=np.zeros((0, 2)), labels=[], num_classes=2))
    def test_round_trip(self, tmp_path_factory, ds):
        path = str(tmp_path_factory.mktemp("npy") / "ds.npy")
        save_npy(ds, path)
        back = load_npy(path)
        assert back.features.shape == ds.features.shape
        assert back.features.tobytes() == ds.features.tobytes()  # bitwise, so -0.0 stays -0.0
        assert back.labels.tolist() == ds.labels.tolist()
        assert back.num_classes == ds.num_classes
        if ds.true_labels is None:
            assert back.true_labels is None
        else:
            assert back.true_labels.tolist() == ds.true_labels.tolist()

    def test_bytes_deterministic(self, tmp_path):
        ds = make_synthetic_blobs(3, 40, 2, 2.0, seed=4)
        fortran = LabeledDataset(np.asfortranarray(ds.features), ds.labels, ds.num_classes, ds.true_labels)
        paths = [tmp_path / f"{i}.npy" for i in range(4)]
        save_npy(ds, str(paths[0]))
        save_npy(ds, str(paths[1]))
        save_npy(load_npy(str(paths[0])), str(paths[2]))
        save_npy(fortran, str(paths[3]))
        assert len({p.read_bytes() for p in paths}) == 1

    @pytest.mark.parametrize(
        "write",
        [
            lambda p: write_arrays(p, np.array([[1.0, None]], dtype=object), *npy_arrays()[1:], allow_pickle=True),
            lambda p: p.write_bytes(pickle.dumps(npy_arrays())),
            lambda p: write_arrays(p, npy_arrays()[0].astype(np.float32), *npy_arrays()[1:]),
            lambda p: write_arrays(p, *npy_arrays()[:3], np.array([2], dtype=np.int64)),
            lambda p: write_arrays(p, *npy_arrays()[:3]),
            lambda p: write_arrays(p, *npy_arrays(), np.zeros(1)),
            lambda p: write_arrays(p, *npy_arrays(features=((0.5, np.nan), (2.0, -1.0)))),
            lambda p: write_arrays(p, *npy_arrays(labels=(0, 2))),
            lambda p: write_arrays(p, *npy_arrays(true=((1, 1), (0, 0)))),
            lambda p: p.write_bytes(b""),
        ],
        ids=[
            "object-dtype",
            "pickled",
            "float32-features",
            "num-classes-not-scalar",
            "truncated-after-three-arrays",
            "trailing-array",
            "non-finite-feature",
            "label-out-of-range",
            "two-true-label-rows",
            "empty-file",
        ],
    )
    def test_malformed_file_refused(self, tmp_path, write):
        path = tmp_path / "bad.npy"
        write(path)
        with pytest.raises(ParseError):
            load_npy(str(path))

    def test_non_finite_feature_named(self, tmp_path):
        path = tmp_path / "bad.npy"
        write_arrays(path, *npy_arrays(features=((0.5, 1.0), (np.inf, np.nan))))
        with pytest.raises(ParseError, match="feature is not finite") as err:
            load_npy(str(path))
        assert (err.value.row, err.value.column) == (1, "x0")

    def test_truncated_file_refused(self, tmp_path):
        path = tmp_path / "ds.npy"
        save_npy(make_synthetic_blobs(3, 10, 2, 2.0, seed=0), str(path))
        data = path.read_bytes()
        for cut in (1, 8, 100, len(data) - 1):
            path.write_bytes(data[:cut])
            with pytest.raises(ParseError):
                load_npy(str(path))


class TestClassHistogram:
    def _dataset(self, labels, num_classes):
        return LabeledDataset(
            features=np.zeros((len(labels), 1)), labels=labels, num_classes=num_classes
        )

    def test_full_dataset(self):
        ds = self._dataset([0, 0, 1], 2)
        counts = class_histogram(ds, np.arange(len(ds)))
        assert counts.dtype == np.int64
        assert counts.tolist() == [2, 1]

    def test_index_selection(self):
        ds = self._dataset([0, 0, 1], 2)
        assert class_histogram(ds, indices=[2]).tolist() == [0, 1]

    def test_matches_naive_count(self):
        gen = np.random.default_rng(3)
        labels = gen.integers(0, 7, size=1000)
        ds = self._dataset(labels, 7)
        naive = [0] * 7
        for value in labels:
            naive[value] += 1
        assert class_histogram(ds, np.arange(len(ds))).tolist() == naive

    def test_conservation_over_random_subsets(self):
        gen = np.random.default_rng(8)
        labels = gen.integers(0, 5, size=400)
        ds = self._dataset(labels, 5)
        for _ in range(20):
            size = int(gen.integers(0, 400))
            idx = gen.choice(400, size=size, replace=False)
            assert class_histogram(ds, indices=idx).sum() == size

    def test_index_out_of_range(self):
        ds = self._dataset([0, 1], 2)
        with pytest.raises(IndexError):
            class_histogram(ds, indices=[5])
