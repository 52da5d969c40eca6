"""Dataset representation, synthetic blob generation, CSV and .npy storage.

Labels are dense integers in ``[0, C)``; loaders reject sparse label sets
because downstream flip-probability tables index rows by label.  Datasets
are immutable after construction and safe for concurrent reads.  Their
features are float32, the dtype networks train in, from the blob draw or
the CSV parse on, so no stage holds a float64 copy or casts them.

CSV is the import format for user data.  The noise stage hands the train
stage its noisy training set and its test set as ``.npy`` files
(:func:`save_npy` / :func:`load_npy`): four consecutive arrays in NumPy's
own format, written without pickling, so a file's bytes are a function of
the dataset alone.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass

import numpy as np

from . import rng
from .errors import ParseError


@dataclass(frozen=True)
class LabeledDataset:
    """Feature matrix plus observed labels, optionally ground-truth labels.

    ``true_labels`` is present iff noise was injected or ground truth is
    otherwise known; ``num_classes`` is the global class count, which a
    client-local view retains even when some classes are absent locally.
    Features are float32: float32 features are taken as they are, not
    copied, and features of any other dtype are cast to float32.
    """

    features: np.ndarray
    labels: np.ndarray
    num_classes: int
    true_labels: np.ndarray | None = None

    def __post_init__(self):
        features = np.asarray(self.features, dtype=np.float32)
        labels = np.asarray(self.labels, dtype=np.int64)
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)
        if self.true_labels is not None:
            object.__setattr__(self, "true_labels", np.asarray(self.true_labels, dtype=np.int64))
        if features.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {features.shape}")
        if labels.ndim != 1 or len(labels) != features.shape[0]:
            raise ValueError("labels length must match feature row count")
        if self.num_classes < 2:
            raise ValueError("num_classes must be >= 2")
        if len(labels) and (labels.min() < 0 or labels.max() >= self.num_classes):
            raise ValueError("labels must lie in [0, num_classes)")
        if self.true_labels is not None:
            tl = self.true_labels
            if len(tl) != len(labels):
                raise ValueError("true_labels length must match labels length")
            if len(tl) and (tl.min() < 0 or tl.max() >= self.num_classes):
                raise ValueError("true_labels must lie in [0, num_classes)")

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def with_labels(self, labels: np.ndarray, true_labels: np.ndarray | None) -> "LabeledDataset":
        """Copy of this dataset with replaced (observed, true) label vectors."""
        return LabeledDataset(
            features=self.features,
            labels=labels,
            num_classes=self.num_classes,
            true_labels=true_labels,
        )


def _blob_means(num_classes: int, dim: int, separation: float) -> np.ndarray:
    """Class means with adjacent pairwise distance exactly ``separation``.

    dim >= 2 places means on a circle in the first two coordinates; dim == 1
    spaces them evenly on a line.  Placement is deterministic.
    """
    means = np.zeros((num_classes, dim), dtype=np.float64)
    if dim == 1:
        means[:, 0] = separation * np.arange(num_classes)
        return means
    radius = separation / (2.0 * np.sin(np.pi / num_classes))
    angles = 2.0 * np.pi * np.arange(num_classes) / num_classes
    means[:, 0] = radius * np.cos(angles)
    means[:, 1] = radius * np.sin(angles)
    return means


def make_synthetic_blobs(num_classes: int, per_class: int, dim: int, separation: float, seed: int) -> LabeledDataset:
    """Balanced isotropic Gaussian blobs, one unit-variance cluster per class.

    Deterministic for fixed arguments; ``true_labels`` equals ``labels``
    since the construction is clean.  The float32 features are filled one
    class at a time from the ``blobs`` stream, whose chunked draws continue
    it exactly: each is the float64 ``means[labels] + noise`` of one whole
    draw, rounded, and no float64 array beyond one class's is made.  The
    config checks the arguments (``config._dataset``).
    """
    labels = np.repeat(np.arange(num_classes, dtype=np.int64), per_class)
    means = _blob_means(num_classes, dim, separation)
    stream = rng.stream(seed, "blobs")
    features = np.empty((len(labels), dim), dtype=np.float32)
    draw = np.empty((per_class, dim))
    for c, rows in enumerate(features.reshape(num_classes, per_class, dim)):
        stream.standard_normal(out=draw)
        draw += means[c]  # x + m == m + x exactly
        rows[...] = draw
    return LabeledDataset(
        features=features,
        labels=labels,
        num_classes=num_classes,
        true_labels=labels.copy(),
    )


TRUE_LABEL_COLUMN = "true_label"


def load_csv(path: str, label_column: str) -> LabeledDataset:
    """Load a dataset from a headered CSV file.

    All columns other than the label column (and the optional true-label
    column, when present) are parsed as real-valued features, rounded to
    float32, and must be finite there.  Labels must form a contiguous
    integer range starting at 0.  A file that breaks either rule raises
    ParseError.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("empty file, header row required", row=1) from None
        if label_column not in header:
            raise ParseError(f"label column {label_column!r} not found in header", row=1)
        label_idx = header.index(label_column)
        true_idx = header.index(TRUE_LABEL_COLUMN) if TRUE_LABEL_COLUMN in header else None
        feature_cols = [i for i in range(len(header)) if i != label_idx and i != true_idx]

        features: list[list[float]] = []
        labels: list[int] = []
        true_labels: list[int] = []
        for row_no, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ParseError(f"expected {len(header)} fields, found {len(row)}", row=row_no)
            try:
                labels.append(int(row[label_idx]))
            except ValueError:
                raise ParseError("label is not an integer", row=row_no, column=label_column) from None
            if true_idx is not None:
                try:
                    true_labels.append(int(row[true_idx]))
                except ValueError:
                    raise ParseError("true label is not an integer", row=row_no, column=TRUE_LABEL_COLUMN) from None
            try:
                features.append([float(row[i]) for i in feature_cols])
            except ValueError as exc:
                bad = next(i for i in feature_cols if not _is_float(row[i]))
                raise ParseError(str(exc), row=row_no, column=header[bad]) from None

    label_arr = np.asarray(labels, dtype=np.int64)
    if len(label_arr) == 0:
        raise ParseError("file contains no data rows", row=2)
    with np.errstate(over="ignore"):  # a value beyond float32's range rounds to inf, refused here
        feature_arr = np.asarray(features, dtype=np.float32)
    if not np.isfinite(feature_arr).all():
        row, col = np.argwhere(~np.isfinite(feature_arr))[0]
        value = features[row][col]
        problem = f"{value!r} is beyond float32's range" if np.isfinite(value) else "is not finite"
        raise ParseError(f"feature {problem}", row=int(row) + 2, column=header[feature_cols[col]])
    # Contiguity is checked over the union of observed and (when present)
    # true labels: noise can wipe a class out of the observed column without
    # invalidating the file.
    pool = np.concatenate([label_arr, np.asarray(true_labels, dtype=np.int64)]) if true_labels else label_arr
    if pool.min() < 0:
        raise ParseError("negative label values are not allowed")
    if pool.max() >= len(pool):  # C contiguous labels need C <= len(pool); also bounds the count array
        raise ParseError(f"labels are not contiguous from 0: label {int(pool.max())} among {len(pool)} labels")
    counts = np.bincount(pool)
    num_classes = len(counts)
    if not counts.all():
        missing = np.flatnonzero(counts == 0).tolist()
        raise ParseError(f"labels are not contiguous from 0: missing {missing}")
    if num_classes < 2:
        raise ParseError("at least two classes are required")
    return LabeledDataset(
        features=feature_arr,
        labels=label_arr,
        num_classes=num_classes,
        true_labels=np.asarray(true_labels, dtype=np.int64) if true_labels else None,
    )


def _is_float(text: str) -> bool:
    try:
        float(text)
        return True
    except ValueError:
        return False


def save_csv(ds: LabeledDataset, path: str) -> None:
    """Write a dataset so that ``load_csv(path, "label")`` round-trips it bit-compatibly.

    Features are written with 17 significant digits (lossless for float32);
    the true-label column is emitted only when ground truth is known.
    """
    header = [f"x{i}" for i in range(ds.dim)] + ["label"]
    if ds.true_labels is not None:
        header.append(TRUE_LABEL_COLUMN)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for i in range(len(ds)):
            row = [format(v, ".17g") for v in ds.features[i]]
            row.append(str(int(ds.labels[i])))
            if ds.true_labels is not None:
                row.append(str(int(ds.true_labels[i])))
            writer.writerow(row)


# (field, dtype, shape) of each array in a save_npy file, in file order; "n" is the features' row count
_NPY_FIELDS = (("features", "<f4", (None, None)), ("labels", "<i8", ("n",)), ("true_labels", "<i8", (None, "n")),
               ("num_classes", "<i8", ()))  # fmt: skip


def read_array(fh, path: str, name: str, dtype: str, shape: tuple) -> np.ndarray:
    """The next .npy array of ``fh``, of ``dtype`` and ``shape`` (None: any length), checked before it is allocated."""
    try:
        if (version := np.lib.format.read_magic(fh)) != (1, 0):
            raise ValueError(f".npy format version {version} is not (1, 0)")
        got, fortran, got_dtype = np.lib.format.read_array_header_1_0(fh)
    except ValueError as exc:
        raise ParseError(f"{path}: cannot read {name}: {exc}") from None
    if fortran or got_dtype != np.dtype(dtype) or len(got) != len(shape):
        raise ParseError(f"{path}: {name} is not a {len(shape)}-D {dtype} array in C order")
    if any(length < 0 or want not in (None, length) for length, want in zip(got, shape)):
        raise ParseError(f"{path}: {name} has shape {got}, expected {shape}")
    size, left = math.prod(got) * got_dtype.itemsize, os.fstat(fh.fileno()).st_size - fh.tell()
    if size > left:
        raise ParseError(f"{path}: cannot read {name}: its header declares {size} bytes of data, the file holds {left}")
    return np.fromfile(fh, got_dtype, math.prod(got)).reshape(got)


def save_npy(ds: LabeledDataset, path: str) -> None:
    """Write float32 features, labels, true labels and ``num_classes`` as four consecutive .npy arrays.

    True labels are stored as a (0, n) array when unknown and as a (1, n)
    array when known, so "absent" stays distinct from "empty".  The class
    count is stored rather than inferred, since training's layout depends
    on it.  Arrays are little-endian and C-ordered.
    """
    true = np.empty((0, len(ds))) if ds.true_labels is None else ds.true_labels[None, :]
    arrays = (ds.features, ds.labels, true, np.array(ds.num_classes))
    with open(path, "wb") as fh:
        for (_, dtype, _), arr in zip(_NPY_FIELDS, arrays):
            np.save(fh, np.asarray(arr, dtype=dtype, order="C"), allow_pickle=False)


def load_npy(path: str) -> LabeledDataset:
    """Read a dataset written by :func:`save_npy`; raise ParseError on anything else.

    The file must hold exactly the four arrays, each read by
    :func:`read_array` (float64 features, which earlier versions wrote, are
    refused).  Features must be finite; the ``LabeledDataset`` constructor
    checks label ranges.
    """
    arrays = []
    with open(path, "rb") as fh:
        for field_name, dtype, shape in _NPY_FIELDS:
            shape = tuple(len(arrays[0]) if length == "n" else length for length in shape)
            arrays.append(read_array(fh, path, field_name, dtype, shape))
        if fh.read(1):
            raise ParseError(f"{path}: unexpected bytes after the dataset arrays")
    features, labels, true, num_classes = arrays
    if true.shape[0] > 1:
        raise ParseError(f"{path}: true_labels holds {true.shape[0]} rows, expected 0 or 1")
    if not np.isfinite(features).all():
        row, col = np.argwhere(~np.isfinite(features))[0]
        raise ParseError(f"{path}: feature is not finite", row=int(row), column=f"x{int(col)}")
    try:
        return LabeledDataset(features, labels, int(num_classes), true[0] if len(true) else None)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None


def class_histogram(ds: LabeledDataset, indices) -> np.ndarray:
    """Per-class counts (int64, length C) of the observed labels at ``indices``."""
    return np.bincount(ds.labels[indices], minlength=ds.num_classes)
