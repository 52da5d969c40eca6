"""Label-noise transition matrices and the three federated noise scenes.

Globalized noise corrupts the full dataset with a single row-stochastic
flip table and then partitions; localized noise partitions first and
corrupts each client with its own ratio drawn from U(eps_min, eps_max),
flipping only among the classes that client actually holds; the real-world
scene partitions an already-noisy dataset untouched.

One master seed fans out into named streams (partition / eps-draw / flip),
so e.g. changing the client count never changes which global labels flip
under globalized noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import rng
from .datasets import LabeledDataset
from .errors import LabelNotInMatrixError
from .partition import PartitionPlan, PartitionSpec, make_partition, restrict

SCENE_GLOBALIZED = "globalized"
SCENE_LOCALIZED = "localized"
SCENE_REALWORLD = "realworld"
SCENE_CLEAN = "clean"
SCENES = (SCENE_GLOBALIZED, SCENE_LOCALIZED, SCENE_REALWORLD, SCENE_CLEAN)

MODE_SYMMETRIC = "symmetric"
MODE_ASYMMETRIC = "asymmetric"
MODE_NONE = "none"
MODES = (MODE_SYMMETRIC, MODE_ASYMMETRIC, MODE_NONE)

ROW_SUM_TOL = 1e-12


@dataclass(frozen=True)
class TransitionMatrix:
    """Row-stochastic table of flip probabilities P(observed=j | true=i).

    ``class_ids`` maps row/column positions to global class ids when the
    matrix covers only a client-local subset of classes.
    """

    probs: np.ndarray
    class_ids: np.ndarray | None = None

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=np.float64)
        object.__setattr__(self, "probs", probs)
        if probs.ndim != 2 or probs.shape[0] != probs.shape[1]:
            raise ValueError("transition matrix must be square")
        if probs.min() < 0.0 or probs.max() > 1.0:
            raise ValueError("transition probabilities must lie in [0, 1]")
        if np.abs(probs.sum(axis=1) - 1.0).max() > ROW_SUM_TOL:
            raise ValueError("transition matrix rows must sum to 1")
        if self.class_ids is not None:
            ids = np.asarray(self.class_ids, dtype=np.int64)
            object.__setattr__(self, "class_ids", ids)
            if len(ids) != probs.shape[0]:
                raise ValueError("class_ids length must match matrix size")

    @property
    def size(self) -> int:
        return self.probs.shape[0]


def symmetric_matrix(num_classes: int, eps: float, class_ids=None) -> TransitionMatrix:
    """Uniform corruption: diagonal 1-eps, every off-diagonal eps/(C-1)."""
    if num_classes < 2:
        raise ValueError("symmetric noise needs at least 2 classes")
    if not 0.0 <= eps <= 1.0:
        raise ValueError("eps must lie in [0, 1]")
    probs = np.full((num_classes, num_classes), eps / (num_classes - 1), dtype=np.float64)
    np.fill_diagonal(probs, 1.0 - eps)
    return TransitionMatrix(probs=probs, class_ids=class_ids)


def asymmetric_matrix(num_classes: int, eps: float, target_map: dict[int, int], class_ids=None) -> TransitionMatrix:
    """Pairwise flipping: row i keeps 1-eps and sends eps to target_map[i]."""
    if num_classes < 2:
        raise ValueError("asymmetric noise needs at least 2 classes")
    if not 0.0 <= eps <= 1.0:
        raise ValueError("eps must lie in [0, 1]")
    probs = np.zeros((num_classes, num_classes), dtype=np.float64)
    for i in range(num_classes):
        if i not in target_map:
            raise ValueError(f"target_map must be total over [0, {num_classes}); missing {i}")
        j = target_map[i]
        if not 0 <= j < num_classes:
            raise ValueError(f"target_map[{i}] = {j} out of range")
        if j == i:
            raise ValueError(f"target_map[{i}] maps a class to itself")
        probs[i, i] = 1.0 - eps
        probs[i, j] += eps
    return TransitionMatrix(probs=probs, class_ids=class_ids)


def cyclic_target_map(num_classes: int) -> dict[int, int]:
    """Default asymmetric target: i -> (i+1) mod C."""
    return {i: (i + 1) % num_classes for i in range(num_classes)}


def localized_asym_target(local_classes) -> dict[int, int]:
    """Map each local class to the next one in sorted order, cyclically."""
    ordered = sorted(int(c) for c in local_classes)
    if len(ordered) < 2:
        raise ValueError("need at least 2 local classes for asymmetric flipping")
    return {c: ordered[(i + 1) % len(ordered)] for i, c in enumerate(ordered)}


@dataclass(frozen=True)
class NoiseSpec:
    """Declarative description of a noise scene.

    eps_global parametrizes the globalized scene; (eps_min, eps_max) bound
    the per-client uniform draw of the localized scene; clean/realworld
    scenes carry no ratios.  Specs with eps_max > 1 are rejected rather
    than clamped.  ``asym_map`` overrides the cyclic flip target of the
    globalized asymmetric scene and is rejected everywhere else, where
    nothing would read it.
    """

    scene: str
    mode: str = MODE_NONE
    eps_global: float | None = None
    eps_min: float | None = None
    eps_max: float | None = None
    asym_map: dict[int, int] | None = None
    seed: int = 0

    def __post_init__(self):
        if self.scene not in SCENES:
            raise ValueError(f"unknown noise scene {self.scene!r}")
        if self.mode not in MODES:
            raise ValueError(f"unknown noise mode {self.mode!r}")
        if self.asym_map is not None and (self.scene, self.mode) != (SCENE_GLOBALIZED, MODE_ASYMMETRIC):
            raise ValueError("asym_map applies only to the globalized scene in asymmetric mode")
        if self.scene == SCENE_GLOBALIZED:
            if self.mode == MODE_NONE:
                raise ValueError("globalized scene requires a symmetric or asymmetric mode")
            if self.eps_global is None or not 0.0 <= self.eps_global <= 1.0:
                raise ValueError("globalized scene requires eps_global in [0, 1]")
            if self.eps_min is not None or self.eps_max is not None:
                raise ValueError("globalized scene takes eps_global, not eps_min/eps_max")
        elif self.scene == SCENE_LOCALIZED:
            if self.mode == MODE_NONE:
                raise ValueError("localized scene requires a symmetric or asymmetric mode")
            if self.eps_min is None or self.eps_max is None:
                raise ValueError("localized scene requires eps_min and eps_max")
            if not 0.0 <= self.eps_min <= self.eps_max <= 1.0:
                raise ValueError("localized scene requires 0 <= eps_min <= eps_max <= 1")
            if self.eps_global is not None:
                raise ValueError("localized scene takes eps_min/eps_max, not eps_global")
        else:
            if self.eps_global is not None or self.eps_min is not None or self.eps_max is not None:
                raise ValueError(f"{self.scene} scene takes no noise ratios")
            if self.mode != MODE_NONE:
                raise ValueError(f"{self.scene} scene requires mode 'none'")


@dataclass(frozen=True)
class NoiseReport:
    """Realized corruption accounting for one scene run.

    ``flip_counts[i, j]`` counts assigned samples with true class i observed
    as class j; the diagonal counts unflipped samples.  ``skipped_clients``
    lists single-class clients that localized noise left clean.
    """

    per_client_ratio: np.ndarray
    overall_ratio: float
    flip_counts: np.ndarray
    per_client_eps: np.ndarray | None = None
    skipped_clients: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "per_client_ratio", np.asarray(self.per_client_ratio, dtype=np.float64))
        object.__setattr__(self, "flip_counts", np.asarray(self.flip_counts, dtype=np.int64))
        if self.per_client_eps is not None:
            object.__setattr__(self, "per_client_eps", np.asarray(self.per_client_eps, dtype=np.float64))

    def to_dict(self) -> dict:
        return {
            "per_client_ratio": self.per_client_ratio.tolist(),
            "overall_ratio": self.overall_ratio,
            "per_client_eps": None if self.per_client_eps is None else self.per_client_eps.tolist(),
            "flip_counts": self.flip_counts.tolist(),
            "skipped_clients": list(self.skipped_clients),
        }


def apply_noise(ds: LabeledDataset, matrix: TransitionMatrix, seed: int) -> tuple[LabeledDataset, np.ndarray]:
    """Independently redraw each observed label from its transition row.

    Sample n's flip consumes exactly the n-th uniform of the flip stream,
    so the outcome is a function of (seed, n) alone and growing the dataset
    never perturbs earlier samples.  Returns the corrupted dataset (with
    ``true_labels`` set to the clean input labels) and the C x C count
    matrix of (true -> observed) transitions.
    """
    n = len(ds)
    if matrix.class_ids is not None:
        ids = matrix.class_ids
        lookup = -np.ones(ds.num_classes, dtype=np.int64)
        lookup[ids] = np.arange(len(ids))
        rows = lookup[ds.labels]
        if len(rows) and rows.min() < 0:
            missing = np.unique(ds.labels[rows < 0]).tolist()
            raise LabelNotInMatrixError(f"labels {missing} not covered by the transition matrix")
        back = ids
    else:
        if matrix.size < ds.num_classes or (n and ds.labels.max() >= matrix.size):
            raise LabelNotInMatrixError(
                f"matrix over {matrix.size} classes cannot corrupt labels up to {int(ds.labels.max()) if n else 0}"
            )
        rows = ds.labels
        back = np.arange(matrix.size, dtype=np.int64)

    u = rng.stream(seed, "flip").random(n)
    cdf = np.cumsum(matrix.probs, axis=1)
    drawn = np.empty(n, dtype=np.int64)
    for r in np.unique(rows):
        mask = rows == r
        drawn[mask] = np.searchsorted(cdf[r], u[mask], side="right")
    np.clip(drawn, 0, matrix.size - 1, out=drawn)
    noisy = back[drawn]

    flip_counts = np.zeros((ds.num_classes, ds.num_classes), dtype=np.int64)
    np.add.at(flip_counts, (ds.labels, noisy), 1)
    out = ds.with_labels(labels=noisy, true_labels=ds.labels.copy())
    return out, flip_counts


def _post_hoc_report(noisy: LabeledDataset, plan: PartitionPlan, per_client_eps, skipped=()) -> NoiseReport:
    """Recount realized flips per client from (observed, true) label pairs."""
    ratios = np.zeros(plan.num_clients, dtype=np.float64)
    flips = 0
    total = 0
    counts = np.zeros((noisy.num_classes, noisy.num_classes), dtype=np.int64)
    for k, idx in enumerate(plan.clients):
        disagree = noisy.labels[idx] != noisy.true_labels[idx]
        ratios[k] = float(disagree.mean()) if len(idx) else 0.0
        flips += int(disagree.sum())
        total += len(idx)
        np.add.at(counts, (noisy.true_labels[idx], noisy.labels[idx]), 1)
    overall = flips / total if total else 0.0
    return NoiseReport(
        per_client_ratio=ratios,
        overall_ratio=overall,
        flip_counts=counts,
        per_client_eps=per_client_eps,
        skipped_clients=tuple(skipped),
    )


def _mode_matrix(num_classes: int, eps: float, mode: str, asym_map: dict[int, int] | None, class_ids=None) -> TransitionMatrix:
    if mode == MODE_SYMMETRIC:
        return symmetric_matrix(num_classes, eps, class_ids=class_ids)
    if class_ids is None:
        target = asym_map if asym_map is not None else cyclic_target_map(num_classes)
    else:
        local_map = localized_asym_target(class_ids)
        pos = {int(c): i for i, c in enumerate(class_ids)}
        target = {pos[src]: pos[dst] for src, dst in local_map.items()}
    return asymmetric_matrix(num_classes, eps, target, class_ids=class_ids)


def _globalized(
    ds: LabeledDataset, spec: NoiseSpec, num_clients: int, partition_spec: PartitionSpec
) -> tuple[PartitionPlan, LabeledDataset, NoiseReport]:
    """Corrupt the global dataset with one matrix, then partition it."""
    matrix = _mode_matrix(ds.num_classes, spec.eps_global, spec.mode, spec.asym_map)
    noisy, _ = apply_noise(ds, matrix, rng.derive_seed(spec.seed, "flip"))
    plan = make_partition(noisy, num_clients, partition_spec, rng.derive_seed(spec.seed, "partition"))
    eps = np.full(num_clients, spec.eps_global, dtype=np.float64)
    return plan, noisy, _post_hoc_report(noisy, plan, eps)


def _localized(
    ds: LabeledDataset, spec: NoiseSpec, num_clients: int, partition_spec: PartitionSpec
) -> tuple[PartitionPlan, LabeledDataset, NoiseReport]:
    """Partition clean data, then corrupt each client within its own classes.

    eps_k ~ U(eps_min, eps_max) is drawn for every client in index order
    before any corruption; clients holding a single class are left clean
    and flagged rather than erroring.
    """
    plan = make_partition(ds, num_clients, partition_spec, rng.derive_seed(spec.seed, "partition"))
    eps_gen = rng.stream(spec.seed, "eps-draw")
    eps = eps_gen.uniform(spec.eps_min, spec.eps_max, size=num_clients)

    noisy_labels = ds.labels.copy()
    skipped = []
    for k in range(num_clients):
        local = restrict(ds, plan, k)
        local_classes = np.unique(local.labels)
        if len(local_classes) < 2:
            skipped.append(k)
            continue
        matrix = _mode_matrix(len(local_classes), float(eps[k]), spec.mode, None, class_ids=local_classes)
        corrupted, _ = apply_noise(local, matrix, rng.derive_seed(spec.seed, "flip", k))
        noisy_labels[plan.clients[k]] = corrupted.labels
    noisy = ds.with_labels(labels=noisy_labels, true_labels=ds.labels.copy())
    return plan, noisy, _post_hoc_report(noisy, plan, eps, skipped=skipped)


def _clean(
    ds: LabeledDataset, spec: NoiseSpec, num_clients: int, partition_spec: PartitionSpec
) -> tuple[PartitionPlan, LabeledDataset, NoiseReport]:
    """Partition only; labels untouched, ground truth pinned to the labels."""
    plan = make_partition(ds, num_clients, partition_spec, rng.derive_seed(spec.seed, "partition"))
    clean = ds.with_labels(labels=ds.labels.copy(), true_labels=ds.labels.copy())
    return plan, clean, _post_hoc_report(clean, plan, None)


def _realworld(
    ds: LabeledDataset, spec: NoiseSpec, num_clients: int, partition_spec: PartitionSpec
) -> tuple[PartitionPlan, LabeledDataset, NoiseReport | None]:
    """Partition an inherently noisy dataset; no synthetic corruption.

    The report exists only when ground-truth labels are known; it is absent
    (not zero-filled) otherwise.
    """
    plan = make_partition(ds, num_clients, partition_spec, rng.derive_seed(spec.seed, "partition"))
    if ds.true_labels is None:
        return plan, ds, None
    return plan, ds, _post_hoc_report(ds, plan, None)


def run_scene(
    ds: LabeledDataset, spec: NoiseSpec, num_clients: int, partition_spec: PartitionSpec
) -> tuple[PartitionPlan, LabeledDataset, NoiseReport | None]:
    """Run the scene ``spec`` names; returns (plan, dataset, report).

    The dataset is the noisy one (true labels set) for globalized and
    localized noise, the input with true labels pinned to its labels for
    the clean scene, and the input itself for the real-world scene, whose
    report is None when the data carries no ground truth.
    """
    if spec.scene == SCENE_GLOBALIZED:
        return _globalized(ds, spec, num_clients, partition_spec)
    if spec.scene == SCENE_LOCALIZED:
        return _localized(ds, spec, num_clients, partition_spec)
    if spec.scene == SCENE_CLEAN:
        return _clean(ds, spec, num_clients, partition_spec)
    return _realworld(ds, spec, num_clients, partition_spec)

