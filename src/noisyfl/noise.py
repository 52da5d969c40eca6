"""Label-noise transition matrices and the three federated noise scenes.

Every scene runs the same three steps in one order: corrupt globally,
partition, corrupt per client.  Globalized noise takes the first step: one
row-stochastic flip table corrupts the whole dataset before it is split.
Localized noise takes the last: each client draws its own ratio from
U(eps_min, eps_max) and flips only among the classes it holds.  The clean
and real-world scenes are only partitioned.

One master seed fans out into named streams: ``flip`` for the global
corruption, ``partition`` for the split, ``eps-draw`` for the per-client
ratios and (``flip``, k) for client k's corruption.  So e.g. changing the
client count never changes which global labels flip under globalized noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng
from .datasets import LabeledDataset
from .errors import LabelNotInMatrixError
from .partition import PartitionPlan, PartitionSpec, make_partition
from .partition import restrict  # noqa: F401  unused here; perfbench/tracer.py wraps it at this name

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
    """Row-stochastic table of flip probabilities P(observed=j | true=i)."""

    probs: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=np.float64)
        object.__setattr__(self, "probs", probs)
        if probs.ndim != 2 or probs.shape[0] != probs.shape[1]:
            raise ValueError("transition matrix must be square")
        if probs.min() < 0.0 or probs.max() > 1.0:
            raise ValueError("transition probabilities must lie in [0, 1]")
        if np.abs(probs.sum(axis=1) - 1.0).max() > ROW_SUM_TOL:
            raise ValueError("transition matrix rows must sum to 1")

    @property
    def size(self) -> int:
        return self.probs.shape[0]


def symmetric_matrix(num_classes: int, eps: float) -> TransitionMatrix:
    """Uniform corruption: diagonal 1-eps, every off-diagonal eps/(C-1)."""
    if num_classes < 2:
        raise ValueError("symmetric noise needs at least 2 classes")
    if not 0.0 <= eps <= 1.0:
        raise ValueError("eps must lie in [0, 1]")
    probs = np.full((num_classes, num_classes), eps / (num_classes - 1), dtype=np.float64)
    np.fill_diagonal(probs, 1.0 - eps)
    return TransitionMatrix(probs=probs)


def asymmetric_matrix(num_classes: int, eps: float, target_map: dict[int, int]) -> TransitionMatrix:
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
    return TransitionMatrix(probs=probs)


def cyclic_target_map(num_classes: int) -> dict[int, int]:
    """Default asymmetric target: i -> (i+1) mod C."""
    return {i: (i + 1) % num_classes for i in range(num_classes)}


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
            raise ValueError(f"unknown noise scene {self.scene!r}; must be one of {list(SCENES)}")
        if self.mode not in MODES:
            raise ValueError(f"unknown noise mode {self.mode!r}; must be one of {list(MODES)}")
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
    as class j; the diagonal counts unflipped samples.  The report is the one
    place flip counts are computed: they are recounted from the (observed,
    true) label pairs of the assigned samples, whichever scene flipped them.
    ``skipped_clients`` lists single-class clients that localized noise left
    clean.
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


def apply_noise(labels: np.ndarray, num_classes: int, matrix: TransitionMatrix, seed: int) -> np.ndarray:
    """Independently redraw each of ``labels`` (ids below ``num_classes``) from its transition row.

    Sample n's flip consumes exactly the n-th uniform of the flip stream,
    so the outcome is a function of (seed, n) alone and growing the label
    vector never perturbs earlier samples.  Returns the noisy labels as a
    new int64 vector; ``labels`` is only read.
    """
    if matrix.size < num_classes:
        raise LabelNotInMatrixError(f"matrix over {matrix.size} classes cannot corrupt labels of {num_classes} classes")
    u = rng.stream(seed, "flip").random(len(labels))
    cdf = np.cumsum(matrix.probs, axis=1)
    noisy = np.empty(len(labels), dtype=np.int64)
    for r in np.flatnonzero(np.bincount(labels)):
        mask = labels == r
        noisy[mask] = np.searchsorted(cdf[r], u[mask], side="right")
    np.clip(noisy, 0, matrix.size - 1, out=noisy)
    return noisy


def _post_hoc_report(noisy: LabeledDataset, plan: PartitionPlan, per_client_eps, skipped) -> NoiseReport:
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


def _mode_matrix(num_classes: int, eps: float, mode: str, asym_map: dict[int, int] | None = None) -> TransitionMatrix:
    if mode == MODE_SYMMETRIC:
        return symmetric_matrix(num_classes, eps)
    return asymmetric_matrix(num_classes, eps, asym_map if asym_map is not None else cyclic_target_map(num_classes))


def run_scene(
    ds: LabeledDataset, spec: NoiseSpec, num_clients: int, partition_spec: PartitionSpec
) -> tuple[PartitionPlan, LabeledDataset, NoiseReport | None]:
    """Run the scene ``spec`` names; returns (plan, dataset, report).

    One path for every scene, in one order:

    1. Globalized noise corrupts the whole dataset (stream ``flip``).
    2. The (possibly corrupted) dataset is partitioned (stream ``partition``).
    3. Localized noise draws every client's eps_k ~ U(eps_min, eps_max) in
       index order (stream ``eps-draw``), then corrupts client k (stream
       (``flip``, k)) among the classes it holds: its labels are coded by
       their position among its sorted classes, flipped with an m x m
       matrix whose asymmetric target is the next position, cyclically,
       and mapped back.  Single-class clients stay clean and are listed in
       ``skipped_clients``.  The clean scene pins its true labels to its
       labels; the real-world scene returns the input itself.
    4. The report is built unless the data has no ground truth; then it is None.
    """
    eps = None
    if spec.scene == SCENE_GLOBALIZED:
        matrix = _mode_matrix(ds.num_classes, spec.eps_global, spec.mode, spec.asym_map)
        noisy = apply_noise(ds.labels, ds.num_classes, matrix, rng.derive_seed(spec.seed, "flip"))
        ds = ds.with_labels(labels=noisy, true_labels=ds.labels.copy())
        eps = np.full(num_clients, spec.eps_global, dtype=np.float64)
    plan = make_partition(ds, num_clients, partition_spec, rng.derive_seed(spec.seed, "partition"))
    skipped = []
    if spec.scene == SCENE_LOCALIZED:
        eps = rng.stream(spec.seed, "eps-draw").uniform(spec.eps_min, spec.eps_max, size=num_clients)
        labels = ds.labels.copy()
        for k, idx in enumerate(plan.clients):
            classes, positions = np.unique(ds.labels[idx], return_inverse=True)
            if len(classes) < 2:
                skipped.append(k)
                continue
            matrix = _mode_matrix(len(classes), float(eps[k]), spec.mode)
            flipped = apply_noise(positions, len(classes), matrix, rng.derive_seed(spec.seed, "flip", k))
            labels[idx] = classes[flipped]
        ds = ds.with_labels(labels=labels, true_labels=ds.labels.copy())
    elif spec.scene == SCENE_CLEAN:
        ds = ds.with_labels(labels=ds.labels.copy(), true_labels=ds.labels.copy())
    if ds.true_labels is None:
        return plan, ds, None
    return plan, ds, _post_hoc_report(ds, plan, eps, skipped)
