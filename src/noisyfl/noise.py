"""Label-noise transition matrices and the three federated noise scenes.

Every scene runs the same three steps in one order: corrupt globally,
partition, corrupt per client.  Globalized noise takes the first step: one
row-stochastic flip table corrupts the whole dataset before it is split.
Localized noise takes the last: each client draws its own ratio from
U(eps_min, eps_max) and flips only among the classes it holds.  The clean
and real-world scenes are only partitioned.  ``SCENE_RATIOS`` names the
ratios each scene takes; :class:`NoiseSpec` derives its checks and its
``nominal_ratio`` (co-teaching's default forget rate) from that table alone.

One master seed fans out into named streams: ``flip`` for the global
corruption, ``partition`` for the split, ``eps-draw`` for the per-client
ratios and (``flip``, k) for client k's corruption.  So e.g. changing the
client count never changes which global labels flip under globalized noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng
from .datasets import LabeledDataset, class_histogram
from .partition import PartitionPlan, PartitionSpec, make_partition
from .partition import restrict  # noqa: F401  unused here; perfbench/tracer.py wraps it at this name

SCENE_GLOBALIZED = "globalized"
SCENE_LOCALIZED = "localized"
SCENE_REALWORLD = "realworld"
SCENE_CLEAN = "clean"
# scene -> the ratio fields of NoiseSpec it takes, lowest first
SCENE_RATIOS = {
    SCENE_GLOBALIZED: ("eps_global",),
    SCENE_LOCALIZED: ("eps_min", "eps_max"),
    SCENE_REALWORLD: (),
    SCENE_CLEAN: (),
}
RATIOS = tuple(name for names in SCENE_RATIOS.values() for name in names)

MODE_SYMMETRIC = "symmetric"
MODE_ASYMMETRIC = "asymmetric"
MODE_NONE = "none"
MODES = (MODE_SYMMETRIC, MODE_ASYMMETRIC, MODE_NONE)

def symmetric_matrix(num_classes: int, eps: float) -> np.ndarray:
    """Uniform corruption: diagonal 1-eps, every off-diagonal eps/(C-1).

    Returns the row-stochastic (C, C) table of flip probabilities
    P(observed=j | true=i).
    """
    probs = np.full((num_classes, num_classes), eps / (num_classes - 1), dtype=np.float64)
    np.fill_diagonal(probs, 1.0 - eps)
    return probs


def asymmetric_matrix(num_classes: int, eps: float, target_map: dict[int, int]) -> np.ndarray:
    """Pairwise flipping: row i keeps 1-eps and sends eps to target_map[i].

    A config's ``asym_map`` reaches this table, so the map is checked here:
    it must send every class to another class.
    """
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
    return probs


def cyclic_target_map(num_classes: int) -> dict[int, int]:
    """Default asymmetric target: i -> (i+1) mod C."""
    return {i: (i + 1) % num_classes for i in range(num_classes)}


@dataclass(frozen=True)
class NoiseSpec:
    """Declarative description of a noise scene.

    Every check derives from ``SCENE_RATIOS``: eps_global for the globalized
    scene, (eps_min, eps_max) bounding the localized scene's per-client
    uniform draw, and none, with mode 'none', for the clean and real-world
    scenes.  A scene's ratios lie in [0, 1] in the table's order; eps_max > 1
    is rejected rather than clamped.  ``asym_map`` overrides the cyclic flip
    target of the globalized asymmetric scene and is rejected everywhere
    else, where nothing would read it.
    """

    scene: str
    mode: str = MODE_NONE
    eps_global: float | None = None
    eps_min: float | None = None
    eps_max: float | None = None
    asym_map: dict[int, int] | None = None
    seed: int = 0

    def __post_init__(self):
        if self.scene not in SCENE_RATIOS:
            raise ValueError(f"unknown noise scene {self.scene!r}; must be one of {list(SCENE_RATIOS)}")
        if self.mode not in MODES:
            raise ValueError(f"unknown noise mode {self.mode!r}; must be one of {list(MODES)}")
        if self.asym_map is not None and (self.scene, self.mode) != (SCENE_GLOBALIZED, MODE_ASYMMETRIC):
            raise ValueError("asym_map applies only to the globalized scene in asymmetric mode")
        names = SCENE_RATIOS[self.scene]
        if names and self.mode == MODE_NONE:
            raise ValueError(f"{self.scene} scene requires a symmetric or asymmetric mode")
        values = [getattr(self, name) for name in names]
        if None in values:
            raise ValueError(f"{self.scene} scene requires {' and '.join(names)}")
        bounds = [0.0, *values, 1.0]
        if not all(low <= high for low, high in zip(bounds, bounds[1:])):  # NaN fails too
            raise ValueError(f"{self.scene} scene requires 0 <= {' <= '.join(names)} <= 1")
        others = [name for name in RATIOS if name not in names]
        if any(getattr(self, name) is not None for name in others):
            taken = f"{'/'.join(names)}, not {'/'.join(others)}" if names else "no noise ratios"
            raise ValueError(f"{self.scene} scene takes {taken}")
        if not names and self.mode != MODE_NONE:
            raise ValueError(f"{self.scene} scene requires mode 'none'")

    @property
    def nominal_ratio(self) -> float | None:
        """The scene's nominal noise ratio: the midpoint of its lowest and highest ratio, or 0 when clean.

        The midpoint of one ratio is eps_global itself, bit for bit.  None
        for the real-world scene, whose ratio its data gives.
        """
        ratios = [float(getattr(self, name)) for name in SCENE_RATIOS[self.scene]]
        if not ratios:
            return None if self.scene == SCENE_REALWORLD else 0.0
        return 0.5 * (ratios[0] + ratios[-1])


def apply_noise(labels: np.ndarray, probs: np.ndarray, seed: int) -> np.ndarray:
    """Independently redraw each of ``labels`` from its row of the flip table ``probs``.

    Sample n's flip consumes exactly the n-th uniform of the flip stream,
    so the outcome is a function of (seed, n) alone and growing the label
    vector never perturbs earlier samples.  Returns the noisy labels as a
    new int64 vector; ``labels`` is only read.
    """
    u = rng.stream(seed, "flip").random(len(labels))
    cdf = np.cumsum(probs, axis=1)
    noisy = np.empty(len(labels), dtype=np.int64)
    for r in np.flatnonzero(np.bincount(labels)):
        mask = labels == r
        noisy[mask] = np.searchsorted(cdf[r], u[mask], side="right")
    np.clip(noisy, 0, len(probs) - 1, out=noisy)
    return noisy


def _post_hoc_report(noisy: LabeledDataset, plan: PartitionPlan, per_client_eps, skipped: list[int]) -> dict:
    """The realized corruption, as the noise manifest records it, recounted from (observed, true) label pairs.

    ``flip_counts[i][j]`` counts assigned samples with true class i
    observed as class j; the diagonal counts unflipped samples.  This is
    the one place flip counts are computed, whichever scene flipped them.
    ``per_client_ratio`` and ``overall_ratio`` are the realized flip
    ratios, ``per_client_eps`` the nominal ones (None outside the
    globalized and localized scenes) and ``skipped_clients`` the
    single-class clients that localized noise left clean.  Data without
    ground truth has none to recount: every field is None, and
    ``skipped_clients`` is empty.
    """
    if noisy.true_labels is None:
        report = dict.fromkeys(("per_client_ratio", "overall_ratio", "per_client_eps", "flip_counts"))
        return {**report, "skipped_clients": []}
    assigned = plan.owner >= 0
    owner, true, observed = plan.owner[assigned], noisy.true_labels[assigned], noisy.labels[assigned]
    sizes = np.bincount(owner, minlength=plan.num_clients)
    flips = np.bincount(owner[observed != true], minlength=plan.num_clients)
    ratios = flips / np.maximum(sizes, 1)  # exact counts over exact sizes, 0.0 for an empty client
    counts = np.bincount(true * noisy.num_classes + observed, minlength=noisy.num_classes**2)
    return {
        "per_client_ratio": ratios.tolist(),
        "overall_ratio": int(flips.sum()) / len(owner) if len(owner) else 0.0,
        "per_client_eps": None if per_client_eps is None else per_client_eps.tolist(),
        "flip_counts": counts.reshape(noisy.num_classes, noisy.num_classes).tolist(),
        "skipped_clients": skipped,
    }


def _mode_matrix(num_classes: int, eps: float, mode: str, asym_map: dict[int, int] | None = None) -> np.ndarray:
    if mode == MODE_SYMMETRIC:
        return symmetric_matrix(num_classes, eps)
    return asymmetric_matrix(num_classes, eps, asym_map if asym_map is not None else cyclic_target_map(num_classes))


def run_scene(
    ds: LabeledDataset, spec: NoiseSpec, num_clients: int, partition_spec: PartitionSpec
) -> tuple[PartitionPlan, LabeledDataset, dict]:
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
    4. The report is :func:`_post_hoc_report`'s recount, the noise
       manifest's fields as JSON values.
    """
    eps = None
    if spec.scene == SCENE_GLOBALIZED:
        matrix = _mode_matrix(ds.num_classes, spec.eps_global, spec.mode, spec.asym_map)
        noisy = apply_noise(ds.labels, matrix, rng.derive_seed(spec.seed, "flip"))
        ds = ds.with_labels(labels=noisy, true_labels=ds.labels.copy())
        eps = np.full(num_clients, spec.eps_global, dtype=np.float64)
    plan = make_partition(ds, num_clients, partition_spec, rng.derive_seed(spec.seed, "partition"))
    skipped = []
    if spec.scene == SCENE_LOCALIZED:
        eps = rng.stream(spec.seed, "eps-draw").uniform(spec.eps_min, spec.eps_max, size=num_clients)
        labels = ds.labels.copy()
        for k, idx in enumerate(plan.clients):
            held = class_histogram(ds, idx) > 0  # the classes client k holds, and each label's position among them
            classes, positions = np.flatnonzero(held), (np.cumsum(held) - 1)[ds.labels[idx]]
            if len(classes) < 2:
                skipped.append(k)
                continue
            matrix = _mode_matrix(len(classes), float(eps[k]), spec.mode)
            flipped = apply_noise(positions, matrix, rng.derive_seed(spec.seed, "flip", k))
            labels[idx] = classes[flipped]
        ds = ds.with_labels(labels=labels, true_labels=ds.labels.copy())
    elif spec.scene == SCENE_CLEAN:
        ds = ds.with_labels(labels=ds.labels.copy(), true_labels=ds.labels.copy())
    return plan, ds, _post_hoc_report(ds, plan, eps, skipped)
