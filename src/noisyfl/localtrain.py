"""Client-side training strategies: plain/robust-loss SGD, mixup, co-teaching.

Batches come from a per-epoch seeded shuffle; mixup draws consume a separate
named stream so that stubbing the mixing coefficient to 1 reproduces the
plain-CE trajectory bit for bit.  One call trains one client for E epochs
and is single-threaded and deterministic.

Every method runs through one epoch/batch loop, :func:`_train`.  It checks
the dataset against the layout once, then gives each network one
``models.Workspace``, bound to that network and sized to the batch, for
the whole call.  A method is a batch rule that takes each network's
gradient through the checked entries ``losses.backward`` (or, for
co-teaching, ``models.forward_cached`` and ``losses.backward_cached``),
which bind nothing anew for the bound network; the loop then takes the
momentum-SGD step (:func:`sgd_step`) in per-call velocity and workspace
buffers.  Co-teaching is the same loop with two networks and a batch
rule; as in Han et al.'s reference implementation (arXiv 1804.06872),
each network runs one forward pass per batch, which both ranks the batch
and carries the update loss on the rows its peer selected.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import rng
from .datasets import LabeledDataset
from .errors import LayoutMismatchError
from .losses import LOSS_KINDS, _per_sample, backward, backward_cached, one_hot
from .models import ModelParams, Workspace, forward_cached

METHODS = ("ce", "mixup", "sce", "gce", "mae", "coteaching")

_POSITIVE = (lambda v: v > 0, "> 0")

# method -> {method_params key: (accepts(value), the range it accepts)}
_METHOD_PARAMS = {
    "ce": {},
    "mae": {},
    "mixup": {"alpha": _POSITIVE},
    "sce": {"alpha": _POSITIVE, "beta": _POSITIVE, "log_clip": (lambda v: v < 0, "< 0")},
    "gce": {"q": (lambda v: 0 < v <= 1, "in (0, 1]")},
    "coteaching": {"forget_rate": (lambda v: 0 <= v < 1, "in [0, 1)"), "ramp_rounds": _POSITIVE},
}

MIXUP_DEFAULT_ALPHA = 1.0
COTEACHING_DEFAULT_FORGET_RATE = 0.2
COTEACHING_DEFAULT_RAMP_ROUNDS = 10


@dataclass(frozen=True)
class TrainerConfig:
    """Local-training hyperparameters shared by every strategy."""

    method: str = "ce"
    lr: float = 0.01
    momentum: float = 0.9
    weight_decay: float = 5e-4
    batch_size: int = 128
    epochs: int = 5
    method_params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown training method {self.method!r}")
        if not self.lr > 0:
            raise ValueError("lr must be > 0")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        ranges = _METHOD_PARAMS[self.method]
        unknown = set(self.method_params) - set(ranges)
        if unknown:
            raise ValueError(f"method_params keys {sorted(unknown)} invalid for method {self.method!r}")
        for key, value in self.method_params.items():
            accepts, allowed = ranges[key]
            if not accepts(value):
                raise ValueError(f"method_params.{key} must be {allowed} for method {self.method!r}, got {value!r}")

    @property
    def loss_kind(self) -> str:
        kind = "ce" if self.method in ("mixup", "coteaching") else self.method
        assert kind in LOSS_KINDS
        return kind


@dataclass
class TrainStats:
    """Mean batch loss per epoch for one local training call."""

    epoch_losses: list[float] = field(default_factory=list)

    @property
    def mean_loss(self) -> float:
        return float(np.mean(self.epoch_losses)) if self.epoch_losses else float("nan")


def sgd_step(
    values: np.ndarray,
    grad: np.ndarray,
    velocity: np.ndarray,
    lr: float,
    momentum: float,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Momentum SGD: v' = mu*v + g, w' = w - lr*v'; returns (w', v').

    With ``out`` given, ``velocity`` becomes v' in place and w' is written
    to ``out``, so a training step allocates nothing; without it, v' and
    w' are new arrays and no argument changes.  Weight decay is folded into
    ``grad`` by the loss backward, not here.
    """
    if grad.shape != values.shape or velocity.shape != values.shape:
        raise ValueError("grad/velocity shape must match parameter shape")
    if out is None:
        velocity = momentum * velocity + grad
        return values - lr * velocity, velocity
    velocity *= momentum
    velocity += grad
    np.multiply(velocity, lr, out=out)
    return np.subtract(values, out, out=out), velocity


def mixup_batch(
    x: np.ndarray, onehot: np.ndarray, lam: float, perm: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Convex combination of a batch with its permuted copy; targets stay on the simplex."""
    mixed_x = lam * x + (1.0 - lam) * x[perm]
    mixed_t = lam * onehot + (1.0 - lam) * onehot[perm]
    return mixed_x, mixed_t


def _train(ds: LabeledDataset, start: tuple[ModelParams, ...], cfg: TrainerConfig, seed: int, batch_rule):
    """The one epoch/batch loop behind every local-training method.

    Each network gets a copy of its start parameters, updated in place one
    momentum-SGD step per batch, and one workspace bound to that copy for
    the whole call, sized to the largest batch.  The dataset's width is
    checked against the layout here, once, before any step.
    ``batch_rule(models, works, x, y)`` runs each network's backward on the
    batch and returns one ``LossOutput`` per network plus the batch loss;
    the loop steps each network with :func:`sgd_step` in a per-call
    velocity and its workspace's ``step`` buffer, and checks the new values
    for finiteness before the network takes them.  Each epoch gathers its
    shuffled rows once; a batch is a slice of them.  Overflow is not
    reported as a numpy warning: a diverging step fails that check and
    raises ``FloatingPointError``.
    """
    if len(ds) == 0:
        raise ValueError("cannot train on an empty dataset")
    layout = start[0].layout
    if ds.features.shape[1] != layout.dim:
        raise LayoutMismatchError(f"dataset of width {ds.features.shape[1]} does not match layout dim {layout.dim}")
    models = [params.copy() for params in start]
    works = [Workspace(layout, min(cfg.batch_size, len(ds)), m) for m in models]
    velocities = [np.zeros_like(m.values) for m in models]
    stats = TrainStats()
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            perm = rng.stream(seed, "shuffle", epoch).permutation(len(ds))
            xs, ys = ds.features[perm], ds.labels[perm]
            batch_losses = []
            for first in range(0, len(ds), cfg.batch_size):
                rows = slice(first, first + cfg.batch_size)
                outs, batch_loss = batch_rule(models, works, xs[rows], ys[rows])
                for i, (model, work, out) in enumerate(zip(models, works, outs)):
                    values, velocities[i] = sgd_step(
                        model.values, out.grad, velocities[i], cfg.lr, cfg.momentum, work.step
                    )
                    # the step's one finiteness check, before the network takes the values
                    if not np.isfinite(values, out=work.finite).all():
                        raise FloatingPointError("local training diverged to non-finite parameters")
                    model.values[:] = values
                batch_losses.append(batch_loss)
            stats.epoch_losses.append(float(np.mean(batch_losses)))
    return models, stats


def train_local(
    ds: LabeledDataset,
    params: ModelParams,
    cfg: TrainerConfig,
    seed: int,
    lam_sampler=None,
) -> tuple[ModelParams, TrainStats]:
    """E epochs of mini-batch SGD with the configured loss or mixup.

    ``lam_sampler(gen, alpha) -> lam`` overrides the Beta(alpha, alpha) draw
    (test stubbing).  Co-teaching needs two models; use
    :func:`train_local_coteaching`.
    """
    if cfg.method == "coteaching":
        raise ValueError("co-teaching trains two models; call train_local_coteaching")
    mixup = cfg.method == "mixup"
    kind = cfg.loss_kind
    mix_alpha = cfg.method_params.get("alpha", MIXUP_DEFAULT_ALPHA)
    mix_gen = rng.stream(seed, "mixup") if mixup else None

    def one_network(models, works, x, y):
        if mixup:
            lam = float(lam_sampler(mix_gen, mix_alpha)) if lam_sampler else float(mix_gen.beta(mix_alpha, mix_alpha))
            mixed_x, mixed_t = mixup_batch(x, one_hot(y, ds.num_classes), lam, mix_gen.permutation(len(x)))
            out = backward(models[0], mixed_x, mixed_t, kind="soft_ce", weight_decay=cfg.weight_decay, work=works[0])
        else:
            out = backward(
                models[0], x, y, kind=kind, method_params=cfg.method_params,
                weight_decay=cfg.weight_decay, work=works[0],
            )
        return (out,), out.value

    (model,), stats = _train(ds, (params,), cfg, seed, one_network)
    return model, stats


def coteaching_keep_fraction(round_t: int, forget_rate: float, ramp_rounds: int) -> float:
    """R(t) = 1 - forget_rate * min(t / ramp_rounds, 1)."""
    return 1.0 - forget_rate * min(round_t / ramp_rounds, 1.0)


def small_loss_selection(per_sample: np.ndarray, keep_fraction: float) -> np.ndarray:
    """Indices of the lowest-loss samples; at least one sample is always kept."""
    keep = max(1, int(np.floor(keep_fraction * len(per_sample))))
    if keep >= len(per_sample):  # keep original order so forget_rate=0 is a no-op
        return np.arange(len(per_sample))
    order = np.argsort(per_sample, kind="stable")
    return order[:keep]


def train_local_coteaching(
    ds: LabeledDataset,
    params_a: ModelParams,
    params_b: ModelParams,
    cfg: TrainerConfig,
    seed: int,
    round_t: int = 1,
) -> tuple[ModelParams, ModelParams, TrainStats]:
    """Cross-update two networks on each other's small-loss samples.

    Per batch, each network ranks per-sample CE losses and keeps the
    smallest R(t) fraction; each network then steps on the subset its peer
    selected.  Both networks share the batch schedule.  The update loss is
    backpropagated through the ranking pass, as in Han et al.'s reference
    implementation (arXiv 1804.06872), so each network runs one forward pass
    per batch; a kept row's values come from the full-batch matmul, which can
    differ in the last bits from a pass over the kept rows alone.
    """
    if params_a.layout != params_b.layout:
        raise ValueError("co-teaching networks must share a layout")
    forget_rate = cfg.method_params.get("forget_rate", COTEACHING_DEFAULT_FORGET_RATE)
    ramp_rounds = cfg.method_params.get("ramp_rounds", COTEACHING_DEFAULT_RAMP_ROUNDS)
    keep_fraction = coteaching_keep_fraction(round_t, forget_rate, ramp_rounds)

    def cross_update(models, works, x, y):
        # rank the batch with each network's one forward pass, then narrow
        # each pass to its peer's selection and backpropagate through it
        b = len(x)
        kept = []
        for m, w in zip(models, works):
            probs, _ = forward_cached(m, x, w)
            _per_sample(probs, y, "ce", {}, w.per_sample[:b], w.row_ids[:b])
            kept.append(small_loss_selection(w.per_sample[:b], keep_fraction))
        outs = []
        for m, w, sel in zip(models, works, kept[::-1]):
            w.keep(sel)
            outs.append(backward_cached(m, w, y[sel], kind="ce", weight_decay=cfg.weight_decay))
        return outs, 0.5 * (outs[0].value + outs[1].value)

    (model_a, model_b), stats = _train(ds, (params_a, params_b), cfg, seed, cross_update)
    return model_a, model_b, stats
