"""Client-side training strategies: plain/robust-loss SGD, mixup, co-teaching.

Batches come from a per-epoch seeded shuffle; mixup draws consume a separate
named stream so that stubbing the mixing coefficient to 1 reproduces the
plain-CE trajectory bit for bit.  One call trains one client for E epochs
and is single-threaded and deterministic.  It trains in float32: the
shard's features come float32 (the train stage casts them once), and so
are the parameters, the velocity, the mixup buffers and every workspace
buffer.

Every method runs through one epoch/batch loop, :func:`_train`.  It holds
the networks it trains as one stack (one network, or co-teaching's two as
the rows of an (S, P) array) with one ``models.Workspace`` bound to it and
sized to the batch, for the whole call.  A method is a batch rule that
takes the stack's gradient through ``losses.backward`` (or, for
co-teaching, ``models.forward_cached`` and ``losses.backward_cached``),
which bind nothing anew for the bound stack; the loop then takes one
momentum-SGD step (:func:`sgd_step`) per batch for the whole stack, in
place, with per-call velocity and workspace buffers, and checks the stack
for finiteness once per epoch.  Co-teaching is the same loop with a stack
of two networks and a batch rule: one stacked forward pass per batch
ranks the batch for both networks and, as in Han et al.'s
reference implementation (arXiv 1804.06872), carries each network's update
loss on the rows its peer selected.

The methods ce, sce, gce and mae pass their name to ``losses`` as the loss
kind; mixup trains ``soft_ce`` on mixed one-hot targets, and co-teaching
ranks and updates with ``ce``.  ``_METHOD_PARAMS`` alone declares each
method's parameter names, defaults and ranges.  :class:`TrainerConfig`
checks the written values against it and fills in the defaults, so every
reader, here and in ``losses``, reads ``method_params[key]``.  Co-teaching's ``forget_rate`` has no default: the
train stage infers it from the run's noise ratio (see ``cli``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import rng
from .datasets import LabeledDataset
from .losses import backward, backward_cached, one_hot, row_losses
from .models import ModelParams, Workspace, forward_cached

METHODS = ("ce", "mixup", "sce", "gce", "mae", "coteaching")

_POSITIVE = (lambda v: v > 0, "> 0")

# method -> {method_params key: (default, accepts(value), the range it accepts)};
# a default of None is none: the train stage infers co-teaching's forget_rate
_METHOD_PARAMS = {
    "ce": {},
    "mae": {},
    "mixup": {"alpha": (1.0, *_POSITIVE)},
    "sce": {"alpha": (0.1, *_POSITIVE), "beta": (1.0, *_POSITIVE), "log_clip": (-4.0, lambda v: v < 0, "< 0")},
    "gce": {"q": (0.7, lambda v: 0 < v <= 1, "in (0, 1]")},
    "coteaching": {"forget_rate": (None, lambda v: 0 <= v < 1, "in [0, 1)"), "ramp_rounds": (10.0, *_POSITIVE)},
}


@dataclass(frozen=True)
class TrainerConfig:
    """Local-training hyperparameters shared by every strategy.

    ``method_params`` is resolved: the method's defaults overlaid with the values written.
    """

    method: str = "ce"
    lr: float = 0.01
    momentum: float = 0.9
    weight_decay: float = 5e-4
    batch_size: int = 128
    epochs: int = 5
    method_params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown training method {self.method!r}; must be one of {list(METHODS)}")
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
        table = _METHOD_PARAMS[self.method]
        unknown = set(self.method_params) - set(table)
        if unknown:
            raise ValueError(f"method_params keys {sorted(unknown)} invalid for method {self.method!r}")
        for key, value in self.method_params.items():
            _, accepts, allowed = table[key]
            if not accepts(value):
                raise ValueError(f"method_params.{key} must be {allowed} for method {self.method!r}, got {value!r}")
        defaults = {key: default for key, (default, _, _) in table.items() if default is not None}
        object.__setattr__(self, "method_params", {**defaults, **self.method_params})


def sgd_step(
    values: np.ndarray, grad: np.ndarray, velocity: np.ndarray, lr: float, momentum: float, scratch: np.ndarray
) -> None:
    """Momentum SGD in place: v' = mu*v + g, w' = w - lr*v'.

    ``velocity`` becomes v' and ``values`` becomes w', with lr*v' in
    ``scratch``, so a training step allocates nothing; ``grad`` is only
    read.  Weight decay is folded into ``grad`` by the loss backward, not here.
    """
    velocity *= momentum
    velocity += grad
    values -= np.multiply(velocity, lr, out=scratch)


def mixup_batch(
    x: np.ndarray, onehot: np.ndarray, lam: float, perm: np.ndarray, out: tuple
) -> tuple[np.ndarray, np.ndarray]:
    """Convex combination of a batch with its permuted copy; targets stay on the simplex.

    Each array ``a`` becomes ``lam * a + (1 - lam) * a[perm]``.  ``out``
    is (mixed rows, mixed targets, row scratch, target scratch), shaped
    like ``x``, ``onehot``, ``x`` and ``onehot``, and nothing is allocated.
    """
    mixed_x, mixed_t, scratch_x, scratch_t = out
    for a, mixed, scratch in ((x, mixed_x, scratch_x), (onehot, mixed_t, scratch_t)):
        np.multiply(lam, a, out=mixed)
        np.take(a, perm, axis=0, out=scratch, mode="clip")  # a[perm]; "clip" writes to out unbuffered
        scratch *= 1.0 - lam
        mixed += scratch
    return mixed_x, mixed_t


def _train(
    ds: LabeledDataset, start: tuple[ModelParams, ...], cfg: TrainerConfig, seed: int, batch_rule, targets=None
):
    """The one epoch/batch loop behind every local-training method.

    The S networks (S = 1, or 2 for co-teaching) train as one stack: a
    copy of their start parameters, as the rows of an (S, P) array for
    S > 1, with one velocity of that shape and one workspace bound to it
    for the whole call, sized to the largest batch.  ``ds`` is a client's
    shard with float32 features, never empty (the split gives every client
    a sample), and the layout is built from the data's width.
    ``batch_rule(stack, work, x, y)`` runs the backward of every network on
    the batch, leaves the stack's gradient in ``work.grad`` and returns the
    batch loss as a float.  The loop then takes one momentum-SGD step
    (:func:`sgd_step`) for the whole stack, in place, with the velocity and
    the workspace's ``step`` buffer, and checks the stack for finiteness
    at the end of each epoch.  Each epoch gathers its shuffled rows and
    their targets (``ds.labels`` unless ``targets`` gives one row per
    sample) once; a batch is a slice of them.  Overflow is not reported as
    a numpy warning: a diverging step leaves the stack non-finite, which
    fails that epoch's check and raises ``FloatingPointError``.  Returns
    the trained networks in the order of ``start`` and the call's mean
    loss: the mean over its epochs of each epoch's mean batch loss.
    """
    assert ds.features.dtype == np.float32, "networks train on float32 features: cast the dataset once with as_float32"
    layout = start[0].layout
    if len(start) == 1:
        stack = start[0].copy()
    else:
        stack = ModelParams(np.stack([params.values for params in start]), layout)
    work = Workspace(layout, min(cfg.batch_size, len(ds)), stack)
    velocity = np.zeros_like(stack.values)
    targets = ds.labels if targets is None else targets
    epoch_losses = []  # each epoch's mean batch loss
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            perm = rng.stream(seed, "shuffle", epoch).permutation(len(ds))
            xs, ys = ds.features[perm], targets[perm]
            batch_losses = []
            for first in range(0, len(ds), cfg.batch_size):
                rows = slice(first, first + cfg.batch_size)
                batch_losses.append(batch_rule(stack, work, xs[rows], ys[rows]))
                sgd_step(stack.values, work.grad, velocity, cfg.lr, cfg.momentum, work.step)
            # a non-finite parameter stays non-finite under the step (inf - finite is inf, NaN stays NaN),
            # so one check per epoch catches a diverging step of that epoch
            if not np.isfinite(stack.values).all():
                raise FloatingPointError("local training diverged to non-finite parameters")
            epoch_losses.append(float(np.mean(batch_losses)))
    mean_loss = float(np.mean(epoch_losses))
    if len(start) == 1:
        return [stack], mean_loss
    return [ModelParams(values, layout) for values in stack.values], mean_loss


def train_local(
    ds: LabeledDataset,
    params: ModelParams,
    cfg: TrainerConfig,
    seed: int,
    lam_sampler=None,
) -> tuple[ModelParams, float]:
    """E epochs of mini-batch SGD with the configured loss or mixup.

    ``lam_sampler(gen, alpha) -> lam`` overrides the Beta(alpha, alpha) draw
    (test stubbing).  Mixup trains on one-hot targets, built once per call
    and gathered once per epoch, and mixes each batch into per-call
    buffers.  Co-teaching needs two models; use
    :func:`train_local_coteaching`.
    """
    targets = None
    if cfg.method == "mixup":
        mix_alpha = cfg.method_params["alpha"]
        mix_gen = rng.stream(seed, "mixup")
        targets = one_hot(ds.labels, ds.num_classes)
        rows = min(cfg.batch_size, len(ds))
        buffers = [np.empty((rows,) + a.shape[1:], a.dtype) for a in (ds.features, targets, ds.features, targets)]

        def one_network(stack, work, x, onehot):
            lam = float(lam_sampler(mix_gen, mix_alpha)) if lam_sampler else float(mix_gen.beta(mix_alpha, mix_alpha))
            b = len(x)
            out = buffers if b == rows else [buf[:b] for buf in buffers]
            mixed_x, mixed_t = mixup_batch(x, onehot, lam, mix_gen.permutation(b), out)
            return backward(stack, mixed_x, mixed_t, kind="soft_ce", weight_decay=cfg.weight_decay, work=work)

    else:
        assert cfg.method != "coteaching", "co-teaching trains two networks: use train_local_coteaching"
        kind = cfg.method

        def one_network(stack, work, x, y):
            return backward(
                stack, x, y, kind=kind, method_params=cfg.method_params, weight_decay=cfg.weight_decay, work=work
            )

    (model,), mean_loss = _train(ds, (params,), cfg, seed, one_network, targets)
    return model, mean_loss


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
    round_t: int,
) -> tuple[ModelParams, ModelParams, float]:
    """Cross-update two networks on each other's small-loss samples.

    The two networks train as one stack, so each batch runs one forward
    pass, one backward and one SGD step for both.  Per batch, each network
    ranks its per-sample CE losses and keeps the smallest R(t) fraction;
    each network then steps on the subset its peer selected.  Both
    networks share the batch schedule.  The update loss is backpropagated
    through the ranking pass, as in Han et al.'s reference implementation
    (arXiv 1804.06872); a kept row's values come from the full-batch
    matmul, which can differ in the last bits from a pass over the kept
    rows alone.
    """
    keep_fraction = coteaching_keep_fraction(round_t, cfg.method_params["forget_rate"], cfg.method_params["ramp_rounds"])

    def cross_update(stack, work, x, y):
        # one stacked pass ranks the batch for both networks; each network's
        # pass is then narrowed to its peer's selection and backpropagated
        b = len(x)
        probs = forward_cached(stack, x, work)
        per = work.per_sample[: 2 * b]
        row_losses(probs, np.concatenate((y, y)), "ce", {}, per, work.row_ids[: 2 * b])
        kept = [small_loss_selection(per[:b], keep_fraction), small_loss_selection(per[b:], keep_fraction)]
        peers = np.array(kept[::-1])  # row s: the rows network s steps on
        work.keep(peers)
        return backward_cached(stack, work, y[peers].ravel(), kind="ce", weight_decay=cfg.weight_decay)

    (model_a, model_b), mean_loss = _train(ds, (params_a, params_b), cfg, seed, cross_update)
    return model_a, model_b, mean_loss
