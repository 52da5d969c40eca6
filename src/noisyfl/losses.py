"""Per-sample training losses and their exact gradients.

Every loss is defined on softmax probability rows; gradients flow through
the softmax in closed form, so each loss only has to supply its per-sample
value and dloss/dlogits.  All reductions are batch means.

:func:`backward` runs in a caller-owned ``models.Workspace`` when one is
given: the probabilities become dloss/dlogits in place and the gradient
lands in the workspace's flat buffer, so what it returns is valid only
until the next call with that workspace.  Without one it builds its own.
It is a forward pass followed by :func:`backward_cached`, which backpropagates
through the pass a workspace already holds.  Co-teaching calls that directly:
as in Han et al.'s reference implementation (arXiv 1804.06872), each network
backpropagates its update loss through the forward pass that ranked the batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import ModelParams, Workspace, forward_cached

LOSS_KINDS = ("ce", "sce", "gce", "mae", "soft_ce")

SCE_DEFAULT_ALPHA = 0.1
SCE_DEFAULT_BETA = 1.0
SCE_DEFAULT_LOG_CLIP = -4.0
GCE_DEFAULT_Q = 0.7

_LOG_FLOOR = 1e-300


@dataclass(frozen=True)
class LossOutput:
    """Mean loss value, per-sample losses, and (when computed) the flat gradient."""

    value: float
    per_sample: np.ndarray
    grad: np.ndarray | None = None


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    out = np.zeros((len(labels), num_classes), dtype=np.float64)
    out[np.arange(len(labels)), labels] = 1.0
    return out


def _mean(per_sample: np.ndarray) -> float:
    return float(np.add.reduce(per_sample) / len(per_sample))


def _sce_params(mp: dict) -> tuple[float, float, float]:
    alpha = mp.get("alpha", SCE_DEFAULT_ALPHA)
    beta = mp.get("beta", SCE_DEFAULT_BETA)
    log_clip = mp.get("log_clip", SCE_DEFAULT_LOG_CLIP)
    if alpha <= 0 or beta <= 0:
        raise ValueError("sce requires alpha > 0 and beta > 0")
    if log_clip >= 0:
        raise ValueError("log_clip must be negative")
    return alpha, beta, log_clip


def _per_sample(probs: np.ndarray, labels: np.ndarray, kind: str, mp: dict, out: np.ndarray, row_ids: np.ndarray):
    """Each row's loss, written into ``out``; returns p_y (None for soft_ce).

    ``labels`` is a soft-target matrix for soft_ce; ``row_ids`` is
    ``arange(len(probs))``.  This is the one definition of every loss
    value, for the ``loss_*`` functions, :func:`backward_cached` and
    co-teaching's ranking alike.
    """
    if kind == "soft_ce":
        terms = np.log(np.maximum(probs, _LOG_FLOOR))
        terms *= labels
        np.negative(np.add.reduce(terms, axis=1, out=out), out=out)
        return None
    if kind not in LOSS_KINDS:
        raise ValueError(f"unknown loss kind {kind!r}")
    p_label = probs[row_ids, labels]
    if kind == "ce" or kind == "sce":  # -log p_y, with log(0) floored
        np.negative(np.log(np.maximum(p_label, _LOG_FLOOR, out=out), out=out), out=out)
    if kind == "sce":  # alpha*CE + beta*RCE, RCE = -log_clip * (1 - p_y)
        alpha, beta, log_clip = _sce_params(mp)
        rce = np.subtract(1.0, p_label)
        rce *= -log_clip
        rce *= beta
        out *= alpha
        out += rce
    elif kind == "gce":  # (1 - p_y^q)/q
        q = mp.get("q", GCE_DEFAULT_Q)
        if not 0.0 < q <= 1.0:
            raise ValueError("gce requires 0 < q <= 1")
        np.subtract(1.0, p_label**q, out=out)
        out /= q
    elif kind == "mae":  # |onehot - p|_1 = 2(1 - p_y)
        np.subtract(1.0, p_label, out=out)
        out *= 2.0
    return p_label


def _loss(probs: np.ndarray, labels: np.ndarray, kind: str, mp: dict) -> LossOutput:
    per = np.empty(len(probs))
    _per_sample(probs, labels, kind, mp, per, np.arange(len(probs)))
    return LossOutput(value=_mean(per), per_sample=per)


def loss_ce(probs: np.ndarray, labels: np.ndarray) -> LossOutput:
    """Cross entropy -log p_y."""
    return _loss(probs, labels, "ce", {})


def loss_soft_ce(probs: np.ndarray, targets: np.ndarray) -> LossOutput:
    """Cross entropy against soft simplex targets (mixup path)."""
    return _loss(probs, targets, "soft_ce", {})


def loss_sce(
    probs: np.ndarray,
    labels: np.ndarray,
    alpha: float = SCE_DEFAULT_ALPHA,
    beta: float = SCE_DEFAULT_BETA,
    log_clip: float = SCE_DEFAULT_LOG_CLIP,
) -> LossOutput:
    """Symmetric cross entropy alpha*CE + beta*RCE with log(0) clipped to log_clip."""
    return _loss(probs, labels, "sce", {"alpha": alpha, "beta": beta, "log_clip": log_clip})


def loss_gce(probs: np.ndarray, labels: np.ndarray, q: float = GCE_DEFAULT_Q) -> LossOutput:
    """Generalized cross entropy (1 - p_y^q)/q; q -> 1 recovers 1 - p_y."""
    return _loss(probs, labels, "gce", {"q": q})


def loss_mae(probs: np.ndarray, labels: np.ndarray) -> LossOutput:
    """Mean absolute error against the one-hot target, which reduces to 2(1 - p_y)."""
    return _loss(probs, labels, "mae", {})


def _logit_gap(probs, labels, kind: str, mp: dict, p_label, row_ids, row_scale) -> None:
    """Overwrite ``probs`` with per-sample dloss/dlogits.

    Every loss here factors through (p - target): soft_ce and ce use it as
    is, and the robust losses scale each row by a function of p_y.
    """
    if kind == "soft_ce":
        probs -= labels
        return
    if kind == "mae":
        scale = np.multiply(p_label, 2.0, out=row_scale)
    elif kind == "gce":
        scale = p_label ** mp.get("q", GCE_DEFAULT_Q)
    elif kind == "sce":
        alpha, beta, log_clip = _sce_params(mp)
        scale = np.multiply(p_label, beta * -log_clip, out=row_scale)
        scale += alpha
    else:
        scale = None
    p_label -= 1.0  # p - onehot differs from p only at the label
    probs[row_ids, labels] = p_label
    if scale is not None:
        probs *= scale[:, None]


def backward(
    params: ModelParams,
    x: np.ndarray,
    labels: np.ndarray,
    kind: str = "ce",
    method_params: dict | None = None,
    weight_decay: float = 0.0,
    work: Workspace | None = None,
) -> LossOutput:
    """Mean loss, per-sample losses, and the exact flat gradient.

    The gradient is d(mean loss)/dw plus ``weight_decay * w``; it matches
    central finite differences of mean loss + weight_decay/2 * |w|^2.
    The pass runs in ``work`` (a one-shot workspace when None), and the
    returned ``per_sample`` and ``grad`` are views of its buffers.
    """
    _, work = forward_cached(params, x, work)
    return backward_cached(params, work, labels, kind, method_params, weight_decay)


def backward_cached(
    params: ModelParams,
    work: Workspace,
    labels: np.ndarray,
    kind: str = "ce",
    method_params: dict | None = None,
    weight_decay: float = 0.0,
) -> LossOutput:
    """:func:`backward` over the forward pass ``work`` already holds.

    ``labels`` belong to the rows of that pass, after any ``work.keep``.
    """
    mp = method_params or {}
    b = len(work.x)
    probs, per, row_ids = work.probs[:b], work.per_sample[:b], work.row_ids[:b]
    p_label = _per_sample(probs, labels, kind, mp, per, row_ids)
    _logit_gap(probs, labels, kind, mp, p_label, row_ids, work.row_scale[:b])
    probs /= b  # the gradient of the batch mean
    return LossOutput(value=_mean(per), per_sample=per, grad=work.backprop(params, weight_decay))
