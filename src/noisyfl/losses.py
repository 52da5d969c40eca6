"""Per-sample training losses and their exact gradients.

Every loss is defined on softmax probability rows; gradients flow through
the softmax in closed form, so each loss only has to supply its per-sample
value and dloss/dlogits.  All reductions are batch means.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import ModelParams, forward_cached, logit_grad_to_param_grad

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


def _pick(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    return probs[np.arange(len(labels)), labels]


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    out = np.zeros((len(labels), num_classes), dtype=np.float64)
    out[np.arange(len(labels)), labels] = 1.0
    return out


def loss_ce(probs: np.ndarray, labels: np.ndarray) -> LossOutput:
    """Cross entropy -log p_y."""
    per = -np.log(np.maximum(_pick(probs, labels), _LOG_FLOOR))
    return LossOutput(value=float(per.mean()), per_sample=per)


def loss_soft_ce(probs: np.ndarray, targets: np.ndarray) -> LossOutput:
    """Cross entropy against soft simplex targets (mixup path)."""
    per = -(targets * np.log(np.maximum(probs, _LOG_FLOOR))).sum(axis=1)
    return LossOutput(value=float(per.mean()), per_sample=per)


def loss_sce(
    probs: np.ndarray,
    labels: np.ndarray,
    alpha: float = SCE_DEFAULT_ALPHA,
    beta: float = SCE_DEFAULT_BETA,
    log_clip: float = SCE_DEFAULT_LOG_CLIP,
) -> LossOutput:
    """Symmetric cross entropy alpha*CE + beta*RCE with log(0) clipped to log_clip."""
    if alpha <= 0 or beta <= 0:
        raise ValueError("sce requires alpha > 0 and beta > 0")
    if log_clip >= 0:
        raise ValueError("log_clip must be negative")
    ce = -np.log(np.maximum(_pick(probs, labels), _LOG_FLOOR))
    rce = -log_clip * (1.0 - _pick(probs, labels))
    per = alpha * ce + beta * rce
    return LossOutput(value=float(per.mean()), per_sample=per)


def loss_gce(probs: np.ndarray, labels: np.ndarray, q: float = GCE_DEFAULT_Q) -> LossOutput:
    """Generalized cross entropy (1 - p_y^q)/q; q -> 1 recovers 1 - p_y."""
    if not 0.0 < q <= 1.0:
        raise ValueError("gce requires 0 < q <= 1")
    per = (1.0 - _pick(probs, labels) ** q) / q
    return LossOutput(value=float(per.mean()), per_sample=per)


def loss_mae(probs: np.ndarray, labels: np.ndarray) -> LossOutput:
    """Mean absolute error against the one-hot target, which reduces to 2(1 - p_y)."""
    per = 2.0 * (1.0 - _pick(probs, labels))
    return LossOutput(value=float(per.mean()), per_sample=per)


def evaluate_loss(probs: np.ndarray, labels: np.ndarray, kind: str, method_params: dict | None = None) -> LossOutput:
    """Dispatch by loss kind; ``labels`` is a soft-target matrix for soft_ce."""
    mp = method_params or {}
    if kind == "ce":
        return loss_ce(probs, labels)
    if kind == "sce":
        return loss_sce(
            probs,
            labels,
            alpha=mp.get("alpha", SCE_DEFAULT_ALPHA),
            beta=mp.get("beta", SCE_DEFAULT_BETA),
            log_clip=mp.get("log_clip", SCE_DEFAULT_LOG_CLIP),
        )
    if kind == "gce":
        return loss_gce(probs, labels, q=mp.get("q", GCE_DEFAULT_Q))
    if kind == "mae":
        return loss_mae(probs, labels)
    if kind == "soft_ce":
        return loss_soft_ce(probs, labels)
    raise ValueError(f"unknown loss kind {kind!r}")


def _logit_gradients(probs: np.ndarray, labels: np.ndarray, kind: str, mp: dict) -> np.ndarray:
    """Per-sample dloss/dlogits; every loss here factors through (p - target)."""
    if kind == "soft_ce":
        return probs - labels
    onehot = one_hot(labels, probs.shape[1])
    diff = probs - onehot
    if kind == "ce":
        return diff
    p_y = _pick(probs, labels)
    if kind == "mae":
        return 2.0 * p_y[:, None] * diff
    if kind == "gce":
        q = mp.get("q", GCE_DEFAULT_Q)
        return (p_y**q)[:, None] * diff
    if kind == "sce":
        alpha = mp.get("alpha", SCE_DEFAULT_ALPHA)
        beta = mp.get("beta", SCE_DEFAULT_BETA)
        log_clip = mp.get("log_clip", SCE_DEFAULT_LOG_CLIP)
        scale = alpha + beta * (-log_clip) * p_y
        return scale[:, None] * diff
    raise ValueError(f"unknown loss kind {kind!r}")


def backward(
    params: ModelParams,
    x: np.ndarray,
    labels: np.ndarray,
    kind: str = "ce",
    method_params: dict | None = None,
    weight_decay: float = 0.0,
) -> LossOutput:
    """Mean loss, per-sample losses, and the exact flat gradient.

    The gradient is d(mean loss)/dw plus ``weight_decay * w``; it matches
    central finite differences of mean loss + weight_decay/2 * |w|^2.
    """
    mp = method_params or {}
    probs, cache = forward_cached(params, x)
    out = evaluate_loss(probs, labels, kind, mp)
    dlogits = _logit_gradients(probs, labels, kind, mp) / len(x)
    grad = logit_grad_to_param_grad(params, cache, dlogits)
    if weight_decay:
        grad += weight_decay * params.values
    return LossOutput(value=out.value, per_sample=out.per_sample, grad=grad)
