"""Per-sample training losses and their exact gradients.

Every loss is defined on softmax probability rows; gradients flow through
the softmax in closed form, so each loss only has to supply its per-sample
value and dloss/dlogits.  All reductions are batch means.  The robust
losses read their parameters from ``method_params`` as
``TrainerConfig`` resolved them (defaults filled in, ranges checked);
nothing here defaults or checks a method parameter.

:func:`backward_cached` binds a ``models.Workspace`` to the given
parameters and backpropagates through the pass it already holds, turning
its probabilities into d(mean loss)/d(logits) in place; :func:`backward`
is ``forward_cached`` followed by it, and is the step of every method but
co-teaching.  Bound to a stack of networks, they compute every network's
loss over the stack's rows as one block and backpropagate once for all.
Binding a workspace to the network it already holds is a no-op, so a
training step recomputes no weight view.  They return the mean loss as a
float and leave the flat gradient in ``work.grad``, valid until the
workspace's next pass.  Co-teaching takes its update loss from the pass
that ranked the batch, as in Han et al.'s reference implementation
(arXiv 1804.06872).
"""

from __future__ import annotations

import numpy as np

from .models import ModelParams, Workspace, forward_cached

# log's argument floor: float32's smallest normal, so -log(0) is ~87.3, not inf
_LOG_FLOOR = np.finfo(np.float32).tiny


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """float32 one-hot rows of ``labels``."""
    out = np.zeros((len(labels), num_classes), dtype=np.float32)
    out[np.arange(len(labels)), labels] = 1.0
    return out


def _mean(per_sample: np.ndarray, networks: int) -> float:
    """Each network's mean over its rows, averaged over a stack of ``networks``.

    A network's mean is a float32, as its own pass gives it; the stack's
    average of them is a float64, so it is the mean of the networks' losses.
    """
    if networks == 1:
        return float(np.add.reduce(per_sample) / len(per_sample))
    means = np.add.reduce(per_sample.reshape(networks, -1), axis=1)
    means /= len(per_sample) // networks
    return float(np.add.reduce(means, dtype=np.float64) / networks)


def row_losses(probs: np.ndarray, labels: np.ndarray, kind: str, mp: dict | None, out: np.ndarray, row_ids: np.ndarray):
    """Each row's loss, written into ``out``; returns p_y (None for soft_ce).

    ``labels`` is a soft-target matrix for soft_ce; ``row_ids`` is
    ``arange(len(probs))``.  This is the one definition of every loss
    value, for :func:`backward_cached` and co-teaching's ranking alike.
    """
    if kind == "soft_ce":
        terms = np.log(np.maximum(probs, _LOG_FLOOR))
        terms *= labels
        np.negative(np.add.reduce(terms, axis=1, out=out), out=out)
        return None
    p_label = probs[row_ids, labels]
    if kind == "ce" or kind == "sce":  # -log p_y, with log(0) floored
        np.negative(np.log(np.maximum(p_label, _LOG_FLOOR, out=out), out=out), out=out)
    if kind == "sce":  # alpha*CE + beta*RCE, RCE = -log_clip * (1 - p_y)
        rce = np.subtract(1.0, p_label)
        rce *= -mp["log_clip"]
        rce *= mp["beta"]
        out *= mp["alpha"]
        out += rce
    elif kind == "gce":  # (1 - p_y^q)/q
        np.subtract(1.0, p_label ** mp["q"], out=out)
        out /= mp["q"]
    elif kind == "mae":  # |onehot - p|_1 = 2(1 - p_y)
        np.subtract(1.0, p_label, out=out)
        out *= 2.0
    elif kind != "ce":
        raise ValueError(f"unknown loss kind {kind!r}")
    return p_label


def _logit_gap(probs, labels, kind: str, mp: dict | None, p_label, row_ids, row_scale) -> None:
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
        scale = p_label ** mp["q"]
    elif kind == "sce":
        scale = np.multiply(p_label, mp["beta"] * -mp["log_clip"], out=row_scale)
        scale += mp["alpha"]
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
    *,
    kind: str,
    weight_decay: float,
    work: Workspace,
    method_params: dict | None = None,
) -> float:
    """The mean loss of a pass over ``x`` in ``work``; its exact flat gradient is left in ``work.grad``.

    The gradient is d(mean loss)/dw plus ``weight_decay * w``; it matches
    central finite differences of mean loss + weight_decay/2 * |w|^2.
    Each row's loss is left in ``work.per_sample``.
    """
    forward_cached(params, x, work)
    return backward_cached(params, work, labels, kind=kind, weight_decay=weight_decay, method_params=method_params)


def backward_cached(
    params: ModelParams,
    work: Workspace,
    labels: np.ndarray,
    *,
    kind: str,
    weight_decay: float,
    method_params: dict | None = None,
) -> float:
    """:func:`backward` over the forward pass ``work`` already holds.

    ``labels`` belong to the rows of that pass, after any ``work.keep``;
    for a stack they are each network's labels in turn, and each network's
    gradient is that of its own batch mean.  The returned loss is then the
    mean of the networks' batch means.  The backpropagation runs with ``params``.
    """
    work.bind(params)
    b = work.x.shape[-2]  # rows per network
    n = work.networks * b
    probs, per, row_ids = work.probs[:n], work.per_sample[:n], work.row_ids[:n]
    p_label = row_losses(probs, labels, kind, method_params, per, row_ids)
    _logit_gap(probs, labels, kind, method_params, p_label, row_ids, work.row_scale[:n])
    probs /= b  # the gradient of each network's batch mean
    loss = _mean(per, work.networks)
    work.backprop(weight_decay)
    return loss
