"""Shared test helpers: independent oracles kept deliberately naive."""

from __future__ import annotations

import math

import numpy as np

from noisyfl.localtrain import TrainerConfig
from noisyfl.losses import backward
from noisyfl.models import ModelParams, Workspace, forward_cached


def resolved(kind, method_params=None):
    """The parameters training hands the loss ``kind``: ``method_params`` over its method's defaults.

    soft_ce is mixup's loss, which takes none.
    """
    if kind == "soft_ce":
        return None
    return TrainerConfig(method=kind, method_params=method_params or {}).method_params


def fresh_forward(params, x):
    """The probability rows of one pass over ``x``, in a workspace made for it."""
    return forward_cached(params, x, Workspace(params.layout, len(x), params))


def fresh_backward(params, x, labels, kind, method_params=None, weight_decay=0.0):
    """``backward`` in a workspace made for it; returns its mean loss and the workspace (gradient, each row's loss).

    ``method_params`` are written values; the defaults of ``kind``'s method fill in the rest.
    """
    work = Workspace(params.layout, len(x), params)
    mp = resolved(kind, method_params)
    loss = backward(params, x, labels, kind=kind, weight_decay=weight_decay, work=work, method_params=mp)
    return loss, work


def count_builds(monkeypatch) -> list:
    """A list that grows by one for each ModelParams this process builds from now on."""
    built = []
    post_init = ModelParams.__post_init__

    def counting_post_init(params):
        built.append(None)
        post_init(params)

    monkeypatch.setattr(ModelParams, "__post_init__", counting_post_init)
    return built


def mixup_buffers(x, onehot):
    """``mixup_batch``'s ``out``: mixed rows, mixed targets and their scratch."""
    return np.empty_like(x), np.empty_like(onehot), np.empty_like(x), np.empty_like(onehot)


def finite_difference_grad(params, x, y, kind, method_params=None, weight_decay=0.0, h=1e-5):
    """Central-difference gradient of mean loss + (wd/2)|w|^2, coordinate by coordinate."""
    work = Workspace(params.layout, len(x))
    mp = resolved(kind, method_params)

    def objective(values):
        net = ModelParams(values, params.layout)
        loss = backward(net, x, y, kind=kind, weight_decay=0.0, work=work, method_params=mp)
        return loss + 0.5 * weight_decay * float(values @ values)

    grad = np.zeros_like(params.values)
    for i in range(len(grad)):
        plus = params.values.copy()
        plus[i] += h
        minus = params.values.copy()
        minus[i] -= h
        grad[i] = (objective(plus) - objective(minus)) / (2.0 * h)
    return grad


def naive_softmax_forward(params, x):
    """Per-row reimplementation of the forward pass using plain math.exp."""
    layout = params.layout
    values = params.values
    rows = []
    for sample in np.asarray(x, dtype=float):
        if layout.hidden is None:
            c, d = layout.num_classes, layout.dim
            w = values[: c * d].reshape(c, d)
            b = values[c * d :]
            logits = [float(w[j] @ sample + b[j]) for j in range(c)]
        else:
            d, h, c = layout.dim, layout.hidden, layout.num_classes
            i = 0
            w1 = values[i : i + h * d].reshape(h, d)
            i += h * d
            b1 = values[i : i + h]
            i += h
            w2 = values[i : i + c * h].reshape(c, h)
            i += c * h
            b2 = values[i:]
            z1 = [float(w1[j] @ sample + b1[j]) for j in range(h)]
            if layout.activation == "tanh":
                hid = [math.tanh(v) for v in z1]
            else:
                hid = [max(v, 0.0) for v in z1]
            logits = [float(np.dot(w2[j], hid) + b2[j]) for j in range(c)]
        top = max(logits)
        exps = [math.exp(v - top) for v in logits]
        total = sum(exps)
        rows.append([e / total for e in exps])
    return np.array(rows)
