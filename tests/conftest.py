"""Shared test helpers: independent oracles kept deliberately naive.

The oracles compute in float64, while the package trains and evaluates in
float32: each widens its float32 inputs exactly and is the reference that
the float32 kernels are held to.
"""

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


def float_dtypes(obj) -> dict:
    """The dtype of every floating-point array that ``obj`` holds as an attribute, or in a list attribute."""
    dtypes = {}
    for name, value in vars(obj).items():
        arrays = value if isinstance(value, list) else [value]
        for i, a in enumerate(arrays):
            if isinstance(a, np.ndarray) and a.dtype.kind == "f":
                dtypes[f"{name}[{i}]" if isinstance(value, list) else name] = a.dtype
    return dtypes


def recorded_workspaces(monkeypatch, module) -> list:
    """A list that grows by each Workspace ``module`` makes from now on."""
    made = []

    class Recorded(Workspace):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(module, "Workspace", Recorded)
    return made


def mixup_buffers(x, onehot):
    """``mixup_batch``'s ``out``: mixed rows, mixed targets and their scratch."""
    return np.empty_like(x), np.empty_like(onehot), np.empty_like(x), np.empty_like(onehot)


def finite_difference_grad(params, x, y, kind, method_params=None, weight_decay=0.0, h=1e-5):
    """Central-difference gradient of the float64 oracle's mean loss + (wd/2)|w|^2, coordinate by coordinate.

    ``params`` and ``x`` are widened to float64 (exactly) and every
    difference is taken in float64, so the float32 kernels under test take
    no part in it.  With h = 1e-5 the truncation error is O(h^2), ~1e-10,
    and the rounding error ~1e-16 / h, ~1e-11.
    """
    mp = resolved(kind, method_params)
    values, x = np.asarray(params.values, dtype=np.float64), np.asarray(x, dtype=np.float64)

    def objective(values):
        per_sample = oracle_losses(oracle_probs(values, params.layout, x), y, kind, mp)
        return float(per_sample.mean()) + 0.5 * weight_decay * float(values @ values)

    grad = np.zeros_like(values)
    for i in range(len(grad)):
        plus = values.copy()
        plus[i] += h
        minus = values.copy()
        minus[i] -= h
        grad[i] = (objective(plus) - objective(minus)) / (2.0 * h)
    return grad


def oracle_losses(probs, labels, kind, method_params):
    """Each row's loss in float64, written from the definitions: the float64 oracle of every loss.

    ce is -log p_y; sce is alpha*CE + beta*RCE, where RCE = -sum_k p_k log
    onehot_k with log 0 clipped to ``log_clip``; gce is (1 - p_y^q)/q; mae
    is |onehot - p|_1; soft_ce is -sum_k t_k log p_k for soft targets t.
    """
    if kind == "soft_ce":
        return -(labels * np.log(probs)).sum(axis=1)
    p_y = probs[np.arange(len(probs)), labels]
    onehot = np.eye(probs.shape[1])[labels]
    if kind == "ce":
        return -np.log(p_y)
    if kind == "sce":
        rce = -(probs * np.where(onehot == 1.0, 0.0, method_params["log_clip"])).sum(axis=1)
        return method_params["alpha"] * -np.log(p_y) + method_params["beta"] * rce
    if kind == "gce":
        return (1.0 - p_y ** method_params["q"]) / method_params["q"]
    assert kind == "mae", kind
    return np.abs(onehot - probs).sum(axis=1)


def oracle_probs(values, layout, x):
    """Probability rows of the network ``values`` of ``layout`` for ``x``, in float64, row by row with plain math.exp.

    ``values`` and ``x`` are widened to float64: the forward pass of the float64 oracle.
    """
    values = np.asarray(values, dtype=np.float64)
    rows = []
    for sample in np.asarray(x, dtype=np.float64):
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
