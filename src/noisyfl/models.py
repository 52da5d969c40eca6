"""Desk-scale differentiable models: linear-softmax and one-hidden-layer MLP.

Parameters live in a single flat float64 vector; the layout descriptor maps
slices of it to weight matrices.  A :class:`Workspace` holds one network's
activations and gradient buffers, so that a training step runs in place;
the loss-specific part of the hand-derived gradient is in losses.py.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import rng
from .errors import LayoutMismatchError


@dataclass(frozen=True)
class LinearSoftmaxLayout:
    """Affine map to class logits: W (C x d) plus bias (C)."""

    dim: int
    num_classes: int

    @property
    def param_count(self) -> int:
        return self.num_classes * self.dim + self.num_classes

    def to_dict(self) -> dict:
        return {"kind": "linear-softmax", "dim": self.dim, "num_classes": self.num_classes}


@dataclass(frozen=True)
class MLPLayout:
    """One hidden layer (tanh or relu) followed by an affine map to logits."""

    dim: int
    hidden: int
    num_classes: int
    activation: str = "tanh"

    def __post_init__(self):
        if self.activation not in ("tanh", "relu"):
            raise ValueError(f"unsupported activation {self.activation!r}")

    @property
    def param_count(self) -> int:
        return self.hidden * self.dim + self.hidden + self.num_classes * self.hidden + self.num_classes

    def to_dict(self) -> dict:
        return {
            "kind": "mlp",
            "dim": self.dim,
            "hidden": self.hidden,
            "num_classes": self.num_classes,
            "activation": self.activation,
        }


Layout = LinearSoftmaxLayout | MLPLayout


def layout_from_dict(doc: dict) -> Layout:
    kind = doc.get("kind")
    if kind == "linear-softmax":
        return LinearSoftmaxLayout(dim=int(doc["dim"]), num_classes=int(doc["num_classes"]))
    if kind == "mlp":
        return MLPLayout(
            dim=int(doc["dim"]),
            hidden=int(doc["hidden"]),
            num_classes=int(doc["num_classes"]),
            activation=doc.get("activation", "tanh"),
        )
    raise ValueError(f"unknown layout kind {kind!r}")


@dataclass(frozen=True)
class ModelParams:
    """Flat float64 parameter vector tied to its layout."""

    values: np.ndarray
    layout: Layout

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", values)
        if values.ndim != 1 or len(values) != self.layout.param_count:
            raise ValueError(
                f"expected {self.layout.param_count} parameters for layout, got shape {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("parameters must be finite")

    def copy(self) -> "ModelParams":
        return ModelParams(values=self.values.copy(), layout=self.layout)


def _linear_views(layout: LinearSoftmaxLayout, values: np.ndarray):
    c, d = layout.num_classes, layout.dim
    w = values[: c * d].reshape(c, d)
    b = values[c * d :]
    return w, b


def _mlp_views(layout: MLPLayout, values: np.ndarray):
    d, h, c = layout.dim, layout.hidden, layout.num_classes
    i = 0
    w1 = values[i : i + h * d].reshape(h, d)
    i += h * d
    b1 = values[i : i + h]
    i += h
    w2 = values[i : i + c * h].reshape(c, h)
    i += c * h
    b2 = values[i : i + c]
    return w1, b1, w2, b2


def _layer_views(layout: Layout, values: np.ndarray):
    if isinstance(layout, LinearSoftmaxLayout):
        return _linear_views(layout, values)
    return _mlp_views(layout, values)


def init_params(layout: Layout, seed: int) -> ModelParams:
    """Uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) per layer, from a named stream."""
    gen = rng.stream(seed, "init")
    values = np.empty(layout.param_count, dtype=np.float64)
    if isinstance(layout, LinearSoftmaxLayout):
        bound = 1.0 / np.sqrt(layout.dim)
        values[:] = gen.uniform(-bound, bound, size=layout.param_count)
    else:
        d, h, c = layout.dim, layout.hidden, layout.num_classes
        b_in = 1.0 / np.sqrt(d)
        b_hid = 1.0 / np.sqrt(h)
        n1 = h * d + h
        values[:n1] = gen.uniform(-b_in, b_in, size=n1)
        values[n1:] = gen.uniform(-b_hid, b_hid, size=layout.param_count - n1)
    return ModelParams(values=values, layout=layout)


class Workspace:
    """One network's buffers for forward and backward passes over up to ``rows`` rows.

    The caller owns it: a local-training call builds one per network and
    hands it to every :func:`forward_cached` and ``losses.backward`` call of
    that network, so a step allocates almost nothing.  Everything those
    calls return (probabilities, per-sample losses, the gradient) is a view
    of these buffers and holds only until the next call with the same
    workspace.  ``probs`` holds the logits, then the probabilities, then
    d(mean loss)/d(logits); ``grad_views`` are the per-layer views of the
    flat ``grad``, in the layout's order.  :meth:`keep` narrows the last
    pass to some of its rows, so that a backward can reuse it.
    """

    def __init__(self, layout: Layout, rows: int):
        c, p = layout.num_classes, layout.param_count
        self.layout = layout
        self.rows = rows
        self.row_ids = np.arange(rows)
        self.probs = np.empty((rows, c))
        self.row_stat = np.empty((rows, 1))  # softmax row max, then row sum
        self.per_sample = np.empty(rows)
        self.row_scale = np.empty(rows)
        self.grad = np.empty(p)
        self.decay = np.empty(p)
        self.finite = np.empty(p, dtype=bool)
        self.x = None  # the rows of the last forward pass
        self.grad_views = _layer_views(layout, self.grad)
        if isinstance(layout, MLPLayout):
            self.z1 = np.empty((rows, layout.hidden))
            self.hidden = np.empty((rows, layout.hidden))
            self.dhidden = np.empty((rows, layout.hidden))

    def keep(self, rows: np.ndarray) -> None:
        """Narrow the last forward pass to ``rows`` of it, moved to the head in that order.

        A backward over the workspace then sees only those rows, as if the
        pass had run on ``x[rows]``; the values are the full pass's, which
        can differ in the last bits from a pass over the subset alone.
        """
        k = len(rows)
        self.probs[:k] = self.probs[rows]
        if isinstance(self.layout, MLPLayout):
            self.z1[:k] = self.z1[rows]
            self.hidden[:k] = self.hidden[rows]
        self.x = self.x[rows]

    def backprop(self, params: ModelParams, weight_decay: float) -> np.ndarray:
        """``grad`` from the mean-loss logit gradient left in ``probs`` by the caller.

        It reverses the last forward pass (whose ``hidden`` it overwrites)
        and adds ``weight_decay * params.values``.
        """
        b = len(self.x)
        dlogits = self.probs[:b]
        if isinstance(self.layout, LinearSoftmaxLayout):
            gw, gb = self.grad_views
            np.matmul(dlogits.T, self.x, out=gw)
            np.add.reduce(dlogits, axis=0, out=gb)
        else:
            gw1, gb1, gw2, gb2 = self.grad_views
            _, _, w2, _ = _mlp_views(self.layout, params.values)
            hidden, dz1 = self.hidden[:b], self.dhidden[:b]
            np.matmul(dlogits.T, hidden, out=gw2)
            np.add.reduce(dlogits, axis=0, out=gb2)
            np.matmul(dlogits, w2, out=dz1)
            if self.layout.activation == "tanh":
                np.square(hidden, out=hidden)
                np.subtract(1.0, hidden, out=hidden)  # tanh' = 1 - tanh^2
                dz1 *= hidden
            else:
                dz1 *= np.greater(self.z1[:b], 0.0, out=hidden)  # relu' as 1.0/0.0
            np.matmul(dz1.T, self.x, out=gw1)
            np.add.reduce(dz1, axis=0, out=gb1)
        if weight_decay:
            self.grad += np.multiply(params.values, weight_decay, out=self.decay)
        return self.grad


def forward(params: ModelParams, x: np.ndarray) -> np.ndarray:
    """Class-probability rows (softmax output) for a batch of feature rows."""
    probs, _ = forward_cached(params, x)
    return probs


def forward_cached(params: ModelParams, x: np.ndarray, work: Workspace | None = None):
    """Forward pass into ``work``; returns the probability rows and the workspace.

    Without ``work`` a one-shot workspace sized to ``x`` is built.  The
    returned rows alias ``work.probs``; the workspace also keeps what
    backward needs (``x``, ``z1``, ``hidden``).
    """
    x = np.asarray(x, dtype=np.float64)
    layout = params.layout
    if x.ndim != 2 or x.shape[1] != layout.dim:
        raise LayoutMismatchError(f"input of shape {x.shape} does not match layout dim {layout.dim}")
    b = len(x)
    if work is None:
        work = Workspace(layout, b)
    elif work.layout != layout:
        raise LayoutMismatchError("workspace layout does not match the parameters")
    elif b > work.rows:
        raise ValueError(f"batch of {b} rows exceeds the workspace's {work.rows}")
    logits = work.probs[:b]
    if isinstance(layout, LinearSoftmaxLayout):
        w, bias = _linear_views(layout, params.values)
        np.matmul(x, w.T, out=logits)
    else:
        w1, b1, w2, bias = _mlp_views(layout, params.values)
        z1, hidden = work.z1[:b], work.hidden[:b]
        np.matmul(x, w1.T, out=z1)
        z1 += b1
        if layout.activation == "tanh":
            np.tanh(z1, out=hidden)
        else:
            np.maximum(z1, 0.0, out=hidden)
        np.matmul(hidden, w2.T, out=logits)
    logits += bias
    row_stat = work.row_stat[:b]
    logits -= np.maximum.reduce(logits, axis=1, keepdims=True, out=row_stat)
    np.exp(logits, out=logits)
    logits /= np.add.reduce(logits, axis=1, keepdims=True, out=row_stat)
    work.x = x
    return logits, work


CHECKPOINT_MAGIC = "noisyfl-checkpoint"


def save_checkpoint(params: ModelParams, path: str, round_t: int = 0, seed: int = 0) -> None:
    """JSON header line + little-endian float64 payload."""
    header = {
        "format": CHECKPOINT_MAGIC,
        "layout": params.layout.to_dict(),
        "round": int(round_t),
        "seed": int(seed),
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        fh.write(params.values.astype("<f8").tobytes())


def load_checkpoint(path: str) -> tuple[ModelParams, dict]:
    with open(path, "rb") as fh:
        header_line = fh.readline()
        payload = fh.read()
    header = json.loads(header_line.decode("utf-8"))
    if header.get("format") != CHECKPOINT_MAGIC:
        raise ValueError(f"{path} is not a parameter checkpoint")
    layout = layout_from_dict(header["layout"])
    values = np.frombuffer(payload, dtype="<f8").astype(np.float64)
    return ModelParams(values=values, layout=layout), header
