"""Desk-scale differentiable models: a linear softmax or a one-hidden-layer MLP.

One :class:`Layout` describes both as a chain of affine layers.  Parameters
live in a single flat float32 vector, each layer's weight matrix and then
its bias, layer after layer.  float32 is the one dtype that networks train
and evaluate in: every buffer and every row they compute with has it.  A
stack of networks of one layout is an (S, P) array with one network per
row.  A :class:`Workspace` holds the
buffers of one network or of one stack for a local-training call and is
bound to it: it takes the views of its weight matrices (and their
transposes) once, and they follow the training loop's in-place updates of
the values, so a step runs its kernels in place and recomputes no view.
Each kernel of a pass runs once for the whole stack, so co-teaching's two
networks cost one pass's dispatch.  What a pass returns is a view of the
workspace's buffers and holds until its next pass.  :func:`forward_cached`
binds a network and runs :meth:`Workspace.forward`, and every pass runs in
a workspace its caller made; the loss-specific part of the hand-derived
gradient is in losses.py.  :func:`save_checkpoint` writes a network's
values as one .npy array, widened exactly to float64; the layout, round
and seed it belongs to are the train stage's key, not the file's.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import rng


ACTIVATIONS = ("tanh", "relu")


@dataclass(frozen=True)
class Layout:
    """Class logits from ``dim`` features: a linear softmax, or first a ``hidden`` layer with an ``activation``."""

    dim: int
    num_classes: int
    hidden: int | None = None
    activation: str = "tanh"

    def __post_init__(self):
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unsupported activation {self.activation!r}")

    @property
    def shapes(self) -> tuple[tuple[int, int], ...]:
        """Each affine layer's weight matrix as (outputs, inputs), in order; each has a bias of its outputs."""
        if self.hidden is None:
            return ((self.num_classes, self.dim),)
        return ((self.hidden, self.dim), (self.num_classes, self.hidden))

    @cached_property
    def param_count(self) -> int:
        return sum(out * inp + out for out, inp in self.shapes)


def layout_from_dict(doc: dict) -> Layout:
    """The layout of a config's model, which the config has validated, with the data's ``dim`` and ``num_classes``."""
    layers = {"hidden": doc["hidden"], "activation": doc["activation"]} if doc["kind"] == "mlp" else {}
    return Layout(dim=doc["dim"], num_classes=doc["num_classes"], **layers)


@dataclass(frozen=True)
class ModelParams:
    """Flat float32 parameters tied to their layout.

    ``values`` is one network's vector of ``layout.param_count`` entries,
    or a stack of S networks of that layout as the rows of an (S, P)
    array, which a :class:`Workspace` runs in one pass.  Values of another
    dtype are cast to float32; float32 values are taken as they are, not
    copied.
    """

    values: np.ndarray
    layout: Layout

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float32)
        object.__setattr__(self, "values", values)
        if values.ndim not in (1, 2) or values.shape[-1] != self.layout.param_count:
            raise ValueError(
                f"expected {self.layout.param_count} parameters for layout, got shape {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("parameters must be finite")

    def copy(self) -> "ModelParams":
        return ModelParams(values=self.values.copy(), layout=self.layout)


def _layer_views(layout: Layout, values: np.ndarray) -> list[np.ndarray]:
    """Each layer's weight and bias views, in order, of one network's values or of every row of a stack at once."""
    lead = values.shape[:-1]
    views, i = [], 0
    for out, inp in layout.shapes:
        views.append(values[..., i : i + out * inp].reshape(lead + (out, inp)))
        i += out * inp
        views.append(values[..., i : i + out])
        i += out
    return views


def init_params(layout: Layout, seed: int) -> ModelParams:
    """Uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) per layer, from a named stream.

    The stream draws float64s, which are then rounded to float32.
    """
    gen = rng.stream(seed, "init")
    draws = []
    for out, inp in layout.shapes:
        bound = 1.0 / np.sqrt(inp)
        draws.append(gen.uniform(-bound, bound, size=out * inp + out))
    return ModelParams(values=np.concatenate(draws), layout=layout)


class Workspace:
    """The buffers of one network, or of a stack of S networks, for a local-training call.

    A workspace is made for the shape of the ``ModelParams`` it computes
    with: one network's (P,) values, or an (S, P) stack whose rows are S
    networks of one layout (S = 1 without ``params``).  Every kernel of a
    pass runs once for the whole stack: the matmuls broadcast over the
    stack axis (``x @ W1^T`` for each network's W1), and the softmax and
    the loss work on the stack's rows as one flat block.  The block of a
    pass over ``b`` rows is the first S*b rows of each row buffer, network
    after network, so the rows of network s are ``s*b`` to ``(s+1)*b``.

    :meth:`bind` takes the weight views of the values (and the transposes
    the matmuls read).  They are views, so they stay valid while the
    caller updates the values in place, as the training loop does after
    every step; binding the same values again is a no-op, and only another
    network's values are bound anew.  :meth:`forward` and :meth:`backprop`
    run only their kernels: they take the rows as given (float32,
    ``layout.dim`` columns, at most ``rows`` of them).  :func:`forward_cached`
    and ``losses.backward`` bind the network they are given and run them;
    their callers size the workspace and the data, so nothing checks again.

    Buffers, all float32: ``probs`` holds the logits, then the
    probabilities, then d(mean loss)/d(logits); ``per_sample``,
    ``row_scale`` and ``row_stat`` are per-row scratch, and ``by_class``
    the logits transposed; ``hidden`` (the activations) and ``dhidden`` are
    the hidden layer's, made only when the layout has one; ``grad`` is the
    gradient, shaped like the values, with per-layer views ``grad_views``
    in the layout's order; ``decay`` and ``step`` are scratch of that shape
    for weight decay and the SGD step.  Everything a pass returns is a view
    of these buffers and holds only until the next pass in the same workspace.
    :meth:`keep` narrows the last pass to some of its rows, so that a
    backward can reuse it; it gathers them into a spare copy of ``probs``
    (and of ``hidden``, if any), made on its first call, and swaps it in.
    """

    def __init__(self, layout: Layout, rows: int, params: ModelParams | None = None):
        shape = (layout.param_count,) if params is None else params.values.shape
        self.layout = layout
        self.rows = rows
        self.networks = 1 if len(shape) == 1 else shape[0]
        self.mlp = layout.hidden is not None
        self.tanh = self.mlp and layout.activation == "tanh"
        n = self.networks * rows
        self.row_ids = np.arange(n)
        self.probs = np.empty((n, layout.num_classes), dtype=np.float32)
        self.row_stat = np.empty((n, 1), dtype=np.float32)  # softmax row max, then row sum
        self.by_class = np.empty((layout.num_classes, n), dtype=np.float32)  # the logits transposed, for the row max
        self.per_sample = np.empty(n, dtype=np.float32)
        self.row_scale = np.empty(n, dtype=np.float32)
        self.grad = np.empty(shape, dtype=np.float32)
        self.decay = np.empty(shape, dtype=np.float32)
        self.step = np.empty(shape, dtype=np.float32)
        self.x = None  # the rows of the last pass: (b, d), or (S, k, d) once a stack keeps k each
        self.values = None  # the bound network's (or stack's) parameters
        self.spare_probs = self.spare_hidden = None  # keep's gather targets, made by its first call
        self.grad_views = _layer_views(layout, self.grad)
        if self.mlp:
            self.hidden = np.empty((n, layout.hidden), dtype=np.float32)
            self.dhidden = np.empty((n, layout.hidden), dtype=np.float32)
        if params is not None:
            self.bind(params)

    def bind(self, params: ModelParams) -> None:
        """Compute with ``params`` from the next pass on (its layout and shape must be this workspace's)."""
        if self.values is params.values:
            return
        self.values = params.values
        *hidden_layer, self.w_out, b_out = _layer_views(self.layout, params.values)
        # biases broadcast over each network's rows
        if hidden_layer:
            w1, b1 = hidden_layer
            self.w1_t, self.b1 = w1.swapaxes(-1, -2), b1[..., None, :]
        self.w_out_t, self.b_out = self.w_out.swapaxes(-1, -2), b_out[..., None, :]

    def _block(self, buf: np.ndarray, b: int) -> np.ndarray:
        """The pass's first ``b`` rows of ``buf`` for each network: (b, m), or (S, b, m) for a stack."""
        if self.networks == 1:
            return buf[:b]
        return buf[: self.networks * b].reshape(self.networks, b, buf.shape[1])

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Probability rows of the bound networks for ``x``: a view of ``probs``, network after network."""
        b, _ = x.shape  # (b, d): another rank fails here, not in a broadcast
        logits = self._block(self.probs, b)
        hidden = x  # the output layer's input: x itself without a hidden layer
        if self.mlp:
            hidden = self._block(self.hidden, b)
            np.matmul(x, self.w1_t, out=hidden)
            hidden += self.b1
            if self.tanh:
                np.tanh(hidden, out=hidden)
            else:
                np.maximum(hidden, 0.0, out=hidden)
        np.matmul(hidden, self.w_out_t, out=logits)
        logits += self.b_out
        n = self.networks * b
        probs, row_stat, by_class = self.probs[:n], self.row_stat[:n], self.by_class[:, :n]
        np.copyto(by_class, probs.T)  # a max down axis 0 runs along whole rows: 2.5-10x faster, the same bits
        probs -= np.maximum.reduce(by_class, axis=0, out=row_stat[:, 0])[:, None]
        np.exp(probs, out=probs)
        probs /= np.add.reduce(probs, axis=1, keepdims=True, out=row_stat)
        self.x = x
        return probs

    def keep(self, rows: np.ndarray) -> None:
        """Narrow the last forward pass to ``rows`` of it, moved to the head in that order.

        ``rows`` holds each network's rows: (k,) for one network, (S, k)
        for a stack, row s for network s.  A backward over the workspace
        then sees only those rows, as if each network's pass had run on
        ``x[rows[s]]``; the values are the full pass's, which can differ in
        the last bits from a pass over the subset alone.  A pass is
        narrowed once: ``rows`` index its own rows, so another call
        needs a new forward pass first.
        """
        b = self.x.shape[-2]
        picked = (np.arange(0, self.networks * b, b)[:, None] + rows).ravel()
        n = len(picked)
        if self.spare_probs is None:
            self.spare_probs = np.empty_like(self.probs)
            self.spare_hidden = np.empty_like(self.hidden) if self.mlp else None
        # gather into the spare buffer and swap, so each block is copied once
        np.take(self.probs, picked, axis=0, out=self.spare_probs[:n], mode="clip")
        self.probs, self.spare_probs = self.spare_probs, self.probs
        if self.mlp:
            np.take(self.hidden, picked, axis=0, out=self.spare_hidden[:n], mode="clip")
            self.hidden, self.spare_hidden = self.spare_hidden, self.hidden
        self.x = self.x[rows]  # (k, d), or (S, k, d): each network's own rows

    def backprop(self, weight_decay: float) -> None:
        """``grad`` from the mean-loss logit gradient left in ``probs`` by the caller.

        It reverses the last forward pass (whose ``hidden`` it overwrites)
        for every network at once and adds ``weight_decay`` times the bound
        values.
        """
        b = self.x.shape[-2]
        dlogits = self._block(self.probs, b)
        *hidden_grads, gw_out, gb_out = self.grad_views
        hidden = self._block(self.hidden, b) if self.mlp else self.x  # the output layer's input
        np.matmul(dlogits.swapaxes(-1, -2), hidden, out=gw_out)
        np.add.reduce(dlogits, axis=-2, out=gb_out)
        if self.mlp:
            gw1, gb1 = hidden_grads
            dz1 = self._block(self.dhidden, b)
            np.matmul(dlogits, self.w_out, out=dz1)
            if self.tanh:
                np.square(hidden, out=hidden)
                np.subtract(1.0, hidden, out=hidden)  # tanh' = 1 - tanh^2
                dz1 *= hidden
            else:
                dz1 *= np.greater(hidden, 0.0, out=hidden)  # relu' as 1.0/0.0: relu(z) > 0 where z > 0
            np.matmul(dz1.swapaxes(-1, -2), self.x, out=gw1)
            np.add.reduce(dz1, axis=-2, out=gb1)
        if weight_decay:
            self.grad += np.multiply(self.values, weight_decay, out=self.decay)


def forward_cached(params: ModelParams, x: np.ndarray, work: Workspace) -> np.ndarray:
    """Forward pass into ``work``; returns the probability rows.

    ``work`` is bound to ``params`` first; it must be made for their layout
    and shape, and hold at least ``len(x)`` rows of ``layout.dim`` features.
    For a stack of S networks every network sees the rows of ``x``, and the
    S*len(x) returned rows are network after network.  The returned rows
    alias ``work.probs``; the workspace also keeps what backward needs
    (``x`` and ``hidden``).
    """
    work.bind(params)
    return work.forward(x)


def save_checkpoint(params: ModelParams, path: str) -> None:
    """One .npy array: the float32 values, widened exactly to little-endian float64.

    It is written through an open file, so ``np.save`` adds no ``.npy`` suffix to ``path``.
    """
    with open(path, "wb") as fh:
        np.save(fh, params.values.astype("<f8"), allow_pickle=False)
