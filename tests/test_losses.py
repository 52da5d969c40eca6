import zlib

import mpmath
import numpy as np
import pytest

from conftest import (
    finite_difference_grad,
    fresh_backward,
    fresh_forward,
    mixup_buffers,
    oracle_probs,
    resolved,
)
from noisyfl.localtrain import mixup_batch, sgd_step
from noisyfl.losses import backward, backward_cached
from noisyfl.models import Layout, ModelParams, Workspace, forward_cached, init_params

# float32's unit roundoff, 2^-24: networks compute in float32, and each bound below counts its roundings
U32 = float(np.finfo(np.float32).eps) / 2

LAYOUTS = [
    Layout(dim=3, num_classes=3),
    Layout(dim=3, hidden=4, num_classes=3, activation="tanh"),
    Layout(dim=3, hidden=4, num_classes=3, activation="relu"),
]


def probs_row(p_y, num_classes=4, label=0):
    row = np.full(num_classes, (1.0 - p_y) / (num_classes - 1))
    row[label] = p_y
    return row[None, :]


def loss_and_work(probs, labels, kind, **method_params):
    """``backward(kind=...)`` on a network whose forward pass gives back ``probs``; returns its loss and workspace.

    A linear-softmax network over the identity input: row i picks weight
    column i, set to log probs[i], so the softmax returns probs[i] up to
    float32 rounding.  A zero probability becomes a logit of log(1e-300),
    whose share of the row rounds away against any probability near 1.
    """
    n, num_classes = probs.shape
    layout = Layout(dim=n, num_classes=num_classes)
    weights = np.log(np.maximum(probs, 1e-300)).T
    params = ModelParams(np.concatenate([weights.ravel(), np.zeros(num_classes)]), layout)
    return fresh_backward(params, np.eye(n, dtype=np.float32), labels, kind, method_params)


def loss_of(probs, labels, kind, **method_params):
    return loss_and_work(probs, labels, kind, **method_params)[0]


def random_probs(gen, rows, num_classes):
    raw = gen.uniform(0.01, 1.0, size=(rows, num_classes))
    return raw / raw.sum(axis=1, keepdims=True)


class TestLossValues:
    """Each loss's value through ``backward(kind=...)``, the entry every method trains with."""

    def test_perfect_prediction_zero_loss(self):
        probs = probs_row(1.0)
        labels = np.array([0])
        assert loss_of(probs, labels, "ce") == 0.0
        assert loss_of(probs, labels, "gce", q=0.7) == 0.0
        assert loss_of(probs, labels, "mae") == 0.0

    def test_gce_matches_high_precision_oracle(self):
        # independent oracle: evaluate (1 - p^q)/q with 50-digit arithmetic
        with mpmath.workdps(50):
            expected = float((1 - mpmath.mpf("0.5") ** mpmath.mpf("0.7")) / mpmath.mpf("0.7"))
        got = loss_of(probs_row(0.5), np.array([0]), "gce", q=0.7)
        # p_y = 0.5 comes back through float32's log, exp, row sum and division (~6 roundings),
        # and the power, subtraction and division of gce add ~4: 16 u leaves a margin
        assert got == pytest.approx(expected, rel=16 * U32)

    @pytest.mark.parametrize("kind", ["ce", "sce", "gce", "mae"])
    def test_zero_probability_gives_finite_loss_and_gradient(self, kind):
        """A label whose probability underflows to 0 in float32 meets log's floor, float32's smallest normal.

        The label's logit is log(1e-300) = -690.8, whose exp is 0 in float32.
        A floor that float32 cannot hold (1e-300 rounds to 0) would give
        -log(0) = inf, and a divide-by-zero warning.
        """
        loss, work = loss_and_work(probs_row(0.0), np.array([0]), kind)
        assert np.isfinite(loss) and np.isfinite(work.grad).all()
        if kind == "ce":  # p_y is 0 exactly, and the loss is -log of the floor
            assert loss == float(-np.log(np.finfo(np.float32).tiny))

    def test_gce_limit_approaches_mae_form(self):
        probs = probs_row(0.37)
        labels = np.array([0])
        near_one = loss_of(probs, labels, "gce", q=0.999)
        assert near_one == pytest.approx(1.0 - 0.37, abs=1e-3)

    def test_sce_composition(self):
        probs = probs_row(0.6)
        labels = np.array([0])
        ce = loss_of(probs, labels, "ce")
        sce = loss_of(probs, labels, "sce", alpha=0.1, beta=1.0, log_clip=-4.0)
        assert sce == pytest.approx(0.1 * ce + 4.0 * (1.0 - 0.6), rel=16 * U32)  # as in the gce oracle above

    def test_mae_value(self):
        assert loss_of(probs_row(0.25), np.array([0]), "mae") == pytest.approx(1.5, rel=1e-12)

    def test_ce_and_gce_strictly_decreasing_in_confidence(self):
        grid = np.linspace(0.05, 0.95, 19)
        ce = [loss_of(probs_row(p), np.array([0]), "ce") for p in grid]
        gce = [loss_of(probs_row(p), np.array([0]), "gce") for p in grid]
        assert all(a > b for a, b in zip(ce[:-1], ce[1:]))
        assert all(a > b for a, b in zip(gce[:-1], gce[1:]))

    def test_losses_nonnegative(self):
        gen = np.random.default_rng(0)
        for _ in range(50):
            probs = random_probs(gen, 6, 5)
            labels = gen.integers(0, 5, size=6)
            for kind in ("ce", "gce", "mae", "sce"):
                assert loss_and_work(probs, labels, kind)[1].per_sample.min() >= 0, kind

    def test_value_is_mean_of_per_sample(self):
        gen = np.random.default_rng(1)
        probs = random_probs(gen, 9, 4)
        labels = gen.integers(0, 4, size=9)
        loss, work = loss_and_work(probs, labels, "ce")
        assert loss == pytest.approx(work.per_sample.mean(), abs=1e-10)

    def test_unknown_kind_is_refused(self):
        """A kind with no loss definition raises instead of averaging a buffer no loss wrote."""
        layout = Layout(dim=3, num_classes=3)
        params, work = init_params(layout, seed=0), Workspace(layout, rows=4)
        with pytest.raises(ValueError, match="unknown loss kind 'nope'"):
            backward(params, np.zeros((4, 3)), np.zeros(4, dtype=int), kind="nope", weight_decay=0.0, work=work)

    def test_soft_ce_equals_hard_ce_on_one_hot(self):
        gen = np.random.default_rng(2)
        probs = random_probs(gen, 5, 3)
        labels = gen.integers(0, 3, size=5)
        onehot = np.eye(3)[labels]
        soft = loss_of(probs, onehot, "soft_ce")
        assert soft == pytest.approx(loss_of(probs, labels, "ce"), rel=1e-12)

    def test_network_returns_the_probabilities(self):
        # the premise of every test above: the loss sees (up to rounding) the rows it was handed
        gen = np.random.default_rng(3)
        probs = random_probs(gen, 7, 5)
        labels = gen.integers(0, 5, size=7)
        _, work = loss_and_work(probs, labels, "ce")
        expected = -np.log(probs[np.arange(7), labels])
        assert np.abs(work.per_sample / expected - 1.0).max() <= 16 * U32  # as in the gce oracle above


class TestForward:
    def test_zero_params_uniform(self):
        layout = Layout(dim=2, num_classes=4)
        params = ModelParams(np.zeros(layout.param_count), layout)
        probs = fresh_forward(params, np.random.default_rng(0).normal(size=(5, 2)).astype(np.float32))
        assert np.allclose(probs, 0.25, atol=1e-15)

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_rows_on_simplex(self, layout):
        params = init_params(layout, seed=3)
        probs = fresh_forward(params, np.random.default_rng(1).normal(size=(7, layout.dim)).astype(np.float32))
        # each of the 3 probabilities is within ~5 u of its exact value, and their sum adds 2 roundings
        assert np.abs(probs.sum(axis=1) - 1.0).max() <= 32 * U32
        assert probs.min() >= 0

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_matches_naive_reimplementation(self, layout):
        params = init_params(layout, seed=5)
        x = np.random.default_rng(2).normal(size=(6, layout.dim)).astype(np.float32)
        # the float64 oracle against float32 kernels: the longest path to a probability is the two
        # dot products (4 and 5 roundings), tanh, and the softmax's shift, exp, sum and division (7)
        assert np.abs(fresh_forward(params, x) - oracle_probs(params.values, layout, x)).max() <= 32 * U32

    def test_shape_mismatch(self):
        layout = Layout(dim=3, num_classes=2)
        params = init_params(layout, seed=0)
        with pytest.raises(ValueError, match="matmul"):  # no check of ours: the kernel refuses the width
            fresh_forward(params, np.zeros((4, 5)))


def gradient_bound(params, x) -> float:
    """How far the float32 gradient of one pass over ``x`` may lie from the exact one, relative to 1 + |g|.

    Derived from float32's unit roundoff u = 2^-24.  Each float32 operation
    returns its exact result times (1 + d), |d| <= u; numpy's exp, log,
    tanh and power are within an ulp, so each counts as 2 roundings.  A sum
    of n terms is then within gamma_n = n*u / (1 - n*u) of its exact value,
    relative to the sum of its terms' magnitudes, and a relative error
    carried in from an earlier step adds its count.  The longest path to a
    gradient entry of these layouts (dim 3, hidden 4, 3 classes, 6 rows)
    has the hidden layer's dot product and bias (4 roundings), tanh (2), the
    output layer's (5), the softmax's shift, exp, row sum and division (7),
    the loss's scale of p - onehot (at most 4: gce's power), the batch
    mean's 1/b (1), the backward matmul over the classes (3), tanh' = 1 -
    tanh^2 (3) and the sum over the rows (6): 35, taken as m = 40.  The
    terms: a row's dloss/dlogits entries are at most 1.06 (sce's (1 - p_y) *
    (alpha + beta * 4 * p_y) peaks at 1.0506; ce's |p - onehot| is at most 1,
    mae's and gce's less) and sum in magnitude to twice that.  A layer's
    input is at most S = max(1, |x|, |z1|) (|z1| bounds tanh and relu
    alike), and the hidden layer's gradient passes W_out, a factor of at
    most max(1, 2 |W_out|).  So |g32 - g| <= gamma_40 * 1.06 * S * max(1, 2
    |W_out|): about 5e-6 to 1e-5 on these cases, where the float32 kernels
    land within ~4e-8.  The float64 finite differences add ~1e-9, counted as
    1e-8.
    """
    layout, values = params.layout, params.values.astype(np.float64)
    x = np.abs(np.asarray(x, dtype=np.float64))
    scale, w_out = max(1.0, float(x.max())), 0.0
    if layout.hidden is not None:
        (h, d), (c, _) = layout.shapes
        w1, b1 = values[: h * d].reshape(h, d), values[h * d : h * d + h]
        scale = max(scale, float((x @ np.abs(w1).T + np.abs(b1)).max()))
        w_out = float(np.abs(values[h * d + h : h * d + h + c * h]).max())
    m = 40
    return m * U32 / (1 - m * U32) * 1.06 * scale * max(1.0, 2.0 * w_out) + 1e-8


class TestBackward:
    def test_ce_linear_single_sample_textbook_identity(self):
        layout = Layout(dim=3, num_classes=4)
        params = init_params(layout, seed=1)
        x = np.array([[0.3, -1.2, 2.0]])
        y = np.array([2])
        probs = fresh_forward(params, x)
        _, work = fresh_backward(params, x, y, "ce")
        expected_w = np.outer(probs[0] - np.eye(4)[2], x[0])  # in float64, from the float32 pass
        # each entry is one float32 subtraction and one product away from its float64 value
        assert np.abs(work.grad[:12].reshape(4, 3) - expected_w).max() <= 4 * U32 * np.abs(expected_w).max()
        assert np.abs(work.grad[12:] - (probs[0] - np.eye(4)[2])).max() <= 2 * U32

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("kind", ["ce", "sce", "gce", "mae"])
    def test_finite_difference_all_losses(self, layout, kind):
        gen = np.random.default_rng((layout.param_count, zlib.crc32(kind.encode())))  # hash() of a str is salted
        params = init_params(layout, seed=7)
        x = gen.normal(size=(6, layout.dim)).astype(np.float32)
        y = gen.integers(0, layout.num_classes, size=6)
        _, work = fresh_backward(params, x, y, kind)
        fd = finite_difference_grad(params, x, y, kind)
        rel = np.abs(work.grad - fd) / (1.0 + np.abs(fd))
        assert rel.max() < gradient_bound(params, x)

    @pytest.mark.parametrize("layout", LAYOUTS[:2])
    def test_finite_difference_soft_targets(self, layout):
        gen = np.random.default_rng(9)
        params = init_params(layout, seed=2)
        x = gen.normal(size=(5, layout.dim)).astype(np.float32)
        raw = gen.uniform(0.1, 1.0, size=(5, layout.num_classes))
        targets = raw / raw.sum(axis=1, keepdims=True)
        _, work = fresh_backward(params, x, targets, "soft_ce")
        fd = finite_difference_grad(params, x, targets, "soft_ce")
        rel = np.abs(work.grad - fd) / (1.0 + np.abs(fd))
        assert rel.max() < gradient_bound(params, x)

    def test_weight_decay_adds_lambda_w(self):
        layout = Layout(dim=2, hidden=3, num_classes=2)
        params = init_params(layout, seed=4)
        gen = np.random.default_rng(3)
        x = gen.normal(size=(4, 2)).astype(np.float32)
        y = gen.integers(0, 2, size=4)
        _, bare = fresh_backward(params, x, y, "ce", weight_decay=0.0)
        _, decayed = fresh_backward(params, x, y, "ce", weight_decay=0.01)
        assert np.array_equal(decayed.grad, bare.grad + 0.01 * params.values)

    def test_grad_finite(self):
        layout = Layout(dim=2, num_classes=3)
        params = init_params(layout, seed=0)
        _, work = fresh_backward(params, np.zeros((2, 2)), np.array([0, 1]), "ce")
        assert np.all(np.isfinite(work.grad))


class TestWorkspace:
    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("shape", [(4, 2), (4, 4), (3,), (1, 4, 3)])
    def test_misshaped_input_rejected(self, layout, shape):
        """A pass checks nothing (features enter as ``LabeledDataset``), but its kernels refuse another width or rank."""
        params = init_params(layout, seed=0)
        work = Workspace(layout, rows=8)
        with pytest.raises(ValueError, match="matmul|unpack"):
            forward_cached(params, np.zeros(shape), work)
        with pytest.raises(ValueError, match="matmul|unpack"):
            backward(params, np.zeros(shape), np.zeros(4, dtype=int), kind="ce", weight_decay=0.0, work=work)

    def test_batch_larger_than_workspace_rejected(self):
        """Callers size the workspace to their largest batch; a larger one finds no room for its rows."""
        layout = LAYOUTS[1]
        params = init_params(layout, seed=0)
        work = Workspace(layout, rows=4)
        backward(params, np.zeros((4, 3)), np.zeros(4, dtype=int), kind="ce", weight_decay=0.0, work=work)
        with pytest.raises(ValueError, match="matmul"):
            backward(params, np.zeros((5, 3)), np.zeros(5, dtype=int), kind="ce", weight_decay=0.0, work=work)

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("kind", ["ce", "sce", "gce", "mae", "soft_ce"])
    def test_results_are_views_of_the_workspace(self, layout, kind):
        gen = np.random.default_rng(4)
        params = init_params(layout, seed=1)
        x = gen.normal(size=(5, 3)).astype(np.float32)
        y = gen.integers(0, 3, size=5)
        labels = np.eye(3)[y] if kind == "soft_ce" else y
        work = Workspace(layout, rows=7)
        fresh, fresh_work = fresh_backward(params, x, labels, kind, weight_decay=0.01)
        loss = backward(params, x, labels, kind=kind, weight_decay=0.01, work=work, method_params=resolved(kind))
        assert type(loss) is float
        assert np.array_equal(work.grad, fresh_work.grad)
        assert np.array_equal(work.per_sample[:5], fresh_work.per_sample)
        assert loss == fresh


class TestBoundWorkspace:
    """A workspace computes with the network it is bound to, as that network's values change."""

    def _batch(self, layout):
        gen = np.random.default_rng(6)
        return gen.normal(size=(6, layout.dim)).astype(np.float32), gen.integers(0, layout.num_classes, size=6)

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_checked_entries_rebind_to_a_second_network(self, layout):
        x, y = self._batch(layout)
        first, second = init_params(layout, seed=1), init_params(layout, seed=2)
        work = Workspace(layout, rows=6)
        forward_cached(first, x, work)
        probs = forward_cached(second, x, work)
        assert np.array_equal(probs, fresh_forward(second, x))
        backward(first, x, y, kind="ce", weight_decay=0.01, work=work)
        backward(second, x, y, kind="ce", weight_decay=0.01, work=work)
        _, fresh_work = fresh_backward(second, x, y, "ce", weight_decay=0.01)
        assert np.array_equal(work.grad, fresh_work.grad)
        assert np.array_equal(work.per_sample[:6], fresh_work.per_sample)

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_in_place_update_reaches_the_next_pass(self, layout):
        x, y = self._batch(layout)
        params, other = init_params(layout, seed=1), init_params(layout, seed=2)
        work = Workspace(layout, rows=6, params=params)
        work.forward(x)
        params.values[:] = other.values
        assert np.array_equal(work.forward(x), fresh_forward(other, x))
        loss = backward_cached(params, work, y, kind="ce", weight_decay=0.01)
        fresh, fresh_work = fresh_backward(other, x, y, "ce", weight_decay=0.01)
        assert np.array_equal(work.grad, fresh_work.grad)
        assert loss == fresh


class TestReusedPass:
    """A backward through the kept rows of a full-batch pass equals a pass over those rows alone.

    Co-teaching backpropagates through the pass that ranked the batch.  A
    row of a 64-row matmul can differ in the last bits from the same row of
    a matmul over fewer rows, because BLAS may sum its dot products in
    another order.  Two orders of a sum of n terms each lie within gamma_n
    ~ n*u of the exact sum, relative to its terms' magnitudes, with u =
    2^-24 float32's unit roundoff; the longest sums here have 64 terms.  So
    the bound is relative: ``TOLERANCE`` = 64 u, 3.8e-6, of the largest
    gradient entry (the kernels land within ~3e-7).  Keeping every row in
    order is the same pass, so it is bit-equal.
    """

    TOLERANCE = 64 * U32

    # the benchmark's shapes: 32 features, 64 hidden units, 10 classes, 64-row batches
    LAYOUTS = [
        Layout(dim=32, num_classes=10),
        Layout(dim=32, hidden=64, num_classes=10, activation="tanh"),
        Layout(dim=32, hidden=64, num_classes=10, activation="relu"),
    ]
    BATCH = 64

    def _reused_and_recomputed(self, layout, kind, sel, seed=0):
        gen = np.random.default_rng(seed)
        params = init_params(layout, seed=seed + 1)
        x = gen.normal(size=(self.BATCH, layout.dim)).astype(np.float32)
        y = gen.integers(0, layout.num_classes, size=self.BATCH)
        work = Workspace(layout, rows=self.BATCH)
        forward_cached(params, x, work)
        work.keep(sel)
        reused = backward_cached(params, work, y[sel], kind=kind, weight_decay=5e-4, method_params=resolved(kind))
        recomputed, fresh = fresh_backward(params, x[sel], y[sel], kind, weight_decay=5e-4)
        # (mean loss, gradient, each row's loss): the kept rows of the reused pass, and the rows of the fresh one
        return (reused, work.grad, work.per_sample[: len(sel)]), (recomputed, fresh.grad, fresh.per_sample)

    @pytest.mark.parametrize("layout", LAYOUTS, ids=["linear", "mlp-tanh", "mlp-relu"])
    @pytest.mark.parametrize("kind", ["ce", "sce", "gce", "mae"])
    @pytest.mark.parametrize("k", [1, 3, 5, 63])
    def test_subset_within_tolerance(self, layout, kind, k):
        for seed in range(3):
            # choice without replacement returns the rows unsorted
            sel = np.random.default_rng(100 + seed).choice(self.BATCH, size=k, replace=False)
            (reused, reused_grad, reused_rows), (recomputed, recomputed_grad, _) = self._reused_and_recomputed(
                layout, kind, sel, seed
            )
            scale = np.abs(recomputed_grad).max()
            assert np.abs(reused_grad - recomputed_grad).max() <= self.TOLERANCE * scale
            assert reused == pytest.approx(recomputed, rel=self.TOLERANCE)
            assert reused == pytest.approx(reused_rows.mean(), rel=self.TOLERANCE)  # the loss covers the k kept rows

    @pytest.mark.parametrize("layout", LAYOUTS, ids=["linear", "mlp-tanh", "mlp-relu"])
    def test_unsorted_selection_keeps_its_order(self, layout):
        sel = np.array([40, 3, 17, 63, 0, 8, 25])
        (_, reused_grad, reused_rows), (_, recomputed_grad, recomputed_rows) = self._reused_and_recomputed(
            layout, "ce", sel
        )
        assert np.abs(reused_rows - recomputed_rows).max() <= self.TOLERANCE * np.abs(recomputed_rows).max()
        assert np.abs(reused_grad - recomputed_grad).max() <= self.TOLERANCE * np.abs(recomputed_grad).max()

    @pytest.mark.parametrize("layout", LAYOUTS, ids=["linear", "mlp-tanh", "mlp-relu"])
    @pytest.mark.parametrize("kind", ["ce", "sce", "gce", "mae"])
    def test_keeping_every_row_is_bit_equal(self, layout, kind):
        every_row = np.arange(self.BATCH)
        (reused, reused_grad, reused_rows), (recomputed, recomputed_grad, recomputed_rows) = self._reused_and_recomputed(
            layout, kind, every_row
        )
        assert np.array_equal(reused_grad, recomputed_grad)
        assert np.array_equal(reused_rows, recomputed_rows)
        assert reused == recomputed


class TestStackedPass:
    """A pass over a stack of two networks equals each network's own pass bit for bit.

    The stack's forward, ``keep`` with a different selection per network
    and backward run each kernel once for both networks; co-teaching trains
    through them.  The workspace holds 64 rows per network, so a smaller
    batch uses the head of each buffer.
    """

    LAYOUTS = TestReusedPass.LAYOUTS
    ROWS = 64

    def _stack(self, layout):
        nets = [init_params(layout, seed=1), init_params(layout, seed=2)]
        return nets, ModelParams(np.stack([net.values for net in nets]), layout)

    def _check(self, layout, b, selections, kind="ce"):
        gen = np.random.default_rng(b)
        x = gen.normal(size=(b, layout.dim)).astype(np.float32)
        y = gen.integers(0, layout.num_classes, size=b)
        nets, stack = self._stack(layout)
        mp = resolved(kind)
        work = Workspace(layout, rows=self.ROWS, params=stack)
        probs = forward_cached(stack, x, work)
        singles, single_losses = [], []
        for net, sel in zip(nets, selections):
            single = Workspace(layout, rows=self.ROWS)
            own_probs = forward_cached(net, x, single)
            assert np.array_equal(probs[len(singles) * b : (len(singles) + 1) * b], own_probs)
            single.keep(sel)
            single_losses.append(backward_cached(net, single, y[sel], kind=kind, weight_decay=5e-4, method_params=mp))
            singles.append(single)
        rows = np.array(selections)
        work.keep(rows)
        loss = backward_cached(stack, work, y[rows].ravel(), kind=kind, weight_decay=5e-4, method_params=mp)
        assert work.grad.shape == stack.values.shape
        assert np.array_equal(work.grad, np.stack([single.grad for single in singles]))
        single_rows = [single.per_sample[: len(sel)] for single, sel in zip(singles, selections)]
        assert np.array_equal(work.per_sample[: rows.size], np.concatenate(single_rows))
        assert loss == 0.5 * (single_losses[0] + single_losses[1])

    @pytest.mark.parametrize("layout", LAYOUTS, ids=["linear", "mlp-tanh", "mlp-relu"])
    @pytest.mark.parametrize("b", [1, 5, 63, 64])
    def test_different_selections_match_single_passes(self, layout, b):
        gen = np.random.default_rng(100 + b)
        k = max(1, (3 * b) // 4)
        self._check(layout, b, [gen.permutation(b)[:k], gen.permutation(b)[:k]])

    @pytest.mark.parametrize("layout", LAYOUTS, ids=["linear", "mlp-tanh", "mlp-relu"])
    @pytest.mark.parametrize("b", [1, 5, 63, 64])
    def test_keeping_every_row_matches_single_passes(self, layout, b):
        # forget_rate 0: each network keeps the whole batch in order
        self._check(layout, b, [np.arange(b), np.arange(b)])

    @pytest.mark.parametrize("kind", ["sce", "gce", "mae"])
    def test_robust_losses_match_single_passes(self, kind):
        gen = np.random.default_rng(7)
        self._check(self.LAYOUTS[1], 64, [gen.permutation(64)[:40], gen.permutation(64)[:40]], kind)

    @pytest.mark.parametrize("shape", [(2, 5), (2, 3, 4)])
    def test_misshaped_stack_rejected(self, shape):
        layout = Layout(dim=1, num_classes=2)  # 4 parameters
        with pytest.raises(ValueError, match="expected 4 parameters"):
            ModelParams(np.zeros(shape), layout)


class TestSgdStep:
    def test_no_momentum(self):
        w = np.array([1.0, 2.0])
        g = np.array([0.5, -0.5])
        v = np.zeros(2)
        sgd_step(w, g, v, lr=0.1, momentum=0.0, scratch=np.empty(2))
        assert np.array_equal(w, np.array([1.0, 2.0]) - 0.1 * g)
        assert np.array_equal(v, g)

    def test_two_steps_constant_gradient(self):
        # hand recurrence: v1 = g, v2 = mu*g + g, total displacement lr*g*(2+mu)
        mu = 0.9
        lr = 0.05
        w = np.array([0.0, 0.0])
        g = np.array([1.0, -2.0])
        v = np.zeros(2)
        sgd_step(w, g, v, lr, mu, np.empty(2))
        sgd_step(w, g, v, lr, mu, np.empty(2))
        assert np.allclose(w, -lr * g * (2 + mu), atol=1e-15)

    def test_zero_lr_updates_velocity_only(self):
        w = np.array([1.0])
        g = np.array([3.0])
        v = np.array([0.5])
        sgd_step(w, g, v, lr=0.0, momentum=0.9, scratch=np.empty(1))
        assert np.array_equal(w, [1.0])
        assert v[0] == pytest.approx(0.9 * 0.5 + 3.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="broadcast"):  # no check of ours: numpy refuses the shapes
            sgd_step(np.zeros(3), np.zeros(2), np.zeros(3), 0.1, 0.0, np.empty(3))

    def test_grad_is_only_read(self):
        w, g, v = np.array([1.0, 2.0]), np.array([0.5, -0.5]), np.array([0.25, 0.75])
        g.flags.writeable = False
        sgd_step(w, g, v, lr=0.1, momentum=0.9, scratch=np.empty(2))
        assert np.array_equal(g, [0.5, -0.5])

    def test_with_out_updates_velocity_in_place_bit_equal(self):
        # values and velocity are updated in place, bit for bit equal to the allocating formulas
        gen = np.random.default_rng(8)
        w, g, v = gen.normal(size=50), gen.normal(size=50), gen.normal(size=50)
        pure_v = 0.9 * v + g
        pure_w = w - 0.037 * pure_v
        assert sgd_step(w, g, v, lr=0.037, momentum=0.9, scratch=np.empty(50)) is None
        assert np.array_equal(w, pure_w) and np.array_equal(v, pure_v)


class TestMixupBatch:
    def test_targets_stay_on_simplex(self):
        gen = np.random.default_rng(5)
        onehot = np.eye(5)[gen.integers(0, 5, size=16)]
        x = gen.normal(size=(16, 3)).astype(np.float32)
        for lam in (0.0, 0.25, 0.7, 1.0):
            _, targets = mixup_batch(x, onehot, lam, gen.permutation(16), mixup_buffers(x, onehot))
            assert np.abs(targets.sum(axis=1) - 1.0).max() <= 1e-12

    def test_lambda_one_is_identity(self):
        gen = np.random.default_rng(6)
        onehot = np.eye(3)[gen.integers(0, 3, size=8)]
        x = gen.normal(size=(8, 2)).astype(np.float32)
        mixed_x, mixed_t = mixup_batch(x, onehot, 1.0, gen.permutation(8), mixup_buffers(x, onehot))
        assert np.array_equal(mixed_x, x)
        assert np.array_equal(mixed_t, onehot)

    def test_out_buffers_are_written_bit_equal(self):
        gen = np.random.default_rng(7)
        onehot = np.eye(4)[gen.integers(0, 4, size=9)]
        x = gen.normal(size=(9, 3)).astype(np.float32)
        perm = gen.permutation(9)
        out = mixup_buffers(x, onehot)
        mixed_x, mixed_t = mixup_batch(x, onehot, 0.37, perm, out)
        assert mixed_x is out[0] and mixed_t is out[1]
        # written out in the order lam * a + (1 - lam) * a[perm]
        assert np.array_equal(mixed_x, 0.37 * x + (1.0 - 0.37) * x[perm])
        assert np.array_equal(mixed_t, 0.37 * onehot + (1.0 - 0.37) * onehot[perm])
