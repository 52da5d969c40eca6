import mpmath
import numpy as np
import pytest

from conftest import finite_difference_grad, fresh_backward, fresh_forward, mixup_buffers, naive_softmax_forward
from noisyfl.errors import LayoutMismatchError
from noisyfl.localtrain import mixup_batch, sgd_step
from noisyfl.losses import LossOutput, backward, backward_cached
from noisyfl.models import LinearSoftmaxLayout, MLPLayout, ModelParams, Workspace, forward_cached, init_params

LAYOUTS = [
    LinearSoftmaxLayout(dim=3, num_classes=3),
    MLPLayout(dim=3, hidden=4, num_classes=3, activation="tanh"),
    MLPLayout(dim=3, hidden=4, num_classes=3, activation="relu"),
]


def probs_row(p_y, num_classes=4, label=0):
    row = np.full(num_classes, (1.0 - p_y) / (num_classes - 1))
    row[label] = p_y
    return row[None, :]


def loss_and_work(probs, labels, kind, **method_params):
    """``backward(kind=...)`` on a network whose forward pass gives back ``probs``; returns it and its workspace.

    A linear-softmax network over the identity input: row i picks weight
    column i, set to log probs[i], so the softmax returns probs[i] up to
    rounding.  A zero probability becomes a logit of log(1e-300), whose
    share of the row rounds away against any probability near 1.
    """
    n, num_classes = probs.shape
    layout = LinearSoftmaxLayout(dim=n, num_classes=num_classes)
    weights = np.log(np.maximum(probs, 1e-300)).T
    params = ModelParams(np.concatenate([weights.ravel(), np.zeros(num_classes)]), layout)
    return fresh_backward(params, np.eye(n), labels, kind, method_params)


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
        assert loss_of(probs, labels, "ce").value == 0.0
        assert loss_of(probs, labels, "gce", q=0.7).value == 0.0
        assert loss_of(probs, labels, "mae").value == 0.0

    def test_gce_matches_high_precision_oracle(self):
        # independent oracle: evaluate (1 - p^q)/q with 50-digit arithmetic
        with mpmath.workdps(50):
            expected = float((1 - mpmath.mpf("0.5") ** mpmath.mpf("0.7")) / mpmath.mpf("0.7"))
        got = loss_of(probs_row(0.5), np.array([0]), "gce", q=0.7).value
        assert got == pytest.approx(expected, abs=1e-15)

    def test_gce_limit_approaches_mae_form(self):
        probs = probs_row(0.37)
        labels = np.array([0])
        near_one = loss_of(probs, labels, "gce", q=0.999).value
        assert near_one == pytest.approx(1.0 - 0.37, abs=1e-3)

    def test_gce_invalid_q(self):
        probs = probs_row(0.5)
        labels = np.array([0])
        for q in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                loss_of(probs, labels, "gce", q=q)

    def test_sce_invalid_params(self):
        probs = probs_row(0.5)
        labels = np.array([0])
        with pytest.raises(ValueError):
            loss_of(probs, labels, "sce", alpha=0.0)
        with pytest.raises(ValueError):
            loss_of(probs, labels, "sce", beta=-1.0)

    def test_sce_composition(self):
        probs = probs_row(0.6)
        labels = np.array([0])
        ce = loss_of(probs, labels, "ce").value
        out = loss_of(probs, labels, "sce", alpha=0.1, beta=1.0, log_clip=-4.0)
        assert out.value == pytest.approx(0.1 * ce + 4.0 * (1.0 - 0.6), rel=1e-12)

    def test_mae_value(self):
        out = loss_of(probs_row(0.25), np.array([0]), "mae")
        assert out.value == pytest.approx(1.5, rel=1e-12)

    def test_ce_and_gce_strictly_decreasing_in_confidence(self):
        grid = np.linspace(0.05, 0.95, 19)
        ce = [loss_of(probs_row(p), np.array([0]), "ce").value for p in grid]
        gce = [loss_of(probs_row(p), np.array([0]), "gce").value for p in grid]
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
        out, work = loss_and_work(probs, labels, "ce")
        assert out.value == pytest.approx(work.per_sample.mean(), abs=1e-10)

    def test_soft_ce_equals_hard_ce_on_one_hot(self):
        gen = np.random.default_rng(2)
        probs = random_probs(gen, 5, 3)
        labels = gen.integers(0, 3, size=5)
        onehot = np.eye(3)[labels]
        soft = loss_of(probs, onehot, "soft_ce").value
        assert soft == pytest.approx(loss_of(probs, labels, "ce").value, rel=1e-12)

    def test_network_returns_the_probabilities(self):
        # the premise of every test above: the loss sees (up to rounding) the rows it was handed
        gen = np.random.default_rng(3)
        probs = random_probs(gen, 7, 5)
        labels = gen.integers(0, 5, size=7)
        _, work = loss_and_work(probs, labels, "ce")
        assert np.abs(work.per_sample + np.log(probs[np.arange(7), labels])).max() <= 1e-14


class TestForward:
    def test_zero_params_uniform(self):
        layout = LinearSoftmaxLayout(dim=2, num_classes=4)
        params = ModelParams(np.zeros(layout.param_count), layout)
        probs = fresh_forward(params, np.random.default_rng(0).normal(size=(5, 2)))
        assert np.allclose(probs, 0.25, atol=1e-15)

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_rows_on_simplex(self, layout):
        params = init_params(layout, seed=3)
        probs = fresh_forward(params, np.random.default_rng(1).normal(size=(7, layout.dim)))
        assert np.abs(probs.sum(axis=1) - 1.0).max() <= 1e-10
        assert probs.min() >= 0

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_matches_naive_reimplementation(self, layout):
        params = init_params(layout, seed=5)
        x = np.random.default_rng(2).normal(size=(6, layout.dim))
        assert np.abs(fresh_forward(params, x) - naive_softmax_forward(params, x)).max() <= 1e-12

    def test_shape_mismatch(self):
        layout = LinearSoftmaxLayout(dim=3, num_classes=2)
        params = init_params(layout, seed=0)
        with pytest.raises(LayoutMismatchError):
            fresh_forward(params, np.zeros((4, 5)))


class TestBackward:
    def test_ce_linear_single_sample_textbook_identity(self):
        layout = LinearSoftmaxLayout(dim=3, num_classes=4)
        params = init_params(layout, seed=1)
        x = np.array([[0.3, -1.2, 2.0]])
        y = np.array([2])
        probs = fresh_forward(params, x)
        out, _ = fresh_backward(params, x, y, "ce")
        expected_w = np.outer(probs[0] - np.eye(4)[2], x[0])
        assert np.abs(out.grad[:12].reshape(4, 3) - expected_w).max() <= 1e-12
        assert np.abs(out.grad[12:] - (probs[0] - np.eye(4)[2])).max() <= 1e-12

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("kind", ["ce", "sce", "gce", "mae"])
    def test_finite_difference_all_losses(self, layout, kind):
        gen = np.random.default_rng(hash((layout.param_count, kind)) % 2**32)
        params = init_params(layout, seed=7)
        x = gen.normal(size=(6, layout.dim))
        y = gen.integers(0, layout.num_classes, size=6)
        out, _ = fresh_backward(params, x, y, kind)
        fd = finite_difference_grad(params, x, y, kind)
        rel = np.abs(out.grad - fd) / (1.0 + np.abs(fd))
        assert rel.max() < 1e-5

    @pytest.mark.parametrize("layout", LAYOUTS[:2])
    def test_finite_difference_soft_targets(self, layout):
        gen = np.random.default_rng(9)
        params = init_params(layout, seed=2)
        x = gen.normal(size=(5, layout.dim))
        raw = gen.uniform(0.1, 1.0, size=(5, layout.num_classes))
        targets = raw / raw.sum(axis=1, keepdims=True)
        out, _ = fresh_backward(params, x, targets, "soft_ce")
        fd = finite_difference_grad(params, x, targets, "soft_ce")
        rel = np.abs(out.grad - fd) / (1.0 + np.abs(fd))
        assert rel.max() < 1e-5

    def test_weight_decay_adds_lambda_w(self):
        layout = MLPLayout(dim=2, hidden=3, num_classes=2)
        params = init_params(layout, seed=4)
        gen = np.random.default_rng(3)
        x = gen.normal(size=(4, 2))
        y = gen.integers(0, 2, size=4)
        bare, _ = fresh_backward(params, x, y, "ce", weight_decay=0.0)
        decayed, _ = fresh_backward(params, x, y, "ce", weight_decay=0.01)
        assert np.array_equal(decayed.grad, bare.grad + 0.01 * params.values)

    def test_grad_finite(self):
        layout = LinearSoftmaxLayout(dim=2, num_classes=3)
        params = init_params(layout, seed=0)
        out, _ = fresh_backward(params, np.zeros((2, 2)), np.array([0, 1]), "ce")
        assert isinstance(out, LossOutput)
        assert np.all(np.isfinite(out.grad))


class TestWorkspace:
    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("shape", [(4, 2), (4, 4), (3,), (1, 4, 3)])
    def test_misshaped_input_rejected(self, layout, shape):
        params = init_params(layout, seed=0)
        work = Workspace(layout, rows=8)
        with pytest.raises(LayoutMismatchError):
            forward_cached(params, np.zeros(shape), work)
        with pytest.raises(LayoutMismatchError):
            backward(params, np.zeros(shape), np.zeros(4, dtype=int), kind="ce", weight_decay=0.0, work=work)

    def test_batch_larger_than_workspace_rejected(self):
        layout = LAYOUTS[1]
        params = init_params(layout, seed=0)
        work = Workspace(layout, rows=4)
        backward(params, np.zeros((4, 3)), np.zeros(4, dtype=int), kind="ce", weight_decay=0.0, work=work)
        with pytest.raises(ValueError, match="exceeds"):
            backward(params, np.zeros((5, 3)), np.zeros(5, dtype=int), kind="ce", weight_decay=0.0, work=work)

    def test_workspace_of_another_layout_rejected(self):
        params = init_params(LAYOUTS[1], seed=0)
        with pytest.raises(LayoutMismatchError):
            forward_cached(params, np.zeros((2, 3)), Workspace(LAYOUTS[2], rows=4))

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("kind", ["ce", "sce", "gce", "mae", "soft_ce"])
    def test_results_are_views_of_the_workspace(self, layout, kind):
        gen = np.random.default_rng(4)
        params = init_params(layout, seed=1)
        x = gen.normal(size=(5, 3))
        y = gen.integers(0, 3, size=5)
        labels = np.eye(3)[y] if kind == "soft_ce" else y
        work = Workspace(layout, rows=7)
        fresh, fresh_work = fresh_backward(params, x, labels, kind, weight_decay=0.01)
        out = backward(params, x, labels, kind=kind, weight_decay=0.01, work=work)
        assert out.grad is work.grad
        assert np.array_equal(out.grad, fresh.grad)
        assert np.array_equal(work.per_sample[:5], fresh_work.per_sample)
        assert out.value == fresh.value


class TestBoundWorkspace:
    """A workspace computes with the network it is bound to, as that network's values change."""

    def _batch(self, layout):
        gen = np.random.default_rng(6)
        return gen.normal(size=(6, layout.dim)), gen.integers(0, layout.num_classes, size=6)

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_checked_entries_rebind_to_a_second_network(self, layout):
        x, y = self._batch(layout)
        first, second = init_params(layout, seed=1), init_params(layout, seed=2)
        work = Workspace(layout, rows=6)
        forward_cached(first, x, work)
        probs = forward_cached(second, x, work)
        assert np.array_equal(probs, fresh_forward(second, x))
        backward(first, x, y, kind="ce", weight_decay=0.01, work=work)
        out = backward(second, x, y, kind="ce", weight_decay=0.01, work=work)
        fresh, fresh_work = fresh_backward(second, x, y, "ce", weight_decay=0.01)
        assert np.array_equal(out.grad, fresh.grad)
        assert np.array_equal(work.per_sample[:6], fresh_work.per_sample)

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_in_place_update_reaches_the_next_pass(self, layout):
        x, y = self._batch(layout)
        params, other = init_params(layout, seed=1), init_params(layout, seed=2)
        work = Workspace(layout, rows=6, params=params)
        work.forward(x)
        params.values[:] = other.values
        assert np.array_equal(work.forward(x), fresh_forward(other, x))
        out = backward_cached(params, work, y, kind="ce", weight_decay=0.01)
        fresh, _ = fresh_backward(other, x, y, "ce", weight_decay=0.01)
        assert np.array_equal(out.grad, fresh.grad)
        assert out.value == fresh.value

    def test_backward_cached_rejects_another_layout(self):
        work = Workspace(LAYOUTS[1], rows=4)
        forward_cached(init_params(LAYOUTS[1], seed=0), np.zeros((2, 3)), work)
        with pytest.raises(LayoutMismatchError):
            backward_cached(init_params(LAYOUTS[2], seed=0), work, np.zeros(2, dtype=int), kind="ce", weight_decay=0.0)


class TestReusedPass:
    """A backward through the kept rows of a full-batch pass equals a pass over those rows alone.

    Co-teaching backpropagates through the pass that ranked the batch.  A
    row of a 64-row matmul can differ in the last bits from the same row of
    a matmul over fewer rows, so the bound is relative: 1e-12 of the largest
    gradient entry, about 4500 float64 ulps.  Keeping every row in order is
    the same pass, so it is bit-equal.
    """

    # the benchmark's shapes: 32 features, 64 hidden units, 10 classes, 64-row batches
    LAYOUTS = [
        LinearSoftmaxLayout(dim=32, num_classes=10),
        MLPLayout(dim=32, hidden=64, num_classes=10, activation="tanh"),
        MLPLayout(dim=32, hidden=64, num_classes=10, activation="relu"),
    ]
    BATCH = 64

    def _reused_and_recomputed(self, layout, kind, sel, seed=0):
        gen = np.random.default_rng(seed)
        params = init_params(layout, seed=seed + 1)
        x = gen.normal(size=(self.BATCH, layout.dim))
        y = gen.integers(0, layout.num_classes, size=self.BATCH)
        work = Workspace(layout, rows=self.BATCH)
        forward_cached(params, x, work)
        work.keep(sel)
        reused = backward_cached(params, work, y[sel], kind=kind, weight_decay=5e-4)
        recomputed, fresh = fresh_backward(params, x[sel], y[sel], kind, weight_decay=5e-4)
        # each row's loss: the kept rows of the reused pass, and the rows of the fresh one
        return reused, work.per_sample[: len(sel)], recomputed, fresh.per_sample

    @pytest.mark.parametrize("layout", LAYOUTS, ids=["linear", "mlp-tanh", "mlp-relu"])
    @pytest.mark.parametrize("kind", ["ce", "sce", "gce", "mae"])
    @pytest.mark.parametrize("k", [1, 3, 5, 63])
    def test_subset_within_tolerance(self, layout, kind, k):
        for seed in range(3):
            # choice without replacement returns the rows unsorted
            sel = np.random.default_rng(100 + seed).choice(self.BATCH, size=k, replace=False)
            reused, reused_rows, recomputed, _ = self._reused_and_recomputed(layout, kind, sel, seed)
            scale = np.abs(recomputed.grad).max()
            assert np.abs(reused.grad - recomputed.grad).max() <= 1e-12 * scale
            assert reused.value == pytest.approx(recomputed.value, rel=1e-12)
            assert reused.value == pytest.approx(reused_rows.mean(), rel=1e-12)  # the value covers the k kept rows

    @pytest.mark.parametrize("layout", LAYOUTS, ids=["linear", "mlp-tanh", "mlp-relu"])
    def test_unsorted_selection_keeps_its_order(self, layout):
        sel = np.array([40, 3, 17, 63, 0, 8, 25])
        reused, reused_rows, recomputed, recomputed_rows = self._reused_and_recomputed(layout, "ce", sel)
        assert np.abs(reused_rows - recomputed_rows).max() <= 1e-12
        assert np.abs(reused.grad - recomputed.grad).max() <= 1e-12 * np.abs(recomputed.grad).max()

    @pytest.mark.parametrize("layout", LAYOUTS, ids=["linear", "mlp-tanh", "mlp-relu"])
    @pytest.mark.parametrize("kind", ["ce", "sce", "gce", "mae"])
    def test_keeping_every_row_is_bit_equal(self, layout, kind):
        every_row = np.arange(self.BATCH)
        reused, reused_rows, recomputed, recomputed_rows = self._reused_and_recomputed(layout, kind, every_row)
        assert np.array_equal(reused.grad, recomputed.grad)
        assert np.array_equal(reused_rows, recomputed_rows)
        assert reused.value == recomputed.value


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
        x = gen.normal(size=(b, layout.dim))
        y = gen.integers(0, layout.num_classes, size=b)
        nets, stack = self._stack(layout)
        work = Workspace(layout, rows=self.ROWS, params=stack)
        probs = forward_cached(stack, x, work)
        singles, single_rows = [], []
        for net, sel in zip(nets, selections):
            single = Workspace(layout, rows=self.ROWS)
            own_probs = forward_cached(net, x, single)
            assert np.array_equal(probs[len(singles) * b : (len(singles) + 1) * b], own_probs)
            single.keep(sel)
            singles.append(backward_cached(net, single, y[sel], kind=kind, weight_decay=5e-4))
            single_rows.append(single.per_sample[: len(sel)])
        rows = np.array(selections)
        work.keep(rows)
        out = backward_cached(stack, work, y[rows].ravel(), kind=kind, weight_decay=5e-4)
        assert out.grad is work.grad and out.grad.shape == stack.values.shape
        assert np.array_equal(out.grad, np.stack([single.grad for single in singles]))
        assert np.array_equal(work.per_sample[: rows.size], np.concatenate(single_rows))
        assert out.value == 0.5 * (singles[0].value + singles[1].value)

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

    @pytest.mark.parametrize("layout", LAYOUTS, ids=["linear", "mlp-tanh", "mlp-relu"])
    def test_narrowing_twice_keeps_the_composed_rows(self, layout):
        gen = np.random.default_rng(3)
        x = gen.normal(size=(64, layout.dim))
        y = gen.integers(0, layout.num_classes, size=64)
        first = np.array([gen.permutation(64)[:40], gen.permutation(64)[:40]])
        second = np.array([gen.permutation(40)[:25], gen.permutation(40)[:25]])
        composed = np.take_along_axis(first, second, axis=1)
        grads = []
        for steps in ([first, second], [composed]):
            _, stack = self._stack(layout)
            work = Workspace(layout, rows=self.ROWS, params=stack)
            forward_cached(stack, x, work)
            for rows in steps:
                work.keep(rows)
            grads.append(backward_cached(stack, work, y[composed].ravel(), kind="ce", weight_decay=0.0).grad.copy())
        assert np.array_equal(grads[0], grads[1])

    def test_workspace_of_another_stack_size_rejected(self):
        layout = self.LAYOUTS[1]
        nets, stack = self._stack(layout)
        x = np.zeros((4, layout.dim))
        with pytest.raises(LayoutMismatchError, match="shape"):
            forward_cached(nets[0], x, Workspace(layout, rows=4, params=stack))
        with pytest.raises(LayoutMismatchError, match="shape"):
            forward_cached(stack, x, Workspace(layout, rows=4))

    @pytest.mark.parametrize("shape", [(2, 5), (2, 3, 4)])
    def test_misshaped_stack_rejected(self, shape):
        layout = LinearSoftmaxLayout(dim=1, num_classes=2)  # 4 parameters
        with pytest.raises(ValueError, match="expected 4 parameters"):
            ModelParams(np.zeros(shape), layout)


class TestSgdStep:
    def test_no_momentum(self):
        w = np.array([1.0, 2.0])
        g = np.array([0.5, -0.5])
        w2, v2 = sgd_step(w, g, np.zeros(2), lr=0.1, momentum=0.0, out=np.empty(2))
        assert np.array_equal(w2, w - 0.1 * g)
        assert np.array_equal(v2, g)

    def test_two_steps_constant_gradient(self):
        # hand recurrence: v1 = g, v2 = mu*g + g, total displacement lr*g*(2+mu)
        mu = 0.9
        lr = 0.05
        w = np.array([0.0, 0.0])
        g = np.array([1.0, -2.0])
        v = np.zeros(2)
        w, v = sgd_step(w, g, v, lr, mu, np.empty(2))
        w, v = sgd_step(w, g, v, lr, mu, np.empty(2))
        assert np.allclose(w, -lr * g * (2 + mu), atol=1e-15)

    def test_zero_lr_updates_velocity_only(self):
        w = np.array([1.0])
        g = np.array([3.0])
        w2, v2 = sgd_step(w, g, np.array([0.5]), lr=0.0, momentum=0.9, out=np.empty(1))
        assert np.array_equal(w2, w)
        assert v2[0] == pytest.approx(0.9 * 0.5 + 3.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            sgd_step(np.zeros(3), np.zeros(2), np.zeros(3), 0.1, 0.0, np.empty(3))

    def test_values_and_grad_are_only_read(self):
        w, g, v = np.array([1.0, 2.0]), np.array([0.5, -0.5]), np.array([0.25, 0.75])
        w.flags.writeable = g.flags.writeable = False
        sgd_step(w, g, v, lr=0.1, momentum=0.9, out=np.empty(2))
        assert np.array_equal(w, [1.0, 2.0]) and np.array_equal(g, [0.5, -0.5])

    def test_with_out_updates_velocity_in_place_bit_equal(self):
        gen = np.random.default_rng(8)
        w, g, v = gen.normal(size=50), gen.normal(size=50), gen.normal(size=50)
        pure_v = 0.9 * v + g
        pure_w = w - 0.037 * pure_v
        out = np.empty(50)
        w2, v2 = sgd_step(w, g, v, lr=0.037, momentum=0.9, out=out)
        assert w2 is out and v2 is v
        assert np.array_equal(w2, pure_w) and np.array_equal(v, pure_v)


class TestMixupBatch:
    def test_targets_stay_on_simplex(self):
        gen = np.random.default_rng(5)
        onehot = np.eye(5)[gen.integers(0, 5, size=16)]
        x = gen.normal(size=(16, 3))
        for lam in (0.0, 0.25, 0.7, 1.0):
            _, targets = mixup_batch(x, onehot, lam, gen.permutation(16), mixup_buffers(x, onehot))
            assert np.abs(targets.sum(axis=1) - 1.0).max() <= 1e-12

    def test_lambda_one_is_identity(self):
        gen = np.random.default_rng(6)
        onehot = np.eye(3)[gen.integers(0, 3, size=8)]
        x = gen.normal(size=(8, 2))
        mixed_x, mixed_t = mixup_batch(x, onehot, 1.0, gen.permutation(8), mixup_buffers(x, onehot))
        assert np.array_equal(mixed_x, x)
        assert np.array_equal(mixed_t, onehot)

    def test_out_buffers_are_written_bit_equal(self):
        gen = np.random.default_rng(7)
        onehot = np.eye(4)[gen.integers(0, 4, size=9)]
        x = gen.normal(size=(9, 3))
        perm = gen.permutation(9)
        out = mixup_buffers(x, onehot)
        mixed_x, mixed_t = mixup_batch(x, onehot, 0.37, perm, out)
        assert mixed_x is out[0] and mixed_t is out[1]
        # written out in the order lam * a + (1 - lam) * a[perm]
        assert np.array_equal(mixed_x, 0.37 * x + (1.0 - 0.37) * x[perm])
        assert np.array_equal(mixed_t, 0.37 * onehot + (1.0 - 0.37) * onehot[perm])
