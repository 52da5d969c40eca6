import mpmath
import numpy as np
import pytest

from conftest import finite_difference_grad, naive_softmax_forward
from noisyfl.errors import LayoutMismatchError
from noisyfl.localtrain import mixup_batch, sgd_step
from noisyfl.losses import (
    LossOutput,
    backward,
    backward_cached,
    loss_ce,
    loss_gce,
    loss_mae,
    loss_sce,
    loss_soft_ce,
)
from noisyfl.models import LinearSoftmaxLayout, MLPLayout, ModelParams, Workspace, forward, forward_cached, init_params

LAYOUTS = [
    LinearSoftmaxLayout(dim=3, num_classes=3),
    MLPLayout(dim=3, hidden=4, num_classes=3, activation="tanh"),
    MLPLayout(dim=3, hidden=4, num_classes=3, activation="relu"),
]


def probs_row(p_y, num_classes=4, label=0):
    row = np.full(num_classes, (1.0 - p_y) / (num_classes - 1))
    row[label] = p_y
    return row[None, :]


class TestLossValues:
    def test_perfect_prediction_zero_loss(self):
        probs = probs_row(1.0)
        labels = np.array([0])
        assert loss_ce(probs, labels).value == 0.0
        assert loss_gce(probs, labels, q=0.7).value == 0.0
        assert loss_mae(probs, labels).value == 0.0

    def test_gce_matches_high_precision_oracle(self):
        # independent oracle: evaluate (1 - p^q)/q with 50-digit arithmetic
        with mpmath.workdps(50):
            expected = float((1 - mpmath.mpf("0.5") ** mpmath.mpf("0.7")) / mpmath.mpf("0.7"))
        got = loss_gce(probs_row(0.5), np.array([0]), q=0.7).value
        assert got == pytest.approx(expected, abs=1e-15)

    def test_gce_limit_approaches_mae_form(self):
        probs = probs_row(0.37)
        labels = np.array([0])
        near_one = loss_gce(probs, labels, q=0.999).value
        assert near_one == pytest.approx(1.0 - 0.37, abs=1e-3)

    def test_gce_invalid_q(self):
        probs = probs_row(0.5)
        labels = np.array([0])
        for q in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                loss_gce(probs, labels, q=q)

    def test_sce_invalid_params(self):
        probs = probs_row(0.5)
        labels = np.array([0])
        with pytest.raises(ValueError):
            loss_sce(probs, labels, alpha=0.0)
        with pytest.raises(ValueError):
            loss_sce(probs, labels, beta=-1.0)

    def test_sce_composition(self):
        probs = probs_row(0.6)
        labels = np.array([0])
        ce = loss_ce(probs, labels).value
        out = loss_sce(probs, labels, alpha=0.1, beta=1.0, log_clip=-4.0)
        assert out.value == pytest.approx(0.1 * ce + 4.0 * (1.0 - 0.6), rel=1e-12)

    def test_mae_value(self):
        out = loss_mae(probs_row(0.25), np.array([0]))
        assert out.value == pytest.approx(1.5, rel=1e-12)

    def test_ce_and_gce_strictly_decreasing_in_confidence(self):
        grid = np.linspace(0.05, 0.95, 19)
        ce = [loss_ce(probs_row(p), np.array([0])).value for p in grid]
        gce = [loss_gce(probs_row(p), np.array([0])).value for p in grid]
        assert all(a > b for a, b in zip(ce[:-1], ce[1:]))
        assert all(a > b for a, b in zip(gce[:-1], gce[1:]))

    def test_losses_nonnegative(self):
        gen = np.random.default_rng(0)
        for _ in range(50):
            raw = gen.uniform(0.01, 1.0, size=(6, 5))
            probs = raw / raw.sum(axis=1, keepdims=True)
            labels = gen.integers(0, 5, size=6)
            assert loss_ce(probs, labels).per_sample.min() >= 0
            assert loss_gce(probs, labels).per_sample.min() >= 0
            assert loss_mae(probs, labels).per_sample.min() >= 0
            assert loss_sce(probs, labels).per_sample.min() >= 0

    def test_value_is_mean_of_per_sample(self):
        gen = np.random.default_rng(1)
        raw = gen.uniform(0.01, 1.0, size=(9, 4))
        probs = raw / raw.sum(axis=1, keepdims=True)
        labels = gen.integers(0, 4, size=9)
        out = loss_ce(probs, labels)
        assert out.value == pytest.approx(out.per_sample.mean(), abs=1e-10)

    def test_soft_ce_equals_hard_ce_on_one_hot(self):
        gen = np.random.default_rng(2)
        raw = gen.uniform(0.01, 1.0, size=(5, 3))
        probs = raw / raw.sum(axis=1, keepdims=True)
        labels = gen.integers(0, 3, size=5)
        onehot = np.eye(3)[labels]
        assert loss_soft_ce(probs, onehot).value == pytest.approx(loss_ce(probs, labels).value, rel=1e-12)


class TestForward:
    def test_zero_params_uniform(self):
        layout = LinearSoftmaxLayout(dim=2, num_classes=4)
        params = ModelParams(np.zeros(layout.param_count), layout)
        probs = forward(params, np.random.default_rng(0).normal(size=(5, 2)))
        assert np.allclose(probs, 0.25, atol=1e-15)

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_rows_on_simplex(self, layout):
        params = init_params(layout, seed=3)
        probs = forward(params, np.random.default_rng(1).normal(size=(7, layout.dim)))
        assert np.abs(probs.sum(axis=1) - 1.0).max() <= 1e-10
        assert probs.min() >= 0

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_matches_naive_reimplementation(self, layout):
        params = init_params(layout, seed=5)
        x = np.random.default_rng(2).normal(size=(6, layout.dim))
        assert np.abs(forward(params, x) - naive_softmax_forward(params, x)).max() <= 1e-12

    def test_shape_mismatch(self):
        layout = LinearSoftmaxLayout(dim=3, num_classes=2)
        params = init_params(layout, seed=0)
        with pytest.raises(LayoutMismatchError):
            forward(params, np.zeros((4, 5)))


class TestBackward:
    def test_ce_linear_single_sample_textbook_identity(self):
        layout = LinearSoftmaxLayout(dim=3, num_classes=4)
        params = init_params(layout, seed=1)
        x = np.array([[0.3, -1.2, 2.0]])
        y = np.array([2])
        probs = forward(params, x)
        out = backward(params, x, y, kind="ce")
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
        out = backward(params, x, y, kind=kind)
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
        out = backward(params, x, targets, kind="soft_ce")
        fd = finite_difference_grad(params, x, targets, "soft_ce")
        rel = np.abs(out.grad - fd) / (1.0 + np.abs(fd))
        assert rel.max() < 1e-5

    def test_weight_decay_adds_lambda_w(self):
        layout = MLPLayout(dim=2, hidden=3, num_classes=2)
        params = init_params(layout, seed=4)
        gen = np.random.default_rng(3)
        x = gen.normal(size=(4, 2))
        y = gen.integers(0, 2, size=4)
        bare = backward(params, x, y, kind="ce", weight_decay=0.0)
        decayed = backward(params, x, y, kind="ce", weight_decay=0.01)
        assert np.array_equal(decayed.grad, bare.grad + 0.01 * params.values)

    def test_grad_finite(self):
        layout = LinearSoftmaxLayout(dim=2, num_classes=3)
        params = init_params(layout, seed=0)
        out = backward(params, np.zeros((2, 2)), np.array([0, 1]), kind="ce")
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
            backward(params, np.zeros(shape), np.zeros(4, dtype=int), kind="ce", work=work)

    def test_batch_larger_than_workspace_rejected(self):
        layout = LAYOUTS[1]
        params = init_params(layout, seed=0)
        work = Workspace(layout, rows=4)
        backward(params, np.zeros((4, 3)), np.zeros(4, dtype=int), kind="ce", work=work)
        with pytest.raises(ValueError, match="exceeds"):
            backward(params, np.zeros((5, 3)), np.zeros(5, dtype=int), kind="ce", work=work)

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
        fresh = backward(params, x, labels, kind=kind, weight_decay=0.01)
        out = backward(params, x, labels, kind=kind, weight_decay=0.01, work=work)
        assert out.grad is work.grad
        assert np.shares_memory(out.per_sample, work.per_sample)
        assert np.array_equal(out.grad, fresh.grad)
        assert np.array_equal(out.per_sample, fresh.per_sample)
        assert out.value == fresh.value


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
        recomputed = backward(params, x[sel], y[sel], kind=kind, weight_decay=5e-4)
        return reused, recomputed

    @pytest.mark.parametrize("layout", LAYOUTS, ids=["linear", "mlp-tanh", "mlp-relu"])
    @pytest.mark.parametrize("kind", ["ce", "sce", "gce", "mae"])
    @pytest.mark.parametrize("k", [1, 3, 5, 63])
    def test_subset_within_tolerance(self, layout, kind, k):
        for seed in range(3):
            # choice without replacement returns the rows unsorted
            sel = np.random.default_rng(100 + seed).choice(self.BATCH, size=k, replace=False)
            reused, recomputed = self._reused_and_recomputed(layout, kind, sel, seed)
            scale = np.abs(recomputed.grad).max()
            assert np.abs(reused.grad - recomputed.grad).max() <= 1e-12 * scale
            assert reused.value == pytest.approx(recomputed.value, rel=1e-12)
            assert len(reused.per_sample) == k

    @pytest.mark.parametrize("layout", LAYOUTS, ids=["linear", "mlp-tanh", "mlp-relu"])
    def test_unsorted_selection_keeps_its_order(self, layout):
        sel = np.array([40, 3, 17, 63, 0, 8, 25])
        reused, recomputed = self._reused_and_recomputed(layout, "ce", sel)
        assert np.abs(reused.per_sample - recomputed.per_sample).max() <= 1e-12
        assert np.abs(reused.grad - recomputed.grad).max() <= 1e-12 * np.abs(recomputed.grad).max()

    @pytest.mark.parametrize("layout", LAYOUTS, ids=["linear", "mlp-tanh", "mlp-relu"])
    @pytest.mark.parametrize("kind", ["ce", "sce", "gce", "mae"])
    def test_keeping_every_row_is_bit_equal(self, layout, kind):
        reused, recomputed = self._reused_and_recomputed(layout, kind, np.arange(self.BATCH))
        assert np.array_equal(reused.grad, recomputed.grad)
        assert np.array_equal(reused.per_sample, recomputed.per_sample)
        assert reused.value == recomputed.value


class TestSgdStep:
    def test_no_momentum(self):
        w = np.array([1.0, 2.0])
        g = np.array([0.5, -0.5])
        w2, v2 = sgd_step(w, g, np.zeros(2), lr=0.1, momentum=0.0)
        assert np.array_equal(w2, w - 0.1 * g)
        assert np.array_equal(v2, g)

    def test_two_steps_constant_gradient(self):
        # hand recurrence: v1 = g, v2 = mu*g + g, total displacement lr*g*(2+mu)
        mu = 0.9
        lr = 0.05
        w = np.array([0.0, 0.0])
        g = np.array([1.0, -2.0])
        v = np.zeros(2)
        w, v = sgd_step(w, g, v, lr, mu)
        w, v = sgd_step(w, g, v, lr, mu)
        assert np.allclose(w, -lr * g * (2 + mu), atol=1e-15)

    def test_zero_lr_updates_velocity_only(self):
        w = np.array([1.0])
        g = np.array([3.0])
        w2, v2 = sgd_step(w, g, np.array([0.5]), lr=0.0, momentum=0.9)
        assert np.array_equal(w2, w)
        assert v2[0] == pytest.approx(0.9 * 0.5 + 3.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            sgd_step(np.zeros(3), np.zeros(2), np.zeros(3), 0.1, 0.0)


class TestMixupBatch:
    def test_targets_stay_on_simplex(self):
        gen = np.random.default_rng(5)
        onehot = np.eye(5)[gen.integers(0, 5, size=16)]
        x = gen.normal(size=(16, 3))
        for lam in (0.0, 0.25, 0.7, 1.0):
            _, targets = mixup_batch(x, onehot, lam, gen.permutation(16))
            assert np.abs(targets.sum(axis=1) - 1.0).max() <= 1e-12

    def test_lambda_one_is_identity(self):
        gen = np.random.default_rng(6)
        onehot = np.eye(3)[gen.integers(0, 3, size=8)]
        x = gen.normal(size=(8, 2))
        mixed_x, mixed_t = mixup_batch(x, onehot, 1.0, gen.permutation(8))
        assert np.array_equal(mixed_x, x)
        assert np.array_equal(mixed_t, onehot)
