import dataclasses

import numpy as np
import pytest

from conftest import count_builds, float_dtypes, fresh_backward, mixup_buffers, recorded_workspaces
from noisyfl import localtrain, models, rng
from noisyfl.cli import main
from noisyfl.datasets import LabeledDataset, make_synthetic_blobs, save_csv
from noisyfl.localtrain import (
    METHODS,
    TrainerConfig,
    coteaching_keep_fraction,
    mixup_batch,
    sgd_step,
    small_loss_selection,
    train_local,
    train_local_coteaching,
)
from noisyfl.losses import backward_cached, one_hot
from noisyfl.models import Layout, ModelParams, Workspace, forward_cached, init_params
from noisyfl.noise import apply_noise, symmetric_matrix
from test_cli import write_config


def blobs(num_classes=3, per_class=80, seed=0, separation=5.0):
    """Two-feature blobs as the train stage hands them to training: with float32 features."""
    return make_synthetic_blobs(num_classes, per_class, 2, separation, seed=seed)


class TestTrainerConfig:
    def test_unknown_method(self):
        with pytest.raises(ValueError):
            TrainerConfig(method="divideup")

    def test_invalid_method_params(self):
        with pytest.raises(ValueError):
            TrainerConfig(method="gce", method_params={"alpha": 1.0})

    def test_valid_method_params(self):
        cfg = TrainerConfig(method="sce", method_params={"alpha": 0.2, "beta": 2.0})
        assert cfg.method_params == {"alpha": 0.2, "beta": 2.0, "log_clip": -4.0}

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(lr=0.0),
            dict(momentum=1.0),
            dict(weight_decay=-0.1),
            dict(batch_size=0),
            dict(epochs=0),
        ],
    )
    def test_invalid_numerics(self, kwargs):
        with pytest.raises(ValueError):
            TrainerConfig(**kwargs)

    @pytest.mark.parametrize(
        "method, params",
        [
            ("gce", {"q": 2.0}),
            ("gce", {"q": 0.0}),
            ("sce", {"alpha": 0.0}),
            ("sce", {"beta": -1.0}),
            ("sce", {"log_clip": 0.0}),
            ("mixup", {"alpha": 0.0}),
            ("mixup", {"alpha": -1.0}),
            ("coteaching", {"forget_rate": 1.0}),
            ("coteaching", {"forget_rate": -0.1}),
            ("coteaching", {"ramp_rounds": 0.0}),
            ("gce", {"q": 1.5}),
            ("gce", {"q": -0.5}),
        ],
    )
    def test_out_of_range_method_params(self, method, params):
        with pytest.raises(ValueError, match=next(iter(params))):
            TrainerConfig(method=method, method_params=params)

    def test_boundary_method_params_accepted(self):
        TrainerConfig(method="gce", method_params={"q": 1.0})
        TrainerConfig(method="coteaching", method_params={"forget_rate": 0.0, "ramp_rounds": 0.5})

    @pytest.mark.parametrize(
        "method, resolved",
        [
            ("ce", {}),
            ("mae", {}),
            ("mixup", {"alpha": 1.0}),
            ("sce", {"alpha": 0.1, "beta": 1.0, "log_clip": -4.0}),
            ("gce", {"q": 0.7}),
            # forget_rate has no default: the train stage infers it from the run's noise ratio
            ("coteaching", {"ramp_rounds": 10}),
        ],
    )
    def test_defaults_resolved(self, method, resolved):
        assert TrainerConfig(method=method).method_params == resolved

    @pytest.mark.parametrize(
        "method, written, resolved",
        [
            ("mixup", {"alpha": 0.4}, {"alpha": 0.4}),
            ("sce", {"beta": 2.0}, {"alpha": 0.1, "beta": 2.0, "log_clip": -4.0}),
            ("gce", {"q": 0.5}, {"q": 0.5}),
            ("coteaching", {"forget_rate": 0.3}, {"forget_rate": 0.3, "ramp_rounds": 10}),
            ("coteaching", {"ramp_rounds": 5.0}, {"ramp_rounds": 5.0}),
        ],
    )
    def test_written_value_replaces_only_its_key(self, method, written, resolved):
        cfg = TrainerConfig(method=method, method_params=written)
        assert cfg.method_params == resolved
        assert dataclasses.replace(cfg, lr=0.5).method_params == resolved


class TestTrainLocal:
    def test_single_full_batch_step_matches_hand_computation(self):
        ds = blobs(per_class=20)
        layout = Layout(dim=2, num_classes=3)
        params = init_params(layout, seed=1)
        cfg = TrainerConfig(method="ce", lr=0.1, momentum=0.0, weight_decay=0.01, batch_size=len(ds), epochs=1)
        trained, mean_loss = train_local(ds, params, cfg, seed=3)

        from noisyfl.rng import stream

        order = stream(3, "shuffle", 0).permutation(len(ds))
        loss, work = fresh_backward(params, ds.features[order], ds.labels[order], "ce", weight_decay=0.01)
        expected = params.values - 0.1 * work.grad
        assert np.array_equal(trained.values, expected)
        assert mean_loss == loss

    def test_determinism(self):
        ds = blobs()
        layout = Layout(dim=2, hidden=8, num_classes=3)
        params = init_params(layout, seed=2)
        cfg = TrainerConfig(method="gce", lr=0.05, epochs=2, batch_size=32)
        a, _ = train_local(ds, params, cfg, seed=9)
        b, _ = train_local(ds, params, cfg, seed=9)
        assert np.array_equal(a.values, b.values)

    def test_input_params_not_mutated(self):
        ds = blobs()
        layout = Layout(dim=2, num_classes=3)
        params = init_params(layout, seed=2)
        snapshot = params.values.copy()
        train_local(ds, params, TrainerConfig(epochs=1), seed=0)
        assert np.array_equal(params.values, snapshot)

    @pytest.mark.parametrize("method", ["ce", "mixup", "sce", "gce", "mae"])
    def test_loss_decreases_on_separable_blobs(self, method):
        # one epoch's mean loss against that of four more epochs continued from its result
        layout = Layout(dim=2, hidden=16, num_classes=3)
        firsts, lasts = [], []
        for seed in range(5):
            ds = blobs(seed=seed)
            params = init_params(layout, seed=seed)
            cfg = TrainerConfig(method=method, lr=0.1, epochs=1, batch_size=64)
            trained, first = train_local(ds, params, cfg, seed=seed)
            _, continued = train_local(ds, trained, dataclasses.replace(cfg, epochs=4), seed=seed + 1)
            firsts.append(first)
            lasts.append(continued)
        assert np.mean(lasts) < np.mean(firsts)

    def test_mixup_with_stubbed_lambda_matches_ce(self):
        ds = blobs()
        layout = Layout(dim=2, hidden=8, num_classes=3)
        params = init_params(layout, seed=4)
        ce_cfg = TrainerConfig(method="ce", lr=0.05, epochs=2, batch_size=32)
        mix_cfg = TrainerConfig(method="mixup", lr=0.05, epochs=2, batch_size=32)
        ce_params, _ = train_local(ds, params, ce_cfg, seed=7)
        mix_params, _ = train_local(ds, params, mix_cfg, seed=7, lam_sampler=lambda gen, alpha: 1.0)
        assert np.array_equal(ce_params.values, mix_params.values)

    def test_mixup_differs_from_ce_without_stub(self):
        ds = blobs()
        layout = Layout(dim=2, num_classes=3)
        params = init_params(layout, seed=4)
        ce_params, _ = train_local(ds, params, TrainerConfig(method="ce", epochs=1), seed=7)
        mix_params, _ = train_local(ds, params, TrainerConfig(method="mixup", epochs=1), seed=7)
        assert not np.array_equal(ce_params.values, mix_params.values)


class TestCoteachingSchedule:
    def test_ramp(self):
        assert coteaching_keep_fraction(0, 0.4, 10) == 1.0
        assert coteaching_keep_fraction(5, 0.4, 10) == pytest.approx(0.8)
        assert coteaching_keep_fraction(10, 0.4, 10) == pytest.approx(0.6)

    def test_flat_after_ramp(self):
        for t in (10, 11, 50, 1000):
            assert coteaching_keep_fraction(t, 0.4, 10) == pytest.approx(0.6)

    def test_selection_example(self):
        losses = np.array([0.1, 9.0, 0.2, 8.0])
        selected = small_loss_selection(losses, 0.5)
        # brute-force oracle: sort (loss, index) pairs and take the smallest half
        oracle = sorted(range(4), key=lambda i: losses[i])[:2]
        assert set(selected.tolist()) == set(oracle) == {0, 2}

    def test_at_least_one_kept(self):
        assert small_loss_selection(np.array([3.0, 1.0]), 0.01).tolist() == [1]


class TestTrainCoteaching:
    def _noisy_blobs(self, seed=0):
        clean = blobs(per_class=60, seed=seed)
        noisy = apply_noise(clean.labels, symmetric_matrix(3, 0.3), seed=seed + 100)
        return clean.with_labels(labels=noisy, true_labels=clean.labels)

    def test_zero_forget_rate_matches_independent_ce(self):
        ds = self._noisy_blobs()
        layout = Layout(dim=2, hidden=8, num_classes=3)
        a0 = init_params(layout, seed=1)
        b0 = init_params(layout, seed=2)
        cfg = TrainerConfig(method="coteaching", lr=0.05, epochs=2, batch_size=32, method_params={"forget_rate": 0.0})
        a1, b1, _ = train_local_coteaching(ds, a0, b0, cfg, seed=5, round_t=3)
        ce_cfg = TrainerConfig(method="ce", lr=0.05, epochs=2, batch_size=32)
        a_ref, _ = train_local(ds, a0, ce_cfg, seed=5)
        b_ref, _ = train_local(ds, b0, ce_cfg, seed=5)
        assert np.array_equal(a1.values, a_ref.values)
        assert np.array_equal(b1.values, b_ref.values)

    def test_networks_diverge_and_update(self):
        ds = self._noisy_blobs()
        layout = Layout(dim=2, num_classes=3)
        a0 = init_params(layout, seed=1)
        b0 = init_params(layout, seed=2)
        cfg = TrainerConfig(method="coteaching", lr=0.05, epochs=1, method_params={"forget_rate": 0.4})
        a1, b1, mean_loss = train_local_coteaching(ds, a0, b0, cfg, seed=5, round_t=20)
        assert not np.array_equal(a1.values, a0.values)
        assert not np.array_equal(b1.values, b0.values)
        assert not np.array_equal(a1.values, b1.values)
        assert np.isfinite(mean_loss) and mean_loss > 0

    def test_layout_mismatch(self):
        ds = self._noisy_blobs()
        a = init_params(Layout(dim=2, num_classes=3), seed=0)
        b = init_params(Layout(dim=2, hidden=4, num_classes=3), seed=0)
        cfg = TrainerConfig(method="coteaching", method_params={"forget_rate": 0.2})
        with pytest.raises(ValueError, match="same shape"):  # no check of ours: the two cannot stack
            train_local_coteaching(ds, a, b, cfg, seed=0, round_t=1)

    def test_invalid_forget_rate(self):
        with pytest.raises(ValueError):
            TrainerConfig(method="coteaching", method_params={"forget_rate": 1.0})


class TestOneModelPerCall:
    """A call builds each network's ModelParams once, and every epoch checks finiteness once for all networks."""

    PARAMS = {"ce": {}, "mixup": {}, "coteaching": {"forget_rate": 0.2}}

    LAYOUTS = {"mlp": Layout(dim=2, hidden=4, num_classes=3), "linear": Layout(dim=2, num_classes=3)}

    def _train(self, method, layout=LAYOUTS["mlp"]):
        ds = blobs(per_class=40)
        a, b = init_params(layout, seed=1), init_params(layout, seed=2)
        cfg = TrainerConfig(method=method, lr=0.05, epochs=2, batch_size=16, method_params=self.PARAMS[method])
        if method == "coteaching":
            return lambda: train_local_coteaching(ds, a, b, cfg, seed=3, round_t=1)
        return lambda: train_local(ds, a, cfg, seed=3)

    @pytest.mark.parametrize("method, networks", [("ce", 1), ("coteaching", 2)])
    def test_one_build_per_network(self, monkeypatch, method, networks):
        train = self._train(method)
        built = count_builds(monkeypatch)
        train()
        # networks beyond one train as a stack, built once, and each result is built from a row of it
        assert len(built) == (1 if networks == 1 else networks + 1)

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    @pytest.mark.parametrize(
        "method, entry, networks", [("ce", "backward", 1), ("mixup", "backward", 1), ("coteaching", "forward_cached", 2)]
    )
    def test_steps_run_the_checked_entries_on_a_once_bound_workspace(self, monkeypatch, method, entry, networks, layout):
        # 120 rows in batches of 16 over 2 epochs: 16 steps, each one pass over every network
        train = self._train(method, self.LAYOUTS[layout])
        calls, views = [], []
        original, layer_views = getattr(localtrain, entry), models._layer_views

        def counted(params, *args, **kw):
            calls.append(params.values.shape[:-1])
            return original(params, *args, **kw)

        monkeypatch.setattr(localtrain, entry, counted)
        monkeypatch.setattr(models, "_layer_views", lambda *args: views.append(None) or layer_views(*args))
        train()
        assert calls == [() if networks == 1 else (networks,)] * 16
        assert len(views) == 2  # the one workspace's grad views and its one bind

    @pytest.mark.parametrize("method", ["ce", "mixup", "coteaching"])
    def test_dataset_width_checked_before_any_step(self, tmp_path, monkeypatch, method):
        """The layout takes the training set's width; only a CSV test set can differ, and it is checked where it enters."""
        paths = {"path": str(tmp_path / "train.csv"), "test_path": str(tmp_path / "test.csv")}
        save_csv(blobs(per_class=40), paths["path"])  # 2 features
        save_csv(make_synthetic_blobs(3, 10, 3, 5.0, seed=1), paths["test_path"])  # 3 features
        changes = {
            "dataset": {"csv": {**paths, "label_column": "label"}},
            "noise": {"scene": "realworld"},
            "federation.trainer.method": method,
        }
        config, _ = write_config(tmp_path, changes=changes)
        passes, steps = [], []
        monkeypatch.setattr(Workspace, "forward", lambda work, x: passes.append(None))
        monkeypatch.setattr(localtrain, "sgd_step", lambda *args: steps.append(None))
        assert main(["pipeline", "-c", config]) == 2
        assert passes == [] and steps == []

    @pytest.mark.parametrize("method", ["ce", "coteaching"])
    def test_divergence_raises_at_the_end_of_its_epoch(self, monkeypatch, method):
        # 120 rows in batches of 16: 8 steps an epoch; a NaN after the third step is caught at the eighth
        train = self._train(method)
        steps = []

        def nan_on_third_step(values, grad, velocity, lr, momentum, scratch):
            steps.append(None)
            sgd_step(values, grad, velocity, lr, momentum, scratch)
            if len(steps) == 3:
                values.flat[0] = np.nan

        monkeypatch.setattr(localtrain, "sgd_step", nan_on_third_step)
        with pytest.raises(FloatingPointError):
            train()
        assert len(steps) == 8


def hand_trained(ds, starts, cfg, seed, round_t):
    """Reference loop: a fresh gather, fresh ModelParams, workspaces and buffers for every batch.

    Returns the trained values and each epoch's mean batch loss.
    """
    values = [p.values.copy() for p in starts]
    velocities = [np.zeros_like(v) for v in values]
    mix_gen = rng.stream(seed, "mixup")
    epoch_losses = []
    for epoch in range(cfg.epochs):
        order = rng.stream(seed, "shuffle", epoch).permutation(len(ds))
        batch_losses = []
        for first in range(0, len(ds), cfg.batch_size):
            idx = order[first : first + cfg.batch_size]
            x, y = ds.features[idx], ds.labels[idx]
            nets = [ModelParams(v.copy(), starts[0].layout) for v in values]
            if cfg.method == "coteaching":
                mp = cfg.method_params
                keep = coteaching_keep_fraction(round_t, mp["forget_rate"], mp["ramp_rounds"])
                # rank with a pass in a new workspace, then take the gradient from the peer's rows of that pass
                works = [Workspace(net.layout, len(x), net) for net in nets]
                passes = [forward_cached(net, x, work) for net, work in zip(nets, works)]
                ce = [-np.log(np.maximum(probs[np.arange(len(y)), y], np.finfo(np.float32).tiny)) for probs in passes]
                kept = [small_loss_selection(per_sample, keep) for per_sample in ce]
                losses = []
                for net, work, sel in zip(nets, works, kept[::-1]):
                    work.keep(sel)
                    losses.append(backward_cached(net, work, y[sel], kind="ce", weight_decay=cfg.weight_decay))
                batch_losses.append(0.5 * (losses[0] + losses[1]))
            else:
                if cfg.method == "mixup":
                    alpha = cfg.method_params["alpha"]
                    lam = float(mix_gen.beta(alpha, alpha))
                    onehot = one_hot(y, ds.num_classes)
                    buffers = mixup_buffers(x, onehot)
                    mixed_x, mixed_t = mixup_batch(x, onehot, lam, mix_gen.permutation(len(idx)), buffers)
                    loss, work = fresh_backward(nets[0], mixed_x, mixed_t, "soft_ce", weight_decay=cfg.weight_decay)
                else:
                    loss, work = fresh_backward(nets[0], x, y, cfg.method, cfg.method_params, cfg.weight_decay)
                works = [work]
                batch_losses.append(loss)
            for i, work in enumerate(works):
                sgd_step(values[i], work.grad, velocities[i], cfg.lr, cfg.momentum, np.empty_like(values[i]))
        epoch_losses.append(float(np.mean(batch_losses)))
    return values, epoch_losses


class TestWorkspaceReuse:
    """Training through reused workspaces equals steps in fresh workspaces bit for bit."""

    LAYOUTS = [
        Layout(dim=5, num_classes=3),
        Layout(dim=5, hidden=6, num_classes=3, activation="tanh"),
        Layout(dim=5, hidden=6, num_classes=3, activation="relu"),
    ]
    METHOD_PARAMS = {
        "ce": {},
        "mixup": {},
        "sce": {"alpha": 0.3, "beta": 0.7},
        "gce": {"q": 0.5},
        "mae": {},
        "coteaching": {"forget_rate": 0.4},
    }

    @pytest.mark.parametrize("layout", LAYOUTS, ids=["linear", "mlp-tanh", "mlp-relu"])
    @pytest.mark.parametrize("method", list(METHOD_PARAMS))
    # 69 rows: a 5-row last batch, a 1-row last batch, one batch smaller than the batch size
    @pytest.mark.parametrize("batch_size", [16, 17, 100])
    def test_matches_fresh_steps(self, layout, method, batch_size):
        clean = make_synthetic_blobs(3, 23, 5, 2.0, seed=1)
        self._check(clean, layout, method, batch_size)

    @pytest.mark.parametrize("method", list(METHOD_PARAMS))
    def test_matches_fresh_steps_at_benchmark_shapes(self, method):
        # 32 features, 64 hidden units, 10 classes and 64-row batches, as in the
        # benchmark's workloads, whose matmuls run other BLAS kernels than the
        # small shapes above; 150 rows end each epoch on a 22-row batch.  Here a
        # co-teaching network that recomputed its pass on the kept rows would
        # differ in the last bits from one that reuses its ranking pass.
        clean = make_synthetic_blobs(10, 15, 32, 2.0, seed=1)
        self._check(clean, Layout(dim=32, hidden=64, num_classes=10, activation="tanh"), method, 64)

    def _check(self, clean, layout, method, batch_size):
        noisy = apply_noise(clean.labels, symmetric_matrix(clean.num_classes, 0.3), seed=2)
        ds = clean.with_labels(labels=noisy, true_labels=clean.labels)
        starts = [init_params(layout, seed=3), init_params(layout, seed=4)]
        cfg = TrainerConfig(
            method=method, lr=0.2, epochs=3, batch_size=batch_size, method_params=self.METHOD_PARAMS[method]
        )
        if method == "coteaching":
            *trained, mean_loss = train_local_coteaching(ds, starts[0], starts[1], cfg, seed=5, round_t=6)
        else:
            starts = starts[:1]
            *trained, mean_loss = train_local(ds, starts[0], cfg, seed=5)
        values, epoch_losses = hand_trained(ds, starts, cfg, seed=5, round_t=6)
        for model, expected in zip(trained, values):
            assert np.array_equal(model.values, expected)
        assert mean_loss == float(np.mean(epoch_losses))


def epoch_gather_train(ds, start, cfg, seed, batch_rule, targets=None):
    """The loop ``localtrain._train`` ran before it took each batch into one buffer: each epoch
    gathers its shuffled rows of the shard into an array of the shard's size, and a batch is a
    slice of that array."""
    layout = start[0].layout
    if len(start) == 1:
        stack = start[0].copy()
    else:
        stack = ModelParams(np.stack([params.values for params in start]), layout)
    work = Workspace(layout, min(cfg.batch_size, len(ds)), stack)
    velocity = np.zeros_like(stack.values)
    targets = ds.labels if targets is None else targets
    epoch_losses = []
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            perm = rng.stream(seed, "shuffle", epoch).permutation(len(ds))
            xs, ys = ds.features[perm], targets[perm]
            batch_losses = []
            for first in range(0, len(ds), cfg.batch_size):
                rows = slice(first, first + cfg.batch_size)
                batch_losses.append(batch_rule(stack, work, xs[rows], ys[rows]))
                sgd_step(stack.values, work.grad, velocity, cfg.lr, cfg.momentum, work.step)
            if not np.isfinite(stack.values).all():
                raise FloatingPointError("local training diverged to non-finite parameters")
            epoch_losses.append(float(np.mean(batch_losses)))
    mean_loss = float(np.mean(epoch_losses))
    if len(start) == 1:
        return [stack], mean_loss
    return [ModelParams(values, layout) for values in stack.values], mean_loss


class TestBatchBuffer:
    """Batches taken from the shard into one buffer train bit for bit as slices of an epoch's gather."""

    @pytest.mark.parametrize("rows", [1, 63, 64, 65, 130])  # with 64-row batches: one short batch, one, two full
    @pytest.mark.parametrize("method", METHODS)
    def test_matches_the_epoch_gather(self, monkeypatch, method, rows):
        layout = Layout(dim=32, hidden=64, num_classes=10, activation="tanh")
        clean = make_synthetic_blobs(10, 13, 32, 2.0, seed=1)
        picked = np.random.default_rng(2).permutation(len(clean))[:rows]
        noisy = apply_noise(clean.labels[picked], symmetric_matrix(clean.num_classes, 0.3), seed=2)
        ds = LabeledDataset(clean.features[picked], noisy, clean.num_classes, clean.labels[picked])
        params = {"coteaching": {"forget_rate": 0.4}}.get(method, {})
        cfg = TrainerConfig(method=method, lr=0.2, epochs=3, batch_size=64, method_params=params)
        starts = [init_params(layout, seed=3), init_params(layout, seed=4)]

        def train():
            if method == "coteaching":
                *trained, mean_loss = train_local_coteaching(ds, starts[0], starts[1], cfg, seed=5, round_t=6)
            else:
                *trained, mean_loss = train_local(ds, starts[0], cfg, seed=5)
            return [model.values for model in trained], mean_loss

        taken, taken_loss = train()
        monkeypatch.setattr(localtrain, "_train", epoch_gather_train)
        gathered, gathered_loss = train()
        assert len(taken) == len(gathered) == 1 + (method == "coteaching")
        assert all(a.tobytes() == b.tobytes() for a, b in zip(taken, gathered))
        assert taken_loss == gathered_loss
        assert not np.array_equal(taken[0], starts[0].values)


class TestFloat32:
    """Every method trains in float32: no buffer, trained network or peer comes out wider.

    The hyperparameters are numpy float64 scalars, as a caller may pass
    them: under NEP 50 such a scalar times a float32 array gives a float64
    array, which a new (not in-place) result would carry on.
    """

    PARAMS = TestWorkspaceReuse.METHOD_PARAMS

    @pytest.mark.parametrize("layout", TestWorkspaceReuse.LAYOUTS, ids=["linear", "mlp-tanh", "mlp-relu"])
    @pytest.mark.parametrize("method", METHODS)
    def test_buffers_and_results_are_float32(self, monkeypatch, layout, method):
        made = recorded_workspaces(monkeypatch, localtrain)
        ds = make_synthetic_blobs(3, 23, 5, 2.0, seed=1)
        a, b = init_params(layout, seed=3), init_params(layout, seed=4)
        params = {key: np.float64(value) for key, value in self.PARAMS[method].items()}
        lr, momentum, decay = np.float64(0.2), np.float64(0.9), np.float64(5e-4)
        cfg = TrainerConfig(method, lr, momentum, decay, batch_size=16, epochs=2, method_params=params)
        if method == "coteaching":
            *trained, _ = train_local_coteaching(ds, a, b, cfg, seed=5, round_t=6)
        else:
            *trained, _ = train_local(ds, a, cfg, seed=5)
        assert [model.values.dtype for model in trained] == [np.float32] * len(trained)  # co-teaching: and its peer
        (work,) = made
        dtypes = float_dtypes(work)
        assert {"probs", "grad", "step", "x", "values", "grad_views[0]"} <= set(dtypes)  # the probe sees the buffers
        assert set(dtypes.values()) == {np.dtype(np.float32)}, dtypes

    def test_one_hot_targets_are_float32(self):
        assert one_hot(np.array([2, 0, 1]), 3).dtype == np.float32
