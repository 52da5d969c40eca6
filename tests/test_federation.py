import dataclasses
import math

import numpy as np
import pytest

from conftest import naive_softmax_forward
from noisyfl.datasets import LabeledDataset, make_synthetic_blobs
from noisyfl.errors import LayoutMismatchError, NumericalAbortError
from noisyfl.federation import (
    FedConfig,
    aggregate,
    evaluate,
    read_telemetry,
    run_federation,
    select_clients,
    write_telemetry,
)
from noisyfl.localtrain import TrainerConfig, train_local
from noisyfl.models import LinearSoftmaxLayout, MLPLayout, ModelParams, Workspace, init_params
from noisyfl.partition import partition_iid
from noisyfl.rng import derive_seed


class TestSelectClients:
    def test_full_participation(self):
        for t in range(1, 6):
            assert select_clients(10, 1.0, t, seed=0) == list(range(10))

    def test_fractional_count(self):
        chosen = select_clients(10, 0.3, 1, seed=4)
        assert len(chosen) == 3
        assert len(set(chosen)) == 3
        assert chosen == sorted(chosen)

    def test_ceiling(self):
        assert len(select_clients(10, 0.25, 1, seed=0)) == 3
        assert len(select_clients(3, 0.1, 1, seed=0)) == 1

    def test_deterministic_per_round(self):
        assert select_clients(20, 0.5, 7, seed=3) == select_clients(20, 0.5, 7, seed=3)

    def test_varies_across_rounds(self):
        picks = {tuple(select_clients(20, 0.5, t, seed=3)) for t in range(1, 20)}
        assert len(picks) > 1

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            select_clients(10, 0.0, 1, seed=0)


class TestAggregate:
    def _params(self, values):
        layout = LinearSoftmaxLayout(dim=1, num_classes=2)
        return ModelParams(np.asarray(values, dtype=float), layout)

    def test_identical_models_exact(self):
        m = init_params(MLPLayout(dim=3, hidden=5, num_classes=4), seed=9)
        out = aggregate([m] * 7, [3, 1, 4, 1, 5, 9, 2])
        assert np.array_equal(out.values, m.values)

    def test_two_model_weighted_mean(self):
        v = np.array([1.0, -2.0, 3.0, 4.0])
        zero = self._params(np.zeros(4))
        out = aggregate([zero, self._params(v)], [1, 3])
        assert np.array_equal(out.values, 0.75 * v)

    def test_matches_high_precision_oracle(self):
        gen = np.random.default_rng(12)
        layout = MLPLayout(dim=4, hidden=6, num_classes=3)
        models = [init_params(layout, seed=i) for i in range(5)]
        weights = [17, 3, 41, 29, 11]
        out = aggregate(models, weights)
        total = sum(weights)
        oracle = np.array(
            [
                math.fsum(w / total * m.values[i] for m, w in zip(models, weights))
                for i in range(layout.param_count)
            ]
        )
        assert np.abs(out.values - oracle).max() <= 1e-12

    def test_weights_normalize_to_one(self):
        weights = np.array([123, 7, 55], dtype=float)
        fractions = weights / weights.sum()
        assert abs(fractions.sum() - 1.0) <= 1e-12

    def test_layout_mismatch(self):
        a = init_params(LinearSoftmaxLayout(dim=2, num_classes=2), seed=0)
        b = init_params(LinearSoftmaxLayout(dim=3, num_classes=2), seed=0)
        with pytest.raises(LayoutMismatchError):
            aggregate([a, b], [1, 1])

    def test_empty_input(self):
        with pytest.raises(ValueError):
            aggregate([], [])

    def test_nonpositive_weight(self):
        m = init_params(LinearSoftmaxLayout(dim=2, num_classes=2), seed=0)
        with pytest.raises(ValueError):
            aggregate([m, m], [1, 0])


class TestEvaluate:
    def test_perfect_classifier(self):
        ds = make_synthetic_blobs(3, 100, 2, 8.0, seed=0)
        params = init_params(LinearSoftmaxLayout(dim=2, num_classes=3), seed=0)
        trained, _ = train_local(ds, params, TrainerConfig(lr=0.2, epochs=10), seed=0)
        assert evaluate(trained, ds, Workspace(trained.layout, len(ds))) == 1.0

    def test_zero_params_tie_break_to_class_zero(self):
        ds = make_synthetic_blobs(4, 25, 2, 4.0, seed=1)  # balanced, 25 per class
        layout = LinearSoftmaxLayout(dim=2, num_classes=4)
        params = ModelParams(np.zeros(layout.param_count), layout)
        assert evaluate(params, ds, Workspace(layout, len(ds))) == 0.25

    def test_matches_recount(self):
        ds = make_synthetic_blobs(3, 60, 2, 3.0, seed=2)
        params = init_params(MLPLayout(dim=2, hidden=4, num_classes=3), seed=5)
        probs = naive_softmax_forward(params, ds.features)
        correct = sum(
            1 for i in range(len(ds)) if int(np.argmax(probs[i])) == int(ds.labels[i])
        )
        assert evaluate(params, ds, Workspace(params.layout, len(ds))) == pytest.approx(correct / len(ds), abs=1e-15)

    def test_one_workspace_serves_every_round(self):
        # run_federation evaluates every round's model in one workspace
        ds = make_synthetic_blobs(3, 60, 2, 3.0, seed=2)
        layout = MLPLayout(dim=2, hidden=4, num_classes=3)
        shared = Workspace(layout, len(ds))
        for seed in range(3):
            params = init_params(layout, seed=seed)
            assert evaluate(params, ds, shared) == evaluate(params, ds, Workspace(layout, len(ds)))


def global_models(ds, plan, test, layout, cfg):
    """The global models w^0 .. w^T of ``cfg``'s run, w^t from the same run cut at t rounds.

    Selection and training seeds depend only on (seed, round), so a run
    of t rounds is the first t rounds of the longer one; the records of
    every cut run are checked to be a prefix of the whole run's.
    """
    whole = run_federation(ds, plan, test, layout, cfg)
    history = [init_params(layout, derive_seed(cfg.seed, "init"))]
    for t in range(1, cfg.rounds + 1):
        cut = run_federation(ds, plan, test, layout, dataclasses.replace(cfg, rounds=t))
        assert cut.records == whole.records[:t]
        history.append(cut.params)
    assert np.array_equal(history[-1].values, whole.params.values)
    return history


class TestRunFederation:
    def _setup(self, num_clients=4, rounds=6, **trainer_kwargs):
        ds = make_synthetic_blobs(3, 200, 2, 5.0, seed=0)
        test = make_synthetic_blobs(3, 60, 2, 5.0, seed=1)
        plan = partition_iid(ds, num_clients, seed=2)
        layout = LinearSoftmaxLayout(dim=2, num_classes=3)
        trainer = TrainerConfig(method="ce", lr=0.05, epochs=1, batch_size=64, **trainer_kwargs)
        cfg = FedConfig(num_clients=num_clients, rounds=rounds, trainer=trainer, seed=11)
        return ds, test, plan, layout, cfg

    def test_single_client_matches_centralized_loop(self):
        ds = make_synthetic_blobs(3, 100, 2, 5.0, seed=3)
        test = make_synthetic_blobs(3, 30, 2, 5.0, seed=4)
        plan = partition_iid(ds, 1, seed=0)
        layout = LinearSoftmaxLayout(dim=2, num_classes=3)
        trainer = TrainerConfig(method="ce", lr=0.05, momentum=0.9, epochs=1, batch_size=32)
        cfg = FedConfig(num_clients=1, rounds=10, trainer=trainer, seed=31)
        history = global_models(ds, plan, test, layout, cfg)

        params = init_params(layout, derive_seed(31, "init"))
        for t in range(1, 11):
            params, _ = train_local(ds, params, trainer, derive_seed(31, "train", t, 0))
            assert np.abs(params.values - history[t].values).max() <= 1e-9

    def test_grad_norm_recomputable_from_history(self):
        ds, test, plan, layout, cfg = self._setup()
        result = run_federation(ds, plan, test, layout, cfg)
        history = global_models(ds, plan, test, layout, cfg)
        for t, rec in enumerate(result.records, start=1):
            diff = history[t].values - history[t - 1].values
            assert rec.grad_norm == pytest.approx(float(np.linalg.norm(diff)), abs=1e-9)

    def test_deterministic(self):
        ds, test, plan, layout, cfg = self._setup()
        a = run_federation(ds, plan, test, layout, cfg)
        b = run_federation(ds, plan, test, layout, cfg)
        assert np.array_equal(a.params.values, b.params.values)
        assert a.records == b.records

    def test_eval_cadence(self):
        ds, test, plan, layout, _ = self._setup()
        trainer = TrainerConfig(method="ce", lr=0.05, epochs=1)
        cfg = FedConfig(num_clients=4, rounds=6, trainer=trainer, eval_every=3, seed=1)
        result = run_federation(ds, plan, test, layout, cfg)
        evaluated = [r.round for r in result.records if r.test_accuracy is not None]
        assert evaluated == [3, 6]

    def test_plan_size_mismatch(self):
        ds, test, plan, layout, _ = self._setup()
        cfg = FedConfig(num_clients=5, rounds=2, trainer=TrainerConfig(), seed=0)
        with pytest.raises(ValueError):
            run_federation(ds, plan, test, layout, cfg)

    def test_nonfinite_abort_carries_round(self):
        ds, test, plan, layout, _ = self._setup()
        trainer = TrainerConfig(method="ce", lr=1e200, epochs=1)
        cfg = FedConfig(num_clients=4, rounds=10, trainer=trainer, seed=0)
        with pytest.raises(NumericalAbortError) as err:
            run_federation(ds, plan, test, layout, cfg)
        assert err.value.round_t >= 1

    def test_partial_participation_runs(self):
        ds, test, plan, layout, _ = self._setup()
        trainer = TrainerConfig(method="ce", lr=0.05, epochs=1)
        cfg = FedConfig(num_clients=4, rounds=4, trainer=trainer, selection_fraction=0.5, seed=5)
        result = run_federation(ds, plan, test, layout, cfg)
        assert all(len(r.selected_clients) == 2 for r in result.records)

    def test_coteaching_method_runs_and_persists_peers(self):
        ds, test, plan, layout, _ = self._setup()
        trainer = TrainerConfig(
            method="coteaching", lr=0.05, epochs=1, method_params={"forget_rate": 0.2}
        )
        cfg = FedConfig(num_clients=4, rounds=3, trainer=trainer, seed=2)
        result = run_federation(ds, plan, test, layout, cfg)
        assert len(result.records) == 3
        assert result.records[-1].test_accuracy > 0.5

    def test_zero_epochs_rejected_at_config(self):
        with pytest.raises(ValueError):
            TrainerConfig(epochs=0)


class TestTelemetryIO:
    def test_round_trip(self, tmp_path):
        ds = make_synthetic_blobs(3, 100, 2, 5.0, seed=0)
        test = make_synthetic_blobs(3, 30, 2, 5.0, seed=1)
        plan = partition_iid(ds, 2, seed=0)
        layout = LinearSoftmaxLayout(dim=2, num_classes=3)
        cfg = FedConfig(
            num_clients=2, rounds=4, trainer=TrainerConfig(epochs=1), eval_every=2, seed=0
        )
        result = run_federation(ds, plan, test, layout, cfg)
        path = tmp_path / "telemetry.csv"
        write_telemetry(result.records, str(path))
        back = read_telemetry(str(path))
        assert back == result.records
