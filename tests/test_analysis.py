from dataclasses import replace

import numpy as np
import pytest

from noisyfl.analysis import (
    accuracy_drop_ratio,
    drop_ratio_series,
    last_k_average,
    sensitivity,
    sensitivity_series,
)
from noisyfl.cli import read_telemetry, write_telemetry
from noisyfl.datasets import make_synthetic_blobs
from noisyfl.errors import NoisyFLError
from noisyfl.federation import FedConfig, RoundRecord, run_federation
from noisyfl.localtrain import TrainerConfig
from noisyfl.models import Layout, init_params
from noisyfl.noise import NoiseSpec, run_scene
from noisyfl.partition import PartitionSpec, make_partition
from noisyfl.rng import derive_seed


def record(round_t, acc):
    return RoundRecord(
        round=round_t, test_accuracy=acc, grad_norm=0.0, selected_clients=(0,), mean_client_loss=0.0
    )


class TestLastKAverage:
    def test_constant(self):
        records = [record(t, 0.8) for t in range(1, 8)]
        for k in (1, 3, 7):
            assert last_k_average(records, k) == pytest.approx(0.8)

    def test_tail_mean(self):
        records = [record(1, 0.2), record(2, 0.6), record(3, 0.8)]
        assert last_k_average(records, 2) == pytest.approx(0.7)

    def test_matches_manual_tail(self):
        gen = np.random.default_rng(0)
        accs = gen.uniform(0, 1, size=500)
        records = [record(t + 1, a) for t, a in enumerate(accs)]
        assert last_k_average(records, 10) == pytest.approx(accs[-10:].mean(), abs=1e-12)

    def test_skips_unevaluated_rounds(self):
        records = [record(1, 0.5), record(2, None), record(3, 0.9)]
        assert last_k_average(records, 2) == pytest.approx(0.7)


class TestAccuracyDropRatio:
    def test_published_table_values(self):
        # globalized sym 0.4 on 10 clients: iid 65.08, label-dir 30.43
        ratio = accuracy_drop_ratio(65.08, 30.43)
        assert ratio == (65.08 - 30.43) / 65.08
        assert ratio == pytest.approx(0.5325, abs=1e-3)

    def test_equal_is_zero(self):
        assert accuracy_drop_ratio(50.0, 50.0) == 0.0

    def test_noniid_better_goes_negative(self):
        assert accuracy_drop_ratio(31.06, 34.96) < 0.0

    def test_zero_division(self):
        with pytest.raises(ZeroDivisionError):
            accuracy_drop_ratio(0.0, 10.0)


class TestSensitivity:
    def test_published_values(self):
        assert sensitivity(85.86, 80.73, 0.1) == pytest.approx(51.3, abs=1e-9)
        assert sensitivity(39.88, 26.31, 0.1) == pytest.approx(135.7, abs=1e-9)

    def test_equal_accuracies(self):
        assert sensitivity(42.0, 42.0, 0.1) == 0.0

    def test_matches_hand_finite_difference(self):
        gen = np.random.default_rng(1)
        for _ in range(20):
            a, b = gen.uniform(0, 100, size=2)
            delta = gen.uniform(0.01, 0.5)
            assert sensitivity(a, b, delta) == pytest.approx((a - b) / delta, rel=1e-12)

    def test_negative_allowed(self):
        assert sensitivity(31.06, 34.96, 0.1) < 0.0

    def test_invalid_delta(self):
        with pytest.raises(ZeroDivisionError):  # no check of ours: the series passes gaps between grid points
            sensitivity(1.0, 0.5, 0.0)


class TestOverallNoiseRatio:
    """The report's overall_ratio, which the noise manifest records."""

    def _run(self, partition):
        ds = make_synthetic_blobs(6, 500, 2, 4.0, seed=3)
        spec = NoiseSpec(scene="localized", mode="symmetric", eps_min=0.2, eps_max=0.5, seed=4)
        return run_scene(ds, spec, 5, partition)

    def test_equal_sizes(self):
        plan, _, report = self._run(PartitionSpec(scheme="iid"))
        assert len(set(plan.sizes().tolist())) == 1
        assert report["overall_ratio"] == pytest.approx(np.mean(report["per_client_ratio"]), abs=1e-15)

    def test_weighted(self):
        plan, _, report = self._run(PartitionSpec(scheme="quantity-skew", alpha=0.5))
        sizes = plan.sizes()
        assert len(set(sizes.tolist())) > 1
        weighted = float((np.array(report["per_client_ratio"]) * sizes).sum() / sizes.sum())
        assert report["overall_ratio"] == pytest.approx(weighted, abs=1e-15)
        assert report["overall_ratio"] != pytest.approx(np.mean(report["per_client_ratio"]), abs=1e-6)

    def test_matches_full_recount(self):
        plan, noisy, report = self._run(PartitionSpec(scheme="iid"))
        assigned = np.concatenate(plan.clients)
        brute = (noisy.labels[assigned] != noisy.true_labels[assigned]).mean()
        assert report["overall_ratio"] == pytest.approx(brute, abs=1e-15)


class TestGradNormSeries:
    """The grad_norm column of telemetry.csv is the series of |w^t - w^(t-1)|."""

    def test_matches_runtime_telemetry(self, tmp_path):
        ds = make_synthetic_blobs(3, 120, 2, 5.0, seed=0)
        test = make_synthetic_blobs(3, 30, 2, 5.0, seed=1)
        plan = make_partition(ds, 3, PartitionSpec("iid"), seed=2)
        layout = Layout(dim=2, num_classes=3)
        cfg = FedConfig(num_clients=3, rounds=5, trainer=TrainerConfig(epochs=1, lr=0.05), seed=3)
        records, _ = run_federation(ds, plan, test, layout, cfg)
        path = str(tmp_path / "telemetry.csv")
        write_telemetry(records, path)
        # the global model after t rounds is the final model of the same run cut at t rounds
        models = [init_params(layout, derive_seed(3, "init")).values]
        models += [run_federation(ds, plan, test, layout, replace(cfg, rounds=t))[1].values for t in range(1, 6)]
        series = [float(np.linalg.norm(b - a)) for a, b in zip(models[:-1], models[1:])]
        recorded = [r.grad_norm for r in read_telemetry(path)]
        assert np.abs(np.array(series) - np.array(recorded)).max() <= 1e-9


class TestAccuracyTable:
    """An accuracy table is a mapping (partition, mode, eps) -> accuracy; each series reads one curve of it."""

    def test_series_skip_missing_grid_points(self):
        table = {
            ("iid", "symmetric", 0.4): 0.5,
            ("iid", "symmetric", 0.1): 0.8,
            ("iid", "symmetric", 0.3): 0.6,  # 0.2 missing: delta becomes 0.2
            ("iid", "asymmetric", 0.2): 0.1,  # another curve
        }
        series = sensitivity_series(table, "iid", "symmetric")
        assert series == [(0.1, pytest.approx((0.8 - 0.6) / 0.2)), (0.3, pytest.approx((0.6 - 0.5) / 0.1))]

    def test_drop_ratio_series(self):
        table = {
            ("iid", "symmetric", 0.4): 0.6508,
            ("label-dir", "symmetric", 0.4): 0.3043,
            ("label-dir", "symmetric", 0.2): 0.5,  # no iid entry at 0.2
        }
        series = drop_ratio_series(table, "label-dir", "symmetric")
        assert series == [(0.4, pytest.approx(0.5325, abs=1e-3))]

    def test_undefined_drop_ratio_names_its_point(self):
        table = {("iid", "symmetric", 0.4): 0.0, ("label-dir", "symmetric", 0.4): 0.3043}
        with pytest.raises(NoisyFLError, match=r"\(label-dir, symmetric, 0\.4\)"):
            drop_ratio_series(table, "label-dir", "symmetric")
