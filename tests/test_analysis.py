import numpy as np
import pytest

from noisyfl.analysis import (
    AccuracyTable,
    accuracy_drop_ratio,
    drop_ratio_series,
    grad_norm_series,
    last_k_average,
    overall_noise_ratio,
    read_accuracy_table,
    sensitivity,
    sensitivity_series,
)
from noisyfl.datasets import make_synthetic_blobs
from noisyfl.errors import LayoutMismatchError
from noisyfl.federation import FedConfig, RoundRecord, run_federation
from noisyfl.localtrain import TrainerConfig
from noisyfl.models import LinearSoftmaxLayout, ModelParams, init_params
from noisyfl.noise import NoiseReport, NoiseSpec, run_scene
from noisyfl.partition import PartitionSpec, partition_iid


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

    def test_insufficient_records(self):
        with pytest.raises(ValueError):
            last_k_average([record(1, 0.5)], 2)


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
        with pytest.raises(ValueError):
            sensitivity(1.0, 0.5, 0.0)


class TestOverallNoiseRatio:
    def _report(self, ratios):
        k = len(ratios)
        return NoiseReport(
            per_client_ratio=ratios, overall_ratio=0.0, flip_counts=np.zeros((2, 2)), per_client_eps=None
        )

    def test_equal_sizes(self):
        assert overall_noise_ratio(self._report([0.3, 0.5]), [100, 100]) == pytest.approx(0.4)

    def test_weighted(self):
        assert overall_noise_ratio(self._report([0.0, 0.4]), [100, 300]) == pytest.approx(0.3)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            overall_noise_ratio(self._report([0.1]), [10, 20])

    def test_matches_full_recount(self):
        ds = make_synthetic_blobs(6, 500, 2, 4.0, seed=3)
        spec = NoiseSpec(scene="localized", mode="symmetric", eps_min=0.2, eps_max=0.5, seed=4)
        plan, noisy, report = run_scene(ds, spec, 5, PartitionSpec(scheme="iid"))
        recomputed = overall_noise_ratio(report, plan.sizes())
        assigned = np.concatenate(plan.clients)
        brute = (noisy.labels[assigned] != noisy.true_labels[assigned]).mean()
        assert recomputed == pytest.approx(brute, abs=1e-12)
        assert report.overall_ratio == pytest.approx(brute, abs=1e-15)


class TestGradNormSeries:
    def _params(self, values):
        layout = LinearSoftmaxLayout(dim=1, num_classes=2)
        return ModelParams(np.asarray(values, dtype=float), layout)

    def test_identical_checkpoints(self):
        p = self._params([1.0, 2.0, 3.0, 4.0])
        assert grad_norm_series([p, p, p]) == [0.0, 0.0]

    def test_pythagorean(self):
        a = self._params([0.0, 0.0, 0.0, 0.0])
        b = self._params([3.0, 4.0, 0.0, 0.0])
        assert grad_norm_series([a, b]) == [5.0]

    def test_matches_runtime_telemetry(self):
        ds = make_synthetic_blobs(3, 120, 2, 5.0, seed=0)
        test = make_synthetic_blobs(3, 30, 2, 5.0, seed=1)
        plan = partition_iid(ds, 3, seed=2)
        layout = LinearSoftmaxLayout(dim=2, num_classes=3)
        cfg = FedConfig(num_clients=3, rounds=5, trainer=TrainerConfig(epochs=1, lr=0.05), seed=3)
        result = run_federation(ds, plan, test, layout, cfg, keep_history=True)
        series = grad_norm_series(result.history)
        recorded = [r.grad_norm for r in result.records]
        assert np.abs(np.array(series) - np.array(recorded)).max() <= 1e-9

    def test_too_few_checkpoints(self):
        with pytest.raises(ValueError):
            grad_norm_series([self._params([0, 0, 0, 0])])

    def test_layout_mismatch(self):
        a = self._params([0.0, 0.0, 0.0, 0.0])
        b = init_params(LinearSoftmaxLayout(dim=2, num_classes=3), seed=0)
        with pytest.raises(LayoutMismatchError):
            grad_norm_series([a, b])


class TestAccuracyTable:
    def test_scale_bounds(self):
        with pytest.raises(ValueError):
            AccuracyTable(entries={("iid", "symmetric", 0.1): 105.0}, scale="percent")
        with pytest.raises(ValueError):
            AccuracyTable(entries={("iid", "symmetric", 0.1): 1.5}, scale="fraction")

    def test_fraction_normalization(self):
        table = AccuracyTable(entries={("iid", "symmetric", 0.1): 85.86}, scale="percent")
        assert table.as_fraction(("iid", "symmetric", 0.1)) == pytest.approx(0.8586)

    def test_series_skip_missing_grid_points(self):
        entries = {
            ("iid", "symmetric", 0.1): 80.0,
            ("iid", "symmetric", 0.3): 60.0,  # 0.2 missing: delta becomes 0.2
            ("iid", "symmetric", 0.4): 50.0,
        }
        table = AccuracyTable(entries=entries, scale="percent")
        series = sensitivity_series(table, "iid", "symmetric")
        assert series[0] == (0.1, pytest.approx((80.0 - 60.0) / 0.2))
        assert series[1] == (0.3, pytest.approx((60.0 - 50.0) / 0.1))

    def test_drop_ratio_series(self):
        entries = {
            ("iid", "symmetric", 0.4): 65.08,
            ("label-dir", "symmetric", 0.4): 30.43,
        }
        table = AccuracyTable(entries=entries, scale="percent")
        series = drop_ratio_series(table, "symmetric", "label-dir")
        assert series == [(0.4, pytest.approx(0.5325, abs=1e-3))]

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text(
            "partition,mode,eps,accuracy\niid,symmetric,0.1,85.86\niid,symmetric,0.2,80.73\n"
        )
        table = read_accuracy_table(str(path))
        assert table.entries[("iid", "symmetric", 0.2)] == 80.73
        series = sensitivity_series(table, "iid", "symmetric")
        assert series[0][1] == pytest.approx(51.3, abs=1e-9)
