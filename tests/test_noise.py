import math

import numpy as np
import pytest

from noisyfl import rng
from noisyfl.datasets import LabeledDataset, make_synthetic_blobs
from noisyfl.errors import DegeneratePartitionError
from noisyfl.noise import (
    NoiseSpec,
    apply_noise,
    asymmetric_matrix,
    cyclic_target_map,
    run_scene,
    symmetric_matrix,
)
from noisyfl.partition import PartitionSpec, make_partition
from noisyfl.rng import derive_seed
from test_partition import random_settings

# the fields of run_scene's report, which the noise manifest records
REPORT_FIELDS = ("per_client_ratio", "overall_ratio", "per_client_eps", "flip_counts", "skipped_clients")


class TestSymmetricMatrix:
    def test_closed_form(self):
        m = symmetric_matrix(10, 0.4)
        assert np.allclose(np.diag(m), 0.6, atol=0)
        off = m[~np.eye(10, dtype=bool)]
        assert np.allclose(off, 0.4 / 9, atol=0)

    def test_zero_noise_is_identity(self):
        m = symmetric_matrix(5, 0.0)
        assert np.array_equal(m, np.eye(5))

    @pytest.mark.parametrize("c", range(2, 21))
    @pytest.mark.parametrize("eps", [0.0, 0.1, 0.3, 0.7, 1.0])
    def test_rows_stochastic(self, c, eps):
        m = symmetric_matrix(c, eps)
        assert np.abs(m.sum(axis=1) - 1.0).max() <= 1e-12

    def test_single_class_rejected(self):
        with pytest.raises(ZeroDivisionError):  # no check of ours: a single-class dataset never gets here
            symmetric_matrix(1, 0.1)

    def test_eps_out_of_range(self):
        """symmetric_matrix takes the eps NoiseSpec checked where it entered."""
        with pytest.raises(ValueError, match="requires 0 <= eps_global <= 1"):
            NoiseSpec(scene="globalized", mode="symmetric", eps_global=1.5)


class TestAsymmetricMatrix:
    def test_closed_form(self):
        m = asymmetric_matrix(3, 0.4, {0: 1, 1: 2, 2: 0})
        assert m[0].tolist() == [0.6, 0.4, 0.0]

    def test_full_noise_is_permutation(self):
        m = asymmetric_matrix(4, 1.0, cyclic_target_map(4))
        assert np.array_equal(m, np.roll(np.eye(4), 1, axis=1))

    def test_two_nonzeros_per_row(self):
        m = asymmetric_matrix(6, 0.3, cyclic_target_map(6))
        assert (np.count_nonzero(m, axis=1) == 2).all()

    def test_identity_target_rejected(self):
        with pytest.raises(ValueError):
            asymmetric_matrix(3, 0.2, {0: 0, 1: 2, 2: 1})

    def test_partial_map_rejected(self):
        with pytest.raises(ValueError):
            asymmetric_matrix(3, 0.2, {0: 1})


class TestTransitionMatrixInvariants:
    """symmetric_matrix and asymmetric_matrix make every flip table, so they alone hold its invariants."""

    TABLES = [symmetric_matrix(5, eps) for eps in (0.0, 0.3, 1.0)] + [
        asymmetric_matrix(5, eps, cyclic_target_map(5)) for eps in (0.0, 0.3, 1.0)
    ]

    def test_row_sum_enforced(self):
        for m in self.TABLES:
            assert m.shape == (5, 5)
            assert np.abs(m.sum(axis=1) - 1.0).max() <= 1e-12

    def test_entry_bounds_enforced(self):
        for m in self.TABLES:
            assert m.min() >= 0.0 and m.max() <= 1.0


class TestApplyNoise:
    def test_identity_noop(self):
        ds = make_synthetic_blobs(4, 100, 2, 4.0, seed=0)
        noisy = apply_noise(ds.labels, symmetric_matrix(4, 0.0), seed=1)
        assert np.array_equal(noisy, ds.labels)

    def test_full_asymmetric_flips_everything(self):
        ds = make_synthetic_blobs(5, 40, 2, 4.0, seed=0)
        noisy = apply_noise(ds.labels, asymmetric_matrix(5, 1.0, cyclic_target_map(5)), seed=3)
        assert np.array_equal(noisy, (ds.labels + 1) % 5)

    def test_flip_fraction_in_binomial_band(self):
        ds = make_synthetic_blobs(10, 5000, 2, 4.0, seed=0)
        n = len(ds)
        eps = 0.4
        noisy = apply_noise(ds.labels, symmetric_matrix(10, eps), seed=11)
        realized = (noisy != ds.labels).mean()
        assert abs(realized - eps) <= 3 * np.sqrt(eps * (1 - eps) / n)

    def test_preserves_features_and_truth(self):
        # apply_noise only reads its labels; the scene keeps the features and records those labels as the truth
        ds = make_synthetic_blobs(3, 50, 2, 4.0, seed=0)
        labels = ds.labels.copy()
        labels.flags.writeable = False
        noisy = apply_noise(labels, symmetric_matrix(3, 0.5), seed=2)
        assert noisy is not labels and np.array_equal(labels, ds.labels)
        spec = NoiseSpec(scene="globalized", mode="symmetric", eps_global=0.5, seed=2)
        _, scene, _ = run_scene(ds, spec, 3, PartitionSpec(scheme="iid"))
        assert scene.features is ds.features
        assert np.array_equal(scene.true_labels, ds.labels)

    def test_prefix_stability(self):
        # growing the label vector must not change earlier samples' draws
        big = make_synthetic_blobs(4, 100, 2, 4.0, seed=5)
        m = symmetric_matrix(4, 0.5)
        noisy_small = apply_noise(big.labels[:120], m, seed=9)
        noisy_big = apply_noise(big.labels, m, seed=9)
        assert np.array_equal(noisy_big[:120], noisy_small)

    def test_label_outside_matrix(self):
        with pytest.raises(IndexError):  # no check of ours: the table has no row for label 2
            apply_noise(np.array([0, 1, 2]), symmetric_matrix(2, 0.1), seed=0)


class TestNoiseSpecValidation:
    def test_globalized_requires_ratio(self):
        with pytest.raises(ValueError):
            NoiseSpec(scene="globalized", mode="symmetric")

    def test_localized_bounds_ordered(self):
        with pytest.raises(ValueError):
            NoiseSpec(scene="localized", mode="symmetric", eps_min=0.5, eps_max=0.3)

    def test_eps_above_one_rejected_not_clamped(self):
        with pytest.raises(ValueError):
            NoiseSpec(scene="localized", mode="symmetric", eps_min=0.5, eps_max=1.2)

    def test_clean_takes_no_ratios(self):
        with pytest.raises(ValueError):
            NoiseSpec(scene="clean", eps_global=0.1)

    def test_clean_mode_none(self):
        with pytest.raises(ValueError):
            NoiseSpec(scene="clean", mode="symmetric")

    @pytest.mark.parametrize(
        "ratios",
        [
            dict(scene="globalized", eps_global=math.nan),
            dict(scene="localized", eps_min=math.nan, eps_max=0.4),
            dict(scene="localized", eps_min=0.2, eps_max=math.nan),
        ],
        ids=["eps_global", "eps_min", "eps_max"],
    )
    def test_nan_ratio_rejected(self, ratios):
        with pytest.raises(ValueError, match=r"requires 0 <= "):
            NoiseSpec(mode="symmetric", **ratios)

    # (spec, ratio) written from the four-argument nominal_ratio(scene, eps_global, eps_min, eps_max) it replaced
    @pytest.mark.parametrize(
        "spec, expected",
        [
            (dict(scene="globalized", mode="symmetric", eps_global=0.3), 0.3),
            (dict(scene="globalized", mode="asymmetric", eps_global=1), 1.0),
            (dict(scene="globalized", mode="symmetric", eps_global=0), 0.0),
            (dict(scene="localized", mode="symmetric", eps_min=0.2, eps_max=0.4), 0.30000000000000004),
            (dict(scene="localized", mode="asymmetric", eps_min=0.3, eps_max=0.5), 0.4),
            (dict(scene="localized", mode="symmetric", eps_min=0, eps_max=1), 0.5),
            (dict(scene="clean"), 0.0),
            (dict(scene="realworld"), None),
        ],
        ids=[
            "globalized", "globalized-int-1", "globalized-int-0", "localized-0.2-0.4",
            "localized-0.3-0.5", "localized-int-0-1", "clean", "realworld",
        ],
    )
    def test_nominal_ratio(self, spec, expected):
        ratio = NoiseSpec(**spec).nominal_ratio
        assert ratio == expected and type(ratio) is type(expected)

    @pytest.mark.parametrize(
        "scene",
        [
            dict(scene="localized", mode="asymmetric", eps_min=0.2, eps_max=0.4),
            dict(scene="localized", mode="symmetric", eps_min=0.2, eps_max=0.4),
            dict(scene="globalized", mode="symmetric", eps_global=0.3),
            dict(scene="clean"),
            dict(scene="realworld"),
        ],
        ids=["localized-asymmetric", "localized-symmetric", "globalized-symmetric", "clean", "realworld"],
    )
    def test_asym_map_rejected_where_unread(self, scene):
        with pytest.raises(ValueError, match="asym_map"):
            NoiseSpec(asym_map={0: 1, 1: 2, 2: 0}, **scene)

    def test_asym_map_accepted_for_globalized_asymmetric(self):
        spec = NoiseSpec(scene="globalized", mode="asymmetric", eps_global=0.3, asym_map={0: 1, 1: 2, 2: 0})
        assert spec.asym_map == {0: 1, 1: 2, 2: 0}


class TestGlobalizedScene:
    def test_zero_noise_zero_ratios(self):
        ds = make_synthetic_blobs(4, 100, 2, 4.0, seed=0)
        spec = NoiseSpec(scene="globalized", mode="symmetric", eps_global=0.0, seed=5)
        _, noisy, report = run_scene(ds, spec, 4, PartitionSpec(scheme="iid"))
        assert np.array_equal(noisy.labels, ds.labels)
        assert report["per_client_ratio"] == [0.0] * 4
        assert report["overall_ratio"] == 0.0

    def test_per_client_ratios_in_band(self):
        ds = make_synthetic_blobs(10, 1000, 2, 4.0, seed=0)
        spec = NoiseSpec(scene="globalized", mode="symmetric", eps_global=0.4, seed=7)
        _, _, report = run_scene(ds, spec, 10, PartitionSpec(scheme="iid"))
        band = 3 * np.sqrt(0.4 * 0.6 / 1000)
        assert np.abs(np.array(report["per_client_ratio"]) - 0.4).max() <= band
        assert np.allclose(report["per_client_eps"], 0.4)

    def test_corruption_independent_of_partition(self):
        # corrupt-then-partition: the corrupted global labels cannot depend
        # on K or the partition scheme
        ds = make_synthetic_blobs(6, 200, 2, 4.0, seed=1)
        spec = NoiseSpec(scene="globalized", mode="asymmetric", eps_global=0.3, seed=42)
        _, noisy_a, _ = run_scene(ds, spec, 4, PartitionSpec(scheme="iid"))
        _, noisy_b, _ = run_scene(ds, spec, 9, PartitionSpec(scheme="label-dir", alpha=0.5))
        assert np.array_equal(noisy_a.labels, noisy_b.labels)


class TestLocalizedScene:
    def test_flips_confined_to_local_classes(self):
        ds = make_synthetic_blobs(10, 300, 2, 4.0, seed=2)
        spec = NoiseSpec(scene="localized", mode="symmetric", eps_min=0.3, eps_max=0.5, seed=3)
        plan, noisy, _ = run_scene(ds, spec, 6, PartitionSpec(scheme="label-dir", alpha=0.3))
        for k, idx in enumerate(plan.clients):
            clean_classes = set(np.unique(ds.labels[idx]).tolist())
            observed = set(np.unique(noisy.labels[idx]).tolist())
            assert observed <= clean_classes

    def test_zero_width_zero_noise(self):
        ds = make_synthetic_blobs(4, 100, 2, 4.0, seed=2)
        spec = NoiseSpec(scene="localized", mode="symmetric", eps_min=0.0, eps_max=0.0, seed=3)
        _, noisy, report = run_scene(ds, spec, 4, PartitionSpec(scheme="iid"))
        assert np.array_equal(noisy.labels, ds.labels)
        assert report["overall_ratio"] == 0.0

    def test_overall_ratio_matches_recount(self):
        ds = make_synthetic_blobs(6, 500, 2, 4.0, seed=4)
        spec = NoiseSpec(scene="localized", mode="symmetric", eps_min=0.2, eps_max=0.6, seed=8)
        plan, noisy, report = run_scene(ds, spec, 5, PartitionSpec(scheme="iid"))
        assigned = np.concatenate(plan.clients)
        recount = (noisy.labels[assigned] != noisy.true_labels[assigned]).mean()
        assert report["overall_ratio"] == pytest.approx(recount, abs=1e-15)

    def test_overall_ratio_near_mean_eps(self):
        # U(0.3, 0.5) over K=10: the overall ratio is a mean of 10 uniform
        # draws with sd ~0.018, so a +-0.05 band is a 2.7-sigma test
        ds = make_synthetic_blobs(10, 5000, 2, 4.0, seed=0)
        hits = 0
        for seed in range(20):
            spec = NoiseSpec(scene="localized", mode="symmetric", eps_min=0.3, eps_max=0.5, seed=seed)
            _, _, report = run_scene(ds, spec, 10, PartitionSpec(scheme="iid"))
            if abs(report["overall_ratio"] - 0.4) <= 0.05:
                hits += 1
        assert hits >= 19

    def test_single_class_clients_skipped(self):
        ds = make_synthetic_blobs(4, 100, 2, 4.0, seed=1)
        spec = NoiseSpec(scene="localized", mode="symmetric", eps_min=0.5, eps_max=0.5, seed=2)
        # label-quantity with c=1 makes every client single-class
        plan, noisy, report = run_scene(ds, spec, 4, PartitionSpec(scheme="label-quantity", c=1))
        assert report["skipped_clients"] == [0, 1, 2, 3]
        assert np.array_equal(noisy.labels, ds.labels)

    def test_eps_draws_are_order_stable(self):
        ds = make_synthetic_blobs(4, 100, 2, 4.0, seed=1)
        spec = NoiseSpec(scene="localized", mode="symmetric", eps_min=0.1, eps_max=0.9, seed=6)
        _, _, r1 = run_scene(ds, spec, 4, PartitionSpec(scheme="iid"))
        _, _, r2 = run_scene(ds, spec, 4, PartitionSpec(scheme="quantity-skew", alpha=10.0))
        assert r1["per_client_eps"] == r2["per_client_eps"]

    def test_asymmetric_local_flips(self):
        # label-quantity, c = 3 of 6 classes: at eps 1 every label moves to the
        # next class its client holds, in ascending order, wrapping around.  The
        # global cycle would differ: it sends 2 to 3 on client 0 and 5 to 0 on client 1.
        ds = make_synthetic_blobs(6, 3, 2, 4.0, seed=0)
        spec = NoiseSpec(scene="localized", mode="asymmetric", eps_min=1.0, eps_max=1.0, seed=0)
        plan, noisy, report = run_scene(ds, spec, 3, PartitionSpec(scheme="label-quantity", c=3))
        assert [ds.labels[idx].tolist() for idx in plan.clients] == [
            [1, 1, 1, 2, 4, 4, 4],
            [2, 3, 3, 5, 5, 5],
            [0, 0, 0, 2, 3],
        ]
        assert [noisy.labels[idx].tolist() for idx in plan.clients] == [
            [2, 2, 2, 4, 1, 1, 1],  # 1 -> 2 -> 4 -> 1
            [3, 5, 5, 2, 2, 2],  # 2 -> 3 -> 5 -> 2
            [2, 2, 2, 3, 0],  # 0 -> 2 -> 3 -> 0
        ]
        assert np.array_equal(noisy.true_labels, ds.labels)
        assert report["skipped_clients"] == []
        assert report["overall_ratio"] == 1.0

    def test_single_class_client_stays_clean_under_asymmetric_noise(self):
        ds = make_synthetic_blobs(3, 4, 2, 4.0, seed=0)
        spec = NoiseSpec(scene="localized", mode="asymmetric", eps_min=1.0, eps_max=1.0, seed=0)
        plan, noisy, report = run_scene(ds, spec, 3, PartitionSpec(scheme="label-quantity", c=1))
        assert sorted(np.unique(ds.labels[idx]).tolist() for idx in plan.clients) == [[0], [1], [2]]
        assert np.array_equal(noisy.labels, ds.labels)
        assert report["skipped_clients"] == [0, 1, 2]
        assert report["overall_ratio"] == 0.0


class TestRealworldScene:
    def test_pure_delegation(self):
        ds = make_synthetic_blobs(4, 100, 2, 4.0, seed=0)
        ds = LabeledDataset(ds.features, ds.labels, 4)  # strip ground truth
        plan, out, report = run_scene(ds, NoiseSpec(scene="realworld", seed=21), 4, PartitionSpec(scheme="iid"))
        assert out is ds
        direct = make_partition(ds, 4, PartitionSpec("iid"), seed=derive_seed(21, "partition"))
        assert all(np.array_equal(a, b) for a, b in zip(plan.clients, direct.clients))
        assert report == {**dict.fromkeys(REPORT_FIELDS[:-1]), "skipped_clients": []}

    def test_report_present_with_ground_truth(self):
        base = make_synthetic_blobs(4, 200, 2, 4.0, seed=0)
        labels = apply_noise(base.labels, symmetric_matrix(4, 0.3), seed=1)
        noisy = base.with_labels(labels=labels, true_labels=base.labels)
        plan, out, report = run_scene(noisy, NoiseSpec(scene="realworld", seed=2), 4, PartitionSpec(scheme="iid"))
        assert out is noisy
        assigned = np.concatenate(plan.clients)
        recount = (noisy.labels[assigned] != noisy.true_labels[assigned]).mean()
        assert set(report) == set(REPORT_FIELDS)
        assert report["overall_ratio"] == pytest.approx(recount, abs=1e-15)
        assert report["per_client_eps"] is None


class TestCleanScene:
    def test_zero_report(self):
        ds = make_synthetic_blobs(4, 100, 2, 4.0, seed=0)
        spec = NoiseSpec(scene="clean", seed=3)
        plan, clean, report = run_scene(ds, spec, 4, PartitionSpec(scheme="iid"))
        assert np.array_equal(clean.labels, ds.labels)
        assert report["overall_ratio"] == 0.0
        assert np.trace(report["flip_counts"]) == plan.sizes().sum()


class TestNoiseReport:
    def test_identity_counts_lie_on_the_diagonal(self):
        ds = make_synthetic_blobs(4, 100, 2, 4.0, seed=0)
        spec = NoiseSpec(scene="globalized", mode="symmetric", eps_global=0.0, seed=1)
        _, _, report = run_scene(ds, spec, 4, PartitionSpec(scheme="iid"))  # 4 blocks of 100: every sample assigned
        assert np.sum(report["flip_counts"]) == len(ds)
        assert np.array_equal(np.diag(report["flip_counts"]), np.bincount(ds.labels, minlength=4))

    def test_off_diagonal_counts_are_the_flips(self):
        ds = make_synthetic_blobs(3, 50, 2, 4.0, seed=0)
        spec = NoiseSpec(scene="globalized", mode="symmetric", eps_global=0.5, seed=2)
        _, noisy, report = run_scene(ds, spec, 3, PartitionSpec(scheme="iid"))  # 3 blocks of 50: every sample assigned
        flips = (noisy.labels != ds.labels).sum()
        assert flips > 0
        assert np.sum(report["flip_counts"]) - np.trace(report["flip_counts"]) == flips

    def test_overall_consistent_with_flip_counts(self):
        ds = make_synthetic_blobs(5, 400, 2, 4.0, seed=1)
        spec = NoiseSpec(scene="globalized", mode="symmetric", eps_global=0.35, seed=9)
        plan, _, report = run_scene(ds, spec, 5, PartitionSpec(scheme="iid"))
        total = np.sum(report["flip_counts"])
        flips = total - np.trace(report["flip_counts"])
        assert report["overall_ratio"] == pytest.approx(flips / total, abs=1e-15)
        weighted = (np.array(report["per_client_ratio"]) * plan.sizes()).sum() / plan.sizes().sum()
        assert report["overall_ratio"] == pytest.approx(weighted, abs=1e-12)


def per_client_report(noisy: LabeledDataset, plan, per_client_eps, skipped: list[int]) -> dict:
    """The noise report as a loop over the clients computed it before the plan was an owner array."""
    ratios = np.zeros(plan.num_clients, dtype=np.float64)
    flips = 0
    total = 0
    counts = np.zeros((noisy.num_classes, noisy.num_classes), dtype=np.int64)
    for k, idx in enumerate(plan.clients):
        disagree = noisy.labels[idx] != noisy.true_labels[idx]
        ratios[k] = float(disagree.mean()) if len(idx) else 0.0
        flips += int(disagree.sum())
        total += len(idx)
        np.add.at(counts, (noisy.true_labels[idx], noisy.labels[idx]), 1)
    return {
        "per_client_ratio": ratios.tolist(),
        "overall_ratio": flips / total if total else 0.0,
        "per_client_eps": per_client_eps,
        "flip_counts": counts.tolist(),
        "skipped_clients": skipped,
    }


def localized_labels(ds: LabeledDataset, plan, spec: NoiseSpec) -> tuple[np.ndarray, list[int]]:
    """Localized noise as it coded each client's labels with ``np.unique``: (noisy labels, skipped clients)."""
    eps = rng.stream(spec.seed, "eps-draw").uniform(spec.eps_min, spec.eps_max, size=plan.num_clients)
    labels, skipped = ds.labels.copy(), []
    for k, idx in enumerate(plan.clients):
        classes, positions = np.unique(ds.labels[idx], return_inverse=True)
        m = len(classes)
        if m < 2:
            skipped.append(k)
            continue
        matrix = symmetric_matrix(m, eps[k]) if spec.mode == "symmetric" else asymmetric_matrix(m, eps[k], cyclic_target_map(m))
        labels[idx] = classes[apply_noise(positions, matrix, derive_seed(spec.seed, "flip", k))]
    return labels, skipped


class TestOwnerArrayReport:
    """The report counted with bincounts over the owner array equals the per-client loop, bit for bit."""

    @pytest.mark.parametrize(
        "noise",
        [
            {"scene": "globalized", "mode": "symmetric", "eps_global": 0.4},
            {"scene": "globalized", "mode": "asymmetric", "eps_global": 0.3},
            {"scene": "localized", "mode": "symmetric", "eps_min": 0.1, "eps_max": 0.6},
            {"scene": "localized", "mode": "asymmetric", "eps_min": 0.2, "eps_max": 0.5},
            {"scene": "clean"},
        ],
        ids=["globalized-symmetric", "globalized-asymmetric", "localized-symmetric", "localized-asymmetric", "clean"],
    )
    def test_report_equals_the_per_client_loop(self, noise):
        scenes = 0
        for ds, k, partition_spec, trial in random_settings(40, seed=13):
            spec = NoiseSpec(**noise, seed=trial)
            try:
                plan, noisy, report = run_scene(ds, spec, k, partition_spec)
            except DegeneratePartitionError:  # say, a label-quantity client given only empty classes
                continue
            if spec.scene == "localized":
                labels, skipped = localized_labels(ds, plan, spec)
                assert np.array_equal(noisy.labels, labels) and report["skipped_clients"] == skipped
            assert report == per_client_report(noisy, plan, report["per_client_eps"], report["skipped_clients"])
            scenes += 1
        assert scenes >= 25
