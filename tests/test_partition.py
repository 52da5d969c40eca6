import hashlib

import numpy as np
import pytest

from noisyfl import partition, rng
from noisyfl.cli import load_plan, save_plan
from noisyfl.datasets import LabeledDataset, class_histogram, make_synthetic_blobs
from noisyfl.errors import DegeneratePartitionError, ParseError
from noisyfl.partition import (
    PartitionPlan,
    PartitionSpec,
    gamma_dirichlet,
    make_partition,
    restrict,
)


def balanced(num_classes=10, per_class=1000, seed=0):
    return make_synthetic_blobs(num_classes, per_class, 2, 4.0, seed=seed)


class TestIid:
    def test_even_split(self):
        ds = balanced(10, 10)
        plan = make_partition(ds, 10, PartitionSpec("iid"), seed=0)
        assert plan.sizes().tolist() == [10] * 10

    def test_floor_semantics_drops_remainder(self):
        ds = make_synthetic_blobs(2, 52, 2, 4.0, seed=0)  # N=104; use 103 of them
        ds = LabeledDataset(ds.features[:103], ds.labels[:103], 2)
        plan = make_partition(ds, 10, PartitionSpec("iid"), seed=1)
        assert plan.sizes().tolist() == [10] * 10
        assert sum(len(c) for c in plan.clients) == 100

    def test_histograms_near_uniform(self):
        # hypergeometric oracle: sigma_h <= binomial sigma sqrt(n p (1-p)),
        # so a 4-sigma binomial band bounds the per-class counts
        ds = balanced(10, 1000)
        plan = make_partition(ds, 10, PartitionSpec("iid"), seed=3)
        sigma = np.sqrt(1000 * 0.1 * 0.9)
        for idx in plan.clients:
            counts = class_histogram(ds, idx)
            assert np.abs(counts - 100).max() <= 4 * sigma

    def test_too_few_samples(self):
        ds = make_synthetic_blobs(2, 2, 2, 4.0, seed=0)
        with pytest.raises(DegeneratePartitionError):
            make_partition(ds, 5, PartitionSpec("iid"), seed=0)

    def test_determinism(self):
        ds = balanced(4, 50)
        a = make_partition(ds, 7, PartitionSpec("iid"), seed=5)
        b = make_partition(ds, 7, PartitionSpec("iid"), seed=5)
        assert all(np.array_equal(x, y) for x, y in zip(a.clients, b.clients))


class TestQuantitySkew:
    def test_stubbed_shares(self, monkeypatch):
        ds = balanced(4, 25)  # N=100
        monkeypatch.setattr(partition, "gamma_dirichlet", lambda gen, alpha, size: np.full(size, 0.25))
        plan = make_partition(ds, 4, PartitionSpec("quantity-skew", alpha=1.0), seed=0)
        assert plan.sizes().tolist() == [25, 25, 25, 25]

    def test_large_alpha_is_nearly_balanced(self):
        ds = balanced(10, 1000)
        hits = 0
        for seed in range(100):
            sizes = make_partition(ds, 10, PartitionSpec("quantity-skew", alpha=1000.0), seed=seed).sizes()
            if sizes.max() / sizes.min() < 1.3:
                hits += 1
        assert hits >= 95

    def test_small_alpha_concentrates(self):
        ds = balanced(10, 1000)
        hits = 0
        for seed in range(100):
            sizes = make_partition(ds, 10, PartitionSpec("quantity-skew", alpha=0.1), seed=seed).sizes()
            if sizes.max() > 0.4 * len(ds):
                hits += 1
        assert hits > 50

    def test_degenerate_raises(self, monkeypatch):
        # every share draw gives one client a floor of zero
        ds = balanced(2, 10)
        stub = lambda gen, alpha, size: np.array([0.999, 0.001] + [0.0] * (size - 2))[:size]
        monkeypatch.setattr(partition, "gamma_dirichlet", stub)
        with pytest.raises(DegeneratePartitionError):
            make_partition(ds, 3, PartitionSpec("quantity-skew", alpha=1.0), seed=0)

    def test_invalid_alpha(self):
        """The schemes take the alpha PartitionSpec checked where it entered."""
        for scheme in ("quantity-skew", "label-dir"):
            with pytest.raises(ValueError, match="alpha > 0"):
                PartitionSpec(scheme=scheme, alpha=0.0)


class TestLabelDirichlet:
    def test_stubbed_uniform_shares(self, monkeypatch):
        ds = balanced(10, 100)
        monkeypatch.setattr(partition, "gamma_dirichlet", lambda gen, alpha, size: np.full(size, 1.0 / size))
        plan = make_partition(ds, 10, PartitionSpec("label-dir", alpha=1.0), seed=0)
        for idx in plan.clients:
            assert class_histogram(ds, idx).tolist() == [10] * 10

    def test_small_alpha_concentrates_classes(self):
        ds = balanced(10, 1000)
        max_fracs = []
        for seed in range(100):
            plan = make_partition(ds, 10, PartitionSpec("label-dir", alpha=0.1), seed=seed)
            for idx in plan.clients:
                counts = class_histogram(ds, idx)
                max_fracs.append(counts.max() / counts.sum())
        assert np.mean(max_fracs) > 0.5

    def test_large_alpha_matches_global_distribution(self):
        ds = balanced(10, 1000)
        tvs = []
        global_dist = np.full(10, 0.1)
        for seed in range(20):
            plan = make_partition(ds, 10, PartitionSpec("label-dir", alpha=1e4), seed=seed)
            for idx in plan.clients:
                counts = class_histogram(ds, idx)
                tvs.append(0.5 * np.abs(counts / counts.sum() - global_dist).sum())
        assert np.mean(tvs) < 0.05

    def test_full_coverage(self):
        ds = balanced(5, 101)
        plan = make_partition(ds, 7, PartitionSpec("label-dir", alpha=0.5), seed=2)
        assigned = np.sort(np.concatenate(plan.clients))
        assert np.array_equal(assigned, np.arange(len(ds)))


class TestRedrawStreams:
    @pytest.mark.parametrize(
        "scheme, calls_per_attempt", [("quantity-skew", 1), ("label-dir", 4)], ids=["quantity-skew", "label-dir"]
    )
    def test_redraw_does_not_reuse_the_next_seeds_streams(self, monkeypatch, scheme, calls_per_attempt):
        """Attempt 1 at seed s draws from streams of its own, not those of attempt 0 at seed s+1."""
        ds = balanced(4, 50)
        next_seed = make_partition(ds, 4, PartitionSpec(scheme, alpha=50.0), seed=8)
        calls = []

        def fail_first_attempt(gen, alpha, size):
            calls.append(None)
            if len(calls) <= calls_per_attempt:
                return np.eye(size)[0]  # every share to client 0 empties the others
            return gamma_dirichlet(gen, alpha, size)

        monkeypatch.setattr(partition, "gamma_dirichlet", fail_first_attempt)
        redrawn = make_partition(ds, 4, PartitionSpec(scheme, alpha=50.0), seed=7)
        assert len(calls) == 2 * calls_per_attempt
        assert min(redrawn.sizes()) >= 1
        assert not all(np.array_equal(a, b) for a, b in zip(redrawn.clients, next_seed.clients))

    def test_label_dir_shuffles_classes_for_the_accepted_attempt_only(self, monkeypatch):
        """A rejected attempt draws only its shares; one class-shuffle stream per class is drawn in all."""
        ds = make_synthetic_blobs(5, 20, 8, 3.0, 1)
        paths = []
        stream = rng.stream
        monkeypatch.setattr(rng, "stream", lambda seed, *path: paths.append(path) or stream(seed, *path))
        make_partition(ds, 20, PartitionSpec("label-dir", alpha=0.2), seed=7)
        shares = [path for path in paths if path[0] == "labeldir-shares"]
        assert shares == [("labeldir-shares",), ("labeldir-shares", "redraw", 1), ("labeldir-shares", "redraw", 2)]
        assert [path for path in paths if path[0] == "labeldir-class"] == [
            ("labeldir-class", cls, "redraw", 2) for cls in range(5)
        ]

    def test_label_dir_plan_after_redraws_is_unchanged(self, tmp_path):
        """Golden digest of the plan file for a case that takes three attempts, as written before
        rejected attempts stopped building their split, converted to the owner array of plan.npy."""
        ds = make_synthetic_blobs(5, 20, 8, 3.0, 1)
        path = tmp_path / "plan.npy"
        save_plan(make_partition(ds, 20, PartitionSpec("label-dir", alpha=0.2), seed=7), str(path))
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "33b54aec193f80f9dadfde48bc96a9cfe48c6c2ef3cf702c07b5814640f5d161"

    @pytest.mark.parametrize(
        "blobs, make, digest",
        [
            (
                (5, 20, 8, 3.0, 1),
                lambda ds: make_partition(ds, 8, PartitionSpec("quantity-skew", alpha=0.5), seed=8),  # three attempts
                "da92b1d801d3a42afb50e7a5392f51888cdf5d28d081556cffc435af80a0dd6b",
            ),
            (
                (5, 21, 8, 3.0, 1),
                # sizes 16, 11, 14, 14, 11, 14, 14, 11
                lambda ds: make_partition(ds, 8, PartitionSpec("label-quantity", c=2), seed=7),
                "da62ad8106c6efd74c10e50338d5f88abdf6acf19632cc9d57e1d922d94fe32f",
            ),
        ],
        ids=["quantity-skew-after-redraws", "label-quantity-leftovers-dealt"],
    )
    def test_plan_keeps_its_digest(self, tmp_path, blobs, make, digest):
        """Golden digests of plan files written before the schemes shared one cut and one redraw loop,
        converted to the owner array of plan.npy."""
        path = tmp_path / "plan.npy"
        save_plan(make(make_synthetic_blobs(*blobs)), str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize(
        "scheme, param",
        [
            ("quantity-skew", {"alpha": 0.5}),
            ("label-dir", {"alpha": 0.5}),
            ("label-quantity", {"c": 1}),
            ("iid", {}),
        ],
        ids=["quantity-skew", "label-dir", "label-quantity", "iid"],
    )
    def test_more_clients_than_samples_fails_before_any_draw(self, monkeypatch, scheme, param):
        """No draw can give K > N clients a sample each, so no stream is drawn."""
        ds = balanced(5, 20)
        monkeypatch.setattr(rng, "stream", lambda seed, *path: pytest.fail(f"stream {path} drawn for more clients than samples"))
        with pytest.raises(DegeneratePartitionError, match="500 clients cannot each get one of 100 samples"):
            make_partition(ds, 500, PartitionSpec(scheme, **param), seed=0)


class TestLabelQuantity:
    def test_c_equals_num_classes_covers_everything(self):
        ds = balanced(6, 100)
        plan = make_partition(ds, 8, PartitionSpec("label-quantity", c=6), seed=0)
        counts = np.stack([class_histogram(ds, idx) for idx in plan.clients])
        assert (counts > 0).all()
        # samples of each class split evenly across all clients
        assert (counts.max(axis=0) - counts.min(axis=0) <= 1).all()

    def test_exactly_c_classes_per_client(self):
        ds = balanced(10, 100)
        plan = make_partition(ds, 10, PartitionSpec("label-quantity", c=3), seed=4)
        for idx in plan.clients:
            assert np.count_nonzero(class_histogram(ds, idx)) == 3

    def test_per_class_split_sizes(self):
        ds = balanced(10, 100)
        plan = make_partition(ds, 10, PartitionSpec("label-quantity", c=3), seed=4)
        counts = np.stack([class_histogram(ds, idx) for idx in plan.clients])
        for cls in range(10):
            holders = counts[:, cls][counts[:, cls] > 0]
            m = len(holders)
            base = 100 // m
            assert set(holders.tolist()) <= {base, base + 1}
            assert holders.sum() == 100

    def test_every_class_assigned_somewhere(self):
        ds = balanced(10, 30)
        for seed in range(10):
            plan = make_partition(ds, 4, PartitionSpec("label-quantity", c=3), seed=seed)
            counts = np.stack([class_histogram(ds, idx) for idx in plan.clients])
            assert (counts.sum(axis=0) > 0).all()

    def test_coverage_infeasible(self):
        ds = balanced(10, 10)
        with pytest.raises(DegeneratePartitionError):
            make_partition(ds, 3, PartitionSpec("label-quantity", c=3), seed=0)

    def test_empty_client_raises(self):
        """K <= N, but c = 2 of 3 single-sample classes cannot give 3 clients a sample each."""
        ds = make_synthetic_blobs(3, 1, 2, 3.0, 0)
        with pytest.raises(DegeneratePartitionError, match="label-quantity produced an empty client"):
            make_partition(ds, 3, PartitionSpec("label-quantity", c=2), seed=0)

    def test_invalid_c(self):
        ds = balanced(4, 10)
        with pytest.raises(DegeneratePartitionError):
            make_partition(ds, 4, PartitionSpec("label-quantity", c=5), seed=0)
        with pytest.raises(ValueError, match="c >= 1"):  # checked where it enters
            PartitionSpec(scheme="label-quantity", c=0)


class TestRestrict:
    def test_local_view(self):
        ds = LabeledDataset(features=np.arange(3.0).reshape(3, 1), labels=[5, 1, 5], num_classes=6)
        plan = PartitionPlan(owner=np.array([0, 1, 0]), num_clients=2)
        local = restrict(ds, plan, 0)
        assert local.labels.tolist() == [5, 5]
        assert local.num_classes == 6
        assert local.features[:, 0].tolist() == [0.0, 2.0]

    def test_concatenation_recovers_assignment(self):
        ds = balanced(4, 50)
        plan = make_partition(ds, 5, PartitionSpec("label-dir", alpha=1.0), seed=3)
        rebuilt = []
        for k in range(5):
            local = restrict(ds, plan, k)
            rebuilt.extend(zip(local.features[:, 0].tolist(), local.labels.tolist()))
        expected = []
        for idx in plan.clients:
            expected.extend(zip(ds.features[idx, 0].tolist(), ds.labels[idx].tolist()))
        assert sorted(rebuilt) == sorted(expected)

    def test_sizes_sum_to_plan_totals(self):
        ds = balanced(4, 50)
        plan = make_partition(ds, 3, PartitionSpec("quantity-skew", alpha=5.0), seed=1)
        total = sum(len(restrict(ds, plan, k)) for k in range(3))
        assert total == plan.sizes().sum()

    def test_out_of_range_client(self):
        ds = balanced(2, 10)
        plan = make_partition(ds, 2, PartitionSpec("iid"), seed=0)
        with pytest.raises(IndexError):
            restrict(ds, plan, 2)


def random_settings(count: int, seed: int):
    """``count`` random (dataset, K, spec, seed) settings, the schemes in turn.

    K runs from 1 to 29; the classes are uneven, some of them empty, and
    iid and quantity skew drop the samples their cuts leave over.
    """
    gen = np.random.default_rng(seed)
    schemes = ("iid", "quantity-skew", "label-dir", "label-quantity")
    for trial in range(count):
        k = int(gen.integers(1, 30))
        num_classes = int(gen.integers(2, 8))
        per_class = gen.integers(0, 3 * k, size=num_classes)
        per_class[gen.integers(num_classes)] += k  # K <= N
        labels = gen.permutation(np.repeat(np.arange(num_classes), per_class))
        ds = LabeledDataset(features=gen.normal(size=(len(labels), 2)), labels=labels, num_classes=num_classes)
        scheme = schemes[trial % 4]
        if scheme == "label-quantity":
            spec = PartitionSpec(scheme, c=int(gen.integers(-(-num_classes // k), num_classes + 1)))
        elif scheme == "iid":
            spec = PartitionSpec(scheme)
        else:
            spec = PartitionSpec(scheme, alpha=float(gen.uniform(5.0, 50.0)))
        yield ds, k, spec, trial


class TestPlanProperties:
    def test_disjointness_and_bounds_across_schemes(self):
        """Each sample is held by its owner's client alone, or by none; no client is empty."""
        gen = np.random.default_rng(0)
        for trial in range(40):
            num_classes = int(gen.integers(3, 8))
            ds = balanced(num_classes, int(gen.integers(30, 80)), seed=trial)
            k = int(gen.integers(2, 8))
            scheme = ("iid", "quantity-skew", "label-dir", "label-quantity")[trial % 4]
            if scheme == "label-quantity":
                c = int(gen.integers(max(1, int(np.ceil(num_classes / k))), num_classes + 1))
                spec = PartitionSpec(scheme=scheme, c=c)
            elif scheme == "iid":
                spec = PartitionSpec(scheme=scheme)
            else:
                spec = PartitionSpec(scheme=scheme, alpha=float(gen.uniform(0.2, 20.0)))
            plan = make_partition(ds, k, spec, seed=trial)
            held = np.concatenate(plan.clients)
            assert len(np.unique(held)) == len(held) and held.min() >= 0 and held.max() < len(ds)
            assert min(plan.sizes()) >= 1
            assert np.array_equal(np.flatnonzero(plan.owner >= 0), np.sort(held))
            for client, idx in enumerate(plan.clients):
                assert (plan.owner[idx] == client).all()

    def test_owner_array_gives_the_clients_of_per_client_masks(self, monkeypatch):
        """Each client is the one the split held before it kept an owner array: its masked shuffled positions."""
        assign, calls = partition._assign, []

        def recorded(seed, groups, owners, redraw=()):
            shuffled = [rng.stream(seed, *path, *redraw).permutation(members) for path, members in groups]
            calls.append((np.concatenate(shuffled), np.concatenate(owners)))
            return assign(seed, groups, owners, redraw)

        monkeypatch.setattr(partition, "_assign", recorded)
        built, dropped, sizes = 0, 0, set()
        for ds, k, spec, trial in random_settings(60, seed=11):
            calls.clear()
            try:
                plan = make_partition(ds, k, spec, seed=trial)
            except DegeneratePartitionError:  # say, a label-quantity client given only empty classes
                continue
            ((shuffled, owners),) = calls
            assert len(plan.clients) == k
            for client in range(k):
                assert np.array_equal(plan.clients[client], np.sort(shuffled[owners == client]))
            built, dropped, sizes = built + 1, dropped + (owners == -1).any(), sizes | {k}
        assert built >= 40 and dropped >= 5 and min(sizes) == 1 and max(sizes) >= 25

    def test_saved_plan_loads_the_same_clients(self, tmp_path):
        path = str(tmp_path / "plan.npy")
        for ds, k, spec, trial in random_settings(60, seed=12):
            try:
                plan = make_partition(ds, k, spec, seed=trial)
            except DegeneratePartitionError:
                continue
            save_plan(plan, path)
            back = load_plan(path, len(ds), plan.num_clients)
            assert np.array_equal(back.owner, plan.owner)
            assert len(back.clients) == plan.num_clients
            assert all(np.array_equal(a, b) for a, b in zip(back.clients, plan.clients))

    @pytest.mark.parametrize(
        "owner, match",
        [
            ([0, 1, 0, 1, 1, 0], r"owners has shape \(6,\), expected \(5,\)"),  # index 5 has a client
            ([0, 0, 0, -1, -1], "client 1 owns no sample"),
        ],
        ids=["index-past-end", "empty-client"],
    )
    def test_invalid_plan_rejected(self, tmp_path, owner, match):
        path = tmp_path / "plan.npy"
        np.save(path, np.array(owner, dtype="<i8"))
        with pytest.raises(ParseError, match=match):
            load_plan(str(path), 5, 2)

    def test_heterogeneity_monotone_in_alpha(self):
        ds = balanced(10, 200)
        global_dist = np.full(10, 0.1)
        means = []
        for alpha in (0.1, 1.0, 10.0, 100.0):
            tvs = []
            for seed in range(50):
                plan = make_partition(ds, 5, PartitionSpec("label-dir", alpha=alpha), seed=seed)
                for idx in plan.clients:
                    counts = class_histogram(ds, idx)
                    tvs.append(0.5 * np.abs(counts / counts.sum() - global_dist).sum())
            means.append(np.mean(tvs))
        assert means[0] >= means[1] >= means[2] >= means[3]

    def test_plan_round_trip(self, tmp_path):
        ds = balanced(5, 40)
        plan = make_partition(ds, 4, PartitionSpec("label-quantity", c=2), seed=9)
        path = tmp_path / "plan.npy"
        save_plan(plan, str(path))
        back = load_plan(str(path), len(ds), 4)
        assert back.num_clients == plan.num_clients
        assert all(np.array_equal(a, b) for a, b in zip(back.clients, plan.clients))

    def test_plan_file_indices_sorted(self, tmp_path):
        """plan.npy is one <i8 owner per sample; the clients read back from it hold their indices in ascending order."""
        ds = balanced(4, 30)
        plan = make_partition(ds, 3, PartitionSpec("iid"), seed=2)
        path = tmp_path / "plan.npy"
        save_plan(plan, str(path))
        owner = np.load(path, allow_pickle=False)
        assert (owner.dtype.str, owner.shape) == ("<i8", (len(ds),))
        for client in load_plan(str(path), len(ds), 3).clients:
            assert np.array_equal(client, np.sort(client))
