import dataclasses
import gc
import json
import math
import os
import pickle
import signal
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import count_builds, float_dtypes, oracle_probs, recorded_workspaces
from noisyfl.cli import read_telemetry, write_telemetry
from noisyfl.datasets import LabeledDataset, make_synthetic_blobs
from noisyfl import federation
from noisyfl.errors import NoisyFLError, NumericalAbortError
from noisyfl.federation import (
    FedConfig,
    aggregate,
    evaluate,
    run_federation,
    select_clients,
)
from noisyfl.localtrain import METHODS, TrainerConfig, train_local, train_local_coteaching
from noisyfl.models import Layout, ModelParams, Workspace, init_params, load_checkpoint, save_checkpoint
from noisyfl.partition import PartitionSpec, make_partition, restrict
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
        """ceil(fraction*K) of the product rounded to 9 decimals: 0.07*100 is 7.000000000000001, and 7 clients."""
        for num_clients, fraction, count in [(100, 0.07, 7), (25, 0.28, 7), (100, 0.1, 10), (10, 0.25, 3), (3, 0.1, 1)]:
            assert len(select_clients(num_clients, fraction, 1, seed=0)) == count, (num_clients, fraction)

    def test_deterministic_per_round(self):
        assert select_clients(20, 0.5, 7, seed=3) == select_clients(20, 0.5, 7, seed=3)

    def test_varies_across_rounds(self):
        picks = {tuple(select_clients(20, 0.5, t, seed=3)) for t in range(1, 20)}
        assert len(picks) > 1

    def test_invalid_fraction(self):
        """select_clients takes the fraction FedConfig checked where it entered."""
        for fraction in (0.0, 1.5):
            with pytest.raises(ValueError, match="selection_fraction"):
                FedConfig(num_clients=10, rounds=1, trainer=TrainerConfig(), selection_fraction=fraction)


class TestAggregate:
    def test_identical_models_exact(self):
        m = init_params(Layout(dim=3, hidden=5, num_classes=4), seed=9)
        out = aggregate([m.values] * 7, [3, 1, 4, 1, 5, 9, 2])
        assert np.array_equal(out, m.values)

    def test_two_model_weighted_mean(self):
        v = np.array([1.0, -2.0, 3.0, 4.0])
        out = aggregate([np.zeros(4), v], [1, 3])
        assert np.array_equal(out, 0.75 * v)

    def test_matches_high_precision_oracle(self):
        layout = Layout(dim=4, hidden=6, num_classes=3)
        values = [init_params(layout, seed=i).values for i in range(5)]
        weights = [17, 3, 41, 29, 11]
        out = aggregate(values, weights)
        total = sum(weights)
        oracle = np.array(
            [math.fsum(w / total * float(v[i]) for v, w in zip(values, weights)) for i in range(layout.param_count)]
        )
        # in float32 (unit roundoff u = 2^-24), each of the 4 steps rounds its weight, difference, product and
        # sum once; with every |v| <= M that is within ~3u * 2M per term plus 4u * M for the running sum
        u, scale = np.finfo(np.float32).eps / 2, max(np.abs(v).max() for v in values)
        assert np.abs(out - oracle).max() <= 16 * u * scale

    @settings(max_examples=50, deadline=None)
    @given(
        weights=st.lists(st.integers(1, 10_000), min_size=1, max_size=6),
        scale=st.integers(2, 10**6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_scaled_integer_weights_give_the_same_bits(self, weights, scale, seed):
        """Only the shard sizes' ratios weigh: each weight over the total is one correctly rounded division."""
        values = list(np.random.default_rng(seed).normal(size=(len(weights), 7)).astype(np.float32))
        scaled = aggregate(values, [scale * w for w in weights])
        assert scaled.tobytes() == aggregate(values, weights).tobytes()

    def test_layout_mismatch(self):
        a = init_params(Layout(dim=2, num_classes=2), seed=0)
        b = init_params(Layout(dim=3, num_classes=2), seed=0)
        with pytest.raises(ValueError, match="broadcast"):  # no check of ours: numpy refuses the shapes
            aggregate([a.values, b.values], [1, 1])

    def test_empty_input(self):
        with pytest.raises(IndexError):  # no check of ours: a round selects at least one client
            aggregate([], [])


class TestEvaluate:
    def test_perfect_classifier(self):
        ds = make_synthetic_blobs(3, 100, 2, 8.0, seed=0).as_float32()
        params = init_params(Layout(dim=2, num_classes=3), seed=0)
        trained, _ = train_local(ds, params, TrainerConfig(lr=0.2, epochs=10), seed=0)
        assert evaluate(trained, ds, Workspace(trained.layout, len(ds))) == 1.0

    def test_zero_params_tie_break_to_class_zero(self):
        ds = make_synthetic_blobs(4, 25, 2, 4.0, seed=1).as_float32()  # balanced, 25 per class
        layout = Layout(dim=2, num_classes=4)
        params = ModelParams(np.zeros(layout.param_count), layout)
        assert evaluate(params, ds, Workspace(layout, len(ds))) == 0.25

    def test_matches_recount(self):
        ds = make_synthetic_blobs(3, 60, 2, 3.0, seed=2).as_float32()
        params = init_params(Layout(dim=2, hidden=4, num_classes=3), seed=5)
        probs = oracle_probs(params.values, params.layout, ds.features)
        correct = sum(
            1 for i in range(len(ds)) if int(np.argmax(probs[i])) == int(ds.labels[i])
        )
        assert evaluate(params, ds, Workspace(params.layout, len(ds))) == pytest.approx(correct / len(ds), abs=1e-15)

    def test_one_workspace_serves_every_round(self):
        # run_federation evaluates every round's model in one workspace
        ds = make_synthetic_blobs(3, 60, 2, 3.0, seed=2).as_float32()
        layout = Layout(dim=2, hidden=4, num_classes=3)
        shared = Workspace(layout, len(ds))
        for seed in range(3):
            params = init_params(layout, seed=seed)
            assert evaluate(params, ds, shared) == evaluate(params, ds, Workspace(layout, len(ds)))


class TestFloat32:
    """A federation trains, averages and evaluates in float32."""

    @pytest.mark.parametrize("processes", [1, 2])
    @pytest.mark.parametrize("method", METHODS)
    def test_models_and_buffers_are_float32(self, monkeypatch, method, processes):
        ds, plan, test, layout, cfg = TestProcesses._setup(self, method, fraction=0.5)
        in_processes(monkeypatch, processes)
        made = recorded_workspaces(monkeypatch, federation)
        peers = []
        if method == "coteaching":
            train = federation.train_local_coteaching

            def recording(*args):
                model, peer, loss = train(*args)
                peers.append(peer)
                return model, peer, loss

            monkeypatch.setattr(federation, "train_local_coteaching", recording)
        _, final = run_federation(ds, plan, test, layout, cfg)
        assert final.values.dtype == np.float32
        assert all(peer.values.dtype == np.float32 for peer in peers)
        assert (method == "coteaching") == bool(peers)
        (evaluation,) = made
        assert set(float_dtypes(evaluation).values()) == {np.dtype(np.float32)}

    def test_evaluation_allocates_no_float64_array(self):
        """A float32 test set is evaluated in the workspace, with no row-sized float64 array beside it.

        What the pass allocates is argmax's int64 labels, the bool flags and
        numpy's iterator buffer for a broadcast bias add (8192 float32s):
        less than the smallest float64 array of the pass, (rows, classes).
        A float64 test set, against float32 weights, makes the first matmul
        allocate a float64 (rows, hidden) temporary: the probe sees it.
        """
        layout = Layout(dim=32, hidden=64, num_classes=10)
        params = init_params(layout, seed=0)
        test = make_synthetic_blobs(10, 200, 32, 2.0, seed=1)
        work = Workspace(layout, len(test))

        def peak(test_set):
            evaluate(params, test_set, work)  # the first call may allocate lazily; it is not measured
            tracemalloc.start()
            try:
                evaluate(params, test_set, work)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(test.as_float32()) < len(test) * layout.num_classes * 8
        assert peak(test) >= len(test) * layout.hidden * 8


def global_models(ds, plan, test, layout, cfg):
    """The global models w^0 .. w^T of ``cfg``'s run, w^t from the same run cut at t rounds.

    Selection and training seeds depend only on (seed, round), so a run
    of t rounds is the first t rounds of the longer one; the records of
    every cut run are checked to be a prefix of the whole run's.
    """
    records, params = run_federation(ds, plan, test, layout, cfg)
    history = [init_params(layout, derive_seed(cfg.seed, "init"))]
    for t in range(1, cfg.rounds + 1):
        cut_records, cut_params = run_federation(ds, plan, test, layout, dataclasses.replace(cfg, rounds=t))
        assert cut_records == records[:t]
        history.append(cut_params)
    assert np.array_equal(history[-1].values, params.values)
    return history


class TestRunFederation:
    def _setup(self, num_clients=4, rounds=6, **trainer_kwargs):
        ds = make_synthetic_blobs(3, 200, 2, 5.0, seed=0).as_float32()
        test = make_synthetic_blobs(3, 60, 2, 5.0, seed=1).as_float32()
        plan = make_partition(ds, num_clients, PartitionSpec("iid"), seed=2)
        layout = Layout(dim=2, num_classes=3)
        trainer = TrainerConfig(method="ce", lr=0.05, epochs=1, batch_size=64, **trainer_kwargs)
        cfg = FedConfig(num_clients=num_clients, rounds=rounds, trainer=trainer, seed=11)
        return ds, test, plan, layout, cfg

    def test_single_client_matches_centralized_loop(self):
        ds = make_synthetic_blobs(3, 100, 2, 5.0, seed=3).as_float32()
        test = make_synthetic_blobs(3, 30, 2, 5.0, seed=4).as_float32()
        plan = make_partition(ds, 1, PartitionSpec("iid"), seed=0)
        layout = Layout(dim=2, num_classes=3)
        trainer = TrainerConfig(method="ce", lr=0.05, momentum=0.9, epochs=1, batch_size=32)
        cfg = FedConfig(num_clients=1, rounds=10, trainer=trainer, seed=31)
        history = global_models(ds, plan, test, layout, cfg)

        params = init_params(layout, derive_seed(31, "init"))
        for t in range(1, 11):
            params, _ = train_local(ds, params, trainer, derive_seed(31, "train", t, 0))
            assert np.abs(params.values - history[t].values).max() <= 1e-9

    def test_grad_norm_recomputable_from_history(self):
        ds, test, plan, layout, cfg = self._setup()
        records, _ = run_federation(ds, plan, test, layout, cfg)
        history = global_models(ds, plan, test, layout, cfg)
        for t, rec in enumerate(records, start=1):
            diff = history[t].values - history[t - 1].values
            assert rec.grad_norm == pytest.approx(float(np.linalg.norm(diff)), abs=1e-9)

    def test_deterministic(self):
        ds, test, plan, layout, cfg = self._setup()
        records_a, params_a = run_federation(ds, plan, test, layout, cfg)
        records_b, params_b = run_federation(ds, plan, test, layout, cfg)
        assert np.array_equal(params_a.values, params_b.values)
        assert records_a == records_b

    def test_eval_cadence(self):
        ds, test, plan, layout, _ = self._setup()
        trainer = TrainerConfig(method="ce", lr=0.05, epochs=1)
        cfg = FedConfig(num_clients=4, rounds=6, trainer=trainer, eval_every=3, seed=1)
        records, _ = run_federation(ds, plan, test, layout, cfg)
        evaluated = [r.round for r in records if r.test_accuracy is not None]
        assert evaluated == [3, 6]

    def test_nonfinite_abort_carries_round(self):
        ds, test, plan, layout, _ = self._setup()
        trainer = TrainerConfig(method="ce", lr=1e200, epochs=1)
        cfg = FedConfig(num_clients=4, rounds=10, trainer=trainer, seed=0)
        with pytest.raises(NumericalAbortError) as err:
            run_federation(ds, plan, test, layout, cfg)
        assert err.value.round_t >= 1

    def test_overflowing_average_aborts_with_its_round(self, monkeypatch):
        """Finite client models whose average overflows abort the run (exit 4 at the CLI), not a ValueError.

        The models hold float32's largest finite value, with opposite signs, so their difference overflows.
        """
        ds, test, plan, layout, cfg = self._setup(num_clients=2)

        def extreme(shard, params, trainer, seed):
            sign = 1.0 if np.array_equal(shard.features, ds.features[plan.clients[0]]) else -1.0
            return ModelParams(np.full(layout.param_count, sign * np.finfo(np.float32).max), layout), 1.0

        monkeypatch.setattr(federation, "train_local", extreme)
        with warnings.catch_warnings(), pytest.raises(NumericalAbortError) as err:
            warnings.simplefilter("error")  # the overflow is reported once, as the abort
            run_federation(ds, plan, test, layout, cfg)
        assert err.value.round_t == 1

    def test_partial_participation_runs(self):
        ds, test, plan, layout, _ = self._setup()
        trainer = TrainerConfig(method="ce", lr=0.05, epochs=1)
        cfg = FedConfig(num_clients=4, rounds=4, trainer=trainer, selection_fraction=0.5, seed=5)
        records, _ = run_federation(ds, plan, test, layout, cfg)
        assert all(len(r.selected_clients) == 2 for r in records)

    def test_coteaching_method_runs_and_persists_peers(self):
        ds, test, plan, layout, _ = self._setup()
        trainer = TrainerConfig(
            method="coteaching", lr=0.05, epochs=1, method_params={"forget_rate": 0.2}
        )
        cfg = FedConfig(num_clients=4, rounds=3, trainer=trainer, seed=2)
        records, _ = run_federation(ds, plan, test, layout, cfg)
        assert len(records) == 3
        assert records[-1].test_accuracy > 0.5

    def test_zero_epochs_rejected_at_config(self):
        with pytest.raises(ValueError):
            TrainerConfig(epochs=0)


def in_processes(monkeypatch, processes):
    """Make every federation train its rounds in up to ``processes`` processes, whatever its size."""
    monkeypatch.setattr(federation, "_usable_cpus", lambda: processes)
    monkeypatch.setattr(federation, "FORK_MIN_BATCHES", 0)


def training_seeds(cfg, round_t):
    """The local-training seeds of round ``round_t``, one per client."""
    return {derive_seed(cfg.seed, "train", round_t, k) for k in range(cfg.num_clients)}


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert gc.get_freeze_count() == 0


class TestProcesses:
    """Rounds trained across forked workers give the serial run's bits, and leave no process behind."""

    @pytest.fixture(autouse=True)
    def deadline(self):
        """A reply that never comes fails the test instead of hanging it."""

        def expired(signum, frame):
            raise TimeoutError("no reply from a training worker in 60 s")

        previous = signal.signal(signal.SIGALRM, expired)
        signal.alarm(60)
        yield
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)

    def _setup(self, method="ce", fraction=1.0, lr=0.05, eval_every=1):
        ds = make_synthetic_blobs(3, 100, 2, 5.0, seed=0).as_float32()
        test = make_synthetic_blobs(3, 30, 2, 5.0, seed=1).as_float32()
        # unequal shards, so the split balances them
        plan = make_partition(ds, 6, PartitionSpec("quantity-skew", alpha=2.0), seed=2)
        layout = Layout(dim=2, hidden=4, num_classes=3)
        params = {"coteaching": {"forget_rate": 0.2}}.get(method, {})
        trainer = TrainerConfig(method=method, lr=lr, epochs=1, batch_size=16, method_params=params)
        cfg = FedConfig(
            num_clients=6, rounds=4, trainer=trainer, selection_fraction=fraction, eval_every=eval_every, seed=9
        )
        return ds, plan, test, layout, cfg

    @pytest.mark.parametrize(
        "method, fraction, eval_every",
        [
            # every third of 4 rounds: the last round's record is pending when the loop ends, and is not evaluated
            pytest.param(method, fraction, every, id=f"{method}-{fraction}" + (f"-every-{every}" if every > 1 else ""))
            for every in (1, 3)
            for fraction in (1.0, 0.5)
            for method in METHODS
        ],
    )
    def test_process_count_leaves_results_unchanged(self, monkeypatch, method, fraction, eval_every):
        args = self._setup(method, fraction, eval_every=eval_every)
        runs, homes = {}, {}
        split = federation._split
        for processes in (1, 2, 3):
            in_processes(monkeypatch, processes)
            shares = []
            monkeypatch.setattr(federation, "_split", lambda *a: shares.append(split(*a)) or shares[-1])
            runs[processes] = run_federation(*args)
            homes[processes] = [{k: p for p, share in enumerate(rnd) for k in share} for rnd in shares]
            assert_no_child_left()
        serial_records, serial_params = runs[1]
        for processes in (2, 3):
            records, params = runs[processes]
            assert records == serial_records
            assert params.values.tobytes() == serial_params.values.tobytes()
        # the split puts every client in the caller for one process, and uses each process for more
        assert {p for rnd in homes[1] for p in rnd.values()} == {0}
        assert {p for rnd in homes[3] for p in rnd.values()} == {0, 1, 2}
        if fraction < 1.0:  # some client, with its co-teaching peer, trains in different processes in different rounds
            assert any(len({rnd[k] for rnd in homes[3] if k in rnd}) > 1 for k in range(6))

    @pytest.mark.parametrize("processes", [1, 3])
    def test_coteaching_matches_a_serial_loop_with_persisted_peers(self, monkeypatch, processes):
        ds, plan, test, layout, cfg = self._setup("coteaching", fraction=0.5)
        params, peers = init_params(layout, derive_seed(cfg.seed, "init")), {}
        for t in range(1, cfg.rounds + 1):
            selected = select_clients(cfg.num_clients, cfg.selection_fraction, t, cfg.seed)
            models = []
            for k in selected:
                peer = peers.get(k) or init_params(layout, derive_seed(cfg.seed, "coteach-init", k))
                seed = derive_seed(cfg.seed, "train", t, k)
                model, peers[k], _ = train_local_coteaching(restrict(ds, plan, k), params, peer, cfg.trainer, seed, t)
                models.append(model)
            params = ModelParams(aggregate([m.values for m in models], [plan.sizes()[k] for k in selected]), layout)
        in_processes(monkeypatch, processes)
        assert run_federation(ds, plan, test, layout, cfg)[1].values.tobytes() == params.values.tobytes()

    def test_small_federation_trains_in_process(self, monkeypatch):
        monkeypatch.setattr(federation, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("a small federation forked"))
        run_federation(*self._setup())

    @pytest.mark.parametrize(
        "where, round_t",
        [("worker", 1), ("caller", 1), ("worker", 2), ("caller", 2)],
        ids=["worker", "caller", "worker-round-2", "caller-round-2"],  # in round 2, round 1's evaluation is pending
    )
    def test_numerical_abort_from_either_share(self, monkeypatch, where, round_t):
        caller, args = os.getpid(), self._setup()
        seeds = training_seeds(args[-1], round_t)

        def diverging(shard, params, trainer, seed):
            if seed in seeds and (os.getpid() == caller) == (where == "caller"):
                raise FloatingPointError("local training diverged to non-finite parameters")
            return train_local(shard, params, trainer, seed)

        in_processes(monkeypatch, 2)
        monkeypatch.setattr(federation, "train_local", diverging)
        with pytest.raises(NumericalAbortError) as err:
            run_federation(*args)
        assert err.value.round_t == round_t
        assert_no_child_left()

    def test_diverging_training_aborts(self, monkeypatch):
        in_processes(monkeypatch, 2)
        with pytest.raises(NumericalAbortError):
            run_federation(*self._setup("coteaching", lr=1e200))
        assert_no_child_left()

    @pytest.mark.parametrize(
        "error, round_t",
        [(ValueError, 1), (MemoryError, 1), (ValueError, 2), (MemoryError, 2)],
        ids=["ValueError", "MemoryError", "ValueError-round-2", "MemoryError-round-2"],
    )
    def test_worker_exception_reaches_the_caller(self, monkeypatch, error, round_t):
        caller, args = os.getpid(), self._setup()
        seeds = training_seeds(args[-1], round_t)

        def failing(shard, params, trainer, seed):
            if seed in seeds and os.getpid() != caller:
                raise error("raised in a worker")
            return train_local(shard, params, trainer, seed)

        in_processes(monkeypatch, 2)
        monkeypatch.setattr(federation, "train_local", failing)
        with pytest.raises(error, match="raised in a worker"):
            run_federation(*args)
        assert_no_child_left()

    @pytest.mark.parametrize("eval_every", [1, 3])
    def test_each_round_is_evaluated_while_the_next_trains(self, monkeypatch, eval_every):
        """Round t is evaluated once round t+1's jobs are sent; that round's split gives the caller a head start."""
        ds, plan, test, layout, cfg = self._setup(eval_every=eval_every)
        caller, events, head_starts = os.getpid(), [], []
        send, evaluate_, split = federation._send, federation.evaluate, federation._split

        def recording_send(fd, obj):
            if os.getpid() == caller:  # a worker's replies are not the caller's events
                events.append(f"send {obj[0]}")
            send(fd, obj)

        def recording_evaluate(*args):
            events.append("evaluate")
            return evaluate_(*args)

        def recording_split(selected, sizes, processes, head_start):
            head_starts.append(head_start)
            return split(selected, sizes, processes, head_start)

        in_processes(monkeypatch, 2)
        monkeypatch.setattr(federation, "_send", recording_send)
        monkeypatch.setattr(federation, "evaluate", recording_evaluate)
        monkeypatch.setattr(federation, "_split", recording_split)
        records, _ = run_federation(ds, plan, test, layout, cfg)
        assert_no_child_left()
        head = len(test) * federation.EVAL_ROW_COST / cfg.trainer.epochs
        if eval_every == 1:
            assert events == ["send 1", "send 2", "evaluate", "send 3", "evaluate", "send 4", "evaluate", "evaluate"]
            assert head_starts == [0, head, head, head]
        else:  # only round 3 is evaluated, while round 4 trains
            assert events == ["send 1", "send 2", "send 3", "send 4", "evaluate"]
            assert head_starts == [0, 0, 0, head]
        assert [r.test_accuracy is not None for r in records] == [t % eval_every == 0 for t in range(1, 5)]

    def test_failed_fork_closes_its_pipes(self, monkeypatch):
        forks, fork = [], os.fork

        def second_fails():
            forks.append(None)
            if len(forks) == 2:
                raise BlockingIOError("fork: resource temporarily unavailable")
            return fork()

        in_processes(monkeypatch, 3)
        monkeypatch.setattr(os, "fork", second_fails)
        open_fds = sorted(os.listdir("/proc/self/fd"))
        with pytest.raises(BlockingIOError):
            run_federation(*self._setup())
        assert sorted(os.listdir("/proc/self/fd")) == open_fds
        assert_no_child_left()

    def test_killed_worker_raises(self, monkeypatch):
        caller = os.getpid()

        def killed(shard, params, trainer, seed):
            if os.getpid() != caller:
                os.kill(os.getpid(), signal.SIGKILL)
            return train_local(shard, params, trainer, seed)

        in_processes(monkeypatch, 2)
        monkeypatch.setattr(federation, "train_local", killed)
        with pytest.raises(NoisyFLError, match="a training worker exited during round 1"):
            run_federation(*self._setup())
        assert_no_child_left()

    def test_reply_cut_short_raises(self, monkeypatch):
        """A worker that dies halfway through its reply leaves the caller a truncated pickle, not an EOF."""
        caller, send = os.getpid(), federation._send

        def half_then_exit(fd, obj):
            if os.getpid() == caller:
                return send(fd, obj)
            data = pickle.dumps(obj, pickle.HIGHEST_PROTOCOL)
            os.write(fd, data[: len(data) // 2])
            os._exit(1)

        in_processes(monkeypatch, 2)
        monkeypatch.setattr(federation, "_send", half_then_exit)
        with pytest.raises(NoisyFLError, match="a training worker exited during round 1"):
            run_federation(*self._setup())
        assert_no_child_left()


class TestSplit:
    """Longest shard first onto the least loaded process; process 0, the caller, may start ahead."""

    SIZES = np.array([50, 40, 30, 20, 10])

    def test_without_a_head_start(self):
        # loads 50|40, 50|70, 70|70, and the tie goes to the caller
        assert federation._split([0, 1, 2, 3, 4], self.SIZES, 2, 0) == [[0, 3, 4], [1, 2]]

    def test_a_head_start_moves_clients_off_the_caller(self):
        # the caller starts at 45 rows: loads 45|50, 85|50, 85|80, 85|100, 95|100
        assert federation._split([0, 1, 2, 3, 4], self.SIZES, 2, 45.0) == [[1, 4], [0, 2, 3]]

    def test_one_process_takes_every_client(self):
        assert federation._split([3, 1, 4], self.SIZES, 1, 45.0) == [[1, 3, 4]]


class TestModelsBuilt:
    """A federation builds each network once where it trains or is averaged: nothing is wrapped again across a pipe."""

    deadline = TestProcesses.deadline

    @pytest.mark.parametrize("processes", [1, 2])
    @pytest.mark.parametrize("method", ["ce", "coteaching"])
    def test_builds_in_the_caller(self, monkeypatch, method, processes):
        ds, plan, test, layout, cfg = TestProcesses._setup(self, method, fraction=0.5)
        in_processes(monkeypatch, processes)
        shares, split = [], federation._split
        monkeypatch.setattr(federation, "_split", lambda *a: shares.append(split(*a)) or shares[-1])
        built = count_builds(monkeypatch)
        run_federation(ds, plan, test, layout, cfg)
        # share 0 trains in the caller, and a co-teaching peer is built where its client first trains
        caller_rounds = sum(len(rnd[0]) for rnd in shares)
        first_home = {}
        for rnd in shares:
            for p, share in enumerate(rnd):
                for k in share:
                    first_home.setdefault(k, p)
        caller_peers = sum(p == 0 for p in first_home.values())
        # the initial model, each trained network (co-teaching: the stack, its two rows and each new peer), each average
        trained = 3 * caller_rounds + caller_peers if method == "coteaching" else caller_rounds
        assert len(built) == 1 + trained + cfg.rounds
        client_rounds = cfg.rounds * math.ceil(cfg.selection_fraction * cfg.num_clients)
        if processes == 1:
            assert caller_rounds == client_rounds
        else:  # the worker trained the rest
            assert 0 < caller_rounds < client_rounds


class TestTelemetryIO:
    def test_round_trip(self, tmp_path):
        ds = make_synthetic_blobs(3, 100, 2, 5.0, seed=0).as_float32()
        test = make_synthetic_blobs(3, 30, 2, 5.0, seed=1).as_float32()
        plan = make_partition(ds, 2, PartitionSpec("iid"), seed=0)
        layout = Layout(dim=2, num_classes=3)
        cfg = FedConfig(
            num_clients=2, rounds=4, trainer=TrainerConfig(epochs=1), eval_every=2, seed=0
        )
        records, _ = run_federation(ds, plan, test, layout, cfg)
        path = tmp_path / "telemetry.csv"
        write_telemetry(records, str(path))
        back = read_telemetry(str(path))
        assert back == records


class TestCheckpoint:
    """A checkpoint is a file read from disk, so its reader checks the header and the payload it finds."""

    def saved(self, tmp_path):
        params = init_params(Layout(dim=2, num_classes=3, hidden=4, activation="relu"), seed=0)
        path = tmp_path / "final_checkpoint.bin"
        save_checkpoint(params, str(path), round_t=3, seed=7)
        return params, path

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda header: header.pop("format"), "is not a parameter checkpoint"),
            (lambda header: header["layout"].update(kind="conv"), "unknown layout kind 'conv'"),
            (lambda header: header["layout"].update(activation="gelu"), "unsupported activation 'gelu'"),
        ],
        ids=["no-magic", "unknown-layout-kind", "unsupported-activation"],
    )
    def test_bad_header_rejected(self, tmp_path, edit, message):
        _, path = self.saved(tmp_path)
        line, payload = path.read_bytes().split(b"\n", 1)
        header = json.loads(line)
        edit(header)
        path.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + payload)
        with pytest.raises(ValueError, match=message):
            load_checkpoint(str(path))

    def test_nan_payload_rejected(self, tmp_path):
        params, path = self.saved(tmp_path)
        values = params.values.copy()
        values[5] = np.nan
        line = path.read_bytes().split(b"\n", 1)[0]
        path.write_bytes(line + b"\n" + values.astype("<f8").tobytes())
        with pytest.raises(ValueError, match="parameters must be finite"):
            load_checkpoint(str(path))
