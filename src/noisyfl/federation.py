"""FedAvg protocol loop: broadcast, local training, size-weighted aggregation.

Each round selects clients from a (seed, round)-derived stream, trains them
from the broadcast global model on their noisy local shards, and averages
the results weighted by shard size.  Clients are stateless between rounds
except for co-teaching's peer network, whose selection schedule depends on
the round number.

A round's clients are independent given the global model, so a large
federation trains them in the caller and in workers forked once, which
share its pages copy-on-write.  Workers send back one :class:`ClientUpdate`
per client they train, and the caller aggregates in selection order: the
outputs are the same bytes for any process count.
"""

from __future__ import annotations

import contextlib
import csv
import gc
import math
import os
import pickle
import traceback
from dataclasses import dataclass

import numpy as np

from . import rng
from .datasets import LabeledDataset
from .errors import NoisyFLError, NumericalAbortError
from .localtrain import TrainerConfig, train_local, train_local_coteaching
from .models import Layout, ModelParams, Workspace, init_params
from .models import forward_cached as forward  # perfbench/tracer.py times evaluation's passes at this name
from .partition import PartitionPlan, restrict


@dataclass(frozen=True)
class FedConfig:
    """Protocol parameters for one federation run."""

    num_clients: int
    rounds: int
    trainer: TrainerConfig
    selection_fraction: float = 1.0
    eval_every: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.num_clients < 1:
            raise ValueError("num_clients must be >= 1")
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if not 0.0 < self.selection_fraction <= 1.0:
            raise ValueError("selection_fraction must lie in (0, 1]")
        if not 1 <= self.eval_every <= self.rounds:
            raise ValueError("eval_every must lie in [1, rounds], or no round is evaluated")


@dataclass(frozen=True)
class RoundRecord:
    """Per-round telemetry; ``test_accuracy`` is None on non-evaluated rounds."""

    round: int
    test_accuracy: float | None
    grad_norm: float
    selected_clients: tuple[int, ...]
    mean_client_loss: float


def _clients_per_round(num_clients: int, fraction: float) -> int:
    """The round size of :func:`select_clients`."""
    return math.ceil(round(fraction * num_clients, 9))


def select_clients(num_clients: int, fraction: float, round_t: int, seed: int) -> list[int]:
    """ceil(round(fraction*K, 9)) distinct clients from the (seed, round) stream, sorted.

    The product is rounded to 9 decimals before the ceiling, so float error
    adds no client: 7 of 100 at 0.07, and at least one client for any
    fraction in (0, 1].
    """
    gen = rng.stream(seed, "select", round_t)
    chosen = gen.choice(num_clients, size=_clients_per_round(num_clients, fraction), replace=False)
    return sorted(int(c) for c in chosen)


@dataclass(frozen=True)
class ClientUpdate:
    """One selected client's round: its trained values, co-teaching's trained peer (else None) and its mean loss."""

    client: int
    values: np.ndarray
    peer: ModelParams | None
    mean_loss: float


def aggregate(values: list[np.ndarray], weights) -> np.ndarray:
    """Size-weighted average of parameter vectors of one shape, in list order.

    Anchored at the first vector so aggregating identical vectors returns
    them exactly, not merely to rounding.  Finite vectors can average to
    non-finite values, which the caller checks; the overflow raises no
    numpy warning.
    """
    weights = [float(w) for w in weights]
    total = sum(weights)
    base = values[0]
    out = base.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        for v, w in zip(values[1:], weights[1:]):
            out += (w / total) * (v - base)
    return out


def evaluate(params: ModelParams, test_set: LabeledDataset, work: Workspace) -> float:
    """Fraction of argmax-correct predictions; ties break to the lowest class id.

    The pass runs in ``work``, which must hold ``len(test_set)`` rows; beyond
    its buffers, evaluation holds only each row's predicted class and
    whether it is correct.
    """
    probs = forward(params, test_set.features, work)
    predictions = probs.argmax(axis=1)
    return float((predictions == test_set.labels).mean())


# A federation forks workers from this many local batches on.  Forking and ending
# a worker costs 3-9 ms of wall time and each batch a second process takes saves
# ~50 us, so a fork pays from ~180 batches; this leaves a 2x margin.
FORK_MIN_BATCHES = 400


def _usable_cpus() -> int:
    """The CPUs this process may run on; 1 where it cannot fork or cannot tell."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "fork") and hasattr(os, "sched_getaffinity") else 1


def _send(fd: int, obj) -> None:
    data = pickle.dumps(obj, pickle.HIGHEST_PROTOCOL)
    view = memoryview(len(data).to_bytes(8, "little") + data)
    while view:
        view = view[os.write(fd, view) :]


def _read(fd: int, n: int) -> bytearray:
    """Exactly ``n`` bytes of ``fd``; EOFError once every writer is gone."""
    buf = bytearray()
    while len(buf) < n:
        chunk = os.read(fd, n - len(buf))
        if not chunk:
            raise EOFError
        buf += chunk
    return buf


def _recv(fd: int):
    return pickle.loads(_read(fd, int.from_bytes(_read(fd, 8), "little")))


def _split(selected: list[int], sizes, processes: int) -> list[list[int]]:
    """The round's clients per process, longest shard first onto the least loaded; process 0 is the caller."""
    shares: list[list[int]] = [[] for _ in range(processes)]
    loads = [0] * processes
    for k in sorted(selected, key=lambda k: -sizes[k]):
        p = loads.index(min(loads))
        shares[p].append(k)
        loads[p] += sizes[k]
    return shares


@contextlib.contextmanager
def _workers(count: int, serve):
    """``count`` forked children running ``serve(requests, replies)``; yields each one's (pid, requests, replies).

    A child closes the caller's pipe ends, so that the caller's death gives it EOF, and leaves only by ``os._exit``.
    """
    workers: list[tuple[int, int, int]] = []
    gc.freeze()  # the collector then writes to none of the pages the children share
    try:
        for _ in range(count):
            (req_r, req_w), (rep_r, rep_w) = os.pipe(), os.pipe()
            try:
                pid = os.fork()
            except OSError:
                for fd in (req_r, req_w, rep_r, rep_w):
                    os.close(fd)
                raise
            if pid == 0:
                try:
                    for fd in [req_w, rep_r] + [fd for _, w, r in workers for fd in (w, r)]:
                        os.close(fd)
                    serve(req_r, rep_w)
                finally:
                    os._exit(0)
            os.close(req_r)
            os.close(rep_w)
            workers.append((pid, req_w, rep_r))
        yield workers
    finally:
        for _, req_w, rep_r in workers:
            os.close(req_w)
            os.close(rep_r)
        for pid, _, _ in workers:
            os.waitpid(pid, 0)
        gc.unfreeze()


def run_federation(
    train_ds: LabeledDataset,
    plan: PartitionPlan,
    test_set: LabeledDataset,
    layout: Layout,
    cfg: FedConfig,
) -> tuple[list[RoundRecord], ModelParams]:
    """Run T FedAvg rounds; returns the per-round telemetry and the final global model.

    Clients train on their noisy shards, in ``min(usable CPUs, clients per
    round)`` processes from ``FORK_MIN_BATCHES`` local batches on; evaluation
    uses the clean test set.  Raises :class:`NumericalAbortError` (with the
    round number) if the global model goes non-finite, a worker's exception
    as it was raised, and :class:`NoisyFLError` if a worker dies.

    Memory: besides ``train_ds`` and ``test_set``, which the workers share
    copy-on-write, each process holds one client's shard at a time, cut
    from ``train_ds`` for the client's training call and dropped when it
    returns.  The caller holds the round's :class:`ClientUpdate` records,
    co-teaching's peer networks as their training returned them, and one
    evaluation workspace sized to the test set, made once.
    """
    sizes = plan.sizes()
    coteaching = cfg.trainer.method == "coteaching"
    per_round = _clients_per_round(cfg.num_clients, cfg.selection_fraction)
    shard_batches = np.mean(-(-sizes // cfg.trainer.batch_size))
    batches = cfg.rounds * per_round * cfg.trainer.epochs * (1 + coteaching) * shard_batches
    processes = min(_usable_cpus(), per_round) if batches >= FORK_MIN_BATCHES else 1

    def train_share(round_t: int, start: ModelParams, share: list) -> list[ClientUpdate]:
        """One :class:`ClientUpdate` for each (client, co-teaching peer or None if new) of ``share``, in its order."""
        updates = []
        for k, peer in share:
            shard, train_seed = restrict(train_ds, plan, k), rng.derive_seed(cfg.seed, "train", round_t, k)
            if coteaching:
                if peer is None:
                    peer = init_params(layout, rng.derive_seed(cfg.seed, "coteach-init", k))
                model, peer, mean_loss = train_local_coteaching(shard, start, peer, cfg.trainer, train_seed, round_t)
            else:
                model, mean_loss = train_local(shard, start, cfg.trainer, train_seed)
            updates.append(ClientUpdate(k, model.values, peer, mean_loss))
        return updates

    def serve(requests: int, replies: int) -> None:
        with contextlib.suppress(EOFError):  # the caller closed its end
            while True:
                job = _recv(requests)
                try:
                    reply = train_share(*job)
                except Exception as exc:  # raised again in the caller, with this traceback as a note
                    exc.add_note(traceback.format_exc())
                    reply = exc
                _send(replies, reply)

    global_params = init_params(layout, rng.derive_seed(cfg.seed, "init"))
    peers: dict[int, ModelParams | None] = {}  # co-teaching's peer networks
    records: list[RoundRecord] = []
    with _workers(processes - 1, serve) as workers:
        eval_work = Workspace(layout, len(test_set))
        for round_t in range(1, cfg.rounds + 1):
            selected = select_clients(cfg.num_clients, cfg.selection_fraction, round_t, cfg.seed)
            jobs = [[(k, peers.get(k)) for k in share] for share in _split(selected, sizes, processes)]
            try:
                for (_, requests, _), job in zip(workers, jobs[1:]):
                    _send(requests, (round_t, global_params, job))
                updates = train_share(round_t, global_params, jobs[0])
                for _, _, replies in workers:
                    reply = _recv(replies)
                    if isinstance(reply, Exception):
                        raise reply
                    updates += reply
            except FloatingPointError as exc:
                raise NumericalAbortError(round_t) from exc
            except (EOFError, BrokenPipeError) as exc:
                raise NoisyFLError(f"a training worker exited during round {round_t}") from exc
            updates.sort(key=lambda u: u.client)  # selection order, as select_clients sorts
            peers.update((u.client, u.peer) for u in updates)  # None but for co-teaching

            values = aggregate([u.values for u in updates], [sizes[u.client] for u in updates])
            if not np.isfinite(values).all():
                raise NumericalAbortError(round_t)
            grad_norm = float(np.linalg.norm(values - global_params.values))
            global_params = ModelParams(values, layout)

            accuracy = evaluate(global_params, test_set, eval_work) if round_t % cfg.eval_every == 0 else None
            records.append(
                RoundRecord(
                    round=round_t,
                    test_accuracy=accuracy,
                    grad_norm=grad_norm,
                    selected_clients=tuple(selected),
                    mean_client_loss=float(np.mean([u.mean_loss for u in updates])),
                )
            )
    return records, global_params


TELEMETRY_COLUMNS = ("round", "test_accuracy", "grad_norm", "mean_client_loss", "selected_clients")


def write_telemetry(records: list[RoundRecord], path: str) -> None:
    """Telemetry CSV; floats keep full precision, client ids are ';'-joined."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(TELEMETRY_COLUMNS)
        for rec in records:
            writer.writerow(
                [
                    rec.round,
                    "" if rec.test_accuracy is None else repr(rec.test_accuracy),
                    repr(rec.grad_norm),
                    repr(rec.mean_client_loss),
                    ";".join(str(c) for c in rec.selected_clients),
                ]
            )


def read_telemetry(path: str) -> list[RoundRecord]:
    records = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            records.append(
                RoundRecord(
                    round=int(row["round"]),
                    test_accuracy=float(row["test_accuracy"]) if row["test_accuracy"] else None,
                    grad_norm=float(row["grad_norm"]),
                    selected_clients=tuple(
                        int(c) for c in row["selected_clients"].split(";") if c
                    ),
                    mean_client_loss=float(row["mean_client_loss"]),
                )
            )
    return records
