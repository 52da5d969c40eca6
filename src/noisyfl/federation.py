"""FedAvg protocol loop: broadcast, local training, size-weighted aggregation.

Each round selects clients from a (seed, round)-derived stream, trains them
from the broadcast global model on their noisy local shards, and averages
the results weighted by shard size.  Clients are stateless between rounds
except for co-teaching's peer network, whose selection schedule depends on
the round number.

A round's clients are independent given the global model, so a large
federation trains them in the caller and in workers forked once, which
share its pages copy-on-write.  The caller queues the round's clients,
longest shard first, in one claim pipe; each process claims the next when
it is free, so none idles while clients wait.  The caller aggregates in
selection order: the bytes are the same whoever trains what.

Round t's global model is round t+1's start, so the caller evaluates it
once round t+1 is queued, before it claims, and the last round after the
loop, ``EVAL_ROWS`` test rows at a time.  Beside a client's shard and its
epoch order, a process's buffers are batch-sized: each batch is taken into one.
"""

from __future__ import annotations

import contextlib
import gc
import math
import os
import pickle
import traceback
from dataclasses import dataclass, replace

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

    The test set runs through ``work`` in chunks of ``work.rows`` rows; a
    row's prediction does not depend on its chunk, so the accuracy is one
    pass's.  Beyond ``work``, evaluation holds a chunk's predicted classes
    and whether each is correct, and counts the correct rows.
    """
    correct = 0
    for first in range(0, len(test_set), work.rows):
        probs = forward(params, test_set.features[first : first + work.rows], work)
        correct += np.count_nonzero(probs.argmax(axis=1) == test_set.labels[first : first + work.rows])
    return int(correct) / len(test_set)


# A federation forks workers from this many local batches on.  Forking and ending
# a worker costs 3-9 ms of wall time, and each batch a second process takes saves
# half a batch, ~30 us (a float32 64-row batch of the benchmark's 32-64-10 MLP takes
# 58-90 us at one BLAS thread), so a fork pays from ~300 batches; 500 leave a 1.7x margin.
FORK_MIN_BATCHES = 500
# Rows of the evaluation workspace.  The benchmark's 2,000 test rows take ~415 us in one pass of its MLP and ~565 us
# in 256-row chunks (one BLAS thread, a 2-core Xeon; ~3 ms a 20-round run); its hidden layer then holds 64 KiB, not 500.
EVAL_ROWS = 256


def _usable_cpus() -> int:
    """The CPUs this process may run on; 1 where it cannot fork or cannot tell."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "fork") and hasattr(os, "sched_getaffinity") else 1


def _write(fd: int, data) -> memoryview:
    """Write ``data`` to ``fd``: all of it if ``fd`` blocks, else what it takes now; returns what is left."""
    view = memoryview(data)
    with contextlib.suppress(BlockingIOError):
        while view:
            view = view[os.write(fd, view) :]
    return view


def _send(fd: int, obj) -> None:
    _write(fd, pickle.dumps(obj, pickle.HIGHEST_PROTOCOL))


def _claims(fd: int, put: int = -1, queue=b""):
    """The clients claimed from the claim pipe ``fd``: 4-byte little-endian records, up to a stop (-1) or EOF.

    The caller also passes the pipe's non-blocking write end and the queue's unwritten rest.  It writes what
    the pipe takes before each read, so it never waits for room, not even on a dead worker.
    """
    while True:
        queue = _write(put, queue)
        if not (record := os.read(fd, 4)) or (k := int.from_bytes(record, "little", signed=True)) < 0:
            while queue:  # only the other processes' stops are left, and the pipe holds nothing before them
                queue = _write(put, queue)
            return
        yield k


@contextlib.contextmanager
def _workers(count: int, serve):
    """``count`` forked children running ``serve(requests, replies, claims)``; yields (claim pipe, children).

    Each child is (pid, requests, replies): pickle streams, which :func:`_send` writes to an fd and ``pickle.load``
    reads from a file.  Every process reads the claim pipe, (read fd, non-blocking write fd) or () without children.
    A child closes the caller's pipe ends, so that the caller's death gives it EOF, and leaves only by ``os._exit``.
    """
    workers: list[tuple] = []  # (pid, request fd, reply file)
    claims = os.pipe() if count else ()
    if claims:
        os.set_blocking(claims[1], False)  # see _claims
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
                    for fd in [req_w, rep_r, claims[1]] + [fd for _, w, r in workers for fd in (w, r.fileno())]:
                        os.close(fd)
                    with os.fdopen(req_r, "rb") as requests:
                        serve(requests, rep_w, claims[0])
                finally:
                    os._exit(0)
            os.close(req_r)
            os.close(rep_w)
            workers.append((pid, req_w, os.fdopen(rep_r, "rb")))
        yield claims, workers
    finally:
        for fd in claims:
            os.close(fd)
        for _, req_w, replies in workers:
            os.close(req_w)
            replies.close()
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
    round)`` processes from ``FORK_MIN_BATCHES`` local batches on, each
    claiming the round's clients from one queue as it is free; a lone caller
    trains them in queue order.  The caller evaluates round t's model on the
    clean test set in round t+1, before it claims, and the last round's after
    the loop; rounds that ``eval_every`` skips are not evaluated.  Raises
    :class:`NumericalAbortError` (with the round number) if the global model
    goes non-finite, a worker's exception as it was raised, and
    :class:`NoisyFLError` if a worker dies.

    Memory: besides ``train_ds`` and ``test_set``, which the workers share
    copy-on-write, each process holds one client's shard at a time, cut
    from ``train_ds`` for the client's training call and dropped when it
    returns, and a worker the round's co-teaching peers.  The caller holds
    the round's :class:`ClientUpdate` records, co-teaching's peer networks
    as their training returned them, one pending :class:`RoundRecord` (the
    last round's, not yet evaluated) and one evaluation workspace of
    ``min(len(test_set), EVAL_ROWS)`` rows, made once.
    """
    sizes = plan.sizes()
    coteaching = cfg.trainer.method == "coteaching"
    per_round = _clients_per_round(cfg.num_clients, cfg.selection_fraction)
    shard_batches = np.mean(-(-sizes // cfg.trainer.batch_size))
    batches = cfg.rounds * per_round * cfg.trainer.epochs * (1 + coteaching) * shard_batches
    processes = min(_usable_cpus(), per_round) if batches >= FORK_MIN_BATCHES else 1

    def train_claimed(round_t: int, start: ModelParams, round_peers: dict, claimed) -> list[ClientUpdate]:
        """A :class:`ClientUpdate` for each client of ``claimed``, in its order; ``round_peers`` maps each to a peer."""
        updates = []
        for k in claimed:
            shard, train_seed = restrict(train_ds, plan, k), rng.derive_seed(cfg.seed, "train", round_t, k)
            peer = round_peers[k]
            if coteaching:
                if peer is None:
                    peer = init_params(layout, rng.derive_seed(cfg.seed, "coteach-init", k))
                model, peer, mean_loss = train_local_coteaching(shard, start, peer, cfg.trainer, train_seed, round_t)
            else:
                model, mean_loss = train_local(shard, start, cfg.trainer, train_seed)
            updates.append(ClientUpdate(k, model.values, peer, mean_loss))
            del shard  # before the next client's is cut: a process holds one shard at a time
        return updates

    def serve(requests, replies: int, claims: int) -> None:
        with contextlib.suppress(EOFError):  # the caller closed its end
            while True:
                job = pickle.load(requests)
                try:
                    reply = train_claimed(*job, _claims(claims))
                except Exception as exc:  # raised again in the caller, with this traceback as a note
                    exc.add_note(traceback.format_exc())
                    reply = exc
                _send(replies, reply)

    global_params = init_params(layout, rng.derive_seed(cfg.seed, "init"))
    peers: dict[int, ModelParams | None] = {}  # co-teaching's peer networks
    records: list[RoundRecord] = []
    pending: RoundRecord | None = None  # the last round's record, evaluated while the next round trains
    with _workers(processes - 1, serve) as (claims, workers):
        eval_work = Workspace(layout, min(len(test_set), EVAL_ROWS))

        def settled(record: RoundRecord, params: ModelParams) -> RoundRecord:
            """``record`` with the test accuracy of ``params``, its round's global model, if its round is evaluated."""
            if record.round % cfg.eval_every:
                return record
            return replace(record, test_accuracy=evaluate(params, test_set, eval_work))

        for round_t in range(1, cfg.rounds + 1):
            selected = select_clients(cfg.num_clients, cfg.selection_fraction, round_t, cfg.seed)
            order = sorted(selected, key=lambda k: -sizes[k])  # longest shard first
            round_peers = {k: peers.get(k) for k in selected}
            try:
                # the round's queue and a stop for each process, as far as the pipe takes it now
                queue = _write(claims[1], np.array(order + [-1] * processes, dtype="<i4").tobytes()) if workers else b""
                for _, requests, _ in workers:
                    _send(requests, (round_t, global_params, round_peers))
                if pending is not None:  # the last round's model is this round's start
                    records.append(settled(pending, global_params))
                claimed = _claims(*claims, queue) if workers else order
                updates = train_claimed(round_t, global_params, round_peers, claimed)
                for _, _, replies in workers:
                    reply = pickle.load(replies)
                    if isinstance(reply, Exception):
                        raise reply
                    updates += reply
            except FloatingPointError as exc:
                raise NumericalAbortError(round_t) from exc
            except (EOFError, pickle.UnpicklingError, BrokenPipeError) as exc:  # no reply, or one cut short
                raise NoisyFLError(f"a training worker exited during round {round_t}") from exc
            updates.sort(key=lambda u: u.client)  # selection order, as select_clients sorts
            peers.update((u.client, u.peer) for u in updates)  # None but for co-teaching

            values = aggregate([u.values for u in updates], [sizes[u.client] for u in updates])
            if not np.isfinite(values).all():
                raise NumericalAbortError(round_t)
            grad_norm = float(np.linalg.norm(values - global_params.values))
            global_params = ModelParams(values, layout)
            pending = RoundRecord(
                round=round_t,
                test_accuracy=None,
                grad_norm=grad_norm,
                selected_clients=tuple(selected),
                mean_client_loss=float(np.mean([u.mean_loss for u in updates])),
            )
        records.append(settled(pending, global_params))
    return records, global_params
