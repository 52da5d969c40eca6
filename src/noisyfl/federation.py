"""FedAvg protocol loop: broadcast, local training, size-weighted aggregation.

Each round selects clients from a (seed, round)-derived stream, trains them
from the broadcast global model on their noisy local shards, and averages
the results weighted by shard size.  Clients are stateless between rounds
except for co-teaching's peer network, whose selection schedule depends on
the round number.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .datasets import LabeledDataset
from .errors import LayoutMismatchError, NumericalAbortError
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


@dataclass
class FederationResult:
    records: list[RoundRecord]
    params: ModelParams


def select_clients(num_clients: int, fraction: float, round_t: int, seed: int) -> list[int]:
    """ceil(fraction*K) distinct clients from the (seed, round) stream, sorted."""
    if num_clients < 1:
        raise ValueError("num_clients must be >= 1")
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must lie in (0, 1]")
    count = math.ceil(fraction * num_clients)
    gen = rng.stream(seed, "select", round_t)
    chosen = gen.choice(num_clients, size=count, replace=False)
    return sorted(int(c) for c in chosen)


def aggregate(models: list[ModelParams], weights) -> ModelParams:
    """Size-weighted average in list order.

    Anchored at the first model so aggregating identical models returns
    them exactly, not merely to rounding.
    """
    if not models:
        raise ValueError("cannot aggregate an empty model list")
    weights = [float(w) for w in weights]
    if len(weights) != len(models):
        raise ValueError("weights length must match model count")
    if any(w <= 0 for w in weights):
        raise ValueError("weights must be positive")
    layout = models[0].layout
    for m in models[1:]:
        if m.layout != layout:
            raise LayoutMismatchError("all aggregated models must share a layout")
    total = sum(weights)
    base = models[0].values
    out = base.copy()
    for m, w in zip(models[1:], weights[1:]):
        out += (w / total) * (m.values - base)
    return ModelParams(values=out, layout=layout)


def evaluate(params: ModelParams, test_set: LabeledDataset, work: Workspace) -> float:
    """Fraction of argmax-correct predictions; ties break to the lowest class id.

    The pass runs in ``work``, which must hold ``len(test_set)`` rows; beyond
    its buffers, evaluation holds only each row's predicted class and
    whether it is correct.
    """
    probs = forward(params, test_set.features, work)
    predictions = probs.argmax(axis=1)
    return float((predictions == test_set.labels).mean())


def run_federation(
    train_ds: LabeledDataset,
    plan: PartitionPlan,
    test_set: LabeledDataset,
    layout: Layout,
    cfg: FedConfig,
) -> FederationResult:
    """Run T FedAvg rounds and collect per-round telemetry.

    Clients train on their noisy shards; evaluation uses the clean test
    set.  Raises :class:`NumericalAbortError` (with the round number) if
    the global model goes non-finite.

    Memory: besides ``train_ds`` and ``test_set``, a federation holds one
    client's shard at a time, cut from ``train_ds`` for the client's
    training call and dropped when it returns; the models of the round's
    selected clients and co-teaching's peer networks; and one evaluation
    workspace sized to the test set, made once.
    """
    if plan.num_clients != cfg.num_clients:
        raise ValueError(
            f"plan has {plan.num_clients} clients but config expects {cfg.num_clients}"
        )
    sizes = plan.sizes()

    global_params = init_params(layout, rng.derive_seed(cfg.seed, "init"))
    eval_work = Workspace(layout, len(test_set))

    coteaching = cfg.trainer.method == "coteaching"
    peer_nets: dict[int, ModelParams] = {}

    records: list[RoundRecord] = []
    for round_t in range(1, cfg.rounds + 1):
        selected = select_clients(cfg.num_clients, cfg.selection_fraction, round_t, cfg.seed)
        trained: list[ModelParams] = []
        client_losses: list[float] = []
        try:
            for k in selected:
                train_seed = rng.derive_seed(cfg.seed, "train", round_t, k)
                if coteaching:
                    if k not in peer_nets:
                        peer_nets[k] = init_params(layout, rng.derive_seed(cfg.seed, "coteach-init", k))
                    model, peer, stats = train_local_coteaching(
                        restrict(train_ds, plan, k), global_params, peer_nets[k], cfg.trainer, train_seed, round_t
                    )
                    peer_nets[k] = peer
                else:
                    model, stats = train_local(restrict(train_ds, plan, k), global_params, cfg.trainer, train_seed)
                trained.append(model)
                client_losses.append(stats.mean_loss)
        except FloatingPointError as exc:
            raise NumericalAbortError(round_t) from exc

        new_params = aggregate(trained, [sizes[k] for k in selected])
        if not np.all(np.isfinite(new_params.values)):
            raise NumericalAbortError(round_t)
        grad_norm = float(np.linalg.norm(new_params.values - global_params.values))
        global_params = new_params

        accuracy = evaluate(global_params, test_set, eval_work) if round_t % cfg.eval_every == 0 else None
        records.append(
            RoundRecord(
                round=round_t,
                test_accuracy=accuracy,
                grad_norm=grad_norm,
                selected_clients=tuple(selected),
                mean_client_loss=float(np.mean(client_losses)),
            )
        )
    return FederationResult(records=records, params=global_params)


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
