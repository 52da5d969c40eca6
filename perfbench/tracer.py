"""Span tracer that wraps noisyfl's public functions from outside the package.

The modules import each other with ``from .x import y``, so a function is
wrapped at the name its caller looks up, not where it is defined.  Every
wrapper records one span (name, parent, start, end) per call and, for a
few functions, counts such as bytes written or rows ranked.  Spans stay in
memory; :meth:`Tracer.reduce` turns them into per-function totals when the
op ends, and :meth:`Tracer.uninstall` puts every original object back.
"""

from __future__ import annotations

import collections
import functools
import importlib
import os
import time

import numpy as np


def _file_bytes(arg_index: int):
    def measure(counts, name, args, result):
        counts[f"{name}.bytes"] += os.path.getsize(args[arg_index])

    return measure


def _batch_rows(counts, name, args, result):
    counts[f"{name}.rows"] += len(args[1])  # backward(params, x, labels, ...)


def _ranked_and_kept(counts, name, args, result):
    counts[f"{name}.rows"] += len(args[0])
    counts[f"{name}.kept"] += len(result)


def _labeldir_draws(counts, name, args, result):
    if args[1:2] == ("labeldir-shares",):
        counts["partition.labeldir_shares_streams"] += 1


# (module the caller looks the name up in, attribute, span name, count hook)
TARGETS = [
    ("noisyfl.cli", "save_csv", "datasets.save_csv", _file_bytes(1)),
    ("noisyfl.cli", "load_csv", "datasets.load_csv", _file_bytes(0)),
    ("noisyfl.cli", "make_partition", "partition.make_partition", None),
    ("noisyfl.cli", "run_scene", "noise.run_scene", None),
    ("noisyfl.cli", "run_federation", "federation.run_federation", None),
    ("noisyfl.cli", "save_plan", "partition.save_plan", _file_bytes(1)),
    ("noisyfl.cli", "load_plan", "partition.load_plan", None),
    ("noisyfl.cli", "sha256_file", "cli.sha256_file", _file_bytes(0)),
    ("noisyfl.cli", "write_json", "cli.write_json", None),
    ("noisyfl.cli", "save_checkpoint", "models.save_checkpoint", None),
    ("noisyfl.cli", "write_telemetry", "federation.write_telemetry", None),
    ("noisyfl.cli", "cmd_partition", "cli.cmd_partition", None),
    ("noisyfl.cli", "cmd_noise", "cli.cmd_noise", None),
    ("noisyfl.cli", "cmd_train", "cli.cmd_train", None),
    ("noisyfl.cli", "cmd_analyze", "cli.cmd_analyze", None),
    ("noisyfl.cli", "cmd_pipeline", "cli.cmd_pipeline", None),
    ("noisyfl.federation", "train_local", "localtrain.train_local", None),
    ("noisyfl.federation", "train_local_coteaching", "localtrain.train_local_coteaching", None),
    ("noisyfl.federation", "aggregate", "federation.aggregate", None),
    ("noisyfl.federation", "evaluate", "federation.evaluate", None),
    ("noisyfl.federation", "restrict", "partition.restrict", None),
    ("noisyfl.federation", "select_clients", "federation.select_clients", None),
    ("noisyfl.federation", "forward", "models.forward", None),
    ("noisyfl.localtrain", "backward", "losses.backward", _batch_rows),
    ("noisyfl.localtrain", "forward_cached", "models.forward_cached", None),
    ("noisyfl.localtrain", "sgd_step", "localtrain.sgd_step", None),
    ("noisyfl.localtrain", "small_loss_selection", "localtrain.small_loss_selection", _ranked_and_kept),
    ("noisyfl.noise", "apply_noise", "noise.apply_noise", None),
    ("noisyfl.noise", "make_partition", "partition.make_partition", None),
    ("noisyfl.noise", "restrict", "partition.restrict", None),
    ("noisyfl.config", "make_synthetic_blobs", "datasets.make_synthetic_blobs", None),
    ("noisyfl.config", "validate_config", "config.validate_config", None),
    ("noisyfl.rng", "stream", "rng.stream", _labeldir_draws),
    ("noisyfl.models", "ModelParams.__post_init__", "models.ModelParams.__post_init__", None),
]


def _owner_and_attr(module_name: str, dotted: str):
    owner = importlib.import_module(module_name)
    *path, attr = dotted.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Records nested spans of wrapped calls; single-threaded like noisyfl."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list[int]] = []  # [name id, parent index, start ns, end ns]
        self.counts: collections.Counter = collections.Counter()
        self._stack = [-1]
        self._originals: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module_name, dotted, span_name, measure in TARGETS:
            owner, attr = _owner_and_attr(module_name, dotted)
            original = owner.__dict__[attr]
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, span_name, measure))

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, span_name: str, measure):
        if span_name not in self.names:
            self.names.append(span_name)
        name_id = self.names.index(span_name)
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name_id, stack[-1], clock(), 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[3] = clock()
            if measure is not None:
                measure(counts, span_name, args, result)
            return result

        return traced

    def reduce(self) -> dict:
        """Per span name: calls, busy seconds and self seconds; plus counts and round times.

        Self time is a span's duration minus the time its child spans cover.
        Calls in one thread nest, so the direct children of a span never
        overlap and the time they cover is the sum of their durations.
        """
        table = np.array(self.spans, dtype=np.int64).reshape(-1, 4)
        name_ids, parents, starts, ends = table.T
        durations = ends - starts
        covered = np.zeros(len(table), dtype=np.int64)
        nested = parents >= 0
        np.add.at(covered, parents[nested], durations[nested])
        self_time = durations - covered

        out: dict[str, float] = {}
        for name_id, name in enumerate(self.names):
            mine = name_ids == name_id
            out[f"{name}.calls"] = int(mine.sum())
            out[f"{name}.s"] = float(durations[mine].sum()) / 1e9
            out[f"{name}.self_s"] = float(self_time[mine].sum()) / 1e9
        out.update(self.counts)
        out["federation.round_s"] = self._round_seconds(name_ids, parents, starts, ends)
        return out

    def _round_seconds(self, name_ids, parents, starts, ends) -> list[float]:
        """Round times: from one select_clients call to the next, the last to the federation's end."""
        select_id = self.names.index("federation.select_clients")
        federation_id = self.names.index("federation.run_federation")
        rounds: list[float] = []
        for fed in np.flatnonzero(name_ids == federation_id):
            marks = np.sort(starts[(name_ids == select_id) & (parents == fed)])
            bounds = np.append(marks, ends[fed])
            rounds.extend((np.diff(bounds) / 1e9).tolist())
        return rounds
