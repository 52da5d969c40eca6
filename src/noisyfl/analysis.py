"""Derived metrics: the last-k accuracy of a run, and the paper's drop
ratio and noise sensitivity over an accuracy table.

All functions are pure.  Accuracy tables declare their scale (percent or
fraction); series metrics are computed in the declared scale, so
sensitivities over percent tables come out in percent points per unit
noise ratio.  :func:`read_accuracy_table` rejects a row whose eps is not
finite, whose accuracy lies outside the declared scale, or whose
(partition, mode, eps) an earlier row already gave, naming the row.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NoisyFLError, ParseError
from .federation import RoundRecord

SCALE_PERCENT = "percent"
SCALE_FRACTION = "fraction"


def _scale_bound(scale: str) -> float:
    """The largest accuracy ``scale`` admits."""
    if scale not in (SCALE_PERCENT, SCALE_FRACTION):
        raise ValueError(f"unknown accuracy scale {scale!r}")
    return 100.0 if scale == SCALE_PERCENT else 1.0


def last_k_average(records: list[RoundRecord], k: int) -> float:
    """Mean test accuracy over the final k evaluated rounds."""
    evaluated = [r.test_accuracy for r in records if r.test_accuracy is not None]
    if k < 1:
        raise ValueError("k must be >= 1")
    if len(evaluated) < k:
        raise ValueError(f"need {k} evaluated rounds, have {len(evaluated)}")
    return float(np.mean(evaluated[-k:]))


def accuracy_drop_ratio(acc_iid: float, acc_noniid: float) -> float:
    """(acc_iid - acc_noniid) / acc_iid; negative when non-IID wins."""
    if acc_iid == 0:
        raise ZeroDivisionError("acc_iid must be nonzero")
    return (acc_iid - acc_noniid) / acc_iid


def sensitivity(acc_at_eps: float, acc_at_eps_plus_delta: float, delta: float) -> float:
    """(acc(eps) - acc(eps+delta)) / delta; sign is not clamped."""
    if not delta > 0:
        raise ValueError("delta must be > 0")
    return (acc_at_eps - acc_at_eps_plus_delta) / delta


@dataclass(frozen=True)
class AccuracyTable:
    """(partition, mode, eps) -> accuracy, with a declared value scale."""

    entries: dict = field(default_factory=dict)
    scale: str = SCALE_PERCENT

    def __post_init__(self):
        bound = _scale_bound(self.scale)
        for key, value in self.entries.items():
            if not 0.0 <= value <= bound:
                raise ValueError(f"accuracy {value} for {key} outside declared {self.scale} bounds")

    def eps_grid(self, partition: str, mode: str) -> list[float]:
        return sorted(e for (p, m, e) in self.entries if p == partition and m == mode)


def read_accuracy_table(path: str, scale: str = SCALE_PERCENT) -> AccuracyTable:
    """Load a ``partition,mode,eps,accuracy`` CSV into an AccuracyTable."""
    bound = _scale_bound(scale)
    entries = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        required = {"partition", "mode", "eps", "accuracy"}
        if reader.fieldnames is None or not required <= set(reader.fieldnames):
            raise ParseError(f"accuracy table needs columns {sorted(required)}", row=1)
        for row_no, row in enumerate(reader, start=2):
            try:
                eps, accuracy = float(row["eps"]), float(row["accuracy"])
            except (TypeError, ValueError):
                raise ParseError("malformed accuracy row", row=row_no) from None
            if not math.isfinite(eps):
                raise ParseError(f"eps {row['eps']!r} is not finite", row=row_no, column="eps")
            if not 0.0 <= accuracy <= bound:  # also rejects nan
                raise ParseError(
                    f"accuracy {row['accuracy']!r} is not in [0, {bound:g}] ({scale} scale)",
                    row=row_no,
                    column="accuracy",
                )
            key = (row["partition"], row["mode"], eps)
            if key in entries:
                raise ParseError(f"({key[0]}, {key[1]}, {eps!r}) is given by an earlier row too", row=row_no)
            entries[key] = accuracy
    return AccuracyTable(entries=entries, scale=scale)


def sensitivity_series(table: AccuracyTable, partition: str, mode: str) -> list[tuple[float, float]]:
    """s(eps) over adjacent grid points present in the table; gaps are skipped."""
    grid = table.eps_grid(partition, mode)
    series = []
    for eps, nxt in zip(grid[:-1], grid[1:]):
        delta = nxt - eps
        acc_now = table.entries[(partition, mode, eps)]
        acc_next = table.entries[(partition, mode, nxt)]
        series.append((eps, sensitivity(acc_now, acc_next, delta)))
    return series


def drop_ratio_series(
    table: AccuracyTable, mode: str, noniid_partition: str, iid_partition: str = "iid"
) -> list[tuple[float, float]]:
    """Drop ratio at every eps where both the IID and non-IID entries exist.

    An IID accuracy of 0 leaves the ratio undefined; the error names the point.
    """
    series = []
    for eps in table.eps_grid(iid_partition, mode):
        key_noniid = (noniid_partition, mode, eps)
        if key_noniid in table.entries:
            try:
                ratio = accuracy_drop_ratio(table.entries[(iid_partition, mode, eps)], table.entries[key_noniid])
            except ZeroDivisionError:
                raise NoisyFLError(
                    f"drop ratio at ({noniid_partition}, {mode}, {eps!r}) is undefined: the {iid_partition} accuracy is 0"
                ) from None
            series.append((eps, ratio))
    return series
