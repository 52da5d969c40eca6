"""Derived metrics: the last-k accuracy of a run, and the paper's drop
ratio and noise sensitivity over an accuracy table.

All functions are pure.  Accuracies are fractions in [0, 1], so
sensitivities come out in accuracy per unit noise ratio.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NoisyFLError
from .federation import RoundRecord


def last_k_average(records: list[RoundRecord], k: int) -> float:
    """Mean test accuracy over the final k >= 1 evaluated rounds; ``records`` holds at least k."""
    evaluated = [r.test_accuracy for r in records if r.test_accuracy is not None]
    return float(np.mean(evaluated[-k:]))


def accuracy_drop_ratio(acc_iid: float, acc_noniid: float) -> float:
    """(acc_iid - acc_noniid) / acc_iid; negative when non-IID wins."""
    if acc_iid == 0:
        raise ZeroDivisionError("acc_iid must be nonzero")
    return (acc_iid - acc_noniid) / acc_iid


def sensitivity(acc_at_eps: float, acc_at_eps_plus_delta: float, delta: float) -> float:
    """(acc(eps) - acc(eps+delta)) / delta for delta > 0; sign is not clamped."""
    return (acc_at_eps - acc_at_eps_plus_delta) / delta


@dataclass(frozen=True)
class AccuracyTable:
    """(partition, mode, eps) -> accuracy, a fraction in [0, 1]."""

    entries: dict = field(default_factory=dict)

    def __post_init__(self):
        for key, value in self.entries.items():
            if not 0.0 <= value <= 1.0:  # also rejects nan
                raise ValueError(f"accuracy {value} for {key} is not in [0, 1]")

    def eps_grid(self, partition: str, mode: str) -> list[float]:
        return sorted(e for (p, m, e) in self.entries if p == partition and m == mode)


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


def drop_ratio_series(table: AccuracyTable, mode: str, noniid_partition: str) -> list[tuple[float, float]]:
    """Drop ratio at every eps where both the ``iid`` and non-IID entries exist.

    An IID accuracy of 0 leaves the ratio undefined; the error names the point.
    """
    series = []
    for eps in table.eps_grid("iid", mode):
        key_noniid = (noniid_partition, mode, eps)
        if key_noniid in table.entries:
            try:
                ratio = accuracy_drop_ratio(table.entries[("iid", mode, eps)], table.entries[key_noniid])
            except ZeroDivisionError:
                raise NoisyFLError(
                    f"drop ratio at ({noniid_partition}, {mode}, {eps!r}) is undefined: the iid accuracy is 0"
                ) from None
            series.append((eps, ratio))
    return series
