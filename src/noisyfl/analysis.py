"""Derived metrics: the last-k accuracy of a run, and the paper's drop
ratio and noise sensitivity over an accuracy table.

An accuracy table is a mapping ``{(partition, mode, eps): accuracy}``;
the series read one (partition, mode) curve of it, in ascending eps.
All functions are pure.  Accuracies are fractions in [0, 1], checked
where a run's accuracy enters (``cli._run_entry``), so sensitivities come
out in accuracy per unit noise ratio.
"""

from __future__ import annotations

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


def _curve(table: dict, partition: str, mode: str) -> dict[float, float]:
    """The (partition, mode) entries of ``table`` as eps -> accuracy, in ascending eps."""
    return dict(sorted((e, acc) for (p, m, e), acc in table.items() if p == partition and m == mode))


def sensitivity_series(table: dict, partition: str, mode: str) -> list[tuple[float, float]]:
    """s(eps) over adjacent grid points present in the table; gaps are skipped."""
    points = list(_curve(table, partition, mode).items())
    return [(eps, sensitivity(acc, acc_next, nxt - eps)) for (eps, acc), (nxt, acc_next) in zip(points, points[1:])]


def drop_ratio_series(table: dict, partition: str, mode: str) -> list[tuple[float, float]]:
    """Drop ratio of the non-IID ``partition`` at every eps where both its and the ``iid`` entry exist.

    An IID accuracy of 0 leaves the ratio undefined; the error names the point.
    """
    noniid = _curve(table, partition, mode)
    series = []
    for eps, acc_iid in _curve(table, "iid", mode).items():
        if eps in noniid:
            try:
                ratio = accuracy_drop_ratio(acc_iid, noniid[eps])
            except ZeroDivisionError:
                raise NoisyFLError(
                    f"drop ratio at ({partition}, {mode}, {eps!r}) is undefined: the iid accuracy is 0"
                ) from None
            series.append((eps, ratio))
    return series
