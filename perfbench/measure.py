"""Latency recording and the percentile rules the report uses.

A failed, refused or wrong request stays in the sample as an infinite
latency: it counts against every latency limit and is never dropped.
"""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence

FAILED = math.inf


def nearest_rank(sorted_values: Sequence[float], pct: float) -> float:
    """The ``pct``-th percentile by the nearest-rank rule."""
    rank = max(1, math.ceil(pct * len(sorted_values) / 100.0))
    return sorted_values[rank - 1]


def tail_percentile(
    values: Sequence[float], ladder: Sequence[float], min_beyond: int
) -> Optional[tuple[float, float, int]]:
    """The highest ladder percentile with ``min_beyond`` samples above it.

    Returns ``(percentile, value, samples_beyond)``, or None when even
    the lowest rung leaves fewer than ``min_beyond`` samples beyond it.
    """
    ordered = sorted(values)
    for pct in sorted(ladder, reverse=True):
        value = nearest_rank(ordered, pct)
        beyond = sum(1 for sample in ordered if sample > value)
        if beyond >= min_beyond:
            return pct, value, beyond
    return None


class Recorder:
    """One client's per-request outcomes (not shared between threads)."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.failed = 0

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def ok(self, seconds: float) -> int:
        self.latencies.append(seconds)
        return len(self.latencies) - 1

    def fail(self) -> int:
        self.latencies.append(FAILED)
        self.failed += 1
        return len(self.latencies) - 1

    def mark_wrong(self, index: int) -> None:
        """A response found wrong after the loop becomes a failure."""
        if self.latencies[index] != FAILED:
            self.latencies[index] = FAILED
            self.failed += 1


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else math.nan


def mean(values: Sequence[float]) -> float:
    return statistics.fmean(values) if values else math.nan
