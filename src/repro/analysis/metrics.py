"""Shared latency/throughput summaries."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.sim.kernel import NS_PER_S


@dataclass(frozen=True)
class LatencyStats:
    """Summary statistics of a latency sample (nanoseconds)."""

    count: int
    mean_ns: float
    p50_ns: float
    p95_ns: float
    p99_ns: float
    min_ns: int
    max_ns: int

    def describe(self) -> str:
        return (
            f"n={self.count} mean={self.mean_ns / 1000:.1f}us "
            f"p50={self.p50_ns / 1000:.1f}us p99={self.p99_ns / 1000:.1f}us"
        )


def _percentile(ordered: Sequence[int], fraction: float) -> float:
    """Linear-interpolated percentile of a sorted sample.

    Matches ``numpy.percentile``'s default ("linear") method: the
    p-quantile sits at rank ``fraction * (n - 1)``, interpolating
    between the two bracketing order statistics — p50 of ``[1, 2]``
    is 1.5, not a truncated nearest rank.
    """
    if not ordered:
        return 0.0
    fraction = min(max(fraction, 0.0), 1.0)
    rank = fraction * (len(ordered) - 1)
    lower = int(rank)
    upper = min(lower + 1, len(ordered) - 1)
    weight = rank - lower
    return float(ordered[lower]) + (float(ordered[upper]) - float(ordered[lower])) * weight


def per_second(amount: float, elapsed_ns: int) -> float:
    """``amount`` per second of ``elapsed_ns``; 0 over no time."""
    return amount / (elapsed_ns / NS_PER_S) if elapsed_ns else 0.0


def summarize_latencies(samples_ns: Sequence[int]) -> LatencyStats:
    """Summarize a latency sample; empty input yields all-zero stats."""
    if not samples_ns:
        return LatencyStats(0, 0.0, 0.0, 0.0, 0.0, 0, 0)
    ordered = sorted(samples_ns)
    return LatencyStats(
        count=len(ordered),
        mean_ns=sum(ordered) / len(ordered),
        p50_ns=_percentile(ordered, 0.50),
        p95_ns=_percentile(ordered, 0.95),
        p99_ns=_percentile(ordered, 0.99),
        min_ns=ordered[0],
        max_ns=ordered[-1],
    )
