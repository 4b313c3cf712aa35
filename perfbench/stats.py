"""Which tail percentile a run reports, and SLO and queueing accounting.

Latencies are reported as a median plus the highest percentile the
sample supports: the highest of :data:`TAIL_CANDIDATES` that leaves at
least ``min_beyond`` samples beyond it.  A p95 therefore needs 200
samples and a p99 needs 1000; smaller runs report a lower percentile
and say which one.
"""

from __future__ import annotations

from typing import Sequence

#: Percentiles a tail may be reported at, lowest first.
TAIL_CANDIDATES = (50, 55, 60, 65, 70, 75, 80, 85, 90, 95, 99)


def tail_percentile(count: int, min_beyond: int = 10) -> int | None:
    """Highest candidate percentile with ``min_beyond`` samples beyond it.

    ``None`` when even the median leaves fewer than ``min_beyond``
    samples above it.
    """
    best = None
    for percentile in TAIL_CANDIDATES:
        if count * (100 - percentile) >= min_beyond * 100:
            best = percentile
    return best


def slo_met_fraction(latencies: Sequence[float | None], limit: float) -> float:
    """Share of offered requests answered within ``limit``.

    One entry per offered request; ``None`` marks a request that got no
    answer (shed, failed or abandoned), which misses the limit.
    """
    if not latencies:
        raise ValueError("no offered requests")
    met = sum(1 for value in latencies if value is not None and value <= limit)
    return met / len(latencies)


def busy_overlap(
    start: float, end: float, intervals: Sequence[tuple[float, float]]
) -> float:
    """Length of ``[start, end]`` covered by the given disjoint intervals."""
    covered = 0.0
    for low, high in intervals:
        overlap = min(end, high) - max(start, low)
        if overlap > 0:
            covered += overlap
    return covered
