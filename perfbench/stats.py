"""Order statistics used by every report."""

from __future__ import annotations

import statistics

import calibrate

# Candidate tail percentiles, highest first; the tail is the highest one
# with at least TAIL_BEYOND samples beyond it. The ladder stops at p90:
# on a shared 2-core machine a p99 of thread hand-offs straddles the
# interpreter's 5 ms thread switch interval and moved by a third between
# identical runs.
TAIL_LADDER = (90.0, 75.0)
TAIL_BEYOND = 10
# throughput is measured per window of at least this much operation time
RATE_WINDOW_S = 0.5


def p50(values) -> float:
    """Median, or 0.0 when nothing was measured."""
    return float(statistics.median(values)) if values else 0.0


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return float(ordered[int(rank) - 1])


def tail(values) -> tuple[float, float]:
    """(value, percentile) of the highest ladder percentile with at least
    TAIL_BEYOND samples beyond it; the median when there are too few."""
    n = len(values)
    for pct in TAIL_LADDER:
        if n * (100 - pct) / 100 >= TAIL_BEYOND:
            return percentile(values, pct), pct
    return p50(values), 50.0


def windowed_rate(seconds: list[float], counts: list[int], gauges: list[float] | None = None) -> float:
    """Median over consecutive windows of count per second.

    Operations are grouped in run order into windows of at least
    RATE_WINDOW_S of their own time (a longer single operation is a window
    by itself), so a stall of the machine spoils one window rather than
    the whole run's mean. With `gauges` (the calibration chunk's CPU time
    after each operation), each window's seconds are scaled to the
    reference speed by the median gauge of that window.
    """
    rates = []
    start = 0
    window_s = 0.0
    for end, elapsed in enumerate(seconds, start=1):
        window_s += elapsed
        if window_s >= RATE_WINDOW_S or (end == len(seconds) and not rates):
            if gauges is not None:
                window_s = calibrate.scaled_cpu_seconds(window_s, p50(gauges[start:end]))
            rates.append(sum(counts[start:end]) / window_s)
            start, window_s = end, 0.0
    return p50(rates)
