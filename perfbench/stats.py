"""Order statistics the benchmark reports."""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

#: Percentiles a per-layer tail may be reported at, highest first.  The
#: end-to-end ``latency_tail_ms`` is at a fixed percentile per workload
#: instead, so that a faster program, collecting more samples, is not
#: compared at a higher percentile than a slower one.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
#: Samples a reported tail must have beyond it.
TAIL_MIN_BEYOND = 10


def share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def median(values: Sequence[float]) -> float:
    return float(np.median(np.asarray(values, dtype=np.float64)))


def _rank(percentile: float, n: int) -> int:
    """Nearest-rank position (1-based), in exact integer arithmetic on
    tenths of a percent."""
    tenths = round(percentile * 10)
    return max(-(-tenths * n // 1000), 1)


def nearest_rank(values: Sequence[float], percentile: float) -> float:
    ordered = np.sort(np.asarray(values, dtype=np.float64))
    return float(ordered[_rank(percentile, len(ordered)) - 1])


def beyond(values: Sequence[float], percentile: float) -> int:
    """Samples ranked beyond the nearest-rank ``percentile``."""
    return len(values) - _rank(percentile, len(values))


def tail(values: Sequence[float]) -> Tuple[float, float]:
    """(value, percentile) at the highest percentile of
    :data:`TAIL_LADDER` with at least :data:`TAIL_MIN_BEYOND` samples
    ranked beyond it."""
    n = len(values)
    for percentile in TAIL_LADDER:
        if n - _rank(percentile, n) >= TAIL_MIN_BEYOND:
            return nearest_rank(values, percentile), percentile
    raise ValueError(f"{n} samples cannot support a tail with {TAIL_MIN_BEYOND} beyond it")


def rss_mb(pid) -> float:
    """Resident memory of a process (``"self"`` or a pid), from /proc."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmRSS for process {pid}")
