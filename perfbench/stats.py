"""Order statistics used by the benchmark's reports."""

import math
import statistics

# Candidate tail percentiles, highest first.
TAIL_CANDIDATES = (99.9, 99.5, 99.0, 98.0, 97.5, 95.0, 90.0, 75.0)
MIN_BEYOND = 10


def rank(n: int, p: float) -> int:
    """Nearest-rank index (1-based) of percentile p among n sorted samples."""
    if n < 1:
        raise ValueError("no samples")
    return max(1, math.ceil(p / 100.0 * n - 1e-9))


def samples_beyond(n: int, p: float) -> int:
    """How many of n samples lie strictly above the p-th percentile's rank."""
    return n - rank(n, p)


def tail_percentile(n: int):
    """Highest candidate percentile with at least MIN_BEYOND samples beyond
    it, or None when n is too small for any tail."""
    for p in TAIL_CANDIDATES:
        if samples_beyond(n, p) >= MIN_BEYOND:
            return p
    return None


def percentile(values, p: float) -> float:
    """Nearest-rank percentile; no interpolation between samples."""
    ordered = sorted(values)
    return ordered[rank(len(ordered), p) - 1]


def median(values) -> float:
    return float(statistics.median(values))
