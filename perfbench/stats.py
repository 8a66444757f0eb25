"""Summary statistics the benchmark reports.

Kept apart from run.py so that test_stats.py can check them on
synthetic input without building or running anything.
"""

import math

# Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 75.0, 50.0)

# A tail percentile is reported only when at least this many samples
# lie beyond it, so that it is not set by one or two outliers.
MIN_BEYOND = 10


def median(values):
    """The median; the mean of the middle two for an even count."""
    if not values:
        raise ValueError("median of no values")
    s = sorted(values)
    mid = len(s) // 2
    if len(s) % 2:
        return s[mid]
    return (s[mid - 1] + s[mid]) / 2


def _rank(p, n):
    """1-based nearest rank of percentile p among n samples. Rounding
    first keeps 99.9% of 10000 at rank 9990, not 9991."""
    return max(1, math.ceil(round(p * n / 100.0, 9)))


def percentile(values, p):
    """Nearest-rank percentile: the smallest value with at least p%
    of the samples at or below it."""
    if not values:
        raise ValueError("percentile of no values")
    s = sorted(values)
    return s[_rank(p, len(s)) - 1]


def tail_percentile(values):
    """(p, value) for the highest percentile in TAIL_PERCENTILES that
    has at least MIN_BEYOND samples strictly beyond its rank, or None
    when there are too few samples for any of them."""
    n = len(values)
    for p in TAIL_PERCENTILES:
        if n - _rank(p, n) >= MIN_BEYOND:
            return p, percentile(values, p)
    return None


def summarize(values):
    """Median, tail percentile (when one qualifies) and sample count."""
    out = {"n": len(values), "median": median(values)}
    tail = tail_percentile(values)
    if tail is not None:
        out["tail_p"], out["tail"] = tail
    return out


def fail_ratio(failed, attempted):
    """Failed operations over attempted ones."""
    if attempted < 1:
        raise ValueError("fail_ratio needs at least one attempt")
    if not 0 <= failed <= attempted:
        raise ValueError("failed must lie in [0, attempted]")
    return failed / attempted
