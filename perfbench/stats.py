"""Order statistics and the before/after comparison rule."""

import math
import statistics

# Percentiles considered for the tail of a latency distribution.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def _rank(p, n):
    """Nearest rank of the p-th percentile of n samples (1-based)."""
    return max(1, math.ceil(p * n / 100 - 1e-9))


def percentile(samples, p):
    """Nearest-rank percentile.  A failed operation is recorded as math.inf,
    so it ranks above every success."""
    if not samples:
        raise ValueError("no samples")
    return sorted(samples)[_rank(p, len(samples)) - 1]


def tail_percentile(n):
    """The highest percentile in TAIL_LADDER with at least ten of n samples
    beyond it, or None when even the median lacks ten."""
    for p in TAIL_LADDER:
        if n - _rank(p, n) >= 10:
            return p
    return None


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    if q3 == q1:
        return 0.0
    return (q3 - q1) / abs(med) if med else math.inf


def verdict(before, after, better, bound):
    """Compare two lists of run values of one metric.

    'unresolved' when either side's spread exceeds the bound, unless every
    run after reads better than every run before; otherwise 'worse' or
    'better' when the medians differ by more than the bound in that
    direction, else 'within bound'."""
    sign = 1 if better == "lower" else -1
    med_b, med_a = statistics.median(before), statistics.median(after)
    if med_a == med_b:
        change = 0.0
    elif med_b:
        change = sign * (med_a - med_b) / abs(med_b)
    else:
        change = sign * math.copysign(math.inf, med_a - med_b)
    if max(spread(before), spread(after)) > bound:
        all_better = all(sign * a < sign * b for a in after for b in before)
        return "better" if all_better else "unresolved"
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "within bound"
