"""Statistics the benchmark reports, kept apart so they can be tested alone.

Every latency list is in operation order: index 0 is the first op a pass
ran.
"""

import math
import statistics

# A percentile is reported only when at least this many samples lie beyond it.
MIN_BEYOND = 10


def percentile(samples, p):
    """Nearest-rank p-th percentile of `samples`.

    Raises ValueError when fewer than MIN_BEYOND samples lie strictly above
    the rank, because the value would then rest on a handful of outliers.
    """
    if not 0 < p < 100:
        raise ValueError(f"percentile {p} is outside (0, 100)")
    n = len(samples)
    rank = math.ceil(p / 100 * n)
    if n == 0 or n - rank < MIN_BEYOND:
        raise ValueError(
            f"p{p} of {n} samples leaves {max(n - rank, 0)} beyond it; need {MIN_BEYOND}")
    return sorted(samples)[rank - 1]


def decile_ratio(samples):
    """Mean latency of the last tenth of ops over the mean of the first tenth.

    1.0 means per-op cost stayed flat as the pass ran.
    """
    tenth = len(samples) // 10
    if tenth == 0:
        raise ValueError(f"{len(samples)} ops have no tenth")
    first_mean = statistics.fmean(samples[:tenth])
    if first_mean <= 0:
        raise ValueError("first tenth has no measurable latency")
    return statistics.fmean(samples[-tenth:]) / first_mean


def error_ratio(failed, attempted):
    """Ops that failed or failed their check, over ops attempted."""
    if attempted < 1:
        raise ValueError("no ops attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"{failed} failed of {attempted} attempted")
    return failed / attempted


def fastest_quarter(items, seconds):
    """The quarter of `items`, at least one, that took the fewest seconds."""
    ranked = sorted(items, key=seconds)
    return ranked[:max(1, len(ranked) // 4)]


def relative_spread(values):
    """Interquartile range over median, as statistics.quantiles gives them."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def self_times(spans):
    """Total self time per layer, in the spans' time unit.

    `spans` holds (id, parent, name, start, end) tuples, parent 0 for a root.
    A span's self time is its duration minus the part of it that its child
    spans cover; the layer is the part of the name before the first '.'.
    """
    children = {}
    for span_id, parent, _, start, end in spans:
        if parent:
            children.setdefault(parent, []).append((start, end))
    totals = {}
    for span_id, _, name, start, end in spans:
        covered = 0
        reach = start
        for child_start, child_end in sorted(children.get(span_id, ())):
            lo, hi = max(child_start, reach), min(child_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        layer = name.split(".", 1)[0]
        totals[layer] = totals.get(layer, 0) + (end - start) - covered
    return totals
