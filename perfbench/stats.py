"""Order statistics used by the benchmark.

Percentiles use the nearest-rank definition: the q-th percentile of n
samples is the sample of 1-based rank ceil(q * n / 100) in ascending
order, so exactly n - rank samples lie beyond it. A tail percentile is
only reported as such when at least ten samples lie beyond it.
"""

from __future__ import annotations

import math

MIN_BEYOND = 10
TAIL_LADDER = (99.9, 99.0, 90.0, 75.0, 50.0)


def rank(n: int, q: float) -> int:
    """1-based nearest rank of the q-th percentile among n samples."""
    if n < 1:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 100:
        raise ValueError(f"percentile {q} outside (0, 100]")
    # round before ceil so that 99.0 * 2678 / 100 is not nudged up by float error
    return max(1, math.ceil(round(q * n / 100, 9)))


def beyond(n: int, q: float) -> int:
    """How many of n samples lie strictly beyond the q-th percentile's rank."""
    return n - rank(n, q)


def percentile(values, q: float):
    """Nearest-rank q-th percentile of a non-empty sequence."""
    xs = sorted(values)
    return xs[rank(len(xs), q) - 1]


def tail_percentile(values, ladder=TAIL_LADDER):
    """(q, value, beyond) for the highest q in ladder with >= MIN_BEYOND samples beyond it.

    Returns None when no rung qualifies, which is the case below 20
    samples for the default ladder.
    """
    xs = sorted(values)
    for q in ladder:
        if xs and beyond(len(xs), q) >= MIN_BEYOND:
            return q, xs[rank(len(xs), q) - 1], beyond(len(xs), q)
    return None
