"""Summary statistics for benchmark samples.

Quartiles use :func:`statistics.quantiles` with its default
("exclusive") method, so they are the numbers a reader gets from
``statistics.quantiles(values, n=4)``.
"""

from __future__ import annotations

import statistics

#: Percentiles a timing may be reported at, lowest first.
PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

#: A percentile is only reported when at least this many samples lie
#: beyond it; fewer and one outlier moves it.
MIN_TAIL_SAMPLES = 10


def median(values) -> float:
    return float(statistics.median(values))


def quartiles(values) -> tuple[float, float]:
    """``(q1, q3)``; a single sample is its own quartiles."""
    values = list(values)
    if len(values) < 2:
        return float(values[0]), float(values[0])
    q1, _, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q3)


def percentile(values, p: float) -> float:
    """Linear-interpolation percentile (``p`` in 0..100)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n: int) -> float | None:
    """Highest of :data:`PERCENTILES` with at least
    :data:`MIN_TAIL_SAMPLES` of ``n`` samples beyond it, else None."""
    best = None
    for p in PERCENTILES:
        # Rounded: 100 - 99.9 is not exactly 0.1 in binary.
        if round(n * (100.0 - p) / 100.0, 6) >= MIN_TAIL_SAMPLES:
            best = p
    return best


def summary(values) -> dict:
    """Median, quartiles and sample count of ``values``."""
    values = list(values)
    q1, q3 = quartiles(values)
    return {"median": median(values), "q1": q1, "q3": q3, "n": len(values)}
