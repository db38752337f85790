"""Figure 12: rate of Invalid events over time in ENZO.

Paper shape: NaNs occur *throughout* most of the execution, at a modest,
relatively steady rate (3-12 events/second at full scale) -- a drizzle,
not a burst.
"""

import numpy as np

from repro.study.figures import fig12_enzo_nans


def test_fig12_enzo_nans(benchmark, filtered_pass):
    result = benchmark(fig12_enzo_nans, filtered_pass)
    print("\n" + result.text)
    rates = np.asarray(result.data["rate"])
    assert result.data["total"] >= 50
    # Events span essentially the whole execution: a large majority of
    # time bins contain Invalid events.
    nonzero = np.count_nonzero(rates)
    assert nonzero >= 0.5 * len(rates)
    # Steady drizzle, not bursts: the peak bin is within a small factor
    # of the mean occupied-bin rate.
    occupied = rates[rates > 0]
    assert occupied.max() < 8 * occupied.mean()
