"""Figure 13: bursts of DivideByZero events in LAGHOS.

Paper shape: tall, narrow spikes of tens of thousands of events/second
separated by quiet gaps -- the opposite temporal structure of ENZO's
drizzle.
"""

import numpy as np

from repro.study.figures import fig13_laghos_bursts


def test_fig13_laghos_bursts(benchmark, filtered_pass):
    result = benchmark(fig13_laghos_bursts, filtered_pass)
    print("\n" + result.text)
    rates = np.asarray(result.data["rate"])
    assert rates.size > 0
    # Bursty: a large share of time bins are silent...
    silent = np.count_nonzero(rates == 0)
    assert silent >= 0.3 * len(rates)
    # ...and the peaks tower over the window mean.
    assert rates.max() > 3 * rates.mean()
    # Max-gap/median-gap confirms the burst structure.
    assert result.data["burstiness"] > 50
