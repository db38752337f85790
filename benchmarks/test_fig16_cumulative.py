"""Figure 16: cumulative Inexact events over the start of execution.

Paper shape: every application's cumulative curve rises throughout the
window (log-scale near-straight growth); the high-rate codes (MOOSE,
Miniaero, LAGHOS) accumulate fastest relative to their runtime.
"""

import numpy as np

from repro.study.figures import fig16_cumulative


def test_fig16_cumulative(benchmark, sampled_pass):
    result = benchmark(fig16_cumulative, sampled_pass)
    print("\n" + result.text)
    series = result.data["series"]
    assert len(series) == 7
    for name, s in series.items():
        t = np.asarray(s["t"])
        c = np.asarray(s["count"])
        assert t.size > 0, f"{name} captured no Inexact events"
        # Cumulative counts are strictly increasing by construction;
        # verify events keep arriving through the run (not front-loaded):
        # the last quarter of the time window still adds events.
        window = t[-1] - t[0]
        if window > 0 and c[-1] >= 20:
            late = np.count_nonzero(t > t[0] + 0.75 * window)
            assert late > 0, f"{name}: no events in final quarter"
    # Rate ordering visible in the curves: MOOSE accumulates faster than
    # GROMACS per unit time.
    moose = series["MOOSE"]
    gromacs = series["GROMACS"]
    moose_rate = moose["count"][-1] / (moose["t"][-1] - moose["t"][0])
    gromacs_rate = gromacs["count"][-1] / (gromacs["t"][-1] - gromacs["t"][0])
    assert moose_rate > gromacs_rate
