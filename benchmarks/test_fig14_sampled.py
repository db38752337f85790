"""Figure 14: individual-mode tracing with 5% Poisson sampling.

Paper shape vs Figure 9: WRF now *shows* Inexact (events were captured
as they arose, before WRF's own fesetenv made FPSpy step aside), while
sampling *misses* Miniaero's and GROMACS's rare Denorm/Underflow
clusters and LAGHOS's Underflow phase.
"""

from benchmarks.conftest import present_sets, print_frame
from repro.analytics.figures_paper import fig14_sampled

#: The paper's Figure 14.
PAPER_FIG14 = {
    "Miniaero": {"Inexact"},
    "LAMMPS": {"Inexact"},
    "LAGHOS": {"DivideByZero", "Inexact"},
    "MOOSE": {"Inexact"},
    "WRF": {"Inexact"},
    "ENZO": {"Invalid", "Inexact"},
    "PARSEC 3.0": {"DivideByZero", "Invalid", "Denorm", "Underflow",
                   "Overflow", "Inexact"},
    "NAS 3.0": {"Inexact"},
    "GROMACS": {"Inexact"},
}


def test_fig14_sampled(benchmark, paper_ctx):
    fig = benchmark(fig14_sampled, paper_ctx)
    print_frame(fig)
    table = present_sets(fig, "code", "event")
    for name, expected in PAPER_FIG14.items():
        got = table[name]
        assert got == expected, f"{name}: {sorted(got)} != {sorted(expected)}"
