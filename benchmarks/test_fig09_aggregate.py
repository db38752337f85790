"""Figure 9: aggregate-mode tracing event table for the applications."""

from benchmarks.conftest import present_sets, print_frame
from repro.analytics.figures_paper import fig09_aggregate

#: The paper's Figure 9, row by row.
PAPER_FIG9 = {
    "Miniaero": {"Denorm", "Underflow", "Inexact"},
    "LAMMPS": {"Inexact"},
    "LAGHOS": {"DivideByZero", "Underflow", "Inexact"},
    "MOOSE": {"Inexact"},
    "WRF": set(),
    "ENZO": {"Invalid", "Inexact"},
    "PARSEC 3.0": {"DivideByZero", "Invalid", "Denorm", "Underflow",
                   "Overflow", "Inexact"},
    "NAS 3.0": {"Inexact"},
    "GROMACS": {"Denorm", "Underflow", "Inexact"},
}


def test_fig09_aggregate(benchmark, paper_ctx):
    fig = benchmark(fig09_aggregate, paper_ctx)
    print_frame(fig)
    table = present_sets(fig, "code", "event")
    for name, expected in PAPER_FIG9.items():
        got = table[name]
        assert got == expected, f"{name}: {sorted(got)} != {sorted(expected)}"
