"""Figure 11: individual-mode tracing with filtering (no Inexact)."""

from benchmarks.conftest import present_sets, print_frame
from repro.analytics.figures_paper import fig11_filtered

#: The paper's Figure 11 (full instruction coverage, Inexact untracked).
PAPER_FIG11 = {
    "Miniaero": {"Denorm", "Underflow", "Overflow"},
    "LAMMPS": set(),
    "LAGHOS": {"DivideByZero"},
    "MOOSE": set(),
    "WRF": set(),
    "ENZO": {"Invalid"},
    "PARSEC 3.0": {"DivideByZero", "Invalid", "Denorm", "Underflow",
                   "Overflow"},
    "NAS 3.0": set(),
    "GROMACS": {"Denorm", "Underflow"},
}


def test_fig11_filtered(benchmark, paper_ctx):
    fig = benchmark(fig11_filtered, paper_ctx)
    print_frame(fig)
    table = present_sets(fig, "code", "event")
    for name, expected in PAPER_FIG11.items():
        got = table[name]
        assert got == expected, f"{name}: {sorted(got)} != {sorted(expected)}"
