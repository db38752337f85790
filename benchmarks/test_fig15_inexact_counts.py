"""Figure 15: Inexact event count and rate for each application.

Paper shape (rates, events/sec): MOOSE (1.45M) > Miniaero (1.11M) >
LAGHOS (650k) > ENZO (222k) > LAMMPS (68k) ~ WRF (66k) > GROMACS (26k).
Counts: ENZO ~ LAMMPS > LAGHOS > MOOSE > GROMACS > Miniaero ~ WRF.
Absolute numbers are scaled down with the workloads; the orderings are
the reproduced shape.
"""

from benchmarks.conftest import print_frame
from repro.analytics.figures_paper import fig15_inexact_counts


def test_fig15_inexact_counts(benchmark, paper_ctx):
    fig = benchmark(fig15_inexact_counts, paper_ctx)
    print_frame(fig)
    rows = {r["name"]: r for r in fig.frame.rows}
    rate = {n: rows[n]["rate"] for n in rows}
    count = {n: rows[n]["count"] for n in rows}

    # Rate ordering (the full paper ordering).
    assert rate["MOOSE"] > rate["Miniaero"] > rate["LAGHOS"] > rate["ENZO"]
    assert rate["ENZO"] > rate["LAMMPS"] > rate["GROMACS"]
    assert rate["GROMACS"] == min(rate.values())

    # Count shape: the MD/astro codes dominate; Miniaero and WRF trail.
    top_two = sorted(count, key=count.get, reverse=True)[:2]
    assert set(top_two) <= {"ENZO", "LAMMPS"}
    assert count["LAGHOS"] > count["MOOSE"] > count["GROMACS"]
    assert count["Miniaero"] < count["MOOSE"]
    assert count["WRF"] < count["MOOSE"]
    # Every application rounds at least somewhat.
    assert all(c > 0 for c in count.values())
