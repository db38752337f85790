"""Figure 7: application/benchmark inventory and unencumbered exec time."""

from benchmarks.conftest import print_frame
from repro.analytics.figures_paper import fig07_inventory
from repro.study.targets import TARGET_NAMES


def test_fig07_inventory(benchmark, paper_ctx):
    fig = benchmark(fig07_inventory, paper_ctx)
    print_frame(fig)
    rows = {r["name"]: r for r in fig.frame.rows}
    assert set(rows) == set(TARGET_NAMES)
    # Dependency and problem columns match the paper's table.
    assert rows["LAGHOS"]["dependencies"] == "hypre, METIS, MFEM, MPI"
    assert rows["WRF"]["problem"] == "Squall2D_y"
    assert rows["NAS 3.0"]["dependencies"] == "N/A"
    # Total source inventory is the paper's "~7.5M lines" (the Figure 7
    # rows themselves sum a little higher, as in the paper).
    total_loc = sum(r["loc"] for r in rows.values())
    assert 7_000_000 < total_loc < 9_500_000
    # Long MD codes dominate runtime; mini-app and NAS are the quickest.
    walls = {n: rows[n]["sim_wall_ms"] for n in rows}
    assert walls["LAMMPS"] > walls["Miniaero"]
    assert walls["GROMACS"] > walls["MOOSE"]
    assert max(walls, key=walls.get) in ("LAMMPS", "GROMACS")
