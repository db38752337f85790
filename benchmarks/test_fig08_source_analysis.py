"""Figure 8: static source-code analysis of intercepted symbols."""

from benchmarks.conftest import present_sets, print_frame
from repro.analytics import AnalyticsContext
from repro.analytics.figures_paper import FIG8_SYMBOLS, fig08_source_analysis


def test_fig08_source_analysis(benchmark):
    # Static symbol tables only: no campaign needed.
    fig = benchmark(fig08_source_analysis, AnalyticsContext())
    print_frame(fig)
    rows = present_sets(fig, "code", "symbol")

    # The paper's exact per-code inventories.
    assert rows["Miniaero"] == set()
    assert rows["LAMMPS"] == {"clone"}
    assert rows["LAGHOS"] == set()
    assert rows["MOOSE"] == {
        "clone", "pthread_create", "sigaction", "feenableexcept",
        "fedisableexcept",
    }
    assert rows["WRF"] == {"fesetenv"}
    assert rows["ENZO"] == {"clone"}
    assert rows["PARSEC 3.0"] == {
        "fork", "clone", "pthread_create", "sigaction", "feenableexcept",
        "fesetround", "SIGTRAP", "SIGFPE",
    }
    assert rows["NAS 3.0"] == set()
    assert rows["GROMACS"] == {
        "clone", "pthread_create", "pthread_exit", "sigaction",
        "feenableexcept", "fedisableexcept", "SIGFPE",
    }
    # Column catalogue covers the paper's full header.
    assert "feholdexcept" in FIG8_SYMBOLS and "REG_EFL" in FIG8_SYMBOLS
    assert len(FIG8_SYMBOLS) == 26
