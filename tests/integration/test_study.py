"""End-to-end study validation: the reported run's tables must match the
paper.  This drives the exact configuration the benchmarks report
(scale 1.0, the study seed): the ``figures`` campaign feeds the
registry's paper figures (the ``paper_ctx`` session fixture), so a
green run here means the repository's headline claims hold.
"""

from repro.analytics import figures_paper as P
from repro.study.passes import run_pass


EXPECTED_FIG9 = {
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

EXPECTED_FIG11 = {
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

EXPECTED_FIG14 = {
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


def _check(figure, expected):
    got: dict[str, set] = {}
    for row in figure.frame.rows:
        events = got.setdefault(row["code"], set())
        if row["present"]:
            events.add(row["event"])
    for name, want in expected.items():
        assert got[name] == want, (name, sorted(got[name]), sorted(want))


def test_fig9_matches_paper(paper_ctx):
    _check(P.fig09_aggregate(paper_ctx), EXPECTED_FIG9)


def test_fig11_matches_paper(paper_ctx):
    _check(P.fig11_filtered(paper_ctx), EXPECTED_FIG11)


def test_fig14_matches_paper(paper_ctx):
    _check(P.fig14_sampled(paper_ctx), EXPECTED_FIG14)


def test_wrf_disabled_in_aggregate_but_not_individual():
    agg = run_pass("aggregate", 1.0, 1234, only=("WRF",))["WRF"].traces
    assert all(r.disabled for r in agg.aggregate)
    sampled = run_pass("sampled", 1.0, 1234, only=("WRF",))["WRF"].traces
    assert sampled.count() > 0  # events captured before the step-aside


def test_no_process_died(paper_ctx):
    runs = paper_ctx.campaign.runs
    assert len(runs) == 36  # four passes over nine targets
    for run in runs:
        assert run["status"] == "ok" and not run["killed"], run["label"]


def test_aggregate_pass_produces_no_individual_traces(paper_ctx):
    for run in paper_ctx.campaign.runs_by_mode("aggregate"):
        assert run["individual_records"] == 0, run["label"]
        assert run["aggregate_records"], run["label"]


def test_fig15_rate_ordering(paper_ctx):
    rate = {r["name"]: r["rate"]
            for r in P.fig15_inexact_counts(paper_ctx).frame.rows}
    assert rate["MOOSE"] > rate["Miniaero"] > rate["LAGHOS"] > rate["ENZO"]
    assert rate["ENZO"] > rate["LAMMPS"] > rate["GROMACS"]


def test_fig18_gromacs_exclusive_forms(paper_ctx):
    rows = P.fig18_form_histogram(paper_ctx).frame.rows
    assert sum(r["gromacs_only"] for r in rows) == 25
    assert sum(not r["gromacs_only"] for r in rows) == 39


def test_fig17_locality(paper_ctx):
    rows = P.fig17_form_rankpop(paper_ctx).frame.rows
    assert max(r["n_forms"] for r in rows) < 45


def test_fig19_locality(paper_ctx):
    rows = P.fig19_addr_rankpop(paper_ctx).frame.rows
    assert 0 < max(r["n_addresses"] for r in rows) < 5000


def test_sampled_pass_captures_roughly_five_percent(paper_ctx):
    """Across the whole sampled pass, total capture is in the vicinity of
    the 4.76% duty cycle (wide tolerance: per-app variance is real)."""
    total_sampled = sum(
        r["individual_records"]
        for r in paper_ctx.campaign.runs_by_mode("sampled"))
    # The filtered pass has no Inexact records, so there is no full
    # count to compare against: the sampled count must be clearly
    # nonzero.
    assert total_sampled > 500
