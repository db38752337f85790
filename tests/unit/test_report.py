"""Tests for the study report builder.

Runs the full study at the reported configuration: the registry figures
render from the session's ``figures`` campaign, the five live figures
from their own runs.
"""

from repro.study.report import build_report


def test_report_contains_every_figure_section(paper_ctx):
    text = build_report(1.0, 1234, ctx=paper_ctx)
    for ident in (
        "fig06", "fig07", "fig08", "fig09", "fig10", "fig11", "fig12",
        "fig13", "fig14", "fig15", "fig16", "fig17", "fig18", "fig19",
    ):
        assert f"## {ident}:" in text, ident
    assert text.startswith("# FPSpy reproduction")
    fig18 = text.split("## fig18:")[1].split("## fig19:")[0]
    assert fig18.count(",true\n") == 25  # the GROMACS-only forms
