"""Figure 18: per-form count of codes showing rounding, and the
GROMACS-only form set.

Paper shape: 39 instruction forms cover every code other than GROMACS;
GROMACS uses 25 forms seen nowhere else (its AVX/FMA kernels) plus 16
shared forms; the common scalar-double arithmetic forms are used by
nearly every code.
"""

from benchmarks.conftest import print_frame
from repro.isa.forms import SSE_FORMS
from repro.analytics.figures_paper import fig18_form_histogram


def test_fig18_form_histogram(benchmark, paper_ctx):
    fig = benchmark(fig18_form_histogram, paper_ctx)
    print_frame(fig)
    rows = fig.frame.rows

    # Exactly the paper's 25 GROMACS-only forms.
    gromacs_only = {r["form"] for r in rows if r["gromacs_only"]}
    assert len(gromacs_only) == 25
    assert "vfmaddps" in gromacs_only and "cvtsi2sdq" in gromacs_only

    # The non-GROMACS codes collectively exercise all 39 shared forms.
    histogram = {r["form"]: r["codes"] for r in rows if not r["gromacs_only"]}
    sse = {f.mnemonic for f in SSE_FORMS}
    assert set(histogram) == sse
    assert len(histogram) == 39

    # Core arithmetic is near-universal; exotic forms are rare.
    assert histogram["mulsd"] >= 30
    assert histogram["addsd"] >= 30
    assert histogram["dppd"] <= 3
    assert histogram["roundpd"] <= 3
