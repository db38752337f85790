"""Figure 17: rank-popularity of rounding instruction forms.

Paper shape: even the most extreme code uses fewer than 45 forms; most
use 20 or fewer; the distribution is heavily skewed, with fewer than ~5
forms covering >99% of rounding for most codes.
"""

from benchmarks.conftest import print_frame
from repro.analytics.figures_paper import fig17_form_rankpop


def test_fig17_form_rankpop(benchmark, paper_ctx):
    fig = benchmark(fig17_form_rankpop, paper_ctx)
    assert fig is not None, "no rounding records found"
    print_frame(fig)
    rows = fig.frame.rows

    n_forms = {r["code"]: r["n_forms"] for r in rows}
    rank99 = {r["code"]: r["rank99"] for r in rows}

    # Fewer than 45 forms for every code; most codes 20 or fewer.
    assert max(n_forms.values()) < 45
    at_most_20 = sum(1 for v in n_forms.values() if v <= 20)
    assert at_most_20 >= 0.6 * len(n_forms)

    # Heavy skew: for most codes a small handful of forms covers >99%.
    small_head = sum(1 for v in rank99.values() if v <= 8)
    assert small_head >= 0.5 * len(rank99)
    # And the head never exceeds the paper's bound by much.
    assert max(rank99.values()) < 45
