"""Figure 19: rank-popularity of rounding instruction addresses.

Paper shape: in the most extreme case <5000 static instructions account
for all rounding; more commonly <2000; and the distribution is so skewed
that a small head of sites covers >99% of rounding events.
"""

from benchmarks.conftest import print_frame
from repro.analytics.figures_paper import fig19_addr_rankpop


def test_fig19_addr_rankpop(benchmark, paper_ctx):
    fig = benchmark(fig19_addr_rankpop, paper_ctx)
    assert fig is not None, "no rounding records found"
    print_frame(fig)
    rows = fig.frame.rows

    # Bounded site counts (scaled: our binaries have hundreds of static
    # FP sites where the real ones have thousands).
    assert max(r["n_addresses"] for r in rows) < 5000

    # Heavy skew: for most codes, a small head of sites covers >99% of
    # the rounding events -- the trap-and-emulate feasibility property.
    rank99 = {r["code"]: r["rank99"] for r in rows}
    n_sites = {r["code"]: r["n_addresses"] for r in rows}
    headed = sum(
        1 for c in rank99
        if rank99[c] <= max(10, 0.5 * n_sites[c])
    )
    assert headed >= 0.7 * len(rank99)
