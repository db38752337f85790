"""Cross-campaign analytics: figures, dashboards, regression diffing.

This package turns campaign artifacts (``campaign.json`` and friends)
and ``BENCH_*.json`` perf history into the paper's evaluation figures
and fleet/trajectory dashboards -- each one a Vega-Lite spec plus a companion CSV, rendered
into a self-contained static HTML index.  Three figure groups:

* ``paper``      -- the Figure 6-19 family regenerated offline from a
  campaign directory, sharing extraction code with the live
  ``benchmarks/test_fig*`` suite (:mod:`repro.analysis.extract`);
* ``fleet``      -- per-workload event rates, kill sites, provenance
  league tables, and trace retention across campaign dirs;
* ``trajectory`` -- BENCH history as a perf dashboard with per-gate
  threshold bands.

Everything is stdlib + numpy; pandas is optional sugar
(:meth:`~repro.analytics.frames.Frame.to_pandas`).  Figure *data* is a
pure function of the deterministic campaign section, so generated CSVs
are byte-stable across hosts, worker counts, and merge orders -- which
is what makes ``repro.study figures diff`` a meaningful CI gate.
"""

from repro.analytics.frames import Figure, Frame
from repro.analytics.generate import (
    AnalyticsContext,
    build_context,
    diff_figures,
    generate_figures,
)
from repro.analytics.registry import (
    GROUPS,
    FigureDef,
    all_figures,
    load_all,
    register_figure,
)
from repro.analytics.sources import BenchRecord, CampaignData, load_bench_history

__all__ = [
    "AnalyticsContext",
    "BenchRecord",
    "CampaignData",
    "Figure",
    "FigureDef",
    "Frame",
    "GROUPS",
    "all_figures",
    "build_context",
    "diff_figures",
    "generate_figures",
    "load_all",
    "load_bench_history",
    "register_figure",
]
