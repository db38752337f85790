"""One-shot study report: every paper figure in a single document.

``python -m repro.study report`` runs the ``figures`` campaign
in-process, renders the analytics registry's ``paper`` group from it,
adds the five figures no campaign carries (6, 10, 12, 13, 16) from
live runs, and emits a markdown report with each figure under its
heading in paper order: registry figures as their CSV data, live
figures as their rendered text.
"""

from __future__ import annotations

import tempfile

from repro.analytics import AnalyticsContext, all_figures, build_context
from repro.campaign import figures_campaign, run_campaign
from repro.study import figures as F
from repro.study.passes import STUDY_SEED, run_pass


def figures_context(scale: float, seed: int, out_dir) -> AnalyticsContext:
    """Run the ``figures`` campaign in-process into ``out_dir``; load it."""
    result = run_campaign(
        figures_campaign(scale, seed), out_dir=out_dir, execution="inprocess")
    if result.failed:
        raise RuntimeError(
            f"figures campaign: {len(result.failed)} run(s) failed")
    return build_context([out_dir])


def build_report(scale: float = 1.0, seed: int = 1234,
                 ctx: AnalyticsContext | None = None) -> str:
    """Render the complete study as markdown.

    ``ctx`` is a prebuilt context over the ``figures`` campaign at the
    same scale and seed; without it the campaign runs here.
    """
    if ctx is None:
        with tempfile.TemporaryDirectory() as tmp:
            ctx = figures_context(scale, seed, tmp)
    sections = []
    for fdef in all_figures(group="paper"):
        fig = fdef.fn(ctx)
        body = (fig.frame.to_csv_bytes().decode() if fig is not None
                else "(skipped: inputs absent from the campaign)")
        sections.append((fdef.name.split("_")[0], fdef.title, body))
    filtered = run_pass("filtered", scale, seed, only=F.FILTERED_TARGETS)
    sampled = run_pass("sampled", scale, seed, only=F.SAMPLED_TARGETS)
    for result in (
        F.fig06_overhead(scale, seed),
        F.fig10_parsec(scale, seed),
        F.fig12_enzo_nans(filtered),
        F.fig13_laghos_bursts(filtered),
        F.fig16_cumulative(sampled),
    ):
        sections.append((result.ident, result.title, result.text))
    out = [
        "# FPSpy reproduction — study report",
        "",
        f"Configuration: scale={scale}, app seed={seed}, "
        f"sampler seed={STUDY_SEED}.",
        "",
    ]
    for ident, title, body in sorted(sections):
        out.append(f"## {ident}: {title}")
        out.append("")
        out.append("```")
        out.append(body.rstrip("\n"))
        out.append("```")
        out.append("")
    return "\n".join(out) + "\n"
