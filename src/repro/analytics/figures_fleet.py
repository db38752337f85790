"""The ``fleet`` figure group: operational views across campaigns.

Where the ``paper`` group reproduces the publication's figures from
one campaign, this group compares *fleets* of campaign directories:
per-workload event rates, kill sites, the provenance-coil league
table, and flight-recorder retention.

Every figure here reads the deterministic campaign section only, so
its frame diffs cleanly against committed baselines.
"""

from __future__ import annotations

from repro.analytics import vega
from repro.analytics.frames import Figure, Frame
from repro.analytics.registry import register_figure


@register_figure(
    "fleet_event_rates", group="fleet",
    title="Per-workload individual-record rates across campaigns")
def fleet_event_rates(ctx) -> Figure | None:
    """Record volume and rate per run, across every loaded campaign."""
    if not ctx.campaigns:
        return None
    frame = Frame(columns=(
        "campaign", "app", "mode", "individual_records",
        "sim_wall_s", "records_per_sim_s"))
    for camp in ctx.campaigns:
        for r in camp.runs:
            app, mode = camp.parse_label(r.get("label", ""))
            wall = r.get("wall_seconds", 0.0)
            n = r.get("individual_records", 0)
            frame.append(
                campaign=camp.name, app=app, mode=mode,
                individual_records=n, sim_wall_s=wall,
                records_per_sim_s=n / wall if wall > 0 else 0.0)
    if not frame.rows:
        return None
    spec = vega.bar(
        frame, x="app", y="records_per_sim_s", color="mode",
        title="Individual records per simulated second", sort="-y")
    return Figure(frame=frame, spec=spec)


@register_figure(
    "fleet_kill_sites", group="fleet",
    title="Fatal-signal and failure sites across campaigns")
def fleet_kill_sites(ctx) -> Figure | None:
    """Which runs died (guest fatal signal) or failed outright."""
    if not ctx.campaigns:
        return None
    frame = Frame(columns=(
        "campaign", "app", "mode", "status", "killed", "error"))
    for camp in ctx.campaigns:
        for r in camp.runs:
            app, mode = camp.parse_label(r.get("label", ""))
            frame.append(
                campaign=camp.name, app=app, mode=mode,
                status=r.get("status", ""),
                killed=bool(r.get("killed")),
                error=r.get("error") or "")
    if not frame.rows:
        return None
    spec = vega.heatmap(
        frame, x="mode", y="app", value="killed",
        title="Runs with guest processes killed by a fatal signal")
    return Figure(frame=frame, spec=spec)


@register_figure(
    "fleet_provenance_league", group="fleet",
    title="Provenance-coil league table (merged rollups)")
def fleet_provenance_league(ctx) -> Figure | None:
    """Top exceptional-value origin sites by merged rollup counts."""
    frame = Frame(columns=(
        "campaign", "origin", "kind", "form", "origins", "props", "sinks"))
    for camp in ctx.campaigns:
        for row in camp.provenance:
            rip, kind, mnemonic, origins, props, sinks = row
            frame.append(
                campaign=camp.name, origin=f"0x{int(rip):x}", kind=kind,
                form=mnemonic, origins=origins, props=props, sinks=sinks)
    if not frame.rows:
        return None
    frame.rows.sort(
        key=lambda r: (-r["origins"], r["campaign"], r["origin"], r["kind"]))
    spec = vega.bar(
        frame, x="origin", y="origins", color="kind",
        title="Exceptional-value origins per site", sort="-y")
    return Figure(frame=frame, spec=spec)


@register_figure(
    "fleet_trace_retention", group="fleet",
    title="Flight-recorder retention across traced runs")
def fleet_trace_retention(ctx) -> Figure | None:
    """Tail-sampling keep/discard decisions per traced run."""
    frame = Frame(columns=(
        "campaign", "app", "mode", "spans", "trees", "dropped",
        "retained_interesting", "retained_boring", "discarded"))
    for camp in ctx.campaigns:
        for r in camp.runs:
            if not r.get("spans_recorded") and not r.get("trace_retention"):
                continue
            app, mode = camp.parse_label(r.get("label", ""))
            ret = r.get("trace_retention", {})
            frame.append(
                campaign=camp.name, app=app, mode=mode,
                spans=r.get("spans_recorded", 0),
                trees=r.get("span_trees", 0),
                dropped=r.get("spans_dropped", 0),
                retained_interesting=ret.get(
                    "trees_retained_interesting", 0),
                retained_boring=ret.get("trees_retained_boring", 0),
                discarded=ret.get("trees_discarded", 0))
    if not frame.rows:
        return None
    spec = vega.bar(
        frame, x="app", y="spans", color="mode",
        title="Spans recorded per traced run", sort="-y")
    return Figure(frame=frame, spec=spec)
