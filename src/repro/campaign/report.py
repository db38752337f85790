"""Deterministic campaign result merge and report rendering.

The merge contract (DESIGN.md decision #9): the merged campaign report
is a pure function of ``(campaign spec, per-run outcomes)``, assembled
in **spec order**.  Workers may finish in any order and in any
interleaving, so the coordinator accumulates outcomes keyed by run
index and only renders once everything is resolved -- which makes the
report byte-identical for any worker count, enforced by
``tests/property/test_campaign_props.py`` and the scaling benchmark.

Two output sections are kept strictly apart:

* the **deterministic** section (report text + ``deterministic`` dict):
  only architecturally-determined data -- simulated cycles and times,
  event inventories, record counts, trace digests;
* the **host** section: wall-clock timings, worker count, retries, the
  execution plan, and the merged telemetry snapshot -- everything that
  legitimately varies between hosts and worker counts.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.campaign.spec import CampaignSpec
from repro.campaign.worker import RunOutcome
from repro.fp.flags import EVENT_ORDER


@dataclass
class CampaignResult:
    """A fully merged campaign."""

    campaign: CampaignSpec
    outcomes: list[RunOutcome]  #: spec order, one per run
    report_text: str
    deterministic: dict
    host: dict

    @property
    def failed(self) -> list[RunOutcome]:
        return [o for o in self.outcomes if o.status != "ok"]

    def to_dict(self) -> dict:
        return {"deterministic": self.deterministic, "host": self.host}


class ResultAccumulator:
    """Order-insensitive collection point for run outcomes.

    Both the real multiprocessing coordinator and the in-process test
    harnesses feed this; it is the single place outcomes meet, so the
    determinism property is a property of this class plus
    :func:`merge_outcomes`, not of any particular execution strategy.
    """

    def __init__(self, campaign: CampaignSpec) -> None:
        self.campaign = campaign
        self._by_index: dict[int, RunOutcome] = {}

    def add(self, outcome: RunOutcome) -> None:
        if outcome.index in self._by_index:
            raise ValueError(f"duplicate outcome for run {outcome.index}")
        if not 0 <= outcome.index < len(self.campaign.runs):
            raise ValueError(f"outcome index {outcome.index} out of range")
        self._by_index[outcome.index] = outcome

    def __contains__(self, index: int) -> bool:
        return index in self._by_index

    @property
    def done(self) -> int:
        return len(self._by_index)

    def failed_so_far(self) -> list[int]:
        return sorted(
            i for i, o in self._by_index.items() if o.status != "ok")

    @property
    def complete(self) -> bool:
        return len(self._by_index) == len(self.campaign.runs)

    def merge(self, host: dict | None = None) -> CampaignResult:
        if not self.complete:
            missing = sorted(
                set(range(len(self.campaign.runs))) - set(self._by_index))
            raise ValueError(f"campaign incomplete; missing runs {missing}")
        outcomes = [self._by_index[i] for i in range(len(self.campaign.runs))]
        return merge_outcomes(self.campaign, outcomes, host=host)


def merge_outcomes(
    campaign: CampaignSpec,
    outcomes: list[RunOutcome],
    host: dict | None = None,
) -> CampaignResult:
    """Build the merged result from spec-ordered outcomes."""
    deterministic = {
        "campaign": campaign.name,
        "spec_hash": campaign.spec_hash,
        "runs": [_deterministic_run(o) for o in outcomes],
        "event_union": _event_union(outcomes),
        "total_cycles": sum(o.cycles for o in outcomes),
        "total_individual_records": sum(
            o.individual_records for o in outcomes),
    }
    provenance = _merged_provenance(outcomes)
    if provenance:
        deterministic["provenance"] = [list(r) for r in provenance]
    host_section = dict(host or {})
    host_section.setdefault("retries", 0)
    host_section["run_host_seconds"] = [
        round(o.host_seconds, 6) for o in outcomes]
    host_section["attempts"] = [o.attempts for o in outcomes]
    artifacts = {
        str(o.index): list(o.trace_artifact)
        for o in outcomes if o.trace_artifact}
    if artifacts:
        # Workers wrote these directly into the campaign directory; the
        # merged result carries only the (name, size, sha256) triples.
        host_section["trace_artifacts"] = artifacts
    telem = [o.telemetry for o in outcomes if o.telemetry is not None]
    # The coordinator's own bus (pool dispatch/retry counters) merges
    # in alongside the per-run kernels so telemetry tooling can
    # attribute coordinator overhead -- even when no run had its kernel
    # bus enabled.
    coord = host_section.get("coordinator_telemetry")
    if telem or coord:
        from repro.telemetry.snapshot import merge_snapshots

        host_section["telemetry"] = merge_snapshots(
            telem + ([coord] if coord else []))
    return CampaignResult(
        campaign=campaign,
        outcomes=list(outcomes),
        report_text=render_report(campaign, outcomes),
        deterministic=deterministic,
        host=host_section,
    )


def _deterministic_run(o: RunOutcome) -> dict:
    d = {
        "index": o.index,
        "label": o.label,
        "status": o.status,
        "error": o.error,
        "cycles": o.cycles,
        "wall_seconds": round(o.wall_seconds, 9),
        "user_seconds": round(o.user_seconds, 9),
        "system_seconds": round(o.system_seconds, 9),
        "killed": o.killed,
        "events": list(o.events),
        "aggregate_records": o.aggregate_records,
        "individual_records": o.individual_records,
        "trace_digest": [list(t) for t in o.trace_digest],
    }
    if o.event_counts:
        d["event_counts"] = dict(o.event_counts)
    if o.rankpop:
        # (code, forms_all, inexact_form_pairs, inexact_addr_pairs) per
        # code -- architecturally determined, deterministically ordered
        # (repro.analysis.extract), so the figure pipeline's input is
        # invariant under worker count and completion order.
        d["rankpop"] = [
            [code, list(forms), [list(p) for p in form_pairs],
             [list(p) for p in addr_pairs]]
            for code, forms, form_pairs, addr_pairs in o.rankpop]
    if o.spans_recorded or o.provenance:
        # Flight-recorder tallies are architecturally determined (span
        # stamps follow the simulated trap lifecycle), so they belong in
        # the deterministic section.
        d["spans_recorded"] = o.spans_recorded
        d["span_trees"] = o.span_trees
        d["spans_dropped"] = o.spans_dropped
        if o.trace_stats:
            # Retention decisions are seeded and replay-deterministic,
            # so the tail breakdown belongs here too.
            d["trace_retention"] = {
                k: o.trace_stats[k]
                for k in (
                    "trees_retained_interesting", "trees_retained_boring",
                    "trees_discarded", "interesting_trees_dropped")
                if k in o.trace_stats
            }
        d["provenance"] = [list(r) for r in o.provenance]
    return d


def _merged_provenance(outcomes: list[RunOutcome]) -> list[tuple]:
    from repro.fp.provenance import merge_rollups

    per_run = [o.provenance for o in outcomes if o.provenance]
    return merge_rollups(per_run) if per_run else []


def _event_union(outcomes: list[RunOutcome]) -> list[str]:
    seen = {e for o in outcomes for e in o.events}
    return [e for e in EVENT_ORDER if e in seen]


def render_report(campaign: CampaignSpec, outcomes: list[RunOutcome]) -> str:
    """The human-readable merged report (deterministic bytes)."""
    width = max([len(o.label) for o in outcomes] + [5])
    lines = [
        f"== campaign {campaign.name} ==",
        f"spec-hash {campaign.spec_hash}  runs {len(outcomes)}",
        "",
        f"{'idx':>4s}  {'label':<{width}s}  {'status':<7s} "
        f"{'cycles':>12s} {'sim_ms':>10s} {'agg':>5s} {'ind':>8s}  events",
    ]
    for o in outcomes:
        events = ",".join(o.events) or "-"
        lines.append(
            f"{o.index:>4d}  {o.label:<{width}s}  {o.status:<7s} "
            f"{o.cycles:>12d} {o.wall_seconds * 1e3:>10.3f} "
            f"{o.aggregate_records:>5d} {o.individual_records:>8d}  {events}"
        )
    failed = [o for o in outcomes if o.status != "ok"]
    lines.append("")
    lines.append("trace files:")
    for o in outcomes:
        for path, size, digest in o.trace_digest:
            lines.append(
                f"  {o.index:>4d}  {path:<40s} {size:>9d}B  "
                f"sha256={digest[:16]}")
    lines.append("")
    lines.append(f"event union: {','.join(_event_union(outcomes)) or '-'}")
    lines.append(f"total cycles: {sum(o.cycles for o in outcomes)}")
    provenance = _merged_provenance(outcomes)
    if provenance:
        traced = [o for o in outcomes if o.spans_recorded]
        spans = sum(o.spans_recorded for o in traced)
        trees = sum(o.span_trees for o in traced)
        dropped = sum(o.spans_dropped for o in traced)
        lines.append("")
        lines.append(
            f"flight recorder: {spans} spans, {trees} trap trees, "
            f"{dropped} dropped across {len(traced)} traced runs")
        ret_i = sum(
            o.trace_stats.get("trees_retained_interesting", 0)
            for o in traced)
        ret_b = sum(
            o.trace_stats.get("trees_retained_boring", 0) for o in traced)
        disc = sum(
            o.trace_stats.get("trees_discarded", 0) for o in traced)
        idrop = sum(
            o.trace_stats.get("interesting_trees_dropped", 0)
            for o in traced)
        if ret_i or ret_b or disc:
            lines.append(
                f"tail retention: {ret_i} interesting + {ret_b} sampled "
                f"kept, {disc} discarded, {idrop} interesting dropped")
        lines.append("provenance rollup (origin RIP, kind; merged):")
        lines.append(
            f"  {'origin':>14s} {'kind':<7s} {'form':<10s} "
            f"{'origins':>8s} {'props':>6s} {'sinks':>6s}")
        for rip, kind, mnemonic, origins, props, sinks in provenance[:20]:
            lines.append(
                f"  0x{rip:>12x} {kind:<7s} {mnemonic:<10s} "
                f"{origins:>8d} {props:>6d} {sinks:>6d}")
    if failed:
        lines.append("")
        lines.append(f"FAILED runs ({len(failed)}):")
        for o in failed:
            lines.append(f"  {o.index:>4d}  {o.label}: {o.error}")
    return "\n".join(lines) + "\n"
