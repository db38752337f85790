"""Figure generation, the static report, and regression diffing.

:func:`generate_figures` runs every selected registered generator over
an :class:`AnalyticsContext`, atomically writing per figure a
companion CSV (``<name>.csv``), a Vega-Lite spec (``<name>.vl.json``),
plus one ``figures_manifest.json`` and a self-contained
``index.html``.  A generator returning ``None`` is recorded as skipped
with its reason -- never an error -- so the same registry serves a
four-run smoke campaign and the full figure campaign.

:func:`diff_figures` is the CI gate: it compares a fresh output
directory against a committed baseline *by figure data* (the CSVs),
cell-by-cell, applying each figure's declared relative tolerance to
numeric cells and exact comparison to everything else.  Figures
registered ``diffable=False`` (the BENCH perf trajectory) are
excluded.  Any drift -- changed values, changed shape, or a figure
flipping between generated and skipped -- is reported and fails the
gate.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

from repro.analytics.frames import Figure
from repro.analytics.registry import FigureDef, all_figures
from repro.analytics.sources import (
    BenchRecord,
    CampaignData,
    load_bench_history,
    load_campaigns,
)
from repro.analytics.vega import html_index, spec_json_bytes
from repro.campaign.artifacts import write_bytes_atomic, write_json_atomic

MANIFEST_NAME = "figures_manifest.json"
INDEX_NAME = "index.html"


@dataclass
class AnalyticsContext:
    """Everything figure generators may read."""

    campaigns: list[CampaignData] = field(default_factory=list)
    bench: list[BenchRecord] = field(default_factory=list)

    @property
    def campaign(self) -> CampaignData | None:
        """The primary campaign (paper-group input): first loaded."""
        return self.campaigns[0] if self.campaigns else None


def build_context(campaign_dirs=(), bench_paths=()) -> AnalyticsContext:
    return AnalyticsContext(
        campaigns=load_campaigns(campaign_dirs),
        bench=load_bench_history(bench_paths),
    )


def generate_figures(
    out_dir: str | os.PathLike,
    ctx: AnalyticsContext,
    group: str | None = None,
    names: list | None = None,
    title: str = "FPSpy reproduction: analytics report",
) -> dict:
    """Generate selected figures into ``out_dir``; returns the manifest."""
    out_dir = os.fspath(out_dir)
    os.makedirs(out_dir, exist_ok=True)
    entries = []
    manifest: dict = {"figures": {}}
    for fdef in all_figures(group=group, names=names):
        fig = fdef.fn(ctx)
        if fig is None:
            reason = _skip_reason(fdef, ctx)
            manifest["figures"][fdef.name] = {
                "group": fdef.group, "title": fdef.title,
                "status": "skipped", "reason": reason,
                "diffable": fdef.diffable, "tolerance": fdef.tolerance,
            }
            entries.append({
                "name": fdef.name, "group": fdef.group,
                "title": fdef.title, "skipped": reason})
            continue
        assert isinstance(fig, Figure), fdef.name
        csv_name = f"{fdef.name}.csv"
        spec_name = f"{fdef.name}.vl.json"
        write_bytes_atomic(
            os.path.join(out_dir, csv_name), fig.frame.to_csv_bytes())
        write_bytes_atomic(
            os.path.join(out_dir, spec_name), spec_json_bytes(fig.spec))
        manifest["figures"][fdef.name] = {
            "group": fdef.group, "title": fdef.title,
            "status": "generated", "rows": len(fig.frame),
            "columns": list(fig.frame.columns),
            "csv": csv_name, "spec": spec_name,
            "diffable": fdef.diffable, "tolerance": fdef.tolerance,
        }
        entries.append({
            "name": fdef.name, "group": fdef.group, "title": fdef.title,
            "spec": fig.spec})
    write_json_atomic(os.path.join(out_dir, MANIFEST_NAME), manifest)
    write_bytes_atomic(
        os.path.join(out_dir, INDEX_NAME),
        html_index(entries, title).encode("utf-8"))
    return manifest


def _skip_reason(fdef: FigureDef, ctx: AnalyticsContext) -> str:
    if fdef.group == "paper" and ctx.campaign is None:
        return "no campaign directory loaded"
    if fdef.group == "fleet" and not ctx.campaigns:
        return "no campaign directories loaded"
    if fdef.group == "trajectory" and not ctx.bench:
        return "no BENCH_*.json history loaded"
    return "required inputs absent from the loaded artifacts"


# ------------------------------------------------------------------ diff


def diff_figures(
    baseline_dir: str | os.PathLike,
    new_dir: str | os.PathLike,
    group: str | None = None,
    names: list | None = None,
) -> list[str]:
    """Drift messages comparing ``new_dir`` against ``baseline_dir``.

    Empty list means the gate passes.  Only registered,
    ``diffable=True`` figures participate; a figure absent from both
    manifests (e.g. filtered out at generate time) is ignored.
    """
    base_manifest = _load_manifest(baseline_dir)
    new_manifest = _load_manifest(new_dir)
    drift: list[str] = []
    for fdef in all_figures(group=group, names=names):
        if not fdef.diffable:
            continue
        base = base_manifest.get(fdef.name)
        new = new_manifest.get(fdef.name)
        if base is None and new is None:
            continue
        if base is None or new is None:
            side = "baseline" if base is None else "new output"
            drift.append(f"{fdef.name}: missing from {side} manifest")
            continue
        if base["status"] != new["status"]:
            drift.append(
                f"{fdef.name}: status {base['status']} -> {new['status']}")
            continue
        if base["status"] != "generated":
            continue
        drift.extend(
            _diff_csv(
                fdef,
                os.path.join(os.fspath(baseline_dir), base["csv"]),
                os.path.join(os.fspath(new_dir), new["csv"])))
    return drift


def _load_manifest(out_dir) -> dict:
    path = os.path.join(os.fspath(out_dir), MANIFEST_NAME)
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh).get("figures", {})
    except OSError:
        raise FileNotFoundError(
            f"no {MANIFEST_NAME} in {out_dir!r}; run "
            "`repro.study figures generate` first") from None


def _diff_csv(fdef: FigureDef, base_path: str, new_path: str) -> list[str]:
    base_rows = _read_csv(base_path)
    new_rows = _read_csv(new_path)
    if base_rows[0] != new_rows[0]:
        return [f"{fdef.name}: columns {base_rows[0]} -> {new_rows[0]}"]
    if len(base_rows) != len(new_rows):
        return [f"{fdef.name}: rows {len(base_rows) - 1} -> "
                f"{len(new_rows) - 1}"]
    drift = []
    header = base_rows[0]
    for i, (brow, nrow) in enumerate(zip(base_rows[1:], new_rows[1:])):
        for col, bcell, ncell in zip(header, brow, nrow):
            if bcell == ncell:
                continue
            if not _within_tolerance(bcell, ncell, fdef.tolerance):
                drift.append(
                    f"{fdef.name}: row {i} col {col}: "
                    f"{bcell!r} -> {ncell!r} "
                    f"(tolerance {fdef.tolerance:g})")
                if len(drift) >= 5:
                    drift.append(f"{fdef.name}: ... (truncated)")
                    return drift
    return drift


def _within_tolerance(bcell: str, ncell: str, tolerance: float) -> bool:
    try:
        b, n = float(bcell), float(ncell)
    except ValueError:
        return False  # non-numeric cells must match exactly
    if b == n:
        return True
    if tolerance <= 0.0:
        return False
    scale = max(abs(b), abs(n))
    return abs(b - n) <= tolerance * scale


def _read_csv(path: str) -> list[list[str]]:
    import csv

    with open(path, newline="", encoding="utf-8") as fh:
        return [row for row in csv.reader(fh)]
