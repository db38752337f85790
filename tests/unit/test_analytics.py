"""Units for the analytics engine: frames, registry, sources, diff."""

from __future__ import annotations

import json

import pytest

from repro.analytics import (
    GROUPS,
    all_figures,
    build_context,
    diff_figures,
    generate_figures,
)
from repro.analytics.frames import Frame
from repro.analytics.generate import MANIFEST_NAME, _within_tolerance
from repro.analytics.registry import REGISTRY, register_figure
from repro.analytics.sources import CampaignData
from repro.analytics.vega import bar, html_index

# ------------------------------------------------------------------ Frame


def test_frame_csv_bytes_are_deterministic_and_quoted():
    f = Frame(columns=("name", "value", "flag", "note"))
    f.append(name="plain", value=1.5, flag=True, note=None)
    f.append(name='quote "x", comma', value=2, flag=False, note="multi\nline")
    csv1 = f.to_csv_bytes()
    csv2 = f.to_csv_bytes()
    assert csv1 == csv2
    assert csv1.decode() == (
        "name,value,flag,note\n"
        "plain,1.5,true,\n"
        '"quote ""x"", comma",2,false,"multi\nline"\n')


def test_frame_rejects_unknown_columns():
    f = Frame(columns=("a",))
    with pytest.raises(ValueError):
        f.append(a=1, b=2)
    with pytest.raises(KeyError):
        f.column("b")


def test_frame_float_repr_round_trips():
    f = Frame(columns=("x",))
    value = 0.1 + 0.2  # classic non-representable sum
    f.append(x=value)
    cell = f.to_csv_bytes().decode().split("\n")[1]
    assert float(cell) == value


# --------------------------------------------------------------- registry


def test_registry_covers_all_groups_in_order():
    defs = all_figures()
    assert [d.group for d in defs] == sorted(
        (d.group for d in defs), key=GROUPS.index)
    assert {d.group for d in defs} == set(GROUPS)
    # The paper group spans at least six figures of the 6-19 family.
    paper = [d for d in defs if d.group == "paper"]
    assert len(paper) >= 6


def test_every_paper_figure_has_exactly_one_producer():
    """Figures 6-19 each come from the registry's paper group or from
    the live ``repro.study.figures``, never from both or neither."""
    from repro.study import figures as live

    producers = [d.name for d in all_figures(group="paper")]
    producers += [n for n in dir(live) if n.startswith("fig")]
    for number in range(6, 20):
        ident = f"fig{number:02d}_"
        owners = [n for n in producers if n.startswith(ident)]
        assert len(owners) == 1, (ident, owners)


def test_registry_rejects_duplicates_and_unknown_names():
    with pytest.raises(ValueError):
        register_figure(
            "fig08_source_analysis", group="paper", title="dup")(lambda c: None)
    with pytest.raises(ValueError):
        register_figure("x", group="nope", title="t")(lambda c: None)
    assert "x" not in REGISTRY
    with pytest.raises(ValueError):
        all_figures(names=["no_such_figure"])


# ---------------------------------------------------------------- sources


def test_parse_label_splits_app_and_mode():
    assert CampaignData.parse_label("WRF/sampled@0.3#1234") == (
        "WRF", "sampled")
    assert CampaignData.parse_label("PARSEC 3.0/aggregate@1#7") == (
        "PARSEC 3.0", "aggregate")


def test_campaign_data_loads_minimal_directory(tmp_path):
    (tmp_path / "campaign.json").write_text(json.dumps({
        "deterministic": {
            "campaign": "mini", "spec_hash": "abc",
            "runs": [{"label": "WRF/sampled@1#1", "events": ["Inexact"],
                      "wall_seconds": 0.5}],
            "event_union": ["Inexact"],
        },
        "host": {},
    }))
    camp = CampaignData.load(tmp_path)
    assert camp.name == "mini" and camp.spec_hash == "abc"
    assert camp.apps_by_mode("sampled") == {
        "WRF": [{"label": "WRF/sampled@1#1", "events": ["Inexact"],
                 "wall_seconds": 0.5}]}
    assert camp.runs_by_mode("aggregate") == []
    assert camp.rankpop_inputs() == ()
    assert camp.trace_stats() is None


# ------------------------------------------------------------------- vega


def test_bar_spec_inlines_frame_rows():
    f = Frame(columns=("k", "v"))
    f.append(k="a", v=1)
    spec = bar(f, x="k", y="v", title="t")
    assert spec["data"]["values"] == [{"k": "a", "v": 1}]
    assert spec["mark"] == "bar"
    assert spec["encoding"]["y"]["type"] == "quantitative"


def test_html_index_renders_generated_and_skipped():
    f = Frame(columns=("k",))
    f.append(k="a")
    page = html_index([
        {"name": "one", "group": "paper", "title": "T1",
         "spec": bar(f, x="k", y="k", title="x")},
        {"name": "two", "group": "fleet", "title": "T2",
         "skipped": "no data"},
    ], title="report <&>")
    assert "report &lt;&amp;&gt;" in page
    assert 'id="vis0"' in page
    assert "skipped: no data" in page
    assert "paper figures" in page and "fleet figures" in page


# -------------------------------------------------------- generate / diff


def test_generate_with_empty_context_skips_everything(tmp_path):
    manifest = generate_figures(tmp_path / "out", build_context())
    statuses = {k: v["status"] for k, v in manifest["figures"].items()}
    # Static source analysis needs no artifacts; all else skips.
    assert statuses.pop("fig08_source_analysis") == "generated"
    assert set(statuses.values()) == {"skipped"}
    assert (tmp_path / "out" / MANIFEST_NAME).exists()
    assert (tmp_path / "out" / "index.html").exists()
    # A skip is stable: diff against itself is clean.
    assert diff_figures(tmp_path / "out", tmp_path / "out") == []


def test_diff_requires_generated_manifests(tmp_path):
    with pytest.raises(FileNotFoundError):
        diff_figures(tmp_path, tmp_path)


def test_within_tolerance_rules():
    assert _within_tolerance("1.0", "1.0", 0.0)
    assert not _within_tolerance("1.0", "1.0000001", 0.0)
    assert _within_tolerance("1.0", "1.0000001", 1e-6)
    assert not _within_tolerance("1.0", "1.1", 1e-6)
    assert not _within_tolerance("abc", "abd", 1.0)  # strings: exact only
    assert _within_tolerance("0.0", "0.0", 0.0)


def test_diff_reports_drift_and_status_flips(tmp_path):
    base = tmp_path / "base"
    new = tmp_path / "new"
    (base).mkdir()
    (new).mkdir()
    manifest = {"figures": {"fig08_source_analysis": {
        "group": "paper", "title": "t", "status": "generated",
        "csv": "fig08_source_analysis.csv", "diffable": True,
        "tolerance": 0.0}}}
    for d in (base, new):
        (d / MANIFEST_NAME).write_text(json.dumps(manifest))
    (base / "fig08_source_analysis.csv").write_text("a,b\n1,2\n")
    (new / "fig08_source_analysis.csv").write_text("a,b\n1,3\n")
    drift = diff_figures(base, new)
    assert len(drift) == 1 and "col b" in drift[0]
    # Status flip is drift even with no CSV comparison possible.
    flipped = {"figures": {"fig08_source_analysis": {
        "group": "paper", "title": "t", "status": "skipped",
        "reason": "x", "diffable": True, "tolerance": 0.0}}}
    (new / MANIFEST_NAME).write_text(json.dumps(flipped))
    drift = diff_figures(base, new)
    assert drift == ["fig08_source_analysis: status generated -> skipped"]
