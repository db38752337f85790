"""The paper figure group over a real ``figures`` campaign.

The ``figures`` builtin campaign runs in-process at scale 0.3; these
tests regenerate the registry's paper group from its ``campaign.json``,
check that a fresh generation diffs clean against itself, and drive the
``figures generate``/``figures diff`` command line round trip,
including a deliberately drifted cell the gate must catch.
"""

from __future__ import annotations

import pytest

from repro.analytics import build_context, diff_figures, generate_figures
from repro.study.report import figures_context

SCALE = 0.3
SEED = 1234


@pytest.fixture(scope="module")
def campaign_dir(tmp_path_factory):
    """The figures campaign run in-process, artifacts on disk."""
    out = tmp_path_factory.mktemp("figcamp")
    figures_context(SCALE, SEED, out)
    return out


@pytest.fixture(scope="module")
def ctx(campaign_dir):
    return build_context(campaign_dirs=[campaign_dir])


def test_full_campaign_regenerates_enough_paper_figures(ctx, tmp_path):
    manifest = generate_figures(tmp_path / "figs", ctx, group="paper")
    generated = [
        name for name, entry in manifest["figures"].items()
        if entry["status"] == "generated"]
    assert len(generated) >= 6, generated
    # And the acceptance loop closes: a fresh generation diffs clean
    # against itself via the same machinery the CI gate runs.
    generate_figures(tmp_path / "figs2", ctx, group="paper")
    assert diff_figures(tmp_path / "figs", tmp_path / "figs2") == []


def test_cli_round_trip_generate_then_diff(campaign_dir, tmp_path, capsys):
    from repro.study.cli import main

    out = tmp_path / "cli-figs"
    rc = main(["figures", "generate", "--campaign", str(campaign_dir),
               "--out", str(out), "--group", "paper"])
    assert rc == 0
    assert (out / "index.html").exists()
    rc = main(["figures", "diff", "--baseline", str(out),
               "--new", str(out), "--group", "paper"])
    assert rc == 0
    # Corrupt one data cell: the gate must fail loudly.
    csv_path = out / "fig15_inexact_counts.csv"
    text = csv_path.read_text().splitlines()
    head, first = text[0], text[1].split(",")
    first[1] = str(int(first[1]) + 1)
    drifted = tmp_path / "drifted"
    drifted.mkdir()
    for p in out.iterdir():
        (drifted / p.name).write_bytes(p.read_bytes())
    (drifted / "fig15_inexact_counts.csv").write_text(
        "\n".join([head, ",".join(first)] + text[2:]) + "\n")
    capsys.readouterr()
    rc = main(["figures", "diff", "--baseline", str(out),
               "--new", str(drifted), "--group", "paper"])
    assert rc == 1
    assert "fig15_inexact_counts" in capsys.readouterr().err
