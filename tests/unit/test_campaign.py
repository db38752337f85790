"""Unit and integration tests for the parallel campaign runner."""

import json
import os

import pytest

from repro.campaign import (
    CampaignSpec,
    ResultAccumulator,
    RunSpec,
    build_campaign,
    execute_run,
    merge_outcomes,
    run_campaign,
    smoke_campaign,
    write_json_atomic,
    write_text_atomic,
)
from repro.campaign.runner import MAX_ATTEMPTS

#: One tiny, fast, event-rich campaign for the multiprocessing tests.
TINY = CampaignSpec(
    name="tiny",
    runs=(
        RunSpec(app="Miniaero", mode="aggregate", scale=0.1),
        RunSpec(app="Miniaero", mode="filtered", scale=0.1),
        RunSpec(app="WRF", mode="sampled", scale=0.1),
    ),
)


# ----------------------------------------------------------------- spec

def test_spec_json_round_trip():
    campaign = smoke_campaign()
    again = CampaignSpec.from_json(campaign.to_json())
    assert again == campaign
    assert again.spec_hash == campaign.spec_hash


def test_spec_hash_tracks_content():
    a = smoke_campaign()
    b = smoke_campaign(seed=999)
    assert a.spec_hash != b.spec_hash
    assert a.with_overrides(seed=999).spec_hash == b.spec_hash
    assert a.with_overrides() is a


def test_spec_hash_is_computed_once(tmp_path, monkeypatch):
    """The hash is the sha256 of the spec JSON, cached on the frozen
    spec: an in-process campaign's status writes serialize it once."""
    import hashlib

    calls = []
    to_json = CampaignSpec.to_json

    def counting(self):
        calls.append(self.name)
        return to_json(self)

    monkeypatch.setattr(CampaignSpec, "to_json", counting)
    fresh = CampaignSpec.from_json(to_json(TINY))
    first = fresh.spec_hash
    assert first == hashlib.sha256(to_json(TINY).encode()).hexdigest()[:12]
    assert fresh.spec_hash is first
    assert calls == ["tiny"]

    calls.clear()
    campaign = CampaignSpec.from_json(to_json(TINY))
    run_campaign(campaign, workers=1, out_dir=tmp_path / "out",
                 execution="inprocess")
    status = json.loads((tmp_path / "out" / "status.json").read_text())
    assert status["spec_hash"] == fresh.spec_hash
    assert calls == ["tiny"]


def test_build_campaign_resolves_builtins_files_and_rejects_junk(tmp_path):
    assert build_campaign("smoke").name == "smoke"
    assert build_campaign("smoke", scale=0.5).runs[0].scale == 0.5
    path = tmp_path / "mine.json"
    path.write_text(TINY.to_json())
    assert build_campaign(os.fspath(path)) == TINY
    with pytest.raises(ValueError, match="unknown campaign spec"):
        build_campaign("no-such-campaign")


#: One valid spec-file run; the cases below each break one rule.
_RUN = {"app": "Miniaero", "mode": "aggregate", "scale": 0.1}


@pytest.mark.parametrize("run, expected", [
    ({"app": "WRF"}, RunSpec(app="WRF")),
    (dict(_RUN, scale=2), RunSpec(app="Miniaero", scale=2)),
    (dict(_RUN, seed=7, tracing=True, telemetry=False, variant="x"),
     RunSpec(app="Miniaero", scale=0.1, seed=7, tracing=True, variant="x")),
], ids=repr)
def test_spec_file_accepts_valid_runs(run, expected):
    spec = CampaignSpec.from_json(json.dumps({"name": "x", "runs": [run]}))
    assert spec == CampaignSpec(name="x", runs=(expected,))


def test_build_campaign_accepts_valid_overrides():
    assert build_campaign("smoke", scale=0.2, seed=5, telemetry=True) == (
        smoke_campaign(scale=0.2, seed=5).with_overrides(telemetry=True))


_BAD_VALUES = [
    {"scale": -1}, {"scale": 0}, {"scale": float("nan")},
    {"scale": float("inf")}, {"scale": "abc"}, {"scale": True},
    {"seed": 1.5}, {"seed": True}, {"telemetry": "yes"}, {"tracing": 1},
]


@pytest.mark.parametrize("overrides", _BAD_VALUES, ids=repr)
def test_build_campaign_rejects_invalid_overrides(overrides):
    with pytest.raises(ValueError, match="overrides: invalid"):
        build_campaign("smoke", **overrides)


@pytest.mark.parametrize("spec", [
    *({"name": "x", "runs": [dict(_RUN, **bad)]} for bad in _BAD_VALUES),
    {"name": "x", "runs": [dict(_RUN, app="NotAnApp")]},
    {"name": "x", "runs": [dict(_RUN, mode="bogus")]},
    {"name": "x", "runs": [dict(_RUN, extra=1)]},
    {"name": "x", "runs": [{"mode": "aggregate"}]},
    {"name": "x", "runs": [5]},
    {"name": "x", "runs": ["Miniaero"]},
    {"name": "x", "runs": []},
    {"name": "x", "runs": _RUN},
    {"name": "x"},
    {"name": "x", "runs": [_RUN], "extra": 1},
    {"name": 1, "runs": [_RUN]},
    [_RUN],
    '{"name": "x", "runs": [{"app": "Mini',
], ids=repr)
def test_cli_campaign_run_rejects_malformed_spec_file(tmp_path, capsys, spec):
    """A spec file is outside input: each malformed one exits 2 naming
    the file, before anything is written under ``--out``."""
    from repro.study.cli import main

    path = tmp_path / "bad.json"
    path.write_text(spec if isinstance(spec, str) else json.dumps(spec))
    out = tmp_path / "out"
    rc = main(["campaign", "run", "--spec", os.fspath(path),
               "--out", os.fspath(out)])
    assert rc == 2
    assert os.fspath(path) in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("scale", ["-1", "0", "nan"])
def test_cli_campaign_run_rejects_invalid_scale_override(
        tmp_path, capsys, scale):
    from repro.study.cli import main

    out = tmp_path / "out"
    rc = main(["campaign", "run", "--spec", "smoke", "--scale", scale,
               "--out", os.fspath(out)])
    assert rc == 2
    assert "overrides: invalid scale" in capsys.readouterr().err
    assert not out.exists()


def test_run_label():
    spec = RunSpec(app="WRF", mode="sampled", scale=0.25, seed=7)
    assert spec.label == "WRF/sampled@0.25#7"


# ------------------------------------------------------- execute & merge

def test_execute_run_rejects_unknown_app_and_mode():
    with pytest.raises(ValueError, match="unknown campaign target"):
        execute_run(0, RunSpec(app="NotAnApp"))
    with pytest.raises(ValueError, match="unknown campaign pass"):
        execute_run(0, RunSpec(app="Miniaero", mode="turbo"))


def test_accumulator_rejects_duplicates_and_strays():
    acc = ResultAccumulator(TINY)
    out = execute_run(0, TINY.runs[0])
    acc.add(out)
    with pytest.raises(ValueError, match="duplicate"):
        acc.add(out)
    stray = execute_run(0, TINY.runs[0])
    stray.index = 99
    with pytest.raises(ValueError, match="out of range"):
        acc.add(stray)
    with pytest.raises(ValueError, match="incomplete"):
        acc.merge()


def test_merge_keeps_host_data_out_of_deterministic_section():
    outcomes = [execute_run(i, spec) for i, spec in enumerate(TINY.runs)]
    result = merge_outcomes(TINY, outcomes, host={"workers": 3})
    blob = json.dumps(result.deterministic)
    assert "host_seconds" not in blob
    assert "attempts" not in blob
    assert result.host["workers"] == 3
    assert result.host["attempts"] == [1, 1, 1]
    assert len(result.host["run_host_seconds"]) == 3
    assert result.deterministic["spec_hash"] == TINY.spec_hash
    assert result.report_text.startswith("== campaign tiny ==")


# ------------------------------------------------- multiprocessing runs

def test_parallel_report_matches_serial_and_artifacts(tmp_path):
    serial = run_campaign(TINY, workers=1)
    out = tmp_path / "artifacts"
    out.mkdir()
    # Force pool mode: on small hosts the planner would (correctly)
    # degrade to in-process, but this test exists to exercise the real
    # multiprocessing path.
    parallel = run_campaign(TINY, workers=2, out_dir=out, execution="pool")
    assert not serial.failed and not parallel.failed
    assert parallel.report_text == serial.report_text
    assert parallel.to_dict()["deterministic"] == (
        serial.to_dict()["deterministic"])
    assert (out / "campaign_report.txt").read_text() == parallel.report_text
    status = json.loads((out / "status.json").read_text())
    assert status["state"] == "done"
    assert status["done"] == len(TINY.runs)
    result = json.loads((out / "campaign.json").read_text())
    assert result["deterministic"]["campaign"] == "tiny"
    # The worker-count half of the determinism contract.
    for workers in (1, 3):
        pooled = run_campaign(TINY, workers=workers, execution="pool")
        assert pooled.report_text == serial.report_text


def test_poisoned_spec_retried_once_then_failed_structured(tmp_path):
    poisoned = CampaignSpec(
        name="poisoned",
        runs=(
            RunSpec(app="Miniaero", mode="aggregate", scale=0.1),
            RunSpec(app="NotAnApp"),
        ),
    )
    result = run_campaign(
        poisoned, workers=2, out_dir=tmp_path, execution="pool")
    good, bad = result.outcomes
    assert good.status == "ok" and good.attempts == 1
    assert bad.status == "failed"
    # Exactly one retry on a fresh worker: two attempts total.
    assert bad.attempts == MAX_ATTEMPTS == 2
    assert "unknown campaign target" in bad.error
    assert result.host["retries"] == 1
    # The healthy run's data survives in the same report.
    assert "FAILED runs (1):" in result.report_text
    assert f"1  {bad.label}" in result.report_text
    status = json.loads((tmp_path / "status.json").read_text())
    assert status["failed"] == [1]
    assert status["retries"] == 1


def test_repeat_inprocess_campaign_is_byte_identical():
    """The second in-process run meets every softfloat cache already
    filled by the first; the caches must be architecturally invisible."""
    first = run_campaign(TINY, workers=1)
    second = run_campaign(TINY, workers=1)
    assert first.host["plan"]["mode"] == "inprocess"
    assert second.report_text == first.report_text
    assert [o.cycles for o in second.outcomes] == [
        o.cycles for o in first.outcomes]
    assert "memo" not in first.host


def test_campaign_telemetry_merged_into_host_section():
    campaign = CampaignSpec(
        name="telem",
        runs=tuple(
            RunSpec(app="Miniaero", mode=m, scale=0.1, telemetry=True)
            for m in ("aggregate", "filtered")
        ),
    )
    result = run_campaign(campaign, workers=2)
    merged = result.host["telemetry"]
    per_run = [o.telemetry for o in result.outcomes]
    assert merged["cycles"] == sum(t["cycles"] for t in per_run)
    assert "telemetry" not in json.dumps(result.deterministic)


def test_telemetry_smoke_campaign_sums_storm_counts():
    """Storm batches are counts: the merged snapshot sums every run's,
    where a gauge would keep only the last run's (8: WRF's sampled run
    batches only the groups its timer expiries fall in).  Per-process
    keys merge by kind too."""
    result = run_campaign(build_campaign("smoke", telemetry=True), workers=1)
    per_run = [o.telemetry["scopes"] for o in result.outcomes]
    merged = result.host["telemetry"]["scopes"]
    for key in ("storm.batches", "storm.groups"):
        assert merged["cpu"][key] == sum(
            s["cpu"]["counts"][key] for s in per_run), key
    assert merged["cpu"]["storm.batches"] == 116
    assert per_run[-1]["cpu"]["counts"]["storm.batches"] == 8
    counts = [s["fpspy"]["counts"] for s in per_run]
    levels = [s["fpspy"]["gauges"] for s in per_run]
    assert merged["fpspy"]["proc.1000.observed"] == sum(
        c["proc.1000.observed"] for c in counts) > 0
    assert merged["fpspy"]["proc.1000.individual"] == \
        levels[-1]["proc.1000.individual"]


# ------------------------------------------------------------ artifacts

def test_atomic_writers_replace_not_append(tmp_path):
    path = tmp_path / "x.json"
    write_json_atomic(path, {"v": 1})
    write_json_atomic(path, {"v": 2})
    assert json.loads(path.read_text()) == {"v": 2}
    assert path.read_text().endswith("\n")
    assert list(tmp_path.iterdir()) == [path]  # no temp droppings

    write_text_atomic(tmp_path / "r.txt", "hello\n")
    assert (tmp_path / "r.txt").read_text() == "hello\n"


def test_atomic_write_failure_leaves_no_temp_file(tmp_path):
    class Unserializable:
        pass

    with pytest.raises(TypeError):
        write_json_atomic(tmp_path / "x.json", {"v": Unserializable()})
    assert list(tmp_path.iterdir()) == []


# ------------------------------------------------------------------ CLI

def test_cli_campaign_run_and_status(tmp_path, capsys):
    from repro.study.cli import main

    spec = tmp_path / "tiny.json"
    spec.write_text(TINY.to_json())
    out = tmp_path / "artifacts"
    rc = main([
        "campaign", "run", "--spec", os.fspath(spec),
        "--workers", "2", "--out", os.fspath(out),
    ])
    assert rc == 0
    text = capsys.readouterr().out
    assert "== campaign tiny ==" in text
    assert (out / "campaign_report.txt").exists()

    rc = main(["campaign", "status", "--out", os.fspath(out)])
    assert rc == 0
    status_out = capsys.readouterr().out
    assert "campaign tiny" in status_out and "done" in status_out


def test_cli_campaign_rejects_unknown_spec(capsys):
    from repro.study.cli import main

    rc = main(["campaign", "run", "--spec", "bogus"])
    assert rc == 2
    assert "unknown campaign spec" in capsys.readouterr().err
