"""The shared ``BENCH_*.json`` envelope schema, enforced.

Every benchmark publishes through ``benchmarks/conftest.write_results``
which wraps metrics in :func:`repro.analytics.sources.bench_envelope`;
these tests pin the envelope rules (name, timestamp, gates, metrics)
and verify every artifact committed at the repo root obeys them -- so
the trajectory dashboard, the gate-band figure, and CI tooling never
need per-benchmark parsing cases.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analytics.sources import (
    BENCH_SCHEMA_KEYS,
    BenchRecord,
    bench_envelope,
    load_bench_history,
    validate_bench_envelope,
)

ROOT = Path(__file__).resolve().parent.parent.parent

COMMITTED = sorted(
    p for p in ROOT.glob("BENCH_*.json")
    if not p.name.endswith(".trace.json"))


def test_repo_root_has_bench_artifacts():
    assert COMMITTED, "no BENCH_*.json artifacts at the repo root"


@pytest.mark.parametrize("path", COMMITTED, ids=lambda p: p.name)
def test_committed_artifact_matches_schema(path):
    payload = json.loads(path.read_text())
    problems = validate_bench_envelope(payload)
    assert not problems, f"{path.name}: {problems}"


@pytest.mark.parametrize("path", COMMITTED, ids=lambda p: p.name)
def test_committed_artifact_name_matches_filename(path):
    payload = json.loads(path.read_text())
    assert payload["name"] == path.stem[len("BENCH_"):]


def test_envelope_builder_is_valid():
    env = bench_envelope(
        "demo", {"speedup": 4.2, "cycles": 100},
        gates={"speedup": {"min": 3.0}})
    assert tuple(env) == BENCH_SCHEMA_KEYS
    assert validate_bench_envelope(env) == []


def test_envelope_rejects_malformed_payloads():
    assert validate_bench_envelope([]) != []
    assert any("missing key" in p for p in validate_bench_envelope({}))
    # Gate naming a metric that does not exist.
    bad = bench_envelope("x", {"a": 1}, gates={"b": {"max": 2}})
    assert any("no matching metric" in p
               for p in validate_bench_envelope(bad))
    # Gate band with an unknown bound kind.
    bad = bench_envelope("x", {"a": 1}, gates={"a": {"limit": 2}})
    assert any("must be" in p for p in validate_bench_envelope(bad))
    # Non-ISO timestamp.
    bad = bench_envelope("x", {"a": 1}, timestamp="yesterday")
    assert any("ISO-8601" in p for p in validate_bench_envelope(bad))
    # Extra top-level keys (legacy flat artifacts fail the schema).
    assert any("unexpected" in p for p in validate_bench_envelope(
        {"name": "x", "timestamp": "2026-01-01T00:00:00+00:00",
         "gates": {}, "metrics": {"a": 1}, "speedup": 2.0}))


def test_envelope_unchecked_is_optional_and_omitted_when_empty():
    plain = bench_envelope("x", {"a": 1}, timestamp="2026-01-01")
    assert bench_envelope("x", {"a": 1}, timestamp="2026-01-01",
                          unchecked=[]) == plain
    assert "unchecked" not in plain
    env = bench_envelope("x", {"a": 1, "b": 2}, gates={"a": {"min": 0.5}},
                         unchecked=["b"])
    assert env["unchecked"] == ["b"]
    assert validate_bench_envelope(env) == []


def test_envelope_rejects_malformed_unchecked():
    base = bench_envelope("x", {"a": 1}, timestamp="2026-01-01")
    for bad in (["missing"], "a", [], [1], {"a": True}):
        payload = dict(base, unchecked=bad)
        assert any("unchecked" in p
                   for p in validate_bench_envelope(payload)), bad


def test_history_loader_reads_envelope_and_legacy(tmp_path):
    (tmp_path / "BENCH_new.json").write_text(json.dumps(
        bench_envelope("new", {"v": 1.5}, gates={"v": {"max": 2.0}},
                       timestamp="2026-02-03T04:05:06+00:00")))
    (tmp_path / "BENCH_old.json").write_text(json.dumps({"v": 2.5}))
    (tmp_path / "BENCH_old.trace.json").write_text("[]")  # sidecar: skipped
    records = load_bench_history([tmp_path])
    assert [r.name for r in records] == ["new", "old"]
    new, old = records
    assert isinstance(new, BenchRecord)
    assert new.gates == {"v": {"max": 2.0}}
    assert new.numeric_metrics() == {"v": 1.5}
    assert old.gates == {} and old.timestamp == ""
    assert old.numeric_metrics() == {"v": 2.5}
