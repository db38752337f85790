"""Shared fixtures for the figure-regeneration benchmarks.

The full four-pass study is expensive (tens of seconds), so it runs once
per session; the per-figure benchmarks then time the trace analysis and
rendering for their figure and assert the paper's qualitative shape.
Benchmarks that need dedicated runs (Figure 6's overhead sweep, Figure
10's per-benchmark runs) use ``benchmark.pedantic`` with a single round.
"""

from pathlib import Path

import pytest

from repro.analytics.sources import bench_envelope
from repro.campaign.artifacts import write_json_atomic
from repro.study.passes import get_study

#: Workload scale for benchmark runs (1.0 = the validated study scale).
BENCH_SCALE = 1.0
BENCH_SEED = 1234

#: Side artifacts (Chrome trace exports, packed span bins) land here,
#: not in the repo root; the directory is gitignored and uploaded
#: wholesale by the trace-gate CI job.
BENCH_ARTIFACTS = Path(__file__).resolve().parent.parent / "bench_artifacts"


def bench_artifact(name: str) -> Path:
    """Path for a benchmark side artifact under ``bench_artifacts/``."""
    BENCH_ARTIFACTS.mkdir(exist_ok=True)
    return BENCH_ARTIFACTS / name


def write_results(
    path, metrics: dict, gates: dict | None = None,
    unchecked: list[str] | None = None,
) -> None:
    """Publish a BENCH_*.json artifact atomically.

    Every benchmark publishes the same envelope -- ``{"name",
    "timestamp", "gates", "metrics"}`` (:func:`bench_envelope`; schema
    enforced by ``tests/unit/test_bench_schema.py``) -- so the
    trajectory dashboard and CI tooling can read any artifact without
    per-benchmark cases.  ``gates`` mirrors the benchmark's own assert
    thresholds as ``{metric: {"max"|"min": bound}}`` bands, and
    ``unchecked`` names the metrics whose host-conditional gate this
    host skipped.

    Benchmarks used to ``write_text`` these directly; an interrupted run
    (Ctrl-C, OOM-killed CI job) could leave a truncated JSON file that a
    later tooling pass would misparse.  ``os.replace`` of a fsynced temp
    file makes the artifact either the old version or the new one.
    """
    path = Path(path)
    name = path.stem
    if name.startswith("BENCH_"):
        name = name[len("BENCH_"):]
    write_json_atomic(path, bench_envelope(
        name, metrics, gates=gates, unchecked=unchecked))


@pytest.fixture(scope="session")
def study():
    return get_study(BENCH_SCALE, BENCH_SEED)
