"""Shared fixtures for the figure-regeneration benchmarks.

The ``figures`` campaign (four passes over nine targets) is expensive
(tens of seconds), so it runs once per session in-process and loads
into an analytics context; the benchmarks for the registry's paper
figures time their generator over it and assert the paper's
qualitative shape on the frame rows.  Figures 12, 13 and 16 read the
live filtered and sampled passes, run once per session for just the
targets they plot.  Benchmarks that need dedicated runs (Figure 6's
overhead sweep, Figure 10's per-benchmark runs) use
``benchmark.pedantic`` with a single round.
"""

import gc
import time
from pathlib import Path

import pytest

from repro.analytics.sources import bench_envelope
from repro.campaign.artifacts import write_json_atomic
from repro.study.figures import FILTERED_TARGETS, SAMPLED_TARGETS
from repro.study.passes import run_pass
from repro.study.report import figures_context

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


def timed_run(kernel):
    """Run ``kernel`` to completion, timed the way every gate times it.

    CPU seconds (``process_time``, not wall) around ``kernel.run()``,
    with GC collected first and disabled during the run (the standard
    ``timeit`` discipline): collection pauses land at arbitrary points
    and are noise for a comparative measurement.  Returns ``(what
    run() returned, seconds)``.
    """
    gc.collect()
    gc.disable()
    try:
        t0 = time.process_time()
        executed = kernel.run()
        elapsed = time.process_time() - t0
    finally:
        gc.enable()
    return executed, elapsed


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


def present_sets(figure, key: str, item: str) -> dict[str, set]:
    """``{key: {item, ...}}`` over the present cells of a T/f figure."""
    out: dict[str, set] = {}
    for row in figure.frame.rows:
        cell = out.setdefault(row[key], set())
        if row["present"]:
            cell.add(row[item])
    return out


def print_frame(figure) -> None:
    print("\n" + figure.frame.to_csv_bytes().decode())


@pytest.fixture(scope="session")
def paper_ctx(tmp_path_factory):
    """The ``figures`` campaign at ``BENCH_SCALE``, loaded for the registry."""
    return figures_context(
        BENCH_SCALE, BENCH_SEED, tmp_path_factory.mktemp("figures"))


@pytest.fixture(scope="session")
def filtered_pass():
    return run_pass("filtered", BENCH_SCALE, BENCH_SEED, only=FILTERED_TARGETS)


@pytest.fixture(scope="session")
def sampled_pass():
    return run_pass("sampled", BENCH_SCALE, BENCH_SEED, only=SAMPLED_TARGETS)
