"""Process pool and execution planner tests.

The multiprocessing tests force ``execution="pool"``: on a small CI
host the planner would (correctly) pick in-process mode, and these
tests exist precisely to exercise the real pool path -- shutdown with
no surviving children, retry of a raising run, and recovery from a
worker killed mid-run.
"""

import json
import multiprocessing
import os
import signal
import threading
import time

import pytest

from repro.campaign import (
    CampaignSpec,
    RunSpec,
    plan_execution,
    run_campaign,
)
from repro.campaign.planner import SPAWN_SECONDS
from repro.campaign.runner import MAX_ATTEMPTS

TINY = CampaignSpec(
    name="tiny",
    runs=(
        RunSpec(app="Miniaero", mode="aggregate", scale=0.1),
        RunSpec(app="Miniaero", mode="filtered", scale=0.1),
        RunSpec(app="WRF", mode="sampled", scale=0.1),
    ),
)


# -------------------------------------------------------------- planner

def test_plan_forced_modes_and_degenerate_campaigns():
    assert plan_execution(TINY, workers=4, mode="pool").mode == "pool"
    assert plan_execution(TINY, workers=4, mode="inprocess").mode == (
        "inprocess")
    with pytest.raises(ValueError, match="unknown execution mode"):
        plan_execution(TINY, mode="turbo")

    empty = CampaignSpec(name="empty", runs=())
    assert plan_execution(empty, workers=8, cpu_count=8).mode == "inprocess"
    assert plan_execution(TINY, workers=1, cpu_count=8).mode == "inprocess"


def test_plan_degrades_on_single_cpu_host():
    plan = plan_execution(TINY, workers=4, cpu_count=1)
    assert plan.mode == "inprocess"
    assert "1 cpu" in plan.reason


def test_plan_weighs_standing_cost_against_parallel_win():
    # Tiny campaign on a big host: the spawn tax swamps the win.
    small = plan_execution(TINY, workers=4, cpu_count=8)
    assert small.mode == "inprocess"
    assert "cannot amortize" in small.reason

    # A campaign whose divisible work clearly clears the spawn cost.
    big = CampaignSpec(
        name="big",
        runs=tuple(
            RunSpec(app="Miniaero", mode="aggregate", scale=4.0)
            for _ in range(64)),
    )
    plan = plan_execution(big, workers=4, cpu_count=8)
    assert plan.mode == "pool"
    assert plan.est_total_seconds > 4 * SPAWN_SECONDS


# ------------------------------------------------------------- pool

def _child_pids() -> set[int]:
    return {p.pid for p in multiprocessing.active_children()}


def test_owned_pool_closed_after_campaign():
    before = _child_pids()
    pooled = run_campaign(TINY, workers=2, execution="pool")
    assert pooled.host["spawned_workers"] == 2
    # The runner shuts its executor down: no worker outlives the call.
    assert _child_pids() <= before
    inproc = run_campaign(TINY, workers=1)
    assert pooled.report_text == inproc.report_text


def test_raising_run_retried_in_pool_then_failed(tmp_path):
    """A run that raises is charged one attempt per try and fails
    structured at ``MAX_ATTEMPTS``; its neighbours run once."""
    poisoned = CampaignSpec(
        name="poisoned",
        runs=(
            RunSpec(app="Miniaero", mode="aggregate", scale=0.1),
            RunSpec(app="NotAnApp"),  # raises in the worker
            RunSpec(app="WRF", mode="sampled", scale=0.1),
        ),
    )
    result = run_campaign(
        poisoned, workers=1, out_dir=tmp_path, execution="pool")
    first, bad, last = result.outcomes
    assert first.status == "ok" and first.attempts == 1
    assert bad.status == "failed"
    assert bad.attempts == MAX_ATTEMPTS  # first try + one retry, then fail
    assert "unknown campaign target" in bad.error
    assert last.status == "ok" and last.attempts == 1
    # A raising run leaves its worker alive: one executor, one spawn.
    assert result.host["spawned_workers"] == 1
    assert result.host["retries"] == MAX_ATTEMPTS - 1
    pool_tel = result.host["telemetry"]["scopes"]["campaign.pool"]
    assert pool_tel["run_retries"] == MAX_ATTEMPTS - 1
    assert pool_tel["pool_rebuilds"] == 0


#: A run slow enough (~1 s) that a kill aimed at it lands mid-run.
SLOW_RUN = RunSpec(app="LAGHOS", mode="aggregate", scale=3.0)


def test_worker_sigkilled_mid_run_rebuilds_pool(tmp_path):
    """A worker killed while a run executes breaks the executor: every
    run in flight is charged one attempt and requeued on a fresh
    executor, and the merged report still matches an undisturbed run."""
    spec = CampaignSpec(
        name="killed",
        runs=(TINY.runs[0], SLOW_RUN, TINY.runs[2]),
    )
    before = _child_pids()
    box = {}
    runner = threading.Thread(target=lambda: box.update(result=run_campaign(
        spec, workers=1, out_dir=tmp_path, execution="pool")))
    runner.start()
    # Run 0 reporting back means the worker has moved on to the slow
    # run 1, with run 2 queued behind it (workers + 1 in flight).
    status = tmp_path / "status.json"
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        try:
            if json.loads(status.read_text())["done"] >= 1:
                break
        except (OSError, ValueError):
            pass
        time.sleep(0.01)
    else:
        pytest.fail("run 0 never reported back")
    time.sleep(0.1)  # let the coordinator submit run 2 behind run 1
    (victim,) = _child_pids() - before
    os.kill(victim, signal.SIGKILL)
    runner.join(timeout=120)
    assert not runner.is_alive()
    result = box["result"]

    assert [o.status for o in result.outcomes] == ["ok"] * 3
    assert [o.attempts for o in result.outcomes] == [1, 2, 2]
    pool_tel = result.host["telemetry"]["scopes"]["campaign.pool"]
    assert pool_tel["pool_rebuilds"] == 1
    assert result.host["spawned_workers"] == 2
    assert _child_pids() <= before
    undisturbed = run_campaign(spec, workers=1, execution="inprocess")
    assert result.report_text == undisturbed.report_text


def test_pool_mode_emits_dispatch_telemetry():
    result = run_campaign(TINY, workers=2, execution="pool")
    tel = result.host["telemetry"]["scopes"]["campaign.pool"]
    assert tel["runs_dispatched"] == len(TINY.runs)
    assert tel["run_retries"] == tel["pool_rebuilds"] == 0


def test_inprocess_mode_emits_run_counter():
    result = run_campaign(TINY, workers=1)
    tel = result.host["telemetry"]["scopes"]["campaign.pool"]
    assert tel["inprocess_runs"] == len(TINY.runs)


def test_trace_artifacts_written_by_workers_not_queued(tmp_path):
    traced = CampaignSpec(
        name="traced",
        runs=(
            RunSpec(app="Miniaero", mode="aggregate", scale=0.1,
                    tracing=True),
        ),
    )
    result = run_campaign(
        traced, workers=1, out_dir=tmp_path, execution="pool")
    outcome = result.outcomes[0]
    assert outcome.status == "ok"
    name, size, digest = outcome.trace_artifact
    path = tmp_path / "traces" / name
    assert path.exists() and path.stat().st_size == size
    # The packed spans are the run's only trace artifact.
    assert os.listdir(tmp_path / "traces") == [name]
    import hashlib

    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
    # The digest triple rides the host section; report bytes must not
    # depend on whether an out_dir existed.
    bare = run_campaign(traced, workers=1)
    assert bare.report_text == result.report_text
    assert result.host["trace_artifacts"]["0"] == [name, size, digest]
